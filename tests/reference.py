"""Plain references for the library's compact forms, shared by the test
modules.

The library never writes its basis out as an n x n array; these helpers
do, so the tests can check the level-block layout and the rank
certificate against plain dense linear algebra at desk size.  It holds a
spectrum as columns and writes documents a column at a time; the helpers
below build one dict per spectral line instead, sort them with Python's
sort and write them with the json and csv encoders.
"""

import csv
import io
import json
from typing import NamedTuple

import numpy as np

from stratree.decompose import level_spectra
from stratree.eigen import tridiag_eigen
from stratree.glued import glued_stratified_matrix
from stratree.tree import GluedTreeSpec, digits


def dense_rows(vectors):
    """The rows of a ``BlockVectors`` as an n x n array, expanded run by run
    from its ``runs`` and ``entries``."""
    rows = []
    for f, i in vectors.order.tolist():
        values = vectors.entries(f, i)
        for p, s in vectors.pairs(f):
            entry, count = np.array(vectors.runs(f, p, s)).T
            rows.append(values[entry.repeat(count)])
    return np.array(rows)


class RowFacts(NamedTuple):
    values: np.ndarray
    origin_levels: np.ndarray
    construction: list[str]
    residuals: np.ndarray


def row_facts(basis):
    """The eigenvalue, origin level, construction and residual of every row
    of an ``EigenBasis``, in the order of ``dense_rows``: each (family,
    position)'s facts repeated over its run of rows."""
    vectors = basis.vectors
    keys, counts = vectors.order.tolist(), vectors.run_lengths()
    values = np.repeat([vectors.families[f].values[i] for f, i in keys], counts)
    levels = np.repeat([vectors.families[f].level for f, _ in keys], counts)
    residuals = np.repeat([basis.residuals[f][i] for f, i in keys], counts)
    construction = ["stratified" if l == 0 else "antisym" for l in levels.tolist()]
    return RowFacts(values, levels, construction, residuals)


def qr_full_rank(rows, threshold):
    """Pivot threshold on the unit-normalized rows' Gram-Schmidt norms.

    |R_ii| of a QR of the rows (as columns) is the norm of row i's
    component orthogonal to the rows before it; every row must have one.
    """
    q = np.array(rows, dtype=float)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    pivots = np.abs(np.diagonal(np.linalg.qr(q.T, mode="r")))
    return len(pivots) == len(q) and bool(np.all(pivots > threshold))


def spectrum_rows(spec):
    """The ``spectrum`` rows of ``spec``, one dict per spectral line, from
    the same level solves as the library: sorted by (value, origin level)
    for a symmetric tree, or by (value, origin side) for a glued one, whose
    left, right and stratified lines come in that order, each side's in
    level order."""
    if not isinstance(spec, GluedTreeSpec):
        parts = level_spectra(spec)
    else:
        vals = tridiag_eigen(glued_stratified_matrix(spec))
        vals[0] = 0.0
        parts = [
            *level_spectra(spec.left, first_level=1, side="left"),
            *level_spectra(spec.right, first_level=1, side="right"),
            ("stratified", 0, 1, vals),
        ]
    rows = [
        {
            "lambda": lam,
            "multiplicity": mult,
            "origin_level": l0,
            "position": pos,
            **({"origin_side": side} if side else {}),
        }
        for side, l0, mult, vals in parts
        for pos, lam in enumerate(vals.tolist())
    ]
    if isinstance(spec, GluedTreeSpec):
        rows.sort(key=lambda r: (r["lambda"], r["origin_side"]))
    else:
        rows.sort(key=lambda r: (r["lambda"], r["origin_level"]))
    return rows


def json_document(rows):
    return json.dumps(rows, indent=2) + "\n"


def csv_document(rows):
    """``rows`` through ``csv.DictWriter``, floats spelled with 17
    significant digits and ints (not bools) with every digit."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {
                k: format(v, ".17g") if isinstance(v, float)
                else digits(v) if isinstance(v, int) and not isinstance(v, bool) else v
                for k, v in row.items()
            }
        )
    return buf.getvalue()


def columns_of(rows):
    """``rows``, flat dicts that share their keys in order, as {key: column}."""
    return {k: [row[k] for row in rows] for k in rows[0]}
