"""Plain references for the library's compact forms, shared by the test
modules.

The library holds a tree's Laplacian as its parent array;
``laplacian_of`` writes the matrix out one edge at a time.  It never
writes its basis out as an n x n array; these helpers do, so the tests
can check the level-block layout and the rank certificate against plain
dense linear algebra at desk size.  It holds a spectrum as columns and
writes documents a column at a time; the helpers below build one dict
per spectral line instead, sort them with Python's sort and write them
with the json and csv encoders.
"""

import csv
import io
import json
from typing import NamedTuple

import numpy as np

from stratree.decompose import decompose_spectrum, full_eigenbasis, level_spectra
from stratree.eigen import dense_eigenvalues, trailing_eigenvalues
from stratree.glued import glued_stratified_matrix
from stratree.laplacian import matvec
from stratree.nodal import ZERO_TOL, NodalRecords, count_sign_graphs
from stratree.tree import GluedTreeSpec, digits, realize
from stratree.verify import (
    RANK_THRESHOLD,
    RESIDUAL_TOL,
    CheckResult,
    check_counting,
    check_multiplicity_bound,
    check_spectrum_oracle,
)


def laplacian_of(parents):
    """The dense Laplacian of a parent array, written edge by edge."""
    n = len(parents)
    a = np.zeros((n, n))
    for v, p in enumerate(parents):
        if p >= 0:
            a[v, p] = a[p, v] = -1.0
            a[v, v] += 1.0
            a[p, p] += 1.0
    return a


def matrix_market_by_entry(parents):
    """The Matrix Market text of ``laplacian_of(parents)``, one entry of
    its lower triangle at a time, row by row: every diagonal entry (a lone
    vertex's 0 too) and every nonzero below it."""
    a = laplacian_of(parents)
    n = len(a)
    entries = [(i + 1, j + 1, a[i, j]) for i in range(n) for j in range(i + 1) if i == j or a[i, j]]
    text = "%%MatrixMarket matrix coordinate real symmetric\n"
    text += f"{n} {n} {len(entries)}\n"
    for i, j, val in entries:
        text += f"{i} {j} {val:.17g}\n"
    return text


def dense_rows(vectors):
    """The rows of a ``BlockVectors`` as an n x n array, each written block
    by block from its family's ``layout`` and its ``block_values``."""
    n = sum(vectors.populations)
    rows = []
    for f, i in zip(vectors.lines.family.tolist(), vectors.lines.position.tolist()):
        gaps, widths = vectors.layout(f)
        values = vectors.block_values(f)[i]
        rows += [block_row(row_gaps, widths, values, n) for row_gaps in gaps]
    return np.array(rows)


def glued_rows(spec, vectors):
    """The rows of a ``GluedVectors`` as an n x n array on
    ``realize_glued(spec)``, in line order, each line's run in turn: a
    side's rows written block by block as ``dense_rows`` writes them and
    placed on its side (the right side's non-root vertices follow the left
    tree), and a stratified row's level values on each side's levels."""
    n_left, n = spec.left.vertex_count(), spec.vertex_count()
    # (side, family of that side's BlockVectors) of each glued family
    families = [(s, f) for s, side in enumerate(vectors.sides) if side for f in range(len(side.levels))]
    rows = []
    for f, i in zip(vectors.lines.family.tolist(), vectors.lines.position.tolist()):
        if f == len(families):
            row = np.zeros(n)
            row[:n_left] = np.repeat(vectors.chains[0][i], vectors.populations[0])
            row[n_left:] = np.repeat(vectors.chains[1][i][1:], vectors.populations[1][1:])
            rows.append(row)
            continue
        s, f = families[f]
        side = vectors.sides[s]
        gaps, widths = side.layout(f)
        for row_gaps in gaps:
            side_row = block_row(row_gaps, widths, side.block_values(f)[i], sum(side.populations))
            row = np.zeros(n)
            if s == 0:
                row[:n_left] = side_row
            else:
                row[0], row[n_left:] = side_row[0], side_row[1:]
            rows.append(row)
    return np.array(rows)


def block_row(gaps, widths, values, n):
    """The length-n row of one ``RowLayout`` row ``gaps``: zeros of
    ``gaps`` around blocks of ``widths`` columns of ``values``."""
    row, at = np.zeros(n), 0
    for gap, width, value in zip(gaps.tolist(), widths.tolist(), values.tolist()):
        at += gap
        row[at : at + width] = value
        at += width
    assert at + gaps[-1] == n
    return row


class RowFacts(NamedTuple):
    values: np.ndarray
    origin_levels: np.ndarray
    construction: list[str]
    residuals: np.ndarray


def row_facts(basis):
    """The eigenvalue, origin level, construction and residual of every row
    of an ``EigenBasis``, in the order of ``dense_rows``: each line's facts
    repeated over its run of rows."""
    lines = basis.vectors.lines
    keys, counts = list(zip(lines.family.tolist(), lines.position.tolist())), lines.multiplicity()
    # the stack holds each family's rows in turn, one per position
    first = np.cumsum([0, *(len(fam.g) for fam in basis.vectors.families)])
    values = np.repeat(lines.values, counts)
    levels = np.repeat(lines.origin_level, counts)
    residuals = np.repeat([basis.residuals[first[f] + i] for f, i in keys], counts)
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


def oracle_zero_tol(f):
    """The zero threshold of each column of an (n, m) array of floating
    eigenvectors written out on a tree: ``ZERO_TOL`` times its largest
    magnitude, as ``level_sign_graphs`` takes it on level values."""
    return ZERO_TOL * np.maximum(np.max(f, axis=0), -np.min(f, axis=0))


def clusters_by_loop(values, tol):
    """(start, size) runs of sorted ``values``, a run ending wherever the
    next value is more than ``tol`` above it."""
    clusters, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            clusters.append((start, i - start))
            start = i
    return clusters


def records_by_loop(tree, values, vectors, cluster_tol=1e-8):
    """The ``NodalRecords`` of eigenvectors written out on ``tree`` as the
    columns of ``vectors``, the r-th of eigenvalue ``values[r]``, each field
    a tuple of Python values, built cluster by cluster and vector by
    vector from ``count_sign_graphs`` at ``oracle_zero_tol``."""
    rep = count_sign_graphs(tree, vectors, oracle_zero_tol(vectors))
    totals, zeros = rep.total.tolist(), rep.zero_count.tolist()
    records = []
    for start, size in clusters_by_loop(values, cluster_tol):
        bound = start + size  # (start+1) + size - 1
        for i in range(start, start + size):
            zero_free = zeros[i] > 0 or (size == 1 and totals[i] == start + 1)
            records.append((
                float(values[i]), start + 1, size, totals[i], zeros[i], bound, totals[i] <= bound, zero_free
            ))
    return NodalRecords(*zip(*records))


def written_out_verify_rows(spec):
    """``verify``'s rows of a symmetric tree at the default tolerance, with
    its eigenbasis written out by ``dense_rows``: each row's residual from
    its own matvec, relative to the row's largest magnitude, the rank by
    ``qr_full_rank`` and the sign graphs counted on the tree by
    ``records_by_loop``.  The spectrum, counting and multiplicity rows are
    the library's checks on the same oracle values."""
    tree = realize(spec)
    vals = dense_eigenvalues(tree)
    basis = full_eigenbasis(spec)
    rows, facts = dense_rows(basis.vectors), row_facts(basis)
    residuals = np.array([np.max(np.abs(matvec(tree, f) - lam * f)) for lam, f in zip(facts.values, rows)])
    rel = float(np.max(residuals / np.max(np.abs(rows), axis=1)))
    records = records_by_loop(tree, vals, rows.T)
    courant, zero_free = all(records.passed), all(records.zero_free)
    spectrum = decompose_spectrum(spec)
    results = [
        check_spectrum_oracle("spectrum_oracle", spectrum, vals),
        check_counting(spec),
        CheckResult("eigenbasis_certificate", rel <= RESIDUAL_TOL and qr_full_rank(rows, RANK_THRESHOLD), rel),
        CheckResult("courant_bound", courant, 0.0 if courant else 1.0),
        CheckResult("zero_free_equality", zero_free, 0.0 if zero_free else 1.0),
        check_multiplicity_bound(spectrum, vals),
    ]
    return [{"check": r.name, "pass": r.passed, "max_deviation": r.max_deviation} for r in results]


def spectrum_rows(spec):
    """The ``spectrum`` rows of ``spec``, one dict per spectral line, from
    the same level solves as the library: sorted by (value, origin level)
    for a symmetric tree, or by (value, origin side) for a glued one, whose
    left, right and stratified lines come in that order, each side's in
    level order."""
    if not isinstance(spec, GluedTreeSpec):
        parts = level_spectra(spec)
        parts[0][3][0] = 0.0  # the root level's smallest value, the Laplacian's zero
    else:
        vals = trailing_eigenvalues(glued_stratified_matrix(spec), [0])[0]
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
