"""Dense references for the implicit eigenbasis, shared by the test modules.

The library never writes its basis out as an n x n array; these helpers do,
so the tests can check the level-block layout and the rank certificate
against plain dense linear algebra at desk size.
"""

from typing import NamedTuple

import numpy as np


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
