"""Dense references for the implicit eigenbasis, shared by the test modules.

The library never writes its basis out as an n x n array; these helpers do,
so the tests can check the level-block layout and the rank certificate
against plain dense linear algebra at desk size.
"""

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


def qr_full_rank(rows, threshold):
    """Pivot threshold on the unit-normalized rows' Gram-Schmidt norms.

    |R_ii| of a QR of the rows (as columns) is the norm of row i's
    component orthogonal to the rows before it; every row must have one.
    """
    q = np.array(rows, dtype=float)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    pivots = np.abs(np.diagonal(np.linalg.qr(q.T, mode="r")))
    return len(pivots) == len(q) and bool(np.all(pivots > threshold))
