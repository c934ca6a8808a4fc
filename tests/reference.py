"""Dense references for the implicit eigenbasis, shared by the test modules.

The library never writes its basis out as an n x n array; these helpers do,
so the tests can check the level-block layout and the rank certificate
against plain dense linear algebra at desk size.
"""

import numpy as np


def dense_rows(vectors):
    """The rows of a ``BlockVectors`` as an n x n array, laid out by its
    ``blocks``."""
    n = len(vectors.members)
    out = np.zeros((n, n))
    for f, fam in enumerate(vectors.families):
        rows = np.flatnonzero(vectors.members[:, 0] == f)
        _, p, i, s = vectors.members[rows].T
        for first, width, j, negated in vectors.blocks(f, p, s):
            v = 0.0 - fam.g[i, j] if negated else fam.g[i, j]
            out[rows[:, None], first[:, None] + np.arange(width)] = v[:, None]
    return out


def qr_full_rank(rows, threshold):
    """Pivot threshold on the unit-normalized rows' Gram-Schmidt norms.

    |R_ii| of a QR of the rows (as columns) is the norm of row i's
    component orthogonal to the rows before it; every row must have one.
    """
    q = np.array(rows, dtype=float)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    pivots = np.abs(np.diagonal(np.linalg.qr(q.T, mode="r")))
    return len(pivots) == len(q) and bool(np.all(pivots > threshold))
