"""Tree Laplacians, held as the tree's own parent array.

The Laplacian has the vertex degree on the diagonal and -1 on every tree
edge, so the parent array and the degrees are all of it: no matrix object
is built to apply it, write it out densely or export it.
"""

from __future__ import annotations

from typing import IO

import numpy as np

from .tree import CapacityError, RootedTree

# Matrix Market entries formatted per write, which bounds the text held at once
_LINES_PER_WRITE = 1 << 16


def degrees(tree: RootedTree) -> np.ndarray:
    """Each vertex's degree (int64): its children, plus its parent edge."""
    p = tree.parents
    # bin v + 1 counts the children of v; bin 0, the root's -1, is dropped
    return np.bincount(p + 1, minlength=tree.n + 1)[1:] + (p >= 0)


def matvec(tree: RootedTree, x: np.ndarray) -> np.ndarray:
    """The Laplacian of ``tree`` times ``x``, a vector or the m columns of
    an (n, m) array: each vertex's degree times its x, minus its parent's x
    and the sum of its children's.

    The children's sums of all columns are one ``bincount`` over (parent,
    column) bins, which adds each bin's children in vertex order, as it
    does for a vector: each column is bitwise the product of that column.
    """
    x = np.asarray(x, dtype=float)
    n = tree.n
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise ValueError(f"array of shape {x.shape} against a tree of {n} vertices")
    p = tree.parents
    rows = x.T if x.ndim == 2 else x[None]  # one row of n per column of x
    m = len(rows)
    y = degrees(tree) * rows
    y -= np.where(p >= 0, np.take(rows, p, axis=1), 0.0)  # the root's x[-1] is dropped
    # bin (j, v + 1) sums row j's entries of the children of v
    bins = (p + (1 + (n + 1) * np.arange(m))[:, None]).ravel()
    y -= np.bincount(bins, weights=rows.ravel(), minlength=(n + 1) * m).reshape(m, n + 1)[:, 1:]
    return y.T if x.ndim == 2 else y[0]


def dense(tree: RootedTree) -> np.ndarray:
    """The n x n array; one that cannot be allocated is a ``CapacityError``."""
    try:
        a = np.zeros((tree.n, tree.n))
    except MemoryError:
        raise CapacityError(f"a dense {tree.n}x{tree.n} matrix does not fit in memory") from None
    child = np.flatnonzero(tree.parents >= 0)
    parent = tree.parents[child]
    a[child, parent] = a[parent, child] = -1.0
    np.fill_diagonal(a, degrees(tree))
    return a


def write_matrix_market(tree: RootedTree, stream: IO[str]) -> None:
    """Write the lower triangle in Matrix Market symmetric coordinate form:
    each vertex's degree and each edge's -1, sorted row-major, so the text
    does not depend on the order of the parent array."""
    n = tree.n
    child = np.flatnonzero(tree.parents >= 0)
    parent = tree.parents[child]
    i = np.concatenate((np.arange(n), np.maximum(child, parent))) + 1
    j = np.concatenate((np.arange(n), np.minimum(child, parent))) + 1
    values = np.concatenate((degrees(tree), np.full(len(child), -1)))
    order = np.lexsort((j, i))
    i, j, values = i[order], j[order], values[order]
    stream.write("%%MatrixMarket matrix coordinate real symmetric\n")
    stream.write(f"{n} {n} {len(values)}\n")
    for lo in range(0, len(values), _LINES_PER_WRITE):
        part = slice(lo, lo + _LINES_PER_WRITE)
        lines = zip(i[part].tolist(), j[part].tolist(), values[part].tolist())
        stream.write("".join([f"{a} {b} {v}\n" for a, b, v in lines]))
