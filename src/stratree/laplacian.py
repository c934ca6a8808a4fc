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
    """The Laplacian of ``tree`` times ``x``: each vertex's degree times its
    x, minus its parent's x and the sum of its children's."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tree.n,):
        raise ValueError(f"vector of length {x.shape} against matrix of size {tree.n}")
    p = tree.parents
    y = degrees(tree) * x
    y -= np.where(p >= 0, x[p], 0.0)  # the root's x[-1] is dropped
    return y - np.bincount(p + 1, weights=x, minlength=tree.n + 1)[1:]


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
