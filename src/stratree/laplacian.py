"""Sparse assembly of tree Laplacians.

The Laplacian has the vertex degree on the diagonal and -1 on every tree
edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO

import numpy as np

from .tree import CapacityError, RootedTree

# Matrix Market entries formatted per write, which bounds the text held at once
_LINES_PER_WRITE = 1 << 16


@dataclass(frozen=True)
class SparseSymMatrix:
    """Symmetric matrix in compressed-row layout (both triangles stored).

    Diagonal entries are stored explicitly even when zero, so every row is
    nonempty and matvec can use reduceat without special cases.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def to_dense(self) -> np.ndarray:
        """The n x n array; one that cannot be allocated is a ``CapacityError``."""
        try:
            a = np.zeros((self.n, self.n))
        except MemoryError:
            raise CapacityError(f"a dense {self.n}x{self.n} matrix does not fit in memory") from None
        a[self._rows(), self.indices] = self.data
        return a

    def to_matrix_market(self, stream: IO[str]) -> None:
        """Write the lower triangle in Matrix Market symmetric coordinate form."""
        rows = self._rows()
        lower = self.indices <= rows
        i, j, values = rows[lower] + 1, self.indices[lower] + 1, self.data[lower]
        stream.write("%%MatrixMarket matrix coordinate real symmetric\n")
        stream.write(f"{self.n} {self.n} {len(values)}\n")
        for lo in range(0, len(values), _LINES_PER_WRITE):
            part = slice(lo, lo + _LINES_PER_WRITE)
            lines = zip(i[part].tolist(), j[part].tolist(), values[part].tolist())
            stream.write("".join([f"{a} {b} {v:.17g}\n" for a, b, v in lines]))


def assemble(tree: RootedTree) -> SparseSymMatrix:
    """Laplacian of a tree: degree diagonal, -1 on edges.  Row sums are 0."""
    parents = tree.parents
    n = len(parents)
    child = np.flatnonzero(parents >= 0)
    parent = parents[child]
    deg = np.bincount(parent, minlength=n)
    deg[child] += 1
    rows = np.concatenate((np.arange(n), child, parent))
    cols = np.concatenate((np.arange(n), parent, child))
    data = np.concatenate((deg.astype(float), np.full(2 * len(child), -1.0)))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return SparseSymMatrix(n, indptr, cols[order], data[order])


def matvec(m: SparseSymMatrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise ValueError(f"vector of length {x.shape} against matrix of size {m.n}")
    return np.add.reduceat(m.data * x[m.indices], m.indptr[:-1])
