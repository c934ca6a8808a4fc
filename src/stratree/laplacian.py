"""Sparse assembly of tree Laplacians and their Dirichlet restrictions.

The Laplacian has the vertex degree on the diagonal and -1 on every tree
edge.  A Dirichlet Laplacian on a vertex subset is the principal submatrix
of the full Laplacian: diagonal entries keep the full-tree degree, so edges
leaving the subset still contribute (zero boundary condition outside).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .tree import RootedTree, TreeIndex


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

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        a[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices] = self.data
        return a

    def row_sums(self) -> np.ndarray:
        return np.add.reduceat(self.data, self.indptr[:-1])

    def norm_inf(self) -> float:
        return float(np.max(np.add.reduceat(np.abs(self.data), self.indptr[:-1])))

    def to_matrix_market(self, stream: IO[str]) -> None:
        """Write the lower triangle in Matrix Market symmetric coordinate form."""
        entries = []
        for i in range(self.n):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            for j, val in zip(self.indices[lo:hi], self.data[lo:hi]):
                if j <= i:
                    entries.append((i + 1, j + 1, val))
        stream.write("%%MatrixMarket matrix coordinate real symmetric\n")
        stream.write(f"{self.n} {self.n} {len(entries)}\n")
        for i, j, val in entries:
            stream.write(f"{i} {j} {val:.17g}\n")


def _build_csr(n: int, diag: np.ndarray, u: np.ndarray, v: np.ndarray) -> SparseSymMatrix:
    """CSR with ``diag`` on the diagonal and -1 at (u[i], v[i]) and (v[i], u[i])."""
    rows = np.concatenate((np.arange(n), u, v))
    cols = np.concatenate((np.arange(n), v, u))
    data = np.concatenate((diag.astype(float), np.full(2 * len(u), -1.0)))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return SparseSymMatrix(n, indptr, cols[order], data[order])


def _edges(parents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(child, parent) index arrays of every edge, and the vertex degrees."""
    child = np.flatnonzero(parents >= 0)
    parent = parents[child]
    deg = np.bincount(parent, minlength=len(parents))
    deg[child] += 1
    return child, parent, deg


def assemble(tree: RootedTree | TreeIndex) -> SparseSymMatrix:
    """Laplacian of a tree: degree diagonal, -1 on edges.  Row sums are 0."""
    child, parent, deg = _edges(tree.parents)
    return _build_csr(len(deg), deg, child, parent)


def assemble_dirichlet(tree: RootedTree | TreeIndex, omega: Iterable[int]) -> SparseSymMatrix:
    """Principal submatrix of the Laplacian on the vertex subset ``omega``.

    Diagonal entries keep the full-tree degree; only edges with both ends
    in omega appear off the diagonal.
    """
    child, parent, deg = _edges(tree.parents)
    n = len(deg)
    omega = np.unique(np.fromiter(omega, dtype=np.int64))
    if not omega.size:
        raise ValueError("omega must be nonempty")
    if omega[0] < 0 or omega[-1] >= n:
        raise IndexError(f"omega contains vertices outside [0, {n})")
    pos = np.full(n, -1)
    pos[omega] = np.arange(omega.size)
    kept = (pos[child] >= 0) & (pos[parent] >= 0)
    return _build_csr(omega.size, deg[omega], pos[child[kept]], pos[parent[kept]])


def matvec(m: SparseSymMatrix, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (m.n,):
        raise ValueError(f"vector of length {x.shape} against matrix of size {m.n}")
    return np.add.reduceat(m.data * x[m.indices], m.indptr[:-1])
