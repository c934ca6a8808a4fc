"""Sign graphs (strong nodal domains) of functions on trees, and checks of
the discrete Courant-type statements on computed eigenpairs.

A positive (negative) sign graph is a maximal connected subgraph on which
the function is strictly positive (negative).  On trees the induced
subgraph on any vertex subset is a forest, so its component count is just
vertices minus same-sign edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import RootedTree


@dataclass(frozen=True)
class SignGraphReport:
    positive_count: int
    negative_count: int
    zero_count: int

    @property
    def total(self) -> int:
        return self.positive_count + self.negative_count


def count_sign_graphs(tree: RootedTree, f: np.ndarray, zero_tol: float = 0.0) -> SignGraphReport:
    """Count positive/negative sign graphs and vanishing coordinates.

    ``zero_tol`` is an absolute threshold below which entries count as
    zero.  The default 0.0 uses the exact float sign, appropriate for
    vectors built by copy/difference of transported values; oracle
    eigenvectors should pass ``oracle_zero_tol(f)`` instead.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (tree.n,):
        raise ValueError(f"function of length {f.shape} on a {tree.n}-vertex tree")
    sign = np.zeros(tree.n, dtype=np.int8)
    sign[f > zero_tol] = 1
    sign[f < -zero_tol] = -1
    parents = tree.parents
    child = np.flatnonzero(parents >= 0)
    up = sign[parents[child]]
    kept = up[up == sign[child]]  # sign shared by both ends of each edge
    pos = int(np.count_nonzero(sign == 1) - np.count_nonzero(kept == 1))
    neg = int(np.count_nonzero(sign == -1) - np.count_nonzero(kept == -1))
    zero = tree.n - int(np.count_nonzero(sign))
    return SignGraphReport(pos, neg, zero)


def oracle_zero_tol(f: np.ndarray) -> float:
    """Zero threshold for floating eigenvectors from the dense oracle."""
    return 1e-9 * float(np.max(np.abs(f)))


def cluster_spectrum(values: np.ndarray, tol: float = 1e-8) -> list[tuple[int, int]]:
    """(start, size) runs of numerically-equal eigenvalues, sorted input."""
    values = np.asarray(values, dtype=float)
    clusters = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            clusters.append((start, i - start))
            start = i
    return clusters


@dataclass(frozen=True)
class NodalRecord:
    value: float
    position: int  # 1-based rank of the eigenvalue cluster start
    multiplicity: int
    sign_graphs: int
    zero_count: int
    bound: int
    passed: bool
    checked: bool = True


def nodal_records(
    tree: RootedTree,
    values: np.ndarray,
    vectors: np.ndarray,
    cluster_tol: float = 1e-8,
    zero_tol: float | None = None,
) -> tuple[list[NodalRecord], list[NodalRecord]]:
    """The ``courant_check`` and ``zero_free_check`` records together, from
    one sign-graph count per eigenvector."""
    courant, zero_free = [], []
    for start, size in cluster_spectrum(values, cluster_tol):
        bound = start + size  # (start+1) + size - 1
        for i in range(start, start + size):
            f = vectors[:, i]
            tol = oracle_zero_tol(f) if zero_tol is None else zero_tol
            rep = count_sign_graphs(tree, f, tol)
            value = float(values[i])
            courant.append(
                NodalRecord(
                    value, start + 1, size, rep.total, rep.zero_count,
                    bound, rep.total <= bound,
                )
            )
            checked = rep.zero_count == 0
            ok = not checked or (size == 1 and rep.total == start + 1)
            zero_free.append(
                NodalRecord(
                    value, start + 1, size, rep.total, rep.zero_count,
                    start + 1, ok, checked,
                )
            )
    return courant, zero_free


def courant_check(
    tree: RootedTree,
    values: np.ndarray,
    vectors: np.ndarray,
    cluster_tol: float = 1e-8,
    zero_tol: float | None = None,
) -> list[NodalRecord]:
    """Courant bound per eigenpair: at most (position + multiplicity - 1)
    sign graphs for an eigenfunction in a multiplicity-r cluster starting
    at position k (1-based).

    ``vectors`` holds eigenvectors as columns, matching sorted ``values``.
    ``zero_tol=None`` selects the per-vector oracle threshold.
    """
    return nodal_records(tree, values, vectors, cluster_tol, zero_tol)[0]


def zero_free_check(
    tree: RootedTree,
    values: np.ndarray,
    vectors: np.ndarray,
    cluster_tol: float = 1e-8,
    zero_tol: float | None = None,
) -> list[NodalRecord]:
    """For every eigenpair without a vanishing coordinate: the eigenvalue
    must be simple and the sign-graph count must equal its 1-based
    position.  Pairs with zeros are reported unchecked.
    """
    return nodal_records(tree, values, vectors, cluster_tol, zero_tol)[1]
