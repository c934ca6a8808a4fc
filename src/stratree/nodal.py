"""Sign graphs (strong nodal domains) of functions on trees, and the two
nodal statements checked on computed eigenpairs: the discrete Courant
bound and the tree equality for zero-free eigenvectors, both carried as
columns of ``NodalRecords``, one entry per eigenpair.

A positive (negative) sign graph is a maximal connected subgraph on which
the function is strictly positive (negative).  On trees the induced
subgraph on any vertex subset is a forest, so its component count is just
vertices minus same-sign edges.  The counts come from one of two sources,
judged by one verdict code: ``count_sign_graphs`` on vectors written out
on the tree (the dense oracle's, for ``nodal_records``), or
``level_sign_graphs`` on an eigenbasis held as its level values (the
constructed basis, for ``level_nodal_records``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .tree import RootedTree

if TYPE_CHECKING:
    from .decompose import BlockVectors

# An entry of a floating eigenvector at most this fraction of the vector's
# largest magnitude counts as zero, for oracle vectors and level values alike.
ZERO_TOL = 1e-9


@dataclass(frozen=True)
class SignGraphReport:
    """Counts of one function (ints) or of each column of several (arrays)."""

    positive_count: int | np.ndarray
    negative_count: int | np.ndarray
    zero_count: int | np.ndarray

    @property
    def total(self) -> int | np.ndarray:
        return self.positive_count + self.negative_count


def count_sign_graphs(
    tree: RootedTree, f: np.ndarray, zero_tol: float | np.ndarray = 0.0
) -> SignGraphReport:
    """Count positive/negative sign graphs and vanishing coordinates.

    ``f`` is one function of shape (n,) or m functions as the columns of an
    (n, m) array, all counted in one pass; the counts are then arrays of
    length m.  ``zero_tol`` is an absolute threshold below which entries
    count as zero, one for all columns or one per column.  The default 0.0
    uses the exact float sign, appropriate for vectors built by
    copy/difference of transported values; oracle eigenvectors should pass
    ``oracle_zero_tol(f)`` instead.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim not in (1, 2) or f.shape[0] != tree.n:
        raise ValueError(f"function of shape {f.shape} on a {tree.n}-vertex tree")
    cols = f.reshape(tree.n, -1)
    tol = np.asarray(zero_tol, dtype=float)
    sign = (cols > tol).view(np.int8) - (cols < -tol).view(np.int8)  # NaN gives 0
    parents = tree.parents
    child = np.flatnonzero(parents >= 0)
    edge = sign[parents[child]] + sign[child]  # +-2 where both ends share a sign
    pos = np.count_nonzero(sign == 1, axis=0) - np.count_nonzero(edge == 2, axis=0)
    neg = np.count_nonzero(sign == -1, axis=0) - np.count_nonzero(edge == -2, axis=0)
    zero = tree.n - np.count_nonzero(sign, axis=0)
    if f.ndim == 1:
        return SignGraphReport(int(pos[0]), int(neg[0]), int(zero[0]))
    return SignGraphReport(pos, neg, zero)


def oracle_zero_tol(f: np.ndarray) -> float | np.ndarray:
    """Zero threshold for floating eigenvectors from the dense oracle, one
    per column of an (n, m) array.  max|f| is taken as max(max f, -min f),
    which is exact and allocates no array the size of ``f``."""
    return ZERO_TOL * np.maximum(np.max(f, axis=0), -np.min(f, axis=0))


def level_sign_graphs(vectors: BlockVectors) -> SignGraphReport:
    """Counts of every row of an eigenbasis held as level values, one
    entry per line of ``vectors.lines``, as exact integers from O(k) work
    per line: no row is written out.

    Row i of a family at level l0 takes its sign s_j on each level j of the
    family, with |g_ij| <= ``ZERO_TOL`` * max_j |g_ij| as 0.  On one
    subtree, where level j has w_j = n(l0+j)/n(l0) vertices each below one
    of level j-1, a sign graph starts at each vertex of level j with
    s_j != 0 and s_j != s_{j-1} (s_{-1} = 0).  A root-family row is that
    subtree, the whole tree.  A sibling difference is the subtree's values
    minus their copy on a disjoint subtree, both cut off by their zero
    parent, so it has twice the subtree's sign graphs, as many positive as
    negative, and |V| - 2 sum_j w_j [s_j != 0] zeros.  Every row of a run
    has its line's counts: the rows are congruent by a tree automorphism,
    or negated, which leaves the counts of a sibling difference alone.
    Every row of the stack ``vectors.values`` is counted at once, in
    columns of absolute level (zero above l0) weighted by
    ``vectors.widths``.
    """
    g, family = vectors.values, vectors.row_family
    w = vectors.widths[family]
    tol = ZERO_TOL * np.max(np.abs(g), axis=1, keepdims=True)
    s = (g > tol).view(np.int8) - (g < -tol).view(np.int8)  # NaN gives 0
    above = np.zeros_like(s)
    above[:, 1:] = s[:, :-1]
    up = np.sum(((s == 1) & (above != 1)) * w, axis=1)
    down = np.sum(((s == -1) & (above != -1)) * w, axis=1)
    support = np.sum((s != 0) * w, axis=1)
    root = np.array(vectors.levels)[family] == 0
    pos = np.where(root, up, up + down)
    neg = np.where(root, down, up + down)
    zero = sum(vectors.populations) - np.where(root, support, 2 * support)
    rows = vectors.line_row
    return SignGraphReport(pos[rows], neg[rows], zero[rows])


def cluster_spectrum(values: np.ndarray, tol: float = 1e-8) -> list[tuple[int, int]]:
    """(start, size) runs of numerically-equal eigenvalues, sorted input."""
    edges = _cluster_edges(values, tol).tolist()
    return [(lo, hi - lo) for lo, hi in zip(edges, edges[1:]) if hi > lo]


def _cluster_edges(values: np.ndarray, tol: float) -> np.ndarray:
    """Each run's first index, then ``len(values)``: a run ends wherever
    the next value is more than ``tol`` above it."""
    breaks = np.flatnonzero(np.diff(np.asarray(values, dtype=float)) > tol) + 1
    return np.concatenate(([0], breaks, [len(values)]))


class NodalRecords(NamedTuple):
    """Both nodal verdicts on each eigenpair, as columns.

    ``passed`` is the Courant bound: at most ``bound`` = position +
    multiplicity - 1 sign graphs for an eigenfunction in a cluster of
    ``multiplicity`` equal eigenvalues starting at ``position`` (1-based).
    ``zero_free`` is the tree equality: an eigenvector with no vanishing
    coordinate belongs to a simple eigenvalue and has exactly ``position``
    sign graphs; it holds trivially when ``zero_count > 0``.
    """

    value: np.ndarray
    position: np.ndarray
    multiplicity: np.ndarray
    sign_graphs: np.ndarray
    zero_count: np.ndarray
    bound: np.ndarray
    passed: np.ndarray
    zero_free: np.ndarray


def nodal_records(
    tree: RootedTree, values: np.ndarray, vectors: np.ndarray, cluster_tol: float = 1e-8
) -> NodalRecords:
    """Both verdicts on every eigenpair, from one sign-graph count of all
    eigenvectors at the oracle threshold.

    ``vectors`` holds eigenvectors as columns, matching sorted ``values``.
    """
    rep = count_sign_graphs(tree, vectors, oracle_zero_tol(vectors))
    return _judge(values, rep.total, rep.zero_count, cluster_tol)


def level_nodal_records(
    values: np.ndarray, vectors: BlockVectors, cluster_tol: float = 1e-8
) -> NodalRecords:
    """Both verdicts on every row of an eigenbasis held as level values,
    from ``level_sign_graphs``.

    ``values`` are the |V| sorted eigenvalues of an independent solve,
    which set each row's position and cluster.  The rows are taken in line
    order, each line's counts repeated by its multiplicity; the lines are
    sorted by value, so row r is paired with ``values[r]``.
    """
    rep = level_sign_graphs(vectors)
    mult = vectors.lines.multiplicity()
    return _judge(values, np.repeat(rep.total, mult), np.repeat(rep.zero_count, mult), cluster_tol)


def _judge(values: np.ndarray, totals: np.ndarray, zeros: np.ndarray, cluster_tol: float) -> NodalRecords:
    """``NodalRecords`` of eigenvectors with ``totals`` sign graphs and
    ``zeros`` vanishing entries, the r-th one of eigenvalue ``values[r]``,
    eigenvalues within ``cluster_tol`` of each other clustered as equal."""
    edges = _cluster_edges(values, cluster_tol)
    sizes = np.diff(edges)
    start, size = np.repeat(edges[:-1], sizes), np.repeat(sizes, sizes)
    bound = start + size  # (start+1) + size - 1
    zero_free = (zeros > 0) | ((size == 1) & (totals == start + 1))
    value = np.asarray(values, dtype=float)
    return NodalRecords(value, start + 1, size, totals, zeros, bound, totals <= bound, zero_free)
