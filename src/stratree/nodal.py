"""Sign graphs (strong nodal domains) of functions on trees, and the two
nodal statements checked on the constructed eigenbasis: the discrete
Courant bound and the tree equality for zero-free eigenvectors, both
carried as columns of ``NodalRecords``, one entry per eigenvector.

A positive (negative) sign graph is a maximal connected subgraph on which
the function is strictly positive (negative).  On trees the induced
subgraph on any vertex subset is a forest, so its component count is just
vertices minus same-sign edges.  ``count_sign_graphs`` counts vectors
written out on a tree; ``level_sign_graphs`` counts an eigenbasis held as
its level values, a symmetric tree's or a glued one's, in exact integers
with no row written out, and ``level_nodal_records`` judges those counts.
The tests check the second against the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .decompose import BlockVectors
from .glued import GluedVectors
from .tree import RootedTree

# A level value at most this fraction of its vector's largest magnitude
# counts as zero.
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
    uses the exact float sign.
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


def _chain_counts(g: np.ndarray, w: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, ...]:
    """The positive and the negative sign graphs and the nonzero vertices
    of each row of ``g``, a function constant on the levels of one subtree:
    row i holds its values from the subtree's root level (column 0) down,
    level j has ``w[..., j]`` vertices, each below one of level j - 1, and a
    value of at most ``ZERO_TOL`` * ``top[i]`` in magnitude counts as zero.

    With s_j the sign of level j (s_{-1} = 0), a sign graph starts at each
    vertex of level j with s_j != 0 and s_j != s_{j-1}.
    """
    tol = ZERO_TOL * top
    s = (g > tol).view(np.int8) - (g < -tol).view(np.int8)  # NaN gives 0
    above = np.zeros_like(s)
    above[:, 1:] = s[:, :-1]
    up = np.sum(((s == 1) & (above != 1)) * w, axis=1)
    down = np.sum(((s == -1) & (above != -1)) * w, axis=1)
    return up, down, np.sum((s != 0) * w, axis=1)


def _stack_counts(vectors: BlockVectors, n: int) -> tuple[np.ndarray, ...]:
    """Positive and negative sign graphs and zeros of every stack row of
    ``vectors``, as vectors on a tree of ``n`` vertices that vanish off
    their own tree, each row's threshold relative to its largest |g|.

    A root-family row is one subtree, the whole tree.  A sibling difference
    is the subtree's values minus their copy on a disjoint subtree, both
    cut off by their zero parent, so it has twice the subtree's sign graphs,
    as many positive as negative, and n - 2 sum_j w_j [s_j != 0] zeros.
    Rows are counted in columns of absolute level (zero above l0) weighted
    by ``vectors.widths``.
    """
    g, family = vectors.values, vectors.row_family
    up, down, support = _chain_counts(g, vectors.widths[family], np.max(np.abs(g), axis=1, keepdims=True))
    root = np.array(vectors.levels)[family] == 0
    return np.where(root, up, up + down), np.where(root, down, up + down), n - np.where(root, support, 2 * support)


def level_sign_graphs(vectors: BlockVectors | GluedVectors) -> SignGraphReport:
    """Counts of every row of an eigenbasis held as level values, one
    entry per line of ``vectors.lines``, as exact integers from O(k) work
    per line: no row is written out.

    Every row of a run has its line's counts: the rows are congruent by a
    tree automorphism, or negated, which leaves the counts of a sibling
    difference alone.  On a glued tree a side's deep row is counted on its
    side, whose zeros grow by the other side's vertices.  A stratified row
    is its left and its right chain from the shared root, each counted as
    a root-family row at one threshold relative to its largest |g| on both,
    less the root's sign graph and zero, which both chains count.
    """
    if isinstance(vectors, BlockVectors):
        pos, neg, zero = _stack_counts(vectors, sum(vectors.populations))
        rows = vectors.line_row
        return SignGraphReport(pos[rows], neg[rows], zero[rows])
    (left, right), pops = vectors.chains, vectors.populations
    n = int(pops[0].sum() + pops[1].sum()) - 1
    top = np.maximum(np.max(np.abs(left), axis=1), np.max(np.abs(right), axis=1))[:, None]
    (lu, ld, ls), (ru, rd, rs) = (_chain_counts(g, w, top) for g, w in zip(vectors.chains, pops))
    tol = ZERO_TOL * top[:, 0]
    plus, minus = left[:, 0] > tol, left[:, 0] < -tol
    counts = [_stack_counts(side, n) for side in vectors.sides if side]
    counts.append((lu + ru - plus, ld + rd - minus, n - (ls + rs - (plus | minus))))
    pos, neg, zero = (np.concatenate(column) for column in zip(*counts))
    lines = vectors.lines
    sizes = np.bincount(lines.family)
    rows = (np.cumsum(sizes) - sizes)[lines.family] + lines.position
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


def level_nodal_records(
    values: np.ndarray, vectors: BlockVectors | GluedVectors, cluster_tol: float = 1e-8
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
