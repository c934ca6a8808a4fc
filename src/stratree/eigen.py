"""Eigensolvers: LAPACK for symmetric tridiagonals, Sturm counts as an
independent check on them, and a dense solve of a tree's Laplacian used as
the brute-force oracle.

The tridiagonals are the small level matrices of the decomposition, so a
dense LAPACK solve of each costs little; ``sturm_count`` is kept apart from
that route so the test suite can check LAPACK's eigenvalue counts with it.

The oracle's repeated eigenvalues are sharpened by inverse iteration.  A
tree Laplacian (degrees on the diagonal, -1 on every edge) minus a shift
factors from the leaves to the root with no fill-in (Parter 1961; Jacobs &
Trevisan, "Locating the eigenvalues of trees", 2011).  So every cluster is
solved in one batched O(n) pass per vector, next to the O(n^3) ``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laplacian import assemble
from .nodal import cluster_spectrum
from .tree import CapacityError, RootedTree

# eigenvalues this close are one cluster, purified together
CLUSTER_TOL = 1e-8
# a purified cluster is projected off the vectors of eigenvalues near enough
# that the solve's own error, eps * |A| / gap, may exceed this
BLEED_TOL = 1e-13


@dataclass(frozen=True)
class TriDiag:
    """Symmetric tridiagonal matrix: diagonal ``diag``, off-diagonal ``off``."""

    diag: np.ndarray
    off: np.ndarray

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.diag, dtype=float))
        e = np.atleast_1d(np.asarray(self.off, dtype=float)) if np.size(self.off) else np.zeros(0)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "off", e)
        if d.ndim != 1 or e.ndim != 1 or len(e) != max(len(d) - 1, 0):
            raise ValueError("need m diagonal and m-1 off-diagonal entries")

    @property
    def m(self) -> int:
        return len(self.diag)

    def norm_inf(self) -> float:
        m = self.m
        if m == 1:
            return abs(float(self.diag[0]))
        rows = np.abs(self.diag).copy()
        rows[:-1] += np.abs(self.off)
        rows[1:] += np.abs(self.off)
        return float(rows.max())

    def trailing(self, start: int) -> TriDiag:
        """Trailing principal submatrix from row ``start`` on."""
        if not 0 <= start < self.m:
            raise IndexError(f"row {start} out of range for {self.m} rows")
        return TriDiag(self.diag[start:], self.off[start:])

    def to_dense(self) -> np.ndarray:
        a = np.diag(self.diag)
        if self.m > 1:
            idx = np.arange(self.m - 1)
            a[idx, idx + 1] = self.off
            a[idx + 1, idx] = self.off
        return a


def sturm_count(t: TriDiag, x) -> np.ndarray | int:
    """Number of eigenvalues of ``t`` strictly below each probe in ``x``.

    Vectorized over probes: one pass of the Sturm recurrence per matrix row.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    tiny = np.finfo(float).tiny
    q = t.diag[0] - xs
    q = np.where(q == 0.0, -tiny, q)  # zero pivots count as sign changes
    count = (q < 0).astype(np.int64)
    with np.errstate(over="ignore", divide="ignore"):
        for i in range(1, t.m):
            q = (t.diag[i] - xs) - t.off[i - 1] ** 2 / q
            q = np.where(q == 0.0, -tiny, q)
            count += q < 0
    if np.isscalar(x) or np.ndim(x) == 0:
        return int(count[0])
    return count


def tridiag_eigen(t: TriDiag, want_vectors: bool = False):
    """Full spectrum of a symmetric tridiagonal, nondecreasing.

    Returns the eigenvalue array, or ``(values, vectors)`` with orthonormal
    eigenvector columns when ``want_vectors`` is set.  With nonzero
    off-diagonals the eigenvalues are simple.  A matrix too large to
    densify or to solve is a ``CapacityError``.
    """
    try:
        a = t.to_dense()
        if want_vectors:
            return np.linalg.eigh(a)
        return np.linalg.eigvalsh(a)
    except MemoryError:
        raise CapacityError(f"a dense {t.m}x{t.m} tridiagonal does not fit in memory") from None


def _breadth_first(tree: RootedTree) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Breadth-first order of the vertices, each one's parent as a position
    in that order (-1 at the root), and the position where each depth
    starts (with n last).

    Children follow their parents' order, so each depth is sorted by parent
    position and siblings are adjacent.  Any vertex numbering is accepted.
    """
    p = tree.parents
    kids = np.argsort(p, kind="stable")[1:]  # non-root vertices grouped by parent
    count = np.bincount(p[kids], minlength=tree.n)
    first = np.cumsum(count) - count  # where each vertex's children start in kids
    depths, level = [], np.flatnonzero(p == -1)
    while level.size:
        depths.append(level)
        c = count[level]
        skip = np.repeat(first[level] - (np.cumsum(c) - c), c)
        level = kids[skip + np.arange(c.sum())]
    order = np.concatenate(depths)
    position = np.empty(tree.n, dtype=np.int64)
    position[order] = np.arange(tree.n)
    up = np.where(p[order] >= 0, position[p[order]], -1)
    return order, up, np.cumsum([0] + [len(d) for d in depths]).tolist()


def _tree_solve(
    up: np.ndarray,
    starts: list[int],
    diag: np.ndarray,
    shifts: np.ndarray,
    owner: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Solve (A - shifts[owner[j]] I) y = x[:, j] for every column j of x,
    writing y over x, and return x.

    A is symmetric with ``diag`` on its diagonal and -1 on the edge from v
    to its parent ``up[v]``, as in a Laplacian; vertices are in
    breadth-first positions with depth d at ``starts[d]:starts[d + 1]``, as
    ``_breadth_first`` gives them.  Gaussian elimination from the leaves
    to the root has no fill-in on a tree: a vertex's pivot and right-hand
    side take one term from each child.  Each depth is eliminated in one
    step, siblings summed by ``np.add.reduceat``, then the root-down back
    substitution runs one depth per step, so the cost is O(n) per shift
    and per column.  A pivot below eps * max|A| in magnitude is set to
    that size, keeping its sign (0 counts as positive).
    """
    floor = np.finfo(float).eps * max(float(np.max(np.abs(diag))), 1.0)
    pivots = diag[:, None] - shifts[None, :]

    def settle(rows: slice) -> None:
        d = pivots[rows]
        small = np.abs(d) < floor
        d[small] = np.where(d[small] < 0, -floor, floor)

    below_root = list(zip(starts[1:-1], starts[2:]))
    for lo, hi in reversed(below_root):
        settle(slice(lo, hi))
        parent = up[lo:hi]
        heads = np.flatnonzero(np.concatenate(([True], parent[1:] != parent[:-1])))
        ratio = -1.0 / pivots[lo:hi]
        pivots[parent[heads]] -= np.add.reduceat(-ratio, heads, axis=0)
        terms = ratio[:, owner]
        terms *= x[lo:hi]
        x[parent[heads]] -= np.add.reduceat(terms, heads, axis=0)
    settle(slice(0, 1))
    x[0] /= pivots[0, owner]
    for lo, hi in below_root:
        x[lo:hi] += x[up[lo:hi]]
        x[lo:hi] /= pivots[lo:hi][:, owner]
    return x


def _purify_degenerate(
    tree: RootedTree,
    diag: np.ndarray,
    vals: np.ndarray,
    vecs: np.ndarray,
) -> np.ndarray:
    """Sharpen eigenvectors of repeated eigenvalues by inverse iteration.

    When a degenerate cluster sits close (but outside ``CLUSTER_TOL``) to
    another eigenvalue, LAPACK vectors bleed across the small gap by roughly
    eps/gap, which pollutes coordinates that vanish in exact arithmetic.
    One shifted solve per cluster amplifies the cluster space and kills
    that bleed; QR restores orthonormality within the cluster.  The solve's
    own error leaves about eps * |A| / gap of each neighbour in it, so the
    cluster is then projected off the vectors of the eigenvalues near
    enough for that to exceed ``BLEED_TOL``.

    The matrix is given by its tree: ``diag`` on the diagonal and -1 on
    every edge.  All clusters are solved at once by ``_tree_solve``, so
    purifying m vectors costs O(n * m), not a dense O(n^3) factorization
    per cluster.  A cluster whose solve is not finite keeps LAPACK's
    vectors.
    """
    n = len(vals)
    clusters = [(lo, lo + size) for lo, size in cluster_spectrum(vals, CLUSTER_TOL) if size > 1]
    if not clusters:
        return vecs
    scale = max(float(np.max(np.abs(vals))), 1.0)
    shifts = np.array([float(np.mean(vals[lo:hi])) + 1e-12 * scale for lo, hi in clusters])
    sizes = [hi - lo for lo, hi in clusters]
    cols = np.concatenate([np.arange(lo, hi) for lo, hi in clusters])
    owner = np.repeat(np.arange(len(clusters)), sizes)
    order, up, starts = _breadth_first(tree)
    solved = _tree_solve(up, starts, diag[order], shifts, owner, vecs[np.ix_(order, cols)])
    reach = np.finfo(float).eps * scale / BLEED_TOL
    windows = np.searchsorted(vals, np.add.outer(shifts, [-reach, reach])).tolist()
    blocks = np.split(solved, np.cumsum(sizes)[:-1], axis=1)
    for (lo, hi), (a, b), block in zip(clusters, windows, blocks):
        w = np.empty_like(block)
        w[order] = block
        if np.all(np.isfinite(w)):
            q = _avoid_fuzzy_zeros(np.linalg.qr(w)[0], seed=n * 1000 + lo)
            for near in (vecs[:, a:lo], vecs[:, hi:b]):
                if near.size:
                    q -= near @ (near.T @ q)
            vecs[:, lo:hi] = q
    return vecs


def _avoid_fuzzy_zeros(q: np.ndarray, seed: int) -> np.ndarray:
    """Rotate an eigenspace basis away from ambiguous near-zero entries.

    Entries of a degenerate-cluster basis are either exact zeros of the
    whole eigenspace (~1e-16 after purification) or genuine values; a
    genuine value that lands near the downstream zero threshold would be
    misclassified.  Any orthogonal recombination spans the same
    eigenspace, so retry random rotations until every entry is clearly
    zero or clearly not.  The tree solve leaves such entries in about half
    as many clusters as a dense solve did, but not in none, so the retries
    stay.  The generator is made at the first retry.
    """
    rng = None
    best, best_bad = q, np.inf
    for _ in range(10):
        rel = np.abs(q) / np.max(np.abs(q), axis=0)
        bad = int(np.sum((rel > 1e-13) & (rel < 1e-6)))
        if bad < best_bad:
            best, best_bad = q, bad
        if bad == 0:
            return q
        rng = rng or np.random.default_rng(seed)
        rot, _ = np.linalg.qr(rng.standard_normal((q.shape[1], q.shape[1])))
        q = q @ rot
    return best


def dense_eigen(tree: RootedTree):
    """Brute-force eigendecomposition of ``tree``'s Laplacian.

    Returns nondecreasing eigenvalues and an orthonormal eigenvector matrix
    (columns); eigenvectors of eigenvalues within ``CLUSTER_TOL`` of each
    other are refined so they span the cluster eigenspace to working
    precision.  A matrix that cannot be allocated is a ``CapacityError``.
    """
    a = assemble(tree).to_dense()
    diag = a.diagonal().copy()
    vals, vecs = np.linalg.eigh(a)
    del a  # purification needs only the diagonal, not the n x n matrix
    return vals, _purify_degenerate(tree, diag, vals, vecs)
