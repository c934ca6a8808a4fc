"""Eigensolvers: LAPACK for symmetric tridiagonals, Sturm counts as an
independent check on them, and a dense solve of a tree's Laplacian used as
the brute-force oracle.

The tridiagonals are the level matrices of the decomposition.  Their
values come from LAPACK's tridiagonal QR iteration ``dsterf``, called
through ``ctypes`` from the OpenBLAS that numpy wheels bundle: O(m^2) time
and O(m) memory per m-row slice, never a dense matrix.  ``eigvalsh`` on
the densified slice runs ``dsyevd``, which reduces the (already
tridiagonal) matrix in O(m^3) and then calls the same ``dsterf`` on the
same entries, so the two routes give bitwise-equal values, except where
``dsyevd`` first rescales the matrix.  ``eigvalsh`` is kept for those
slices and for installs whose numpy bundles no ``dsterf``.  Vectors,
needed only for the eigenbasis, come from a dense ``eigh`` whose
eigenvalues are dropped, so every command takes its values from this one
route.
``sturm_count`` is kept apart from both routes so the test suite can check
LAPACK's eigenvalue counts with it.

The oracle comes in two forms.  ``dense_eigenvalues`` is ``eigvalsh`` of
the dense Laplacian: every ``verify`` row reads eigenvalues only (its
nodal rows count the constructed basis), as ``bench`` does.
``dense_eigen`` runs ``eigh`` for the eigenvectors too, for the ``nodal``
command, which reports the oracle's eigenvectors, and its vectors of
repeated eigenvalues are sharpened by inverse iteration.  A
tree Laplacian (degrees on the diagonal, -1 on every edge) minus a shift
factors from the leaves to the root with no fill-in (Parter 1961; Jacobs &
Trevisan, "Locating the eigenvalues of trees", 2011).  So every cluster is
solved in one batched O(n) pass per vector, next to the O(n^3) ``eigh``.
The solved clusters are nearly orthonormal already, so Newton-Schulz
steps (a Gram and a product each) finish them without a QR, and a basis
entry too near zero to classify is moved by a Householder reflection of
the few columns involved, not by a rotation of the whole cluster.
"""

from __future__ import annotations

import ctypes
import functools
import logging
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .laplacian import degrees, dense
from .nodal import cluster_spectrum
from .tree import CapacityError, RootedTree

# eigenvalues this close are one cluster, purified together
CLUSTER_TOL = 1e-8
# a purified cluster is projected off the vectors of eigenvalues near enough
# that the solve's own error, eps * |A| / gap, may exceed this
BLEED_TOL = 1e-13
# Newton-Schulz steps a purified cluster may take to reach BLEED_TOL
ORTHO_STEPS = 3
# LAPACK dsterf in numpy's bundled ILP64 OpenBLAS (int64 arguments)
DSTERF_SYMBOL = "scipy_dsterf_64_"
# dsyevd, behind eigvalsh, rescales a matrix whose max |entry| is outside
# [sqrt(tiny/eps), sqrt(eps/tiny)] before its dsterf; in float64:
UNSCALED = (2.0**-485, 2.0**485)
# most work, the sum of m^2 over the m-row slices, that one values solve
# may take: a path of 31,622 levels, some 20 s of dsterf
SOLVE_CAP = 10**9

log = logging.getLogger(__name__)


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

    def trailing(self, start: int) -> TriDiag:
        """Trailing principal submatrix from row ``start`` on."""
        if not 0 <= start < self.m:
            raise IndexError(f"row {start} out of range for {self.m} rows")
        return TriDiag(self.diag[start:], self.off[start:])

    def to_dense(self) -> np.ndarray:
        """The m x m array; one that cannot be allocated is a ``CapacityError``."""
        try:
            a = np.diag(self.diag)
        except MemoryError:
            raise CapacityError(f"a dense {self.m}x{self.m} tridiagonal does not fit in memory") from None
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


@functools.cache
def _dsterf():
    """LAPACK's ``dsterf`` from numpy's bundled OpenBLAS, or None.

    Bound on the first values solve, not at import, and the route that
    gives is logged once per process.
    """
    here = Path(np.__file__).resolve().parent
    paths = sorted([
        *here.parent.glob("numpy.libs/libscipy_openblas64_*"),
        *here.glob(".dylibs/libscipy_openblas64_*"),
    ])
    why = f"numpy at {here} bundles no libscipy_openblas64_"
    for path in paths:
        try:
            fn = getattr(ctypes.CDLL(str(path)), DSTERF_SYMBOL)
        except (OSError, AttributeError) as exc:
            why = f"{path} gives no {DSTERF_SYMBOL}: {exc}"
            continue
        fn.argtypes = (ctypes.c_void_p,) * 4  # n, d, e, info
        fn.restype = None
        log.debug("values route: LAPACK %s from %s", DSTERF_SYMBOL, path)
        return fn
    log.debug("values route: eigvalsh, since %s", why)
    return None


def trailing_eigenvalues(t: TriDiag, starts) -> list[np.ndarray]:
    """Eigenvalues of the trailing slice of ``t`` from each row in
    ``starts``, each nondecreasing; a start of ``t.m`` is the empty slice.

    Each slice is one ``dsterf`` call on a copy of its entries in one
    scratch buffer, so no slice is densified.  A slice whose max |entry|
    is outside ``UNSCALED`` (or not finite), and every slice where numpy
    bundles no ``dsterf``, is solved by ``eigvalsh`` of ``TriDiag.to_dense``
    instead.  Either way the values are bitwise those of ``eigvalsh`` on the
    dense slice.
    Slices of more than ``SOLVE_CAP`` squared rows in all are a
    ``CapacityError``, raised before any is solved.
    """
    m = t.m
    starts = np.asarray(starts, dtype=np.int64)
    outside = starts[(starts < 0) | (starts > m)]
    if outside.size:
        raise IndexError(f"row {outside[0]} out of range for {m} rows")
    sizes = (m - starts).astype(float)
    work = sizes @ sizes
    if work > SOLVE_CAP:
        raise CapacityError(
            f"the slices of a {m}-row level matrix take {work:.2g} squared rows of"
            f" tridiagonal solves, over the cap of {SOLVE_CAP:.0g}"
        )
    top = np.append(np.abs(t.diag), 0.0)
    np.maximum(top[: m - 1], np.abs(t.off), out=top[: m - 1])
    top = np.maximum.accumulate(top[::-1])[::-1][starts].tolist()  # max |entry| of each slice
    lo, hi = UNSCALED
    dsterf = _dsterf()
    scratch = np.empty(2 * m)  # the slice's diagonal, then its off-diagonal
    size, info = ctypes.c_int64(), ctypes.c_int64()
    at = scratch.ctypes.data
    args = (ctypes.byref(size), at, at + scratch.itemsize * m, ctypes.byref(info))
    out = []
    for start, big in zip(starts.tolist(), top):
        diag, off = t.diag[start:], t.off[start:]
        if dsterf is None or not (big == 0.0 or lo <= big <= hi):
            out.append(np.linalg.eigvalsh(TriDiag(diag, off).to_dense()))
            continue
        size.value = len(diag)
        scratch[: len(diag)] = diag
        scratch[m : m + len(off)] = off
        dsterf(*args)
        if info.value:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        out.append(scratch[: len(diag)].copy())
    return out


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
    tally: Counter | None = None,
) -> np.ndarray:
    """Sharpen eigenvectors of repeated eigenvalues by inverse iteration.

    When a degenerate cluster sits close (but outside ``CLUSTER_TOL``) to
    another eigenvalue, LAPACK vectors bleed across the small gap by roughly
    eps/gap, which pollutes coordinates that vanish in exact arithmetic.
    One shifted solve per cluster amplifies the cluster space and kills
    that bleed.  The solved block is about LAPACK's cluster vectors, each
    column scaled by 1 / (lambda - shift), so its normalized columns are
    nearly orthonormal already; ``_orthonormalize`` finishes them.  The
    solve's own error leaves about eps * |A| / gap of each neighbour in
    it, so the cluster is then projected off the vectors of the
    eigenvalues near enough for that to exceed ``BLEED_TOL``.

    The matrix is given by its tree: ``diag`` on the diagonal and -1 on
    every edge.  All clusters are solved at once by ``_tree_solve``, so
    purifying m vectors costs O(n * m), not a dense O(n^3) factorization
    per cluster, and orthonormalizing them O(n * m^2) per step.  A cluster
    whose solve is not finite, or is too far from orthonormal for
    ``_orthonormalize``, keeps LAPACK's vectors.

    A ``tally`` counts the clusters, the vectors purified, the
    Newton-Schulz steps, the reflection retries and the clusters kept as
    LAPACK's, and holds the worst max|q'q - I| of a purified cluster
    (one more Gram per cluster, so it is taken only with a tally).
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
    # realize numbers a symmetric tree breadth-first already, so its rows
    # need no gather into that order and its solved blocks no scatter out of
    # it.  np.take gathers in C order, as the ix_ gather does, so every
    # column sum adds in the same order and the vectors keep their bits.
    in_order = np.array_equal(order, np.arange(n))
    if in_order:
        solved = _tree_solve(up, starts, diag, shifts, owner, np.take(vecs, cols, axis=1))
    else:
        solved = _tree_solve(up, starts, diag[order], shifts, owner, vecs[np.ix_(order, cols)])
    reach = np.finfo(float).eps * scale / BLEED_TOL
    windows = np.searchsorted(vals, np.add.outer(shifts, [-reach, reach])).tolist()
    blocks = np.split(solved, np.cumsum(sizes)[:-1], axis=1)
    counts = Counter() if tally is None else tally
    counts["clusters"] += len(clusters)
    for (lo, hi), (a, b), block in zip(clusters, windows, blocks):
        w = block
        if not in_order:
            w = np.empty_like(block)
            w[order] = block
        q, steps = _orthonormalize(w) if np.all(np.isfinite(w)) else (None, 0)
        counts["steps"] += steps
        if q is None:
            counts["kept"] += 1
            continue
        q, retries = _avoid_fuzzy_zeros(q, seed=n * 1000 + lo)
        counts["retries"] += retries
        for near in (vecs[:, a:lo], vecs[:, hi:b]):
            if near.size:
                q -= near @ (near.T @ q)
        vecs[:, lo:hi] = q
        counts["purified"] += hi - lo
        if tally is not None:
            tally["worst"] = max(tally["worst"], _gram_gap(q)[1])
    return vecs


def _gram_gap(x: np.ndarray) -> tuple[np.ndarray, float]:
    """x'x - I for the columns of x, and its max |entry|."""
    f = x.T @ x
    f[np.diag_indices_from(f)] -= 1.0
    return f, float(np.max(np.abs(f)))


def _orthonormalize(x: np.ndarray) -> tuple[np.ndarray | None, int]:
    """An orthonormal basis of a nearly orthogonal block's columns, and the
    Newton-Schulz steps it took; None if the block is too far out.

    The columns of x are normalized in place, then each step
    x <- x - x (x'x - I) / 2 is one Gram and one product, until
    max |x'x - I| <= ``BLEED_TOL``.  The step maps each eigenvalue f of
    x'x - I to -f^2 (3 - f) / 4, so from m * max |x'x - I| < 1/2, which
    bounds its 2-norm, it converges quadratically.  A start outside that,
    or no convergence after ``ORTHO_STEPS`` steps, gives None.
    """
    x /= np.linalg.norm(x, axis=0)
    steps = 0
    while True:
        f, gap = _gram_gap(x)
        if gap <= BLEED_TOL:
            return x, steps
        if steps == ORTHO_STEPS or not x.shape[1] * gap < 0.5:
            return None, steps
        f *= 0.5
        x -= x @ f
        steps += 1


def _avoid_fuzzy_zeros(q: np.ndarray, seed: int) -> tuple[np.ndarray, int]:
    """Reflect an eigenspace basis away from ambiguous near-zero entries;
    returns the basis and the reflections it took.

    Entries of a degenerate-cluster basis are either exact zeros of the
    whole eigenspace (~1e-16 after purification) or genuine values; a
    genuine value that lands near the downstream zero threshold would be
    misclassified.  Any orthogonal recombination spans the same
    eigenspace, so each retry applies one random Householder reflection,
    q <- q - 2 (q u) u', with a unit vector u on the columns of the fuzzy
    entries and of each fuzzy row's largest entry: it mixes that row's
    weight into the fuzzy entries and leaves the rows of exact zeros at
    zero.  It costs O(n * m), as the check does, with no m x m
    factorization.  A random u on every column would redraw every entry of
    a large cluster, and at m = 585 about one of them lands in the band
    again each time.  Up to ten checks are made until every entry is
    clearly zero or clearly not, and the best basis seen is kept.  The
    generator is made at the first retry.
    """
    rng = None
    best, best_bad = q, np.inf
    for retries in range(10):
        size = np.abs(q)
        top = np.max(size, axis=0)
        fuzzy = (size > 1e-13 * top) & (size < 1e-6 * top)
        if not fuzzy.any():  # most clusters: far cheaper than an empty nonzero
            return q, retries
        rows, cols = np.nonzero(fuzzy)
        if len(rows) < best_bad:
            best, best_bad = q, len(rows)
        cols = np.union1d(cols, np.argmax(size[rows], axis=1))
        rng = rng or np.random.default_rng(seed)
        u = rng.standard_normal(len(cols))
        u /= np.linalg.norm(u)
        q = q.copy()
        q[:, cols] -= np.outer(q[:, cols] @ (2.0 * u), u)
    return best, 10


def dense_eigenvalues(tree: RootedTree) -> np.ndarray:
    """Nondecreasing eigenvalues of ``tree``'s Laplacian, by ``eigvalsh``
    of its dense form: no vectors are computed and none is purified.

    A matrix that cannot be allocated is a ``CapacityError``.
    """
    return np.linalg.eigvalsh(dense(tree))


def dense_eigen(tree: RootedTree):
    """Brute-force eigendecomposition of ``tree``'s Laplacian.

    Returns nondecreasing eigenvalues and an orthonormal eigenvector matrix
    (columns); eigenvectors of eigenvalues within ``CLUSTER_TOL`` of each
    other are refined so they span the cluster eigenspace to working
    precision.  A matrix that cannot be allocated is a ``CapacityError``.
    """
    # the n x n matrix is dropped when eigh returns: purification reads the
    # tree and its degrees
    vals, vecs = np.linalg.eigh(dense(tree))
    diag = degrees(tree)
    if not log.isEnabledFor(logging.DEBUG):
        return vals, _purify_degenerate(tree, diag, vals, vecs)
    tally = Counter(worst=0.0)
    vecs = _purify_degenerate(tree, diag, vals, vecs, tally)
    log.debug(
        "oracle: n=%d, %d clusters, %d vectors purified, %d Newton-Schulz steps,"
        " %d reflection retries, %d clusters kept as LAPACK's, worst max|q'q - I| %.2e",
        tree.n, tally["clusters"], tally["purified"], tally["steps"],
        tally["retries"], tally["kept"], tally["worst"],
    )
    return vals, vecs
