"""Eigensolvers: LAPACK for symmetric tridiagonals, Sturm counts as an
independent check on them, and a dense symmetric solver used as the
brute-force oracle.

The tridiagonals are the small level matrices of the decomposition, so a
dense LAPACK solve of each costs little; ``sturm_count`` is kept apart from
that route so the test suite can check LAPACK's eigenvalue counts with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tree import CapacityError

DEFAULT_ORACLE_CAP = 2000


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

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        if self.m > 1:
            y[:-1] += self.off * x[1:]
            y[1:] += self.off * x[:-1]
        return y


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
    off-diagonals the eigenvalues are simple.
    """
    a = t.to_dense()
    if want_vectors:
        return np.linalg.eigh(a)
    return np.linalg.eigvalsh(a)


@dataclass(frozen=True)
class DenseSym:
    """Dense symmetric matrix, the oracle-side representation."""

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("square matrix required")
        object.__setattr__(self, "a", 0.5 * (a + a.T))

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _purify_degenerate(a: np.ndarray, vals: np.ndarray, vecs: np.ndarray, tol: float) -> np.ndarray:
    """Sharpen eigenvectors of repeated eigenvalues by inverse iteration.

    When a degenerate cluster sits close (but outside ``tol``) to another
    eigenvalue, LAPACK vectors bleed across the small gap by roughly
    eps/gap, which pollutes coordinates that vanish in exact arithmetic.
    One shifted solve per cluster amplifies the cluster space and kills
    that bleed; QR restores orthonormality within the cluster.
    """
    n = len(vals)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    start = 0
    for i in range(1, n + 1):
        if i < n and vals[i] - vals[i - 1] <= tol:
            continue
        size = i - start
        if size > 1:
            lam = float(np.mean(vals[start:i])) + 1e-12 * scale
            try:
                w = np.linalg.solve(a - lam * np.eye(n), vecs[:, start:i])
                q, _ = np.linalg.qr(w)
                vecs[:, start:i] = _avoid_fuzzy_zeros(q, seed=n * 1000 + start)
            except np.linalg.LinAlgError:
                pass
        start = i
    return vecs


def _avoid_fuzzy_zeros(q: np.ndarray, seed: int) -> np.ndarray:
    """Rotate an eigenspace basis away from ambiguous near-zero entries.

    Entries of a degenerate-cluster basis are either exact zeros of the
    whole eigenspace (~1e-16 after purification) or genuine values; a
    genuine value that lands near the downstream zero threshold would be
    misclassified.  Any orthogonal recombination spans the same
    eigenspace, so retry random rotations until every entry is clearly
    zero or clearly not.
    """
    rng = np.random.default_rng(seed)
    best, best_bad = q, np.inf
    for _ in range(10):
        rel = np.abs(q) / np.max(np.abs(q), axis=0)
        bad = int(np.sum((rel > 1e-13) & (rel < 1e-6)))
        if bad < best_bad:
            best, best_bad = q, bad
        if bad == 0:
            return q
        rot, _ = np.linalg.qr(rng.standard_normal((q.shape[1], q.shape[1])))
        q = q @ rot
    return best


def dense_eigen(m: DenseSym | np.ndarray, cap: int = DEFAULT_ORACLE_CAP, cluster_tol: float = 1e-8):
    """Brute-force eigendecomposition, refused above the size cap.

    The cap is checked on the input's shape, before the symmetrized copy is
    made.  Returns nondecreasing eigenvalues and an orthonormal eigenvector
    matrix (columns); eigenvectors of clustered eigenvalues are refined so
    they span the cluster eigenspace to working precision.
    """
    shape = np.shape(m.a if isinstance(m, DenseSym) else m)
    if shape and shape[0] > cap:
        raise CapacityError(f"dense solve of size {shape[0]} exceeds the cap of {cap}")
    if not isinstance(m, DenseSym):
        m = DenseSym(np.asarray(m))
    vals, vecs = np.linalg.eigh(m.a)
    vecs = _purify_degenerate(m.a, vals, vecs, cluster_tol)
    return vals, vecs
