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
slices and for installs whose numpy bundles no ``dsterf``.  Level
vectors, for the eigenbasis and its sign counts, come from a dense
``eigh`` of each slice whose eigenvalues are dropped, so every command
takes its values from this one route.
``sturm_count`` is kept apart from both routes so the test suite can check
LAPACK's eigenvalue counts with it.

The oracle, ``dense_eigenvalues``, is ``eigvalsh`` of the dense Laplacian:
values only, for ``verify``, ``nodal`` and ``bench``.  No command takes an
eigenvector of the Laplacian itself: every vector is built from level
values.
"""

from __future__ import annotations

import ctypes
import functools
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .laplacian import dense
from .tree import CapacityError, RootedTree

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


def dense_eigenvalues(tree: RootedTree) -> np.ndarray:
    """Nondecreasing eigenvalues of ``tree``'s Laplacian, by ``eigvalsh``
    of its dense form: no vectors are computed.

    A matrix that cannot be allocated is a ``CapacityError``.
    """
    return np.linalg.eigvalsh(dense(tree))
