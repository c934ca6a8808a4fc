"""Spectrum and eigenbasis of symmetric-tree Laplacians via the stratified
level recurrence.

A Laplacian eigenfunction that is constant on each level of a (sub)tree is
determined by one value per level, and those values satisfy a three-term
recurrence.  A diagonal similarity makes that recurrence symmetric: the
level matrix T of the whole tree holds the level degrees on its diagonal
and sqrt(c(l)) beside it.  The recurrence of a subtree rooted at level l0
is the trailing slice of T from row l0 (Rojo & Robbiano's Bethe-tree
formula, in reversed level order), so the full eigenproblem on |V|
vertices becomes LAPACK solves of k slices of one k-row matrix.
Eigenfunctions that vanish at a subtree root are recovered by transporting
a stratified Dirichlet eigenfunction between sibling subtrees and taking
differences, which yields exactly n(l0) - n(l0-1) independent vectors per
recurrence eigenvalue at level l0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import TriDiag, tridiag_eigen
from .laplacian import assemble, matvec
from .tree import CapacityError, SymmetricTreeSpec, TreeIndex, build_index

DEFAULT_BASIS_CAP = 100_000


@dataclass(frozen=True)
class SpectralLine:
    """One eigenvalue of the full Laplacian with multiplicity and provenance.

    ``origin_level`` is the root level of the subtree whose level recurrence
    produced the value; ``position`` is its rank within that recurrence's
    ordered spectrum.  Multiplicity is exact (a Python int, possibly huge).
    """

    value: float
    multiplicity: int
    origin_level: int
    position: int


def level_matrix(spec: SymmetricTreeSpec) -> TriDiag:
    """Balanced stratified recurrence of the whole tree, one row per level.

    Row l holds the degree d(l) on the diagonal and sqrt(c(l)) beside it.
    For l >= 1, d(l) already counts the parent edge, which is exactly the
    Dirichlet diagonal of a subtree rooted at level l, so that subtree's
    recurrence is ``level_matrix(spec).trailing(l)``.
    """
    diag = np.array([float(spec.degree(l)) for l in range(spec.levels)])
    return TriDiag(diag, np.sqrt(np.asarray(spec.children, dtype=float)))


def stratified_levels(t: TriDiag, root_level: int, want_vectors: bool = False):
    """Eigenvalues (and per-level eigenvectors) of the recurrence at ``root_level``.

    ``t`` is the tree's ``level_matrix``.  The vectors come back one per row
    in level-recurrence coordinates, g[j] = (-1)^j w[j] / sqrt(relative
    population of level j within the subtree), where that square root is
    the running product of the slice's off-diagonals sqrt(c); each is signed
    so that its root value is positive.  At the root level the smallest
    eigenvalue is the Laplacian's zero (the constant eigenfunction), which
    LAPACK returns as +-1e-16 and is set to exactly 0.0 here.
    """
    s = t.trailing(root_level)
    if want_vectors:
        vals, w = tridiag_eigen(s, want_vectors=True)
    else:
        vals = tridiag_eigen(s)
    if root_level == 0:
        vals[0] = 0.0
    if not want_vectors:
        return vals
    scale = np.concatenate(([1.0], np.cumprod(s.off)))
    sign = np.where(np.arange(s.m) % 2, -1.0, 1.0)
    g = (w * (sign / scale)[:, None]).T
    g[g[:, 0] < 0] *= -1.0
    return vals, g


def level_spectra(
    spec: SymmetricTreeSpec, first_level: int = 0
) -> list[tuple[int, int, np.ndarray]]:
    """``(root level, multiplicity, eigenvalues)`` for each level from ``first_level``.

    The level-l0 recurrence contributes each of its k-l0 simple eigenvalues
    with multiplicity n(l0)-n(l0-1) (1 at the root); levels below a
    single-child level add no vertices and are skipped.
    """
    t = level_matrix(spec)
    pops = spec.populations()
    out = []
    for l0 in range(first_level, spec.levels):
        mult = 1 if l0 == 0 else pops[l0] - pops[l0 - 1]
        if mult:
            out.append((l0, mult, stratified_levels(t, l0)))
    return out


def decompose_spectrum(spec: SymmetricTreeSpec) -> list[SpectralLine]:
    """Complete Laplacian spectrum of a symmetric tree, never materialized.

    One solve per level-matrix slice; total multiplicity is exactly |V|.
    """
    lines = [
        SpectralLine(lam, mult, l0, pos)
        for l0, mult, vals in level_spectra(spec)
        for pos, lam in enumerate(vals.tolist())
    ]
    lines.sort(key=lambda s: (s.value, s.origin_level))
    return lines


def counting_identity(spec: SymmetricTreeSpec) -> tuple[int, int]:
    """Both sides of the eigenfunction count, in exact integer arithmetic.

    lhs = sum over levels of (levels below) * (population jump) + k, which
    telescopes to the vertex count.
    """
    pops = spec.populations()
    k = spec.levels
    lhs = sum((k - i) * (pops[i] - pops[i - 1]) for i in range(1, k)) + k
    return lhs, sum(pops)


def expanded_spectrum(lines) -> np.ndarray:
    """Eigenvalues repeated by multiplicity, sorted ascending.

    Reads only ``value`` and ``multiplicity``, so it serves the spectral
    lines of symmetric and glued trees alike.
    """
    out = np.concatenate([np.full(s.multiplicity, s.value) for s in lines])
    out.sort()
    return out


def stratified_lift(index: TreeIndex, v: int, g: np.ndarray) -> np.ndarray:
    """Extend per-level values on the subtree at v to a full-tree vector.

    Zero outside the subtree; constant on each subtree level.  A stratified
    eigenfunction cannot vanish at its root, so g[0]=0 is rejected.
    """
    g = np.asarray(g, dtype=float)
    ranges = index.subtree_ranges(v)
    if len(g) != len(ranges):
        raise ValueError(f"need {len(ranges)} level values, got {len(g)}")
    if g[0] == 0.0:
        raise ValueError("a stratified eigenfunction cannot vanish at the subtree root")
    f = np.zeros(index.n)
    for val, r in zip(g, ranges):
        f[r.start : r.stop] = val
    return f


def antisym_lift(index: TreeIndex, v: int, f: np.ndarray) -> list[np.ndarray]:
    """Difference of a subtree eigenfunction with its sibling transports.

    For each sibling subtree of v, copy f there (the subtrees are
    isomorphic by construction, and identically indexed up to an offset per
    level) and subtract.  Each result vanishes at the common parent and on
    the rest of the tree, so it solves the full eigen-equation with the
    same eigenvalue; the |siblings| results are linearly independent.
    """
    parent = index.parent_of(v)
    if parent is None:
        raise ValueError("antisymmetric lift needs a non-root vertex")
    if f[v] == 0.0:
        raise ValueError("lift requires a nonzero value at the subtree root")
    ranges = index.subtree_ranges(v)
    out = []
    for sib in index.children_of(parent):
        if sib == v:
            continue
        shift = sib - v
        fp = f.copy()
        for r in ranges:
            # sibling subtrees occupy identically-sized contiguous blocks
            # at every level, a fixed per-level offset apart
            off = shift * len(r)
            fp[r.start + off : r.stop + off] -= f[r.start : r.stop]
        out.append(fp)
    return out


def symmetrize(index: TreeIndex, v: int, f: np.ndarray) -> np.ndarray:
    """Average f over relabelings of v's children (orbit-average projection).

    Equal to the full group average but computed as the mean over the
    child-subtree transports, level by level.
    """
    children = index.children_of(v)
    c = len(children)
    if c == 0:
        return np.asarray(f, dtype=float).copy()
    out = np.asarray(f, dtype=float).copy()
    for depth, r in enumerate(index.subtree_ranges(v)):
        if depth == 0:
            continue
        block = out[r.start : r.stop].reshape(c, -1)
        out[r.start : r.stop] = np.broadcast_to(
            block.mean(axis=0), block.shape
        ).reshape(-1)
    return out


@dataclass(frozen=True)
class EigenBasis:
    """Complete eigenbasis of the full Laplacian with residual certificates.

    ``vectors`` has one eigenvector per row, sorted by (eigenvalue,
    origin level).  ``construction`` says whether a vector is a whole-tree
    stratified lift or an antisymmetrized sibling difference.
    """

    values: np.ndarray
    vectors: np.ndarray
    origin_levels: np.ndarray
    construction: list[str]
    residuals: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    def full_rank(self, threshold: float = 1e-8) -> bool:
        """Pivot threshold on the unit-normalized rows' Gram-Schmidt norms.

        |R_ii| of a QR of the rows (as columns) is the norm of row i's
        component orthogonal to the rows before it.
        """
        q = self.vectors / np.linalg.norm(self.vectors, axis=1, keepdims=True)
        pivots = np.abs(np.diagonal(np.linalg.qr(q.T, mode="r")))
        return len(pivots) == self.n and bool(np.all(pivots > threshold))


def full_eigenbasis(spec: SymmetricTreeSpec, basis_cap: int = DEFAULT_BASIS_CAP) -> EigenBasis:
    """All |V| eigenpairs of the full Laplacian, residual-certified.

    Whole-tree stratified lifts cover the root level; for every deeper
    level l0 the stratified Dirichlet eigenfunctions of one representative
    subtree are antisymmetrized across each of the n(l0-1) sibling groups.
    """
    n = spec.vertex_count()
    if n > basis_cap:
        raise CapacityError(f"basis of size {n} exceeds the cap of {basis_cap}")
    index = build_index(spec)
    lap = assemble(index)
    pops = index.populations

    entries: list[tuple[float, int, str, np.ndarray]] = []

    t = level_matrix(spec)
    vals, gs = stratified_levels(t, 0, want_vectors=True)
    for lam, g in zip(vals, gs):
        entries.append((float(lam), 0, "stratified", stratified_lift(index, 0, g)))

    for l0 in range(1, spec.levels):
        if pops[l0] - pops[l0 - 1] == 0:
            continue
        vals, gs = stratified_levels(t, l0, want_vectors=True)
        for parent in range(index.offsets[l0 - 1], index.offsets[l0]):
            v = index.children_of(parent)[0]
            for lam, g in zip(vals, gs):
                f = stratified_lift(index, v, g)
                for fp in antisym_lift(index, v, f):
                    entries.append((float(lam), l0, "antisym", fp))

    assert len(entries) == n, f"built {len(entries)} vectors for |V|={n}"
    entries.sort(key=lambda e: (e[0], e[1]))
    values = np.array([e[0] for e in entries])
    vectors = np.array([e[3] for e in entries])
    residuals = np.array(
        [
            float(np.max(np.abs(matvec(lap, e[3]) - e[0] * e[3])))
            for e in entries
        ]
    )
    return EigenBasis(
        values,
        vectors,
        np.array([e[1] for e in entries]),
        [e[2] for e in entries],
        residuals,
    )
