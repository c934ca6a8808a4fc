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
Eigenfunctions that vanish at a subtree root are a stratified Dirichlet
eigenfunction on one subtree minus its copy on a sibling subtree, which
yields exactly n(l0) - n(l0-1) independent vectors per recurrence
eigenvalue at level l0.  In breadth-first numbering a subtree holds one
contiguous block of columns per level, so the eigenbasis is written as one
constant per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import TriDiag, tridiag_eigen
from .laplacian import assemble, matvec
from .tree import CapacityError, SymmetricTreeSpec, realize

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


@dataclass(frozen=True)
class EigenBasis:
    """Complete eigenbasis of the full Laplacian with residual certificates.

    ``vectors`` has one eigenvector per row, sorted by (eigenvalue,
    origin level).  ``construction`` says whether a vector is a whole-tree
    stratified vector ("stratified") or a sibling difference ("antisym").
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

    Each vector holds one value per level on one or two subtrees, and a
    subtree's vertices at each level are one contiguous block of columns.
    The root level gives one whole-tree stratified vector per eigenvalue i
    of its recurrence, with g[i, j] on level j.  Every deeper level l0
    gives, for each parent p at level l0-1, eigenvalue i and sibling s >= 1,
    the Dirichlet eigenfunction g[i] on the subtree of p's first child
    minus its copy on the subtree of p's child s.
    """
    n = spec.vertex_count()
    if n > basis_cap:
        raise CapacityError(f"basis of size {n} exceeds the cap of {basis_cap}")
    pops = spec.populations()
    offsets = np.cumsum([0, *pops])
    t = level_matrix(spec)

    # Per level l0: (l0, c, eigenvalues, level vectors g, and one entry per
    # vector of parent rank p, eigenvalue position i and sibling s).  s runs
    # over 1..c-1 below each level-(l0-1) parent, and is 0 at the root level.
    families = []
    for l0 in range(spec.levels):
        c = spec.children[l0 - 1] if l0 else 1
        sibs = np.arange(1, c) if l0 else np.zeros(1, dtype=np.int64)
        if not sibs.size:
            continue
        vals, g = stratified_levels(t, l0, want_vectors=True)
        if np.any(g[:, 0] == 0.0):
            raise ValueError("a stratified eigenfunction cannot vanish at the subtree root")
        parents = np.arange(pops[l0 - 1] if l0 else 1)
        p, i, s = (a.ravel() for a in np.meshgrid(parents, np.arange(len(vals)), sibs, indexing="ij"))
        families.append((l0, c, vals, g, p, i, s))

    l0s, _, spectra, _, ps, positions, sibs = zip(*families)
    levels = np.concatenate([np.full(len(p), l0) for l0, p in zip(l0s, ps)])
    values = np.concatenate([vals[i] for vals, i in zip(spectra, positions)])
    # Sorted by (value, l0); ties keep the (l0, p, i, s) order they were made in.
    order = np.lexsort(
        (np.concatenate(sibs), np.concatenate(positions), np.concatenate(ps), levels, values)
    )
    assert len(order) == n, f"built {len(order)} vectors for |V|={n}"
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    try:
        vectors = np.zeros((n, n))
    except MemoryError:
        raise CapacityError(f"a basis of {n} vectors of length {n} does not fit in memory") from None
    lap = assemble(realize(spec))
    residuals = np.empty(n)
    start = 0
    for l0, c, vals, g, p, i, s in families:
        rows = rank[start : start + len(p)]
        start += len(p)
        for j, l in enumerate(range(l0, spec.levels)):
            width = pops[l] // pops[l0]  # one subtree's block at level l
            first = offsets[l] + (p * c * width)[:, None] + np.arange(width)
            vectors[rows[:, None], first] = g[i, j][:, None]
            if l0:
                vectors[rows[:, None], first + (s * width)[:, None]] = 0.0 - g[i, j][:, None]
        # One residual per eigenvalue i, taken on its p = 0, s = 1 member:
        # the others hold the same level values on congruent subtrees (every
        # vertex of a level has the same row layout) or their exact negation,
        # so their residuals are bitwise the same.
        reps = vectors[rows[(p == 0) & (s == s[0])]]
        res = [float(np.max(np.abs(matvec(lap, f) - lam * f))) for lam, f in zip(vals.tolist(), reps)]
        residuals[rows] = np.array(res)[i]

    values = values[order]
    origin_levels = levels[order]
    return EigenBasis(
        values,
        vectors,
        origin_levels,
        ["stratified" if l == 0 else "antisym" for l in origin_levels.tolist()],
        residuals,
    )
