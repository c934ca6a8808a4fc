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
contiguous block of columns per level, so every eigenvector is one
constant per block.  The eigenbasis is therefore held implicitly
(``BlockVectors``), as each level family's values g and one (family,
position) entry per run of rows that share them: O(k^3) numbers plus
O(k^2) entries, not |V|^2.  The rows of a run also share their
eigenvalue, origin level and residual, so those are held once per
(family, position) too: nothing in the basis has |V| rows.  A row is
written as runs of equal entries (``BlockVectors.runs``), and the basis's
rank is certified from the level families (``EigenBasis.full_rank``).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eigen import TriDiag, tridiag_eigen
from .laplacian import assemble, matvec
from .tree import CapacityError, SymmetricTreeSpec, count_text, realize

DEFAULT_BASIS_CAP = 100_000


class Spectrum(NamedTuple):
    """A spectrum as columns, one entry per spectral line, sorted by value.

    Line r is the ``position[r]``-th eigenvalue ``values[r]`` of the
    recurrence rooted at level ``origin_level[r]``, on side
    ``origin_side[r]`` of a glued tree ("left", "right" or "stratified";
    the column is None for a symmetric tree).  Every line of a level family
    has that family's multiplicity, so ``multiplicities`` holds one exact
    Python int per family (counts can have thousands of digits) and
    ``family[r]`` indexes it.
    """

    values: np.ndarray
    origin_level: np.ndarray
    position: np.ndarray
    family: np.ndarray
    multiplicities: tuple[int, ...]
    origin_side: np.ndarray | None

    def multiplicity(self) -> list[int]:
        """The exact multiplicity of each line."""
        return [self.multiplicities[f] for f in self.family.tolist()]


def spectrum_from_parts(parts) -> Spectrum:
    """The ``Spectrum`` of ``(side, root level, multiplicity, values)``
    parts, one per level family; side is None for a symmetric tree.

    Lines are sorted stably by (value, side, level), sides by name: a
    symmetric tree's by (value, level), and a glued tree's by (value, side)
    when each side's parts come in level order.
    """
    part_sides, levels, multiplicities, arrays = zip(*parts)
    sides = sorted(set(part_sides))
    sizes = [len(values) for values in arrays]
    family = np.repeat(np.arange(len(parts)), sizes)
    side = np.repeat([sides.index(s) for s in part_sides], sizes)
    level = np.repeat(levels, sizes)
    position = np.concatenate([np.arange(size) for size in sizes])
    values = np.concatenate(arrays)
    order = np.lexsort((level, side, values))
    origin_side = None if sides == [None] else np.array(sides)[side[order]]
    return Spectrum(
        values[order], level[order], position[order], family[order], multiplicities, origin_side
    )


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
    so that its root value is positive.  A root value that rounds to zero
    (an eigenvector concentrated deep in a long path) keeps LAPACK's sign;
    it is still an eigenvector.  At the root level the smallest
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


def vectors_per_value(pops, l0: int) -> int:
    """How many basis vectors each eigenvalue of the level-l0 recurrence
    gives: n(l0) - n(l0-1) sibling differences, or 1 at the root.  A level
    below a single-child level gives none."""
    return pops[l0] - pops[l0 - 1] if l0 else 1


def level_spectra(spec: SymmetricTreeSpec, first_level: int = 0, side: str | None = None) -> list:
    """``(side, root level, multiplicity, eigenvalues)`` for each level
    from ``first_level`` that gives vectors.

    The level-l0 recurrence contributes each of its k-l0 simple eigenvalues
    with multiplicity ``vectors_per_value``.
    """
    t = level_matrix(spec)
    pops = spec.populations()
    out = []
    for l0 in range(first_level, spec.levels):
        mult = vectors_per_value(pops, l0)
        if mult:
            out.append((side, l0, mult, stratified_levels(t, l0)))
    return out


def decompose_spectrum(spec: SymmetricTreeSpec) -> Spectrum:
    """Complete Laplacian spectrum of a symmetric tree, never materialized.

    One solve per level-matrix slice; total multiplicity is exactly |V|.
    """
    return spectrum_from_parts(level_spectra(spec))


def counting_identity(spec: SymmetricTreeSpec) -> tuple[int, int]:
    """Both sides of the eigenfunction count, in exact integer arithmetic.

    lhs = sum over levels of (levels below) * (population jump) + k, which
    telescopes to the vertex count.
    """
    pops = spec.populations()
    k = spec.levels
    lhs = sum((k - i) * (pops[i] - pops[i - 1]) for i in range(1, k)) + k
    return lhs, sum(pops)


def expanded_spectrum(spectrum: Spectrum) -> np.ndarray:
    """Eigenvalues repeated by multiplicity, sorted ascending."""
    return np.repeat(spectrum.values, spectrum.multiplicity())


class LevelFamily(NamedTuple):
    """The basis vectors built from the recurrence rooted at level ``level``.

    Row i of ``g`` holds eigenvalue ``values[i]``'s value on each level from
    ``level`` down.
    """

    level: int
    values: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class BlockVectors:
    """The vectors of an eigenbasis, held as their level values.

    ``order[r]`` is the (family, position i) of the r-th run of rows.  The
    run's rows are g[i] of ``families[family]`` on the subtree of p's first
    child minus its copy on the subtree of p's child s, one per (parent
    rank p, sibling s) of ``pairs(family)``, or the one vector g[i] on the
    whole tree at the root level (where p = s = 0).
    """

    populations: tuple[int, ...]
    families: tuple[LevelFamily, ...]
    order: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays that hold the vectors: the level values and
        the run order."""
        return sum(fam.g.nbytes for fam in self.families) + self.order.nbytes

    def run_lengths(self) -> np.ndarray:
        """The number of rows in each run."""
        sizes = [vectors_per_value(self.populations, fam.level) for fam in self.families]
        return np.array(sizes, dtype=np.int64)[self.order[:, 0]]

    def pairs(self, family: int) -> Iterator[tuple[int, int]]:
        """The (parent rank p, sibling s) of each row of a run of ``family``,
        p-major: p < n(l0-1) and 1 <= s < c(l0-1), or (0, 0) alone at the
        root level."""
        l0, pops = self.families[family].level, self.populations
        if not l0:
            return iter([(0, 0)])
        return itertools.product(range(pops[l0 - 1]), range(1, pops[l0] // pops[l0 - 1]))

    def runs(self, family: int, p: int, s: int) -> list[tuple[int, int]]:
        """The rows of ``family`` with parent rank p and sibling s, as runs
        of equal entries in column order.

        A subtree holds one contiguous block of columns per level, so such a
        row is g[i, j] on p's first child's block at the family's level j
        and, below the root level, 0.0 - g[i, j] on p's child s's block.  A
        run is (entry, count), where the entry indexes the row's values
        (0.0, g[i, 0], ..., g[i, m-1], 0.0 - g[i, 0], ..., 0.0 - g[i, m-1])
        and m is the family's level count; ``entries`` gives those values.
        Runs of zeros are merged across levels.
        """
        l0, pops = self.families[family].level, self.populations
        m = len(pops) - l0
        out, end, offset = [], 0, sum(pops[:l0])
        for j, pop in enumerate(pops[l0:]):
            width = pop // pops[l0]  # one subtree's block at this level
            first = offset + p * (pop // pops[l0 - 1] if l0 else 0)  # p's children's blocks
            blocks = [(first, 1 + j), (first + s * width, 1 + m + j)] if l0 else [(first, 1 + j)]
            for start, entry in blocks:
                if start > end:
                    out.append((0, start - end))
                out.append((entry, width))
                end = start + width
            offset += pop
        if end < offset:
            out.append((0, offset - end))
        return out

    def entries(self, family: int, i: int) -> np.ndarray:
        """The values that ``runs`` indexes for position i of ``family``:
        0.0, g[i] and 0.0 - g[i] (never -g, so a zero stays +0.0)."""
        g = self.families[family].g[i]
        return np.concatenate(([0.0], g, 0.0 - g))


@dataclass(frozen=True)
class EigenBasis:
    """Complete eigenbasis of the full Laplacian with residual certificates.

    ``vectors`` holds the rows, sorted by (eigenvalue, origin level,
    position), as runs.  The rows of a run of (family f, position i) share
    the eigenvalue ``families[f].values[i]``, the origin level
    ``families[f].level``, the construction (a whole-tree "stratified"
    vector at level 0, else a sibling difference, "antisym") and the
    residual ``residuals[f][i]``.
    """

    vectors: BlockVectors
    residuals: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return int(self.vectors.run_lengths().sum())

    def full_rank(self, threshold: float = 1e-8) -> bool:
        """Whether the rows are independent, certified from the level families.

        The certificate relies on the column layout that ``BlockVectors.runs``
        codes, which the tests pin against a vector-by-vector build.  Under
        it, rows of different families are exactly orthogonal (a family-l0
        row sums to zero over the sibling subtrees below its parent, and a
        shallower row is level-constant on them), rows under different
        parents have disjoint supports, and the c - 1 sibling differences of
        one (family, p, i) have the Gram |g_i|_w^2 (I + J).
        So the rows are independent when (a) the families sit at distinct
        levels l0, ``order`` holds each (family, i) with i < k-l0 once, and
        its runs hold |V| rows in all, and (b) each family's Gram (g w) g^T,
        w_j = n(l0+j)/n(l0), normalized to a unit diagonal, has its least
        eigenvalue above ``threshold``.

        This is no looser than a pivot threshold on a QR of the
        unit-normalized rows: their Gram is block diagonal with blocks
        G_f (x) (I + J)/2, so its least eigenvalue is at least
        min_f lambda_min(G_f)/2, and every QR pivot is at least
        sqrt(threshold/2), 7e-5 at 1e-8.
        """
        vectors = self.vectors
        pops, fams = vectors.populations, vectors.families
        keys = [(f, i) for f, fam in enumerate(fams) for i in range(len(pops) - fam.level)]
        if (
            len({fam.level for fam in fams}) < len(fams)
            or sorted(map(tuple, vectors.order.tolist())) != keys
            or self.n != sum(pops)
        ):
            return False
        for fam in fams:
            l0 = fam.level
            gram = (fam.g * (np.array(pops[l0:]) / pops[l0])) @ fam.g.T
            d = np.sqrt(np.diagonal(gram))
            if not (np.all(d > 0) and np.linalg.eigvalsh(gram / d / d[:, None])[0] > threshold):
                return False
        return True


def full_eigenbasis(spec: SymmetricTreeSpec, basis_cap: int = DEFAULT_BASIS_CAP) -> EigenBasis:
    """All |V| eigenpairs of the full Laplacian, residual-certified.

    The root level gives one whole-tree stratified vector per eigenvalue i
    of its recurrence, with g[i, j] on level j.  Every deeper level l0
    gives, for each eigenvalue i, parent p at level l0-1 and sibling s >= 1,
    the Dirichlet eigenfunction g[i] on the subtree of p's first child
    minus its copy on the subtree of p's child s.  The basis is held as
    those level values and one (family, i) entry per run of rows, sorted by
    (eigenvalue, l0, i), with one residual per (family, i); no array of |V|
    rows is built.  Rows that tie in (eigenvalue, l0) are so ordered by i,
    then by p and s; they tie only when one family has two bitwise-equal
    eigenvalues.
    """
    n = spec.vertex_count()
    if n > basis_cap:
        raise CapacityError(f"basis of size {count_text(n)} exceeds the cap of {basis_cap}")
    pops = spec.populations()
    t = level_matrix(spec)
    families = [
        LevelFamily(l0, *stratified_levels(t, l0, want_vectors=True))
        for l0 in range(spec.levels)
        if vectors_per_value(pops, l0)
    ]

    family = np.concatenate([np.full(len(fam.values), f) for f, fam in enumerate(families)])
    position = np.concatenate([np.arange(len(fam.values)) for fam in families])
    levels = np.array([fam.level for fam in families])[family]
    order = np.lexsort((position, levels, np.concatenate([fam.values for fam in families])))
    vectors = BlockVectors(tuple(pops), tuple(families), np.stack((family, position), axis=1)[order])
    lap = assemble(realize(spec))
    residuals = []
    for f, fam in enumerate(families):
        # One residual per eigenvalue i, taken on the first row of its run:
        # the others hold the same level values on congruent subtrees (every
        # vertex of a level has the same row layout) or their exact
        # negation, so their residuals are bitwise the same.
        entry, count = np.array(vectors.runs(f, *next(vectors.pairs(f)))).T
        cols = entry.repeat(count)  # the entry of each column
        res = []
        for i, lam in enumerate(fam.values.tolist()):
            v = vectors.entries(f, i)[cols]
            res.append(float(np.max(np.abs(matvec(lap, v) - lam * v))))
        residuals.append(np.array(res))
    return EigenBasis(vectors, tuple(residuals))
