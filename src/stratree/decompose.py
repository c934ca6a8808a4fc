"""Spectrum and eigenbasis of symmetric-tree Laplacians via the stratified
level recurrence.

A Laplacian eigenfunction that is constant on each level of a (sub)tree is
determined by one value per level, and those values satisfy a three-term
recurrence.  A diagonal similarity makes that recurrence symmetric: the
level matrix T of the whole tree holds the level degrees on its diagonal
and sqrt(c(l)) beside it.  The recurrence of a subtree rooted at level l0
is the trailing slice of T from row l0 (Rojo & Robbiano's Bethe-tree
formula, in reversed level order), so the full eigenproblem on |V|
vertices becomes LAPACK solves of k slices of one k-row matrix: O(k^3)
time and O(k) memory for the spectrum.
Eigenfunctions that vanish at a subtree root are a stratified Dirichlet
eigenfunction on one subtree minus its copy on a sibling subtree, which
yields exactly n(l0) - n(l0-1) independent vectors per recurrence
eigenvalue at level l0.  In breadth-first numbering a subtree holds one
contiguous block of columns per level, so every eigenvector is one
constant per block.  The eigenbasis is therefore held implicitly
(``BlockVectors``), as each level family's values g and the basis's
``Spectrum``, whose lines are its runs of rows in order: O(k^3) numbers
plus O(k^2) lines, not |V|^2.  The rows of a run share their line's
eigenvalue, origin level and residual, so nothing in the basis has |V|
rows.  Only the residual certificate forms rows: the Laplacian times the
first row of every run, an n x lines product taken ``RESIDUAL_BLOCK``
entries at a time (one line at a time past |V| = ``RESIDUAL_BLOCK``).
A family's rows are zeros around 2m blocks of one value each, at
columns one numpy broadcast finds for all of them
(``BlockVectors.layout``), and the basis's rank is certified from the
level families (``EigenBasis.full_rank``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .eigen import TriDiag, trailing_eigenvalues
from .laplacian import matvec
from .tree import CapacityError, SymmetricTreeSpec, count_text, realize

DEFAULT_BASIS_CAP = 100_000
# Entries of one block of the residual product: 64 KiB per array, under
# glibc's default 128 KiB mmap threshold, so a fresh process reuses heap
# pages for each block; 1 MiB blocks were mapped and faulted in afresh and
# made full_eigenbasis slower than one product per line.
RESIDUAL_BLOCK = 1 << 13


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
    when each side's parts come in level order.  The first value of a
    level-0 part is the Laplacian's zero (the constant eigenfunction),
    which LAPACK returns as +-1e-16; its line holds exactly 0.0.
    """
    part_sides, levels, multiplicities, arrays = zip(*parts)
    sides = sorted(set(part_sides))
    sizes = [len(values) for values in arrays]
    family = np.repeat(np.arange(len(parts)), sizes)
    side = np.repeat([sides.index(s) for s in part_sides], sizes)
    level = np.repeat(levels, sizes)
    position = np.concatenate([np.arange(size) for size in sizes])
    values = np.concatenate(arrays)
    values[(level == 0) & (position == 0)] = 0.0
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


def stratified_levels(t: TriDiag, root_level: int) -> np.ndarray:
    """Per-level eigenvectors of the recurrence at ``root_level``, row i
    that of its i-th smallest eigenvalue.

    ``t`` is the tree's ``level_matrix``.  The vectors are in
    level-recurrence coordinates, g[j] = (-1)^j w[j] / sqrt(relative
    population of level j within the subtree), where that square root is
    the running product of the slice's off-diagonals sqrt(c); each is signed
    so that its root value is positive.  A root value that rounds to zero
    (an eigenvector concentrated deep in a long path) keeps LAPACK's sign;
    it is still an eigenvector.  They come from ``eigh`` of the densified
    slice, whose values are dropped for ``level_spectra``'s; a slice too
    large to densify is a ``CapacityError``.
    """
    s = t.trailing(root_level)
    w = np.linalg.eigh(s.to_dense())[1]
    scale = np.concatenate(([1.0], np.cumprod(s.off)))
    sign = np.where(np.arange(s.m) % 2, -1.0, 1.0)
    g = (w * (sign / scale)[:, None]).T
    g[g[:, 0] < 0] *= -1.0
    return g


def vectors_per_value(pops, l0: int) -> int:
    """How many basis vectors each eigenvalue of the level-l0 recurrence
    gives: n(l0) - n(l0-1) sibling differences, or 1 at the root.  A level
    below a single-child level gives none."""
    return pops[l0] - pops[l0 - 1] if l0 else 1


def level_spectra(spec: SymmetricTreeSpec, first_level: int = 0, side: str | None = None) -> list:
    """``(side, root level, multiplicity, eigenvalues)`` for each level
    from ``first_level`` that gives vectors.

    The level-l0 recurrence contributes each of its k-l0 simple eigenvalues
    with multiplicity ``vectors_per_value``.  All slices are solved by one
    ``trailing_eigenvalues`` call.  Its ``SOLVE_CAP`` check comes before
    the exact populations are built, which hold O(k^2) bits on a deep
    growing tree.  A level gives vectors unless its parent level has one
    child.
    """
    levels = [l0 for l0 in range(first_level, spec.levels) if not l0 or spec.children[l0 - 1] > 1]
    spectra = trailing_eigenvalues(level_matrix(spec), levels)
    pops = spec.populations()
    return [(side, l0, vectors_per_value(pops, l0), vals) for l0, vals in zip(levels, spectra)]


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

    Row i of ``g`` holds the i-th eigenvector's value on each level from
    ``level`` down.
    """

    level: int
    g: np.ndarray


class RowLayout(NamedTuple):
    """Where the blocks of one level family's rows sit.

    Row r of a run (the r-th (parent rank p, sibling s), p-major) is
    ``gaps[r, 0]`` zeros, block 0 (``widths[0]`` columns of one value),
    ``gaps[r, 1]`` zeros, block 1, and so on, ending with ``gaps[r, -1]``
    zeros after the last block.
    """

    gaps: np.ndarray
    widths: np.ndarray


@dataclass(frozen=True)
class BlockVectors:
    """The vectors of an eigenbasis, held as their level values.

    Line r of ``lines`` is the r-th run of rows, of family f =
    ``lines.family[r]`` and position i = ``lines.position[r]``.  The run's
    rows are g[i] of ``families[f]`` on the subtree of p's first child minus
    its copy on the subtree of p's child s, one per parent rank p at level
    l0-1 and sibling 1 <= s < c(l0-1), p-major, or the one vector g[i] on
    the whole tree at the root level.  ``layout(f)`` places their blocks
    and row i of ``block_values(f)`` fills them.
    """

    populations: tuple[int, ...]
    families: tuple[LevelFamily, ...]
    lines: Spectrum
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays that hold the vectors: the level values and
        the run order, the family and position columns of ``lines``."""
        lines = self.lines
        return sum(fam.g.nbytes for fam in self.families) + lines.family.nbytes + lines.position.nbytes

    def layout(self, family: int) -> RowLayout:
        """The ``RowLayout`` of every row of a run of ``family``, from one
        broadcast over its (p, s).

        A subtree holds one contiguous block of columns per level, so at
        the family's level j = 0, ..., m-1 (m levels from l0 down) a row has
        one block of w_j = n(l0+j)/n(l0) columns at first_j(p) = offset(l0+j)
        + p c w_j, where c = c(l0-1), and one at first_j(p) + s w_j, in
        that order: 2m blocks.  The root level's one row has m blocks, the
        whole levels, with no zeros between them.

        Each family's layout is built once and kept, read-only, so the
        residual product and the ``eigvecs`` writer share its arrays.
        """
        if family in self._layouts:
            return self._layouts[family]
        l0, pops = self.families[family].level, self.populations
        offsets = np.cumsum([0, *pops], dtype=np.int64)
        w = np.array(pops[l0:], dtype=np.int64) // pops[l0]
        if l0:
            c = pops[l0] // pops[l0 - 1]
            p = np.arange(pops[l0 - 1], dtype=np.int64)[:, None, None]
            s = np.arange(1, c, dtype=np.int64)[None, :, None]
            first = offsets[l0:-1] + p * c * w
            starts = np.stack(np.broadcast_arrays(first, first + s * w), axis=-1).reshape(-1, 2 * len(w))
            widths = np.repeat(w, 2)
        else:
            starts, widths = offsets[None, :-1], w
        ends = starts + widths
        rows = len(starts)
        gaps = np.hstack((starts, np.full((rows, 1), offsets[-1])))
        gaps -= np.hstack((np.zeros((rows, 1), np.int64), ends))
        gaps.flags.writeable = widths.flags.writeable = False
        self._layouts[family] = layout = RowLayout(gaps, widths)
        return layout

    def block_values(self, family: int) -> np.ndarray:
        """The value of each block of ``layout(family)``, one row per
        position i: g[i, j] and 0.0 - g[i, j] (never -g, so a zero stays
        +0.0) for each level j, or g[i] alone at the root level."""
        fam = self.families[family]
        g = fam.g
        return np.stack((g, 0.0 - g), axis=-1).reshape(len(g), -1) if fam.level else g


def _row_runs(gaps, widths, values) -> tuple[np.ndarray, np.ndarray]:
    """The entries of rows of ``values`` (one row per row of values, all on
    one ``RowLayout`` row ``gaps``) and how often each repeats: zeros of
    ``gaps`` around blocks of ``widths`` columns of the row's values."""
    entries = np.zeros((len(values), 2 * values.shape[1] + 1))
    entries[:, 1::2] = values
    counts = np.empty(entries.shape[1], dtype=np.int64)
    counts[0::2], counts[1::2] = gaps, widths
    return entries.ravel(), np.tile(counts, len(values))


@dataclass(frozen=True)
class EigenBasis:
    """Complete eigenbasis of the full Laplacian with residual certificates.

    ``vectors`` holds the rows, sorted by (eigenvalue, origin level,
    position), as runs, one per line of ``vectors.lines``.  The rows of the
    run of line r, of family f and position i, share the eigenvalue
    ``lines.values[r]``, the origin level ``lines.origin_level[r]``, the
    construction (a whole-tree "stratified" vector at level 0, else a
    sibling difference, "antisym") and the residual ``residuals[f][i]``.
    """

    vectors: BlockVectors
    residuals: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return sum(self.vectors.lines.multiplicity())

    def full_rank(self, threshold: float = 1e-8) -> bool:
        """Whether the rows are independent, certified from the level families.

        The certificate relies on the column layout that ``BlockVectors.layout``
        codes, which the tests pin against a vector-by-vector build.  Under
        it, rows of different families are exactly orthogonal (a family-l0
        row sums to zero over the sibling subtrees below its parent, and a
        shallower row is level-constant on them), rows under different
        parents have disjoint supports, and the c - 1 sibling differences of
        one (family, p, i) have the Gram |g_i|_w^2 (I + J).
        So the rows are independent when (a) the families sit at distinct
        levels l0, ``lines`` holds each (family, i) with i < k-l0 once, with
        the multiplicity ``vectors_per_value`` of its family's level, and its
        runs hold |V| rows in all, and (b) each family's Gram (g w) g^T,
        w_j = n(l0+j)/n(l0), normalized to a unit diagonal, has its least
        eigenvalue above ``threshold``.

        This is no looser than a pivot threshold on a QR of the
        unit-normalized rows: their Gram is block diagonal with blocks
        G_f (x) (I + J)/2, so its least eigenvalue is at least
        min_f lambda_min(G_f)/2, and every QR pivot is at least
        sqrt(threshold/2), 7e-5 at 1e-8.
        """
        pops, fams, lines = self.vectors.populations, self.vectors.families, self.vectors.lines
        keys = [(f, i) for f, fam in enumerate(fams) for i in range(len(pops) - fam.level)]
        if (
            len({fam.level for fam in fams}) < len(fams)
            or sorted(zip(lines.family.tolist(), lines.position.tolist())) != keys
            or lines.multiplicities != tuple(vectors_per_value(pops, fam.level) for fam in fams)
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
    those level values and ``decompose_spectrum``'s lines, bit for bit, one
    per run of rows: only g comes from ``stratified_levels``.  Each line
    has one residual, the largest entry of |L v - lambda v| on the run's
    first row v.  Those rows are built only for that n x lines product, in
    blocks of at most ``RESIDUAL_BLOCK`` entries (at least one line each),
    so the certificate holds O(max(|V|, RESIDUAL_BLOCK)) numbers at a time;
    the basis holds no array of |V| rows.  The families sit at distinct
    levels, so runs are sorted by (eigenvalue, l0, i), and the rows of a
    run by p and s; runs tie in (eigenvalue, l0) only when one family has
    two bitwise-equal eigenvalues.
    """
    n = spec.vertex_count()
    if n > basis_cap:
        raise CapacityError(f"basis of size {count_text(n)} exceeds the cap of {basis_cap}")
    parts = level_spectra(spec)
    lines = spectrum_from_parts(parts)
    t = level_matrix(spec)
    families = tuple(LevelFamily(l0, stratified_levels(t, l0)) for _, l0, _, _ in parts)
    vectors = BlockVectors(tuple(spec.populations()), families, lines)
    tree = realize(spec)
    # One residual per line, taken on the first row of its run: the others
    # hold the same level values on congruent subtrees (every vertex of a
    # level has the same row layout) or their exact negation, so their
    # residuals are bitwise the same.  The first rows of all (family,
    # position) pairs, family-major, are one run-length code, so each block
    # of RESIDUAL_BLOCK entries is one np.repeat and one matvec.
    entries, counts, row_sizes = [], [], []
    for f, fam in enumerate(families):
        layout = vectors.layout(f)
        e, c = _row_runs(layout.gaps[0], layout.widths, vectors.block_values(f))
        entries.append(e)
        counts.append(c)
        row_sizes += [len(e) // len(fam.g)] * len(fam.g)
    entries, counts = np.concatenate(entries), np.concatenate(counts)
    row_starts = np.cumsum([0, *row_sizes])
    # the eigenvalue of each pair comes from its line, which holds the exact zero
    first = np.cumsum([0, *(len(fam.g) for fam in families)])
    lam = np.empty(first[-1])
    lam[first[lines.family] + lines.position] = lines.values
    res = np.empty(len(lam))
    step = max(1, RESIDUAL_BLOCK // n)
    for lo in range(0, len(lam), step):
        hi = min(lo + step, len(lam))
        run = slice(row_starts[lo], row_starts[hi])
        x = np.repeat(entries[run], counts[run]).reshape(hi - lo, n).T
        r = matvec(tree, x)
        r -= lam[lo:hi] * x
        res[lo:hi] = np.max(np.abs(r, out=r), axis=0)
    return EigenBasis(vectors, tuple(np.split(res, first[1:-1])))
