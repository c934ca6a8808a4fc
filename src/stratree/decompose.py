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
(``BlockVectors``), as one stack of level values, a row of k numbers per
(level family, position), and the basis's ``Spectrum``, whose lines are
its runs of rows in order: O(k^3) numbers plus O(k^2) lines, not |V|^2.
The rows of a run share their line's eigenvalue, origin level and
residual, so nothing in the basis has |V| rows.  The checks on the basis
read the stack whole, in a number of numpy calls that does not grow with
the number of families: the residual certificate multiplies the
Laplacian into the first row of every run, one run-length code of the
stack (``BlockVectors.first_row_runs``) expanded ``RESIDUAL_BLOCK``
entries at a time (one line at a time past |V| = ``RESIDUAL_BLOCK``);
the rank certificate is one population-weighted Gram of the stack
(``EigenBasis.full_rank``); and ``nodal.level_sign_graphs`` counts sign
graphs on it.  Only ``eigvecs`` writes every row: a family's rows are
zeros around 2m blocks of one value each, at columns one numpy
broadcast finds for all of them (``BlockVectors.layout``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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


def stratified_levels(t: TriDiag, levels) -> np.ndarray:
    """Per-level eigenvectors of the recurrences rooted at each of
    ``levels``, as one stack: the k - l0 rows of each level l0 in turn, row
    i that of the i-th smallest eigenvalue of its slice, in columns of
    absolute level, zero above l0.

    ``t`` is the tree's ``level_matrix``.  The vectors are in
    level-recurrence coordinates, g[j] = (-1)^j w[j] / sqrt(relative
    population of level j within the subtree), where that square root is
    the running product of the slice's off-diagonals sqrt(c); each is signed
    so that its root value is positive.  A root value that rounds to zero
    (an eigenvector concentrated deep in a long path) keeps LAPACK's sign;
    it is still an eigenvector.  They come from ``eigh`` of each densified
    slice, whose values are dropped for ``level_spectra``'s, and are written
    scaled into the stack; a slice too large to densify is a
    ``CapacityError``.  The stack is taken from ``np.empty``: on a path its
    one family is as large as the tree.
    """
    k = t.m
    levels = np.asarray(levels, dtype=np.int64)
    row_level = np.repeat(levels, k - levels)
    column = np.arange(k)
    # one row per family: the alternating sign over the running product of
    # sqrt(c) from its level down, both 1 at the level itself
    running = np.ones((len(levels), k))
    running[:, 1:] = np.where(column[1:] > levels[:, None], t.off, 1.0)
    sign = np.where((column - levels[:, None]) % 2, -1.0, 1.0)
    factor = sign / np.cumprod(running, axis=1)
    values = np.empty((len(row_level), k))
    above = column < row_level[:, None]
    values[above] = 0.0
    at = 0
    for l0, f in zip(levels.tolist(), factor):
        w = np.linalg.eigh(t.trailing(l0).to_dense())[1]
        np.multiply(w.T, f[l0:], out=values[at : at + k - l0, l0:])
        at += k - l0
    flip = values[np.arange(len(values)), row_level] < 0
    np.negative(values, out=values, where=flip[:, None] & ~above)
    return values


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

    ``values`` is one stack of every family's level values, as
    ``stratified_levels`` writes it: the k - l0 rows of the family at level
    l0 = ``levels[f]``, family-major, row i that of position i, in columns
    of absolute level, zero above l0.  ``families[f].g`` is a view of family
    f's rows from column l0.  Line r of ``lines`` is the r-th run of rows,
    of family f = ``lines.family[r]`` and position i =
    ``lines.position[r]``, stack row ``line_row[r]``.  The run's rows are
    g[i] on the subtree of p's first child minus its copy on the subtree of
    p's child s, one per parent rank p at level l0-1 and sibling
    1 <= s < c(l0-1), p-major, or the one vector g[i] on the whole tree at
    the root level.  At level L the subtree holds ``widths[f, L]`` columns.
    ``first_row_runs()`` codes the first row of every run, and
    ``layout(f)`` places the blocks of every row of a run of family f,
    which row i of ``block_values(f)`` fills.
    """

    populations: tuple[int, ...]
    levels: tuple[int, ...]
    values: np.ndarray
    lines: Spectrum
    _layouts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def offsets(self) -> np.ndarray:
        """The first column of each level, then |V|."""
        return np.cumsum([0, *self.populations], dtype=np.int64)

    @cached_property
    def widths(self) -> np.ndarray:
        """W[f, L] = n(L)/n(l0), family f's columns on one subtree at level
        L, or 0 above its level l0: one row per family."""
        pops = np.array(self.populations, dtype=np.int64)
        levels = np.array(self.levels, dtype=np.int64)[:, None]
        return np.where(np.arange(len(pops)) < levels, 0, pops // pops[levels])

    @cached_property
    def family_start(self) -> np.ndarray:
        """The first stack row of each family, then the row count."""
        k = len(self.populations)
        return np.cumsum([0, *(k - l0 for l0 in self.levels)])

    @cached_property
    def row_family(self) -> np.ndarray:
        """The family of each stack row."""
        return np.repeat(np.arange(len(self.levels)), np.diff(self.family_start))

    @cached_property
    def line_row(self) -> np.ndarray:
        """The stack row of each line."""
        return self.family_start[self.lines.family] + self.lines.position

    @cached_property
    def families(self) -> tuple[LevelFamily, ...]:
        """Each family's level and level values g, a view of its rows of
        the stack from its level's column on."""
        start = self.family_start.tolist()
        return tuple(
            LevelFamily(l0, self.values[start[f] : start[f + 1], l0:]) for f, l0 in enumerate(self.levels)
        )

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays that hold the vectors: the stack of level
        values and the run order, the family and position columns of
        ``lines``."""
        lines = self.lines
        return self.values.nbytes + lines.family.nbytes + lines.position.nbytes

    def first_row_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The first row of every run, one per stack row, as a run-length
        code: stack row r's is ``np.repeat(entries[r], counts[r])``.

        At each level L the first row (parent rank p = 0, sibling s = 1)
        holds W[f, L] columns of g[L] from the level's first column, then
        W[f, L] columns of 0.0 - g[L] (none at the root level, whose one
        row fills every level), then zeros to the level's end: the first
        row of ``layout(f)``, from the same ``widths`` and ``offsets``.
        Levels above l0 have W = 0, so they are zeros only.
        """
        v, family = self.values, self.row_family
        a = self.widths[family]
        b = a * (np.array(self.levels)[family] > 0)[:, None]
        counts = np.stack((a, b, np.diff(self.offsets) - a - b), axis=-1)
        entries = np.zeros((*v.shape, 3))
        entries[..., 0] = v
        np.subtract(0.0, v, out=entries[..., 1])
        return entries.reshape(len(v), -1), counts.reshape(len(v), -1)

    def layout(self, family: int) -> RowLayout:
        """The ``RowLayout`` of every row of a run of ``family``, from one
        broadcast over its (p, s).

        A subtree holds one contiguous block of columns per level, so at
        the family's level j = 0, ..., m-1 (m levels from l0 down) a row has
        one block of w_j = ``widths[family, l0+j]`` columns at first_j(p) =
        ``offsets[l0+j]`` + p c w_j, where c = c(l0-1), and one at
        first_j(p) + s w_j, in that order: 2m blocks.  The root level's one
        row has m blocks, the whole levels, with no zeros between them.

        Each family's layout is built once and kept, read-only, so the
        ``eigvecs`` writer reads it once per family.
        """
        if family in self._layouts:
            return self._layouts[family]
        l0, pops, offsets = self.levels[family], self.populations, self.offsets
        w = self.widths[family, l0:]
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


@dataclass(frozen=True)
class EigenBasis:
    """Complete eigenbasis of the full Laplacian with residual certificates.

    ``vectors`` holds the rows, sorted by (eigenvalue, origin level,
    position), as runs, one per line of ``vectors.lines``.  The rows of the
    run of line r, of family f and position i, share the eigenvalue
    ``lines.values[r]``, the origin level ``lines.origin_level[r]``, the
    construction (a whole-tree "stratified" vector at level 0, else a
    sibling difference, "antisym") and the residual of (f, i), held per
    stack row of ``vectors.values``: ``residuals[vectors.line_row[r]]``.
    """

    vectors: BlockVectors
    residuals: np.ndarray

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
        runs hold |V| rows in all, and (b) each family's Gram G_f = (g w) g^T,
        w_j = n(l0+j)/n(l0), normalized to a unit diagonal, has its least
        eigenvalue above ``threshold``.  All the G_f come from the stack at
        once, as the diagonal blocks of one Gram of its rows weighted by
        ``widths`` with the blocks between families zeroed, whose least
        eigenvalue is the least of theirs.  It is above ``threshold``
        exactly when that Gram, normalized, minus ``threshold`` times the
        identity has a Cholesky factor: one factorization of at most |V|
        rows, whatever the number of families.

        This is no looser than a pivot threshold on a QR of the
        unit-normalized rows: their Gram is block diagonal with blocks
        G_f (x) (I + J)/2, so its least eigenvalue is at least
        min_f lambda_min(G_f)/2, and every QR pivot is at least
        sqrt(threshold/2), 7e-5 at 1e-8.
        """
        vectors = self.vectors
        pops, levels, lines = vectors.populations, vectors.levels, vectors.lines
        keys = [(f, i) for f, l0 in enumerate(levels) for i in range(len(pops) - l0)]
        if (
            len(set(levels)) < len(levels)
            or sorted(zip(lines.family.tolist(), lines.position.tolist())) != keys
            or lines.multiplicities != tuple(vectors_per_value(pops, l0) for l0 in levels)
            or self.n != sum(pops)
        ):
            return False
        v, family = vectors.values, vectors.row_family
        gram = (v * vectors.widths[family]) @ v.T
        gram[family[:, None] != family] = 0.0
        d = np.sqrt(np.diagonal(gram))
        if not np.all(d > 0):
            return False
        gram /= d
        gram /= d[:, None]
        gram[np.diag_indices_from(gram)] -= threshold
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
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
    levels = tuple(l0 for _, l0, _, _ in parts)
    lines = spectrum_from_parts(parts)
    vectors = BlockVectors(tuple(spec.populations()), levels, stratified_levels(level_matrix(spec), levels), lines)
    tree = realize(spec)
    # One residual per line, taken on the first row of its run: the others
    # hold the same level values on congruent subtrees (every vertex of a
    # level has the same row layout) or their exact negation, so their
    # residuals are bitwise the same.  The first rows of all stack rows are
    # one run-length code of 3k entries each, so each block of
    # RESIDUAL_BLOCK entries is one np.repeat and one matvec.
    entries, counts = vectors.first_row_runs()
    # the eigenvalue of each row comes from its line, which holds the exact zero
    lam = np.empty(len(entries))
    lam[vectors.line_row] = lines.values
    res = np.empty(len(lam))
    step = max(1, RESIDUAL_BLOCK // n)
    for lo in range(0, len(lam), step):
        hi = min(lo + step, len(lam))
        x = np.repeat(entries[lo:hi].ravel(), counts[lo:hi].ravel()).reshape(hi - lo, n).T
        r = matvec(tree, x)
        r -= lam[lo:hi] * x
        res[lo:hi] = np.max(np.abs(r, out=r), axis=0)
    return EigenBasis(vectors, res)
