"""Spectrum of two symmetric trees identified at the root.

Levels are signed: the left tree occupies levels 0..k1-1, the right tree
-1..-(k2-1).  Eigenfunctions that vanish at the shared root restrict to
root-vanishing eigenfunctions of one side and are counted by that side's
deeper-level decomposition; the remaining k1+k2-1 eigenfunctions are
stratified over signed levels and solve one tridiagonal recurrence whose
root row couples to both sides.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .decompose import BlockVectors, Spectrum, level_matrix, level_spectra, level_vectors, spectrum_from_parts
from .eigen import TriDiag, trailing_eigenvalues
from .tree import GluedTreeSpec


def glued_stratified_matrix(spec: GluedTreeSpec) -> TriDiag:
    """Balanced signed-level recurrence of the glued tree.

    Rows run from the deepest right level -(k2-1) up to the deepest left
    level k1-1: the right side's level matrix reversed, then the left's,
    sharing one root row of degree c_left(0)+c_right(0).  Each
    off-diagonal is sqrt(c) of the level nearer the root on its side.
    """
    left, right = level_matrix(spec.left), level_matrix(spec.right)
    diag = np.concatenate((right.diag[:0:-1], [left.diag[0] + right.diag[0]], left.diag[1:]))
    return TriDiag(diag, np.concatenate((right.off[::-1], left.off)))


def glued_spectrum(spec: GluedTreeSpec) -> Spectrum:
    """Complete spectrum of the glued tree with exact multiplicities.

    Union of each side's deeper-level (root-vanishing) spectral lines, of
    origin side "left" or "right" at the positive level of the producing
    subtree on that side, and the simple eigenvalues of the signed-level
    recurrence (origin side "stratified", level 0), whose smallest is the
    exact zero; total multiplicity is |V_left| + |V_right| - 1.
    """
    return spectrum_from_parts(_glued_parts(spec))


def _glued_parts(spec: GluedTreeSpec) -> list:
    """``spectrum_from_parts``'s parts of the glued tree: the left side's
    deep levels, the right side's, then the stratified family."""
    return [
        *level_spectra(spec.left, first_level=1, side="left"),
        *level_spectra(spec.right, first_level=1, side="right"),
        ("stratified", 0, 1, trailing_eigenvalues(glued_stratified_matrix(spec), [0])[0]),
    ]


class GluedVectors(NamedTuple):
    """The glued tree's constructed eigenbasis, held as level values.

    ``sides`` holds each side's deep families as that side's
    ``BlockVectors`` (None for a side with none); their vectors vanish on
    the shared root and the other side.  Row i of ``chains[0]`` and
    ``chains[1]`` holds the i-th stratified vector's level values on the
    left and the right tree, each from the shared root (column 0 of both)
    down, and ``populations`` holds each side's vertices per level.  The
    stack of all rows is the left side's, the right side's, then the
    stratified ones, which is the family order of ``glued_spectrum``'s
    ``lines``.
    """

    sides: tuple[BlockVectors | None, BlockVectors | None]
    chains: tuple[np.ndarray, np.ndarray]
    populations: tuple[np.ndarray, np.ndarray]
    lines: Spectrum


def glued_vectors(spec: GluedTreeSpec) -> GluedVectors:
    """The glued tree's eigenbasis as level values, with the lines of
    ``glued_spectrum``.

    The stratified vectors come from ``eigh`` of the (k1 + k2 - 1)-row
    ``glued_stratified_matrix``, its values dropped.  Outward from the root
    on each side, level L takes (-1)^|L| w / sqrt(n(L)), where sqrt(n(L))
    is the running product of that side's sqrt(c).
    """
    parts = _glued_parts(spec)
    sides = []
    for name, side in (("left", spec.left), ("right", spec.right)):
        deep = [part for part in parts if part[0] == name]
        sides.append(level_vectors(side, deep) if deep else None)
    t = glued_stratified_matrix(spec)
    w = np.linalg.eigh(t.to_dense())[1].T
    root = spec.right.levels - 1
    chains = tuple(
        g * np.where(np.arange(g.shape[1]) % 2, -1.0, 1.0) / np.cumprod(np.append(1.0, off))
        for g, off in ((w[:, root:], t.off[root:]), (w[:, root::-1], t.off[:root][::-1]))
    )
    populations = tuple(np.array(side.populations(), dtype=np.int64) for side in (spec.left, spec.right))
    return GluedVectors(tuple(sides), chains, populations, spectrum_from_parts(parts))
