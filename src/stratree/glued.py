"""Spectrum of two symmetric trees identified at the root.

Levels are signed: the left tree occupies levels 0..k1-1, the right tree
-1..-(k2-1).  Eigenfunctions that vanish at the shared root restrict to
root-vanishing eigenfunctions of one side and are counted by that side's
deeper-level decomposition; the remaining k1+k2-1 eigenfunctions are
stratified over signed levels and solve one tridiagonal recurrence whose
root row couples to both sides.
"""

from __future__ import annotations

import numpy as np

from .decompose import Spectrum, level_matrix, level_spectra, spectrum_from_parts
from .eigen import TriDiag, tridiag_eigen
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
    vals = tridiag_eigen(glued_stratified_matrix(spec))
    vals[0] = 0.0
    return spectrum_from_parts([
        *level_spectra(spec.left, first_level=1, side="left"),
        *level_spectra(spec.right, first_level=1, side="right"),
        ("stratified", 0, 1, vals),
    ])
