"""Laplacian spectra of symmetric (balanced) trees via small tridiagonal
decompositions, with brute-force oracles and nodal-domain checks."""

from .decompose import (
    EigenBasis,
    SpectralLine,
    antisym_lift,
    counting_identity,
    decompose_spectrum,
    expanded_spectrum,
    full_eigenbasis,
    level_matrix,
    stratified_lift,
    symmetrize,
)
from .eigen import DenseSym, TriDiag, dense_eigen, sturm_count, tridiag_eigen
from .glued import GluedSpectralLine, glued_spectrum, glued_stratified_matrix
from .laplacian import SparseSymMatrix, assemble, assemble_dirichlet, matvec
from .nodal import (
    SignGraphReport,
    common_vanishing,
    count_sign_graphs,
    courant_check,
    zero_free_check,
)
from .tree import (
    CapacityError,
    GluedTreeSpec,
    InvalidSpecError,
    RootedTree,
    SymmetricTreeSpec,
    TreeIndex,
    build_index,
    realize,
    realize_glued,
    subtree,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DenseSym",
    "EigenBasis",
    "GluedSpectralLine",
    "GluedTreeSpec",
    "InvalidSpecError",
    "RootedTree",
    "SignGraphReport",
    "SparseSymMatrix",
    "SpectralLine",
    "SymmetricTreeSpec",
    "TreeIndex",
    "TriDiag",
    "antisym_lift",
    "assemble",
    "assemble_dirichlet",
    "build_index",
    "common_vanishing",
    "count_sign_graphs",
    "counting_identity",
    "courant_check",
    "decompose_spectrum",
    "dense_eigen",
    "expanded_spectrum",
    "full_eigenbasis",
    "glued_spectrum",
    "glued_stratified_matrix",
    "level_matrix",
    "matvec",
    "realize",
    "realize_glued",
    "stratified_lift",
    "sturm_count",
    "subtree",
    "symmetrize",
    "tridiag_eigen",
    "zero_free_check",
]
