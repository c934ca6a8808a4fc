"""Laplacian spectra of symmetric (balanced) trees via small tridiagonal
decompositions, with brute-force oracles and nodal-domain checks."""

from .decompose import (
    EigenBasis,
    Spectrum,
    counting_identity,
    decompose_spectrum,
    expanded_spectrum,
    full_eigenbasis,
    level_matrix,
)
from .eigen import TriDiag, dense_eigen, sturm_count, tridiag_eigen
from .glued import glued_spectrum, glued_stratified_matrix
from .laplacian import SparseSymMatrix, assemble, matvec
from .nodal import SignGraphReport, count_sign_graphs, nodal_records
from .tree import (
    CapacityError,
    GluedTreeSpec,
    InvalidSpecError,
    RootedTree,
    SymmetricTreeSpec,
    realize,
    realize_glued,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "EigenBasis",
    "GluedTreeSpec",
    "InvalidSpecError",
    "RootedTree",
    "SignGraphReport",
    "SparseSymMatrix",
    "Spectrum",
    "SymmetricTreeSpec",
    "TriDiag",
    "assemble",
    "count_sign_graphs",
    "counting_identity",
    "decompose_spectrum",
    "dense_eigen",
    "expanded_spectrum",
    "full_eigenbasis",
    "glued_spectrum",
    "glued_stratified_matrix",
    "level_matrix",
    "matvec",
    "nodal_records",
    "realize",
    "realize_glued",
    "sturm_count",
    "tridiag_eigen",
]
