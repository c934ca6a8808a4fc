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
from .eigen import TriDiag, dense_eigen, dense_eigenvalues, sturm_count, trailing_eigenvalues
from .glued import glued_spectrum, glued_stratified_matrix
from .laplacian import degrees, matvec, write_matrix_market
from .nodal import SignGraphReport, count_sign_graphs, level_nodal_records, level_sign_graphs, nodal_records
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
    "Spectrum",
    "SymmetricTreeSpec",
    "TriDiag",
    "count_sign_graphs",
    "counting_identity",
    "decompose_spectrum",
    "degrees",
    "dense_eigen",
    "dense_eigenvalues",
    "expanded_spectrum",
    "full_eigenbasis",
    "glued_spectrum",
    "glued_stratified_matrix",
    "level_matrix",
    "level_nodal_records",
    "level_sign_graphs",
    "matvec",
    "nodal_records",
    "realize",
    "realize_glued",
    "sturm_count",
    "trailing_eigenvalues",
    "write_matrix_market",
]
