"""Cross-checks of the fast decomposition against the brute-force oracle.

Every check here pits two independent routes against each other: the
tridiagonal decomposition versus a dense eigensolve of the Laplacian
written out from the tree's parent array, the constructed eigenbasis
versus its residuals and rank, and the nodal-domain theorems versus sign
counts on the constructed eigenbasis.  The oracle is solved once per spec,
for eigenvalues only (``dense_eigenvalues``: no eigenvectors and no
purification), and its values are handed to every check that needs them.
A symmetric tree's nodal rows count the sign graphs of the residual- and
rank-certified constructed basis from its level values
(``level_nodal_records``), with the oracle's values setting each row's
position and cluster: the discrete nodal domain theorem (Davies, Gladwell,
Leydold & Stadler 2001) bounds every vector of an eigenspace, so it holds
for the constructed vectors as for any other.  A glued tree's rows read
the oracle's values only too: its fast spectrum against them, and the
multiplicity lower bound of each side's deep levels.  ``oracle``, the
eigenpair solve, serves the ``nodal`` command, which reports oracle
eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import EigenBasis, Spectrum, counting_identity, expanded_spectrum, full_eigenbasis
from .eigen import dense_eigen, dense_eigenvalues
from .glued import glued_spectrum
from .nodal import level_nodal_records
from .tree import CapacityError, GluedTreeSpec, RootedTree, SymmetricTreeSpec, count_text, realize

SPECTRUM_TOL = 1e-8
RESIDUAL_TOL = 1e-9
RANK_THRESHOLD = 1e-8
DEFAULT_ORACLE_CAP = 2000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float


def oracle_tree(spec: SymmetricTreeSpec | GluedTreeSpec, cap: int = DEFAULT_ORACLE_CAP) -> RootedTree:
    """The realized tree of a spec whose dense oracle fits under ``cap``.

    Refused from the spec's vertex count, before the tree is realized or
    anything is built, so an oversized request costs no memory.
    """
    n = spec.vertex_count()
    if n > cap:
        raise CapacityError(f"|V|={count_text(n)} exceeds the oracle cap {cap}")
    return realize(spec)


def oracle(
    spec: SymmetricTreeSpec | GluedTreeSpec, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[RootedTree, np.ndarray, np.ndarray]:
    """The realized tree and the dense eigenpairs of its Laplacian, under
    ``oracle_tree``'s cap."""
    tree = oracle_tree(spec, cap)
    vals, vecs = dense_eigen(tree)
    return tree, vals, vecs


def check_spectrum_oracle(
    name: str, spectrum: Spectrum, vals: np.ndarray, tol: float = SPECTRUM_TOL
) -> CheckResult:
    """Multiplicity-expanded fast spectrum versus dense eigenvalues."""
    dev = float(np.max(np.abs(expanded_spectrum(spectrum) - vals)))
    return CheckResult(name, dev <= tol, dev)


def check_counting(*specs: SymmetricTreeSpec) -> CheckResult:
    dev = sum(abs(lhs - total) for lhs, total in map(counting_identity, specs))
    return CheckResult("counting_identity", dev == 0, float(dev))


def check_eigenbasis(basis: EigenBasis) -> CheckResult:
    """Residual certificates plus full rank of the constructed basis."""
    # each (family, position)'s residual relative to its rows' largest
    # magnitude, which is that of its level values g_i
    rel = float(np.max(basis.residuals / np.max(np.abs(basis.vectors.values), axis=1)))
    ok = rel <= RESIDUAL_TOL and basis.full_rank(RANK_THRESHOLD)
    return CheckResult("eigenbasis_certificate", ok, rel)


def check_nodal(
    basis: EigenBasis, vals: np.ndarray, tol: float = SPECTRUM_TOL
) -> tuple[CheckResult, CheckResult]:
    """Courant bound and zero-free equality on every vector of the
    constructed basis, at the positions of the sorted oracle eigenvalues
    ``vals``, with eigenvalues within ``tol`` of each other clustered as
    equal."""
    records = level_nodal_records(vals, basis.vectors, cluster_tol=tol)
    c_ok, z_ok = bool(np.all(records.passed)), bool(np.all(records.zero_free))
    return (
        CheckResult("courant_bound", c_ok, 0.0 if c_ok else 1.0),
        CheckResult("zero_free_equality", z_ok, 0.0 if z_ok else 1.0),
    )


def check_multiplicity_bound(spectrum: Spectrum, vals: np.ndarray, tol: float = SPECTRUM_TOL) -> CheckResult:
    """Oracle multiplicity of each deep-level eigenvalue meets the
    population-difference lower bound, every line counted in one broadcast."""
    deep = spectrum.origin_level >= 1
    found = np.count_nonzero(np.abs(vals - spectrum.values[deep, None]) <= tol, axis=1)
    short = np.array(spectrum.multiplicities, dtype=np.int64)[spectrum.family[deep]] - found
    worst = int(short.max(initial=0))
    return CheckResult("multiplicity_lower_bound", worst == 0, float(worst))


def run_all_checks(
    spec: SymmetricTreeSpec | GluedTreeSpec, tol: float = SPECTRUM_TOL, oracle_cap: int = DEFAULT_ORACLE_CAP
) -> list[CheckResult]:
    """The full verification battery for one spec, on one values-only
    oracle solve and, for a symmetric tree, one eigenbasis, whose lines are
    the spectrum.

    The oracle comes first, so a tree over the cap is refused before any
    other work; the basis is then no larger than the cap.
    """
    vals = dense_eigenvalues(oracle_tree(spec, oracle_cap))
    if isinstance(spec, GluedTreeSpec):
        spectrum = glued_spectrum(spec)
        return [
            check_spectrum_oracle("glued_spectrum_oracle", spectrum, vals, tol),
            check_counting(spec.left, spec.right),
            check_multiplicity_bound(spectrum, vals, tol),
        ]
    basis = full_eigenbasis(spec, basis_cap=oracle_cap)
    spectrum = basis.vectors.lines
    return [
        check_spectrum_oracle("spectrum_oracle", spectrum, vals, tol),
        check_counting(spec),
        check_eigenbasis(basis),
        *check_nodal(basis, vals, tol),
        check_multiplicity_bound(spectrum, vals, tol),
    ]
