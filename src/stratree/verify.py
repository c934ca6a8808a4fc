"""Cross-checks of the fast decomposition against the brute-force oracle.

Every check here pits two independent routes against each other: the
tridiagonal decomposition versus a dense eigensolve of the assembled
Laplacian, the constructed eigenbasis versus its residuals and rank, and
the nodal-domain theorems versus sign counts on oracle eigenpairs.  The
oracle is solved once per spec and its eigenpairs are handed to every
check that needs them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import (
    DEFAULT_BASIS_CAP,
    Spectrum,
    counting_identity,
    decompose_spectrum,
    expanded_spectrum,
    full_eigenbasis,
)
from .eigen import dense_eigen
from .glued import glued_spectrum
from .nodal import nodal_records
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


def oracle(
    spec: SymmetricTreeSpec | GluedTreeSpec, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[RootedTree, np.ndarray, np.ndarray]:
    """The realized tree and the dense eigenpairs of its Laplacian.

    Refused from the spec's vertex count, before the tree is realized or
    anything is assembled, so an oversized request costs no memory.
    """
    n = spec.vertex_count()
    if n > cap:
        raise CapacityError(f"|V|={count_text(n)} exceeds the oracle cap {cap}")
    tree = realize(spec)
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


def check_eigenbasis(spec: SymmetricTreeSpec, basis_cap: int = DEFAULT_BASIS_CAP) -> CheckResult:
    """Residual certificates plus full rank of the constructed basis."""
    basis = full_eigenbasis(spec, basis_cap=basis_cap)
    # each (family, position)'s residual relative to its rows' largest
    # magnitude, which is that of its level values g_i
    rel = float(np.max(np.concatenate(
        [res / np.max(np.abs(fam.g), axis=1) for fam, res in zip(basis.vectors.families, basis.residuals)]
    )))
    ok = rel <= RESIDUAL_TOL and basis.n == spec.vertex_count() and basis.full_rank(RANK_THRESHOLD)
    return CheckResult("eigenbasis_certificate", ok, rel)


def check_nodal(
    tree: RootedTree, vals: np.ndarray, vecs: np.ndarray
) -> tuple[CheckResult, CheckResult]:
    """Courant bound and zero-free equality on all oracle eigenpairs."""
    records = nodal_records(tree, vals, vecs)
    c_ok = all(r.passed for r in records)
    z_ok = all(r.zero_free for r in records)
    return (
        CheckResult("courant_bound", c_ok, 0.0 if c_ok else 1.0),
        CheckResult("zero_free_equality", z_ok, 0.0 if z_ok else 1.0),
    )


def check_multiplicity_bound(
    spectrum: Spectrum, vals: np.ndarray, tol: float = SPECTRUM_TOL
) -> CheckResult:
    """Oracle multiplicity of each deep-level eigenvalue meets the
    population-difference lower bound."""
    worst = 0.0
    ok = True
    deep = spectrum.origin_level >= 1
    for value, f in zip(spectrum.values[deep].tolist(), spectrum.family[deep].tolist()):
        mult = int(np.sum(np.abs(vals - value) <= tol))
        need = spectrum.multiplicities[f]
        if mult < need:
            ok = False
            worst = max(worst, float(need - mult))
    return CheckResult("multiplicity_lower_bound", ok, worst)


def run_all_checks(
    spec: SymmetricTreeSpec | GluedTreeSpec,
    tol: float = SPECTRUM_TOL,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    basis_cap: int = DEFAULT_BASIS_CAP,
) -> list[CheckResult]:
    """The full verification battery for one spec, on one oracle solve.

    The oracle comes first, so a tree over the cap is refused before any
    other work.
    """
    tree, vals, vecs = oracle(spec, oracle_cap)
    if isinstance(spec, GluedTreeSpec):
        return [
            check_spectrum_oracle("glued_spectrum_oracle", glued_spectrum(spec), vals, tol),
            check_counting(spec.left, spec.right),
        ]
    spectrum = decompose_spectrum(spec)
    return [
        check_spectrum_oracle("spectrum_oracle", spectrum, vals, tol),
        check_counting(spec),
        check_eigenbasis(spec, basis_cap),
        *check_nodal(tree, vals, vecs),
        check_multiplicity_bound(spectrum, vals, tol),
    ]
