import tracemalloc

import numpy as np
import pytest

import stratree.decompose as decompose
import stratree.verify as verify
from stratree.tree import CapacityError, GluedTreeSpec, SymmetricTreeSpec, realize

SYMMETRIC_ROWS = [
    "spectrum_oracle",
    "counting_identity",
    "eigenbasis_certificate",
    "courant_bound",
    "zero_free_equality",
    "multiplicity_lower_bound",
]
GLUED_ROWS = ["glued_spectrum_oracle", "counting_identity", "multiplicity_lower_bound"]

SYMMETRIC = SymmetricTreeSpec([3, 2])
GLUED = GluedTreeSpec(SymmetricTreeSpec([2, 2]), SymmetricTreeSpec([3]))


@pytest.fixture
def dense_calls(monkeypatch):
    """(solver, |V|) of every dense solve of the Laplacian."""
    calls = []
    solve = verify.dense_eigenvalues

    def counted(*args, **kwargs):
        calls.append(("dense_eigenvalues", args[0].n))
        return solve(*args, **kwargs)

    monkeypatch.setattr(verify, "dense_eigenvalues", counted)
    return calls


@pytest.mark.parametrize(
    "spec,rows", [(SYMMETRIC, SYMMETRIC_ROWS), (GLUED, GLUED_ROWS)], ids=["symmetric", "glued"]
)
def test_one_dense_solve_per_spec(dense_calls, spec, rows):
    # every row reads the oracle's eigenvalues only (the nodal rows count
    # the constructed basis), so the one solve is values only
    results = verify.run_all_checks(spec)
    n = spec.vertex_count()
    assert dense_calls == [("dense_eigenvalues", n)]
    assert [r.name for r in results] == rows
    assert all(r.passed for r in results)


@pytest.mark.parametrize(
    "spec,rows,widest",
    [(SYMMETRIC, SYMMETRIC_ROWS, SYMMETRIC.levels), (GLUED, GLUED_ROWS, 0)],
    ids=["symmetric", "glued"],
)
def test_verify_computes_no_laplacian_eigenvectors(monkeypatch, spec, rows, widest):
    # eigh may solve the level matrix's slices of at most k rows, for the
    # level values of a symmetric tree's basis, but never the |V|-row
    # Laplacian; a glued tree calls it not at all
    eigh, sizes = np.linalg.eigh, []

    def recorded(a, *args, **kwargs):
        sizes.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    results = verify.run_all_checks(spec)
    assert max(sizes, default=0) == widest
    assert [r.name for r in results] == rows
    assert all(r.passed for r in results)


def test_glued_verify_peaks_near_one_dense_matrix():
    # |V| = 701: eigh's vectors and the purifier's gathers peaked at 3.9
    # times the n x n matrix; the values-only solve holds that matrix alone
    spec = GluedTreeSpec(SymmetricTreeSpec([5, 1, 3, 2, 1, 5]), SymmetricTreeSpec([1, 4, 5, 2, 2, 1, 3]))
    n = spec.vertex_count()
    assert n == 701
    tracemalloc.start()
    try:
        results = verify.run_all_checks(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 1.5 * 8 * n * n


def test_symmetric_verify_peaks_near_one_dense_matrix():
    # |V| = 1291: eigh's vectors and the purifier peaked at 3.5 times the
    # n x n matrix; the values-only solve holds that matrix alone, and the
    # nodal rows count the basis from its level values
    spec = SymmetricTreeSpec([3, 1, 4, 1, 3, 2, 4, 3])
    n = spec.vertex_count()
    assert n == 1291
    tracemalloc.start()
    try:
        results = verify.run_all_checks(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < 1.5 * 8 * n * n


@pytest.mark.parametrize("spec", [SYMMETRIC, GLUED], ids=["symmetric", "glued"])
def test_over_the_cap_is_refused_before_any_solve(dense_calls, spec):
    with pytest.raises(CapacityError):
        verify.run_all_checks(spec, oracle_cap=spec.vertex_count() - 1)
    assert dense_calls == []


def test_oracle_refuses_an_unrealizable_tree_at_once():
    # 10^30 vertices: refused from the spec's count, never materialized
    with pytest.raises(CapacityError):
        verify.oracle_tree(SymmetricTreeSpec([10] * 30))


def test_oracle_returns_the_realized_tree():
    tree = verify.oracle_tree(GLUED)
    assert tree.n == len(verify.dense_eigenvalues(tree)) == GLUED.vertex_count()
    assert tree.parents.tolist() == realize(GLUED).parents.tolist()


def test_one_eigenbasis_and_one_level_solve_per_symmetric_spec(monkeypatch):
    # the basis's lines are the spectrum the spectrum_oracle and
    # multiplicity rows check, so the level slices are solved once
    calls = []

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(decompose, "level_spectra")
    count(verify, "full_eigenbasis")
    results = verify.run_all_checks(SYMMETRIC)
    assert sorted(calls) == ["full_eigenbasis", "level_spectra"]
    assert [r.name for r in results] == SYMMETRIC_ROWS
    assert all(r.passed for r in results)


def test_eigenbasis_row_holds_no_n_by_n_array():
    # |V| = 1291 in wide families: the rank is certified from each family's
    # (k - l0) x (k - l0) Gram, so the row peaks far below one n x n array
    spec = SymmetricTreeSpec([3, 1, 4, 1, 3, 2, 4, 3])
    n = spec.vertex_count()
    tracemalloc.start()
    try:
        result = verify.check_eigenbasis(verify.full_eigenbasis(spec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 0.25 * 8 * n * n
