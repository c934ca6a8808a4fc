import pytest

import stratree.nodal as nodal
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
GLUED_ROWS = ["glued_spectrum_oracle", "counting_identity"]

SYMMETRIC = SymmetricTreeSpec([3, 2])
GLUED = GluedTreeSpec(SymmetricTreeSpec([2, 2]), SymmetricTreeSpec([3]))


@pytest.fixture
def dense_calls(monkeypatch):
    calls = []
    solve = verify.dense_eigen

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(verify, "dense_eigen", counted)
    return calls


@pytest.mark.parametrize(
    "spec,rows", [(SYMMETRIC, SYMMETRIC_ROWS), (GLUED, GLUED_ROWS)], ids=["symmetric", "glued"]
)
def test_one_dense_solve_per_spec(dense_calls, spec, rows):
    results = verify.run_all_checks(spec)
    n = spec.vertex_count()
    assert dense_calls == [(n, n)]
    assert [r.name for r in results] == rows
    assert all(r.passed for r in results)


@pytest.mark.parametrize("spec", [SYMMETRIC, GLUED], ids=["symmetric", "glued"])
def test_over_the_cap_is_refused_before_any_solve(dense_calls, spec):
    with pytest.raises(CapacityError):
        verify.run_all_checks(spec, oracle_cap=spec.vertex_count() - 1)
    assert dense_calls == []


def test_oracle_refuses_an_unrealizable_tree_at_once():
    # 10^30 vertices: refused from the spec's count, never materialized
    with pytest.raises(CapacityError):
        verify.oracle(SymmetricTreeSpec([10] * 30))


def test_oracle_returns_the_realized_tree():
    tree, vals, vecs = verify.oracle(GLUED)
    assert tree.n == len(vals) == vecs.shape[0] == GLUED.vertex_count()
    assert tree.parents.tolist() == realize(GLUED).parents.tolist()


def test_one_sign_count_per_oracle_vector(monkeypatch):
    calls = []
    count = nodal.count_sign_graphs

    def counted(*args, **kwargs):
        calls.append(1)
        return count(*args, **kwargs)

    monkeypatch.setattr(nodal, "count_sign_graphs", counted)
    results = verify.run_all_checks(SYMMETRIC)
    assert len(calls) == SYMMETRIC.vertex_count()
    assert all(r.passed for r in results)
