import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratree.laplacian as laplacian
from stratree.decompose import level_matrix
from stratree.eigen import tridiag_eigen
from stratree.laplacian import assemble, matvec
from stratree.tree import GluedTreeSpec, SymmetricTreeSpec, realize

from strategies import symmetric_specs, trees


def star(c):
    return realize(SymmetricTreeSpec([c]))


def test_single_vertex_laplacian():
    lap = assemble(realize(SymmetricTreeSpec([])))
    assert lap.n == 1
    assert lap.to_dense().tolist() == [[0.0]]


def test_star_k12():
    lap = assemble(star(2))
    dense = lap.to_dense()
    assert np.array_equal(np.diag(dense), [2, 1, 1])
    assert dense[0, 1] == -1 and dense[0, 2] == -1 and dense[1, 2] == 0


def test_path_of_stars_degrees():
    lap = assemble(realize(SymmetricTreeSpec([2, 1])))
    assert np.array_equal(np.diag(lap.to_dense()), [2, 2, 2, 1, 1])


def test_row_sums_vanish():
    for children in [[], [3], [2, 2], [3, 2, 2]]:
        lap = assemble(realize(SymmetricTreeSpec(children)))
        assert np.all(lap.to_dense().sum(axis=1) == 0.0)


def test_symmetry():
    lap = assemble(realize(SymmetricTreeSpec([3, 2])))
    dense = lap.to_dense()
    assert np.array_equal(dense, dense.T)


def test_dirichlet_single_leaf():
    # a leaf's Dirichlet Laplacian is its degree, as in the leaf-level slice
    sub = assemble(star(2)).to_dense()[1:2, 1:2]
    assert sub.tolist() == [[1.0]]
    assert level_matrix(SymmetricTreeSpec([2])).trailing(1).to_dense().tolist() == [[1.0]]


def test_dirichlet_subtree_keeps_parent_edge_degree():
    # The Dirichlet Laplacian of the first level-1 subtree {1, 3, 4} is a
    # principal submatrix: vertex 1 keeps its parent edge in its degree, and
    # the subtree's level recurrence (the level-1 slice) is in its spectrum.
    spec = SymmetricTreeSpec([2, 2])
    omega = [1, 3, 4]
    sub = assemble(realize(spec)).to_dense()[np.ix_(omega, omega)]
    assert np.array_equal(np.diag(sub), [3, 1, 1])
    dirichlet = np.linalg.eigvalsh(sub)
    for lam in tridiag_eigen(level_matrix(spec).trailing(1)):
        assert np.min(np.abs(dirichlet - lam)) <= 1e-12


def test_matvec_ones_is_zero():
    lap = assemble(realize(SymmetricTreeSpec([3, 2])))
    assert np.array_equal(matvec(lap, np.ones(lap.n)), np.zeros(lap.n))


def test_matvec_single_vertex():
    lap = assemble(realize(SymmetricTreeSpec([])))
    assert matvec(lap, np.array([5.0])).tolist() == [0.0]


def test_matvec_star_eigenvector():
    lap = assemble(star(2))
    x = np.array([0.0, 1.0, -1.0])
    assert np.allclose(matvec(lap, x), x)  # eigenvector for eigenvalue 1


def test_matvec_dimension_mismatch():
    lap = assemble(star(2))
    with pytest.raises(ValueError):
        matvec(lap, np.ones(4))


def test_quadratic_form_is_edge_sum():
    idx = realize(SymmetricTreeSpec([3, 2, 2]))
    lap = assemble(idx)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(idx.n)
        quad = x @ matvec(lap, x)
        edge_sum = sum((x[p] - x[v]) ** 2 for v, p in enumerate(idx.parents) if p >= 0)
        assert quad == pytest.approx(edge_sum, rel=1e-12)


def test_matrix_market_export():
    lap = assemble(star(2))
    buf = io.StringIO()
    lap.to_matrix_market(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    assert lines[1].split() == ["3", "3", "5"]
    # parse back and compare against the dense form
    dense = np.zeros((3, 3))
    for row in lines[2:]:
        i, j, val = row.split()
        i, j = int(i) - 1, int(j) - 1
        dense[i, j] = float(val)
        dense[j, i] = float(val)
    assert np.array_equal(dense, lap.to_dense())


def matrix_market_by_entry(lap):
    """The Matrix Market text of ``lap``, built one CSR entry at a time."""
    entries = []
    for i in range(lap.n):
        lo, hi = lap.indptr[i], lap.indptr[i + 1]
        for j, val in zip(lap.indices[lo:hi], lap.data[lo:hi]):
            if j <= i:
                entries.append((i + 1, j + 1, val))
    text = "%%MatrixMarket matrix coordinate real symmetric\n"
    text += f"{lap.n} {lap.n} {len(entries)}\n"
    for i, j, val in entries:
        text += f"{i} {j} {val:.17g}\n"
    return text


def laplacian_of(parents):
    """Dense Laplacian built edge by edge from a parent array."""
    n = len(parents)
    a = np.zeros((n, n))
    for v, p in enumerate(parents):
        if p >= 0:
            a[v, p] = a[p, v] = -1.0
            a[v, v] += 1.0
            a[p, p] += 1.0
    return a


any_tree = st.one_of(trees(), symmetric_specs.map(realize))


class TestAssemblyProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(any_tree)
    def test_matches_the_parent_array(self, tree):
        lap = assemble(tree)
        assert np.array_equal(lap.to_dense(), laplacian_of(tree.parents))
        assert lap.indptr.dtype == lap.indices.dtype == np.int64
        for i in range(lap.n):
            cols = lap.indices[lap.indptr[i] : lap.indptr[i + 1]]
            assert np.all(np.diff(cols) > 0) and i in cols

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(any_tree)
    def test_matrix_market_matches_the_entry_loop(self, tree):
        lap = assemble(tree)
        buf = io.StringIO()
        lap.to_matrix_market(buf)
        assert buf.getvalue() == matrix_market_by_entry(lap)


@pytest.mark.parametrize(
    "spec",
    [
        SymmetricTreeSpec([3, 2, 2]),
        GluedTreeSpec(SymmetricTreeSpec([2, 2]), SymmetricTreeSpec([3])),
    ],
    ids=["symmetric", "glued"],
)
def test_matrix_market_in_several_writes(monkeypatch, spec):
    monkeypatch.setattr(laplacian, "_LINES_PER_WRITE", 4)
    lap = assemble(realize(spec))
    buf = io.StringIO()
    lap.to_matrix_market(buf)
    assert buf.getvalue() == matrix_market_by_entry(lap)
