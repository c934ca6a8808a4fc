import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratree.laplacian import assemble, assemble_dirichlet, matvec
from stratree.tree import SymmetricTreeSpec, build_index, realize

from strategies import symmetric_specs, trees


def star(c):
    return build_index(SymmetricTreeSpec([c]))


def test_single_vertex_laplacian():
    lap = assemble(build_index(SymmetricTreeSpec([])))
    assert lap.n == 1
    assert lap.to_dense().tolist() == [[0.0]]


def test_star_k12():
    lap = assemble(star(2))
    dense = lap.to_dense()
    assert np.array_equal(np.diag(dense), [2, 1, 1])
    assert dense[0, 1] == -1 and dense[0, 2] == -1 and dense[1, 2] == 0


def test_path_of_stars_degrees():
    lap = assemble(build_index(SymmetricTreeSpec([2, 1])))
    assert np.array_equal(np.diag(lap.to_dense()), [2, 2, 2, 1, 1])


def test_row_sums_vanish():
    for children in [[], [3], [2, 2], [3, 2, 2]]:
        lap = assemble(build_index(SymmetricTreeSpec(children)))
        assert np.all(lap.row_sums() == 0.0)


def test_symmetry():
    lap = assemble(build_index(SymmetricTreeSpec([3, 2])))
    dense = lap.to_dense()
    assert np.array_equal(dense, dense.T)


def test_dirichlet_full_omega_is_laplacian():
    idx = build_index(SymmetricTreeSpec([3, 2]))
    full = assemble(idx).to_dense()
    dir_full = assemble_dirichlet(idx, range(idx.n)).to_dense()
    assert np.array_equal(full, dir_full)


def test_dirichlet_single_leaf():
    lap = assemble_dirichlet(star(2), [1])
    assert lap.to_dense().tolist() == [[1.0]]


def test_dirichlet_subtree_keeps_parent_edge_degree():
    idx = build_index(SymmetricTreeSpec([2, 2]))
    # first level-1 subtree: vertices {1, 3, 4}
    lap = assemble_dirichlet(idx, [1, 3, 4])
    assert np.array_equal(np.diag(lap.to_dense()), [3, 1, 1])


def test_dirichlet_is_principal_submatrix():
    idx = build_index(SymmetricTreeSpec([3, 2]))
    full = assemble(idx).to_dense()
    omega = [0, 2, 5, 6, 9]
    sub = assemble_dirichlet(idx, omega).to_dense()
    assert np.array_equal(sub, full[np.ix_(omega, omega)])


def test_dirichlet_rejects_empty():
    with pytest.raises(ValueError):
        assemble_dirichlet(star(2), [])


def test_matvec_ones_is_zero():
    lap = assemble(build_index(SymmetricTreeSpec([3, 2])))
    assert np.array_equal(matvec(lap, np.ones(lap.n)), np.zeros(lap.n))


def test_matvec_single_vertex():
    lap = assemble(build_index(SymmetricTreeSpec([])))
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
    idx = build_index(SymmetricTreeSpec([3, 2, 2]))
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


any_tree = st.one_of(trees(), symmetric_specs.map(build_index), symmetric_specs.map(realize))


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(any_tree, st.data())
    def test_dirichlet_is_principal_submatrix(self, tree, data):
        omega = sorted(data.draw(st.sets(st.integers(0, tree.n - 1), min_size=1)))
        sub = assemble_dirichlet(tree, omega).to_dense()
        assert np.array_equal(sub, laplacian_of(tree.parents)[np.ix_(omega, omega)])
