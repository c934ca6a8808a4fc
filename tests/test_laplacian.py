import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratree.laplacian as laplacian
from stratree.decompose import level_matrix
from stratree.eigen import trailing_eigenvalues
from stratree.laplacian import degrees, dense, matvec, write_matrix_market
from stratree.tree import GluedTreeSpec, SymmetricTreeSpec, realize

from reference import laplacian_of, matrix_market_by_entry
from strategies import symmetric_specs, trees


def star(c):
    return realize(SymmetricTreeSpec([c]))


def test_single_vertex_laplacian():
    tree = realize(SymmetricTreeSpec([]))
    assert degrees(tree).tolist() == [0]
    assert dense(tree).tolist() == [[0.0]]


def test_star_k12():
    a = dense(star(2))
    assert np.array_equal(np.diag(a), [2, 1, 1])
    assert a[0, 1] == -1 and a[0, 2] == -1 and a[1, 2] == 0


def test_path_of_stars_degrees():
    tree = realize(SymmetricTreeSpec([2, 1]))
    assert degrees(tree).tolist() == [2, 2, 2, 1, 1]
    assert np.array_equal(np.diag(dense(tree)), [2, 2, 2, 1, 1])


def test_row_sums_vanish():
    for children in [[], [3], [2, 2], [3, 2, 2]]:
        assert np.all(dense(realize(SymmetricTreeSpec(children))).sum(axis=1) == 0.0)


def test_symmetry():
    a = dense(realize(SymmetricTreeSpec([3, 2])))
    assert np.array_equal(a, a.T)


def test_dirichlet_single_leaf():
    # a leaf's Dirichlet Laplacian is its degree, as in the leaf-level slice
    sub = dense(star(2))[1:2, 1:2]
    assert sub.tolist() == [[1.0]]
    assert level_matrix(SymmetricTreeSpec([2])).trailing(1).to_dense().tolist() == [[1.0]]


def test_dirichlet_subtree_keeps_parent_edge_degree():
    # The Dirichlet Laplacian of the first level-1 subtree {1, 3, 4} is a
    # principal submatrix: vertex 1 keeps its parent edge in its degree, and
    # the subtree's level recurrence (the level-1 slice) is in its spectrum.
    spec = SymmetricTreeSpec([2, 2])
    omega = [1, 3, 4]
    sub = dense(realize(spec))[np.ix_(omega, omega)]
    assert np.array_equal(np.diag(sub), [3, 1, 1])
    dirichlet = np.linalg.eigvalsh(sub)
    for lam in trailing_eigenvalues(level_matrix(spec), [1])[0]:
        assert np.min(np.abs(dirichlet - lam)) <= 1e-12


def test_matvec_ones_is_zero():
    tree = realize(SymmetricTreeSpec([3, 2]))
    assert np.array_equal(matvec(tree, np.ones(tree.n)), np.zeros(tree.n))


def test_matvec_single_vertex():
    assert matvec(realize(SymmetricTreeSpec([])), np.array([5.0])).tolist() == [0.0]


def test_matvec_star_eigenvector():
    x = np.array([0.0, 1.0, -1.0])
    assert np.allclose(matvec(star(2), x), x)  # eigenvector for eigenvalue 1


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        matvec(star(2), np.ones(4))


@pytest.mark.parametrize("shape", [(4,), (4, 2), (3, 2, 1), ()], ids=["length", "rows", "3d", "scalar"])
def test_matvec_shape_error_names_the_shape_and_the_vertex_count(shape):
    with pytest.raises(ValueError, match=rf"^array of shape {re.escape(str(shape))} against a tree of 3 vertices$"):
        matvec(star(2), np.ones(shape))


def test_quadratic_form_is_edge_sum():
    tree = realize(SymmetricTreeSpec([3, 2, 2]))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(tree.n)
        quad = x @ matvec(tree, x)
        edge_sum = sum((x[p] - x[v]) ** 2 for v, p in enumerate(tree.parents) if p >= 0)
        assert quad == pytest.approx(edge_sum, rel=1e-12)


def test_matrix_market_export():
    buf = io.StringIO()
    write_matrix_market(star(2), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    assert lines[1].split() == ["3", "3", "5"]
    # parse back and compare against the dense form
    a = np.zeros((3, 3))
    for row in lines[2:]:
        i, j, val = row.split()
        i, j = int(i) - 1, int(j) - 1
        a[i, j] = float(val)
        a[j, i] = float(val)
    assert np.array_equal(a, dense(star(2)))


any_tree = st.one_of(trees(), symmetric_specs.map(realize))


class TestAssemblyProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(any_tree)
    def test_matches_the_parent_array(self, tree):
        a = laplacian_of(tree.parents)
        assert np.array_equal(dense(tree), a)
        assert np.array_equal(degrees(tree), np.diagonal(a))
        # each route sums a row's d + 1 terms in its own order, with up to
        # d + 1 roundings of at most eps times the sum of their magnitudes
        x = np.random.default_rng(tree.n).standard_normal(tree.n)
        bound = 2 * (np.max(degrees(tree)) + 1) * np.finfo(float).eps * (np.abs(a) @ np.abs(x))
        assert np.all(np.abs(matvec(tree, x) - a @ x) <= bound)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(any_tree, st.sampled_from([0, 1, 5]), st.booleans())
    def test_matvec_of_columns_is_each_column_bitwise(self, tree, m, fortran):
        # wide and numbered-at-random parents: each column's children sums
        # must be added in the vector's order
        x = np.random.default_rng(tree.n).standard_normal((tree.n, m)) * np.logspace(0, 8, m)
        y = matvec(tree, np.asfortranarray(x) if fortran else x)
        columns = [matvec(tree, np.ascontiguousarray(x[:, j])) for j in range(m)]
        assert y.shape == (tree.n, m)
        assert y.tobytes() == np.array(columns).T.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(any_tree)
    def test_matrix_market_matches_the_entry_loop(self, tree):
        buf = io.StringIO()
        write_matrix_market(tree, buf)
        assert buf.getvalue() == matrix_market_by_entry(tree.parents)


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
    tree = realize(spec)
    buf = io.StringIO()
    write_matrix_market(tree, buf)
    assert buf.getvalue() == matrix_market_by_entry(tree.parents)
