import math
import tracemalloc

import numpy as np
import pytest

from stratree.eigen import DenseSym, TriDiag, dense_eigen, sturm_count, tridiag_eigen
from stratree.laplacian import assemble
from stratree.tree import CapacityError, SymmetricTreeSpec, realize

SQRT2 = math.sqrt(2.0)


def test_one_by_one():
    vals = tridiag_eigen(TriDiag([1.0], []))
    assert vals.tolist() == [1.0]


def test_star_recurrence_matrix():
    # trace 3, determinant 0
    vals = tridiag_eigen(TriDiag([1.0, 2.0], [SQRT2]))
    assert np.allclose(vals, [0.0, 3.0], atol=1e-12)


def test_dirichlet_recurrence_matrix():
    # trace 4, determinant 1
    vals = tridiag_eigen(TriDiag([3.0, 1.0], [SQRT2]))
    assert np.allclose(vals, [2 - math.sqrt(3), 2 + math.sqrt(3)], atol=1e-12)


def test_eigenvalues_sorted_and_distinct_when_unreduced():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.integers(2, 30)
        t = TriDiag(rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)) + 0.1)
        vals = tridiag_eigen(t)
        assert np.all(np.diff(vals) > 0)


def test_residuals_and_orthonormality():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(1, 25))
        off = np.abs(rng.standard_normal(max(m - 1, 0))) + 0.05
        t = TriDiag(rng.standard_normal(m), off)
        vals, vecs = tridiag_eigen(t, want_vectors=True)
        scale = t.norm_inf()
        for i in range(m):
            res = np.linalg.norm(t.matvec(vecs[:, i]) - vals[i] * vecs[:, i])
            assert res <= 1e-12 * max(scale, 1.0)
        assert np.allclose(vecs.T @ vecs, np.eye(m), atol=1e-10)


def test_sturm_count_consistency():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(2, 20))
        t = TriDiag(rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)) + 0.1)
        vals = tridiag_eigen(t)
        for x in rng.uniform(vals[0] - 1, vals[-1] + 1, size=8):
            assert sturm_count(t, float(x)) == int(np.sum(vals < x))


def test_interlacing_of_leading_submatrix():
    rng = np.random.default_rng(13)
    for _ in range(8):
        m = int(rng.integers(3, 15))
        t = TriDiag(rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)) + 0.1)
        vals = tridiag_eigen(t)
        sub = TriDiag(t.diag[:-1], t.off[:-1])
        sub_vals = tridiag_eigen(sub)
        for i in range(m - 1):
            assert vals[i] < sub_vals[i] < vals[i + 1]


def test_agreement_with_dense_oracle():
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = int(rng.integers(1, 20))
        t = TriDiag(rng.standard_normal(m), np.abs(rng.standard_normal(max(m - 1, 0))) + 0.05)
        vals = tridiag_eigen(t)
        dense_vals, _ = dense_eigen(t.to_dense())
        assert np.allclose(vals, dense_vals, atol=1e-9)


def test_dense_star_spectrum():
    lap = assemble(realize(SymmetricTreeSpec([2])))
    vals, vecs = dense_eigen(lap.to_dense())
    assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-10)


def test_dense_zero_matrix():
    vals, _ = dense_eigen(np.zeros((4, 4)))
    assert np.array_equal(vals, np.zeros(4))


def test_dense_four_vertex_star():
    lap = assemble(realize(SymmetricTreeSpec([3])))
    vals, _ = dense_eigen(lap.to_dense())
    assert np.allclose(vals, [0.0, 1.0, 1.0, 4.0], atol=1e-12)


def test_dense_residuals():
    lap = assemble(realize(SymmetricTreeSpec([3, 2])))
    a = lap.to_dense()
    vals, vecs = dense_eigen(a)
    n = a.shape[0]
    norm = np.max(np.sum(np.abs(a), axis=1))
    for i in range(n):
        res = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
        assert res <= 1e-10 * n * norm


def test_dense_cap_refusal():
    with pytest.raises(CapacityError):
        dense_eigen(np.zeros((5, 5)), cap=4)


def test_dense_cap_refused_before_copying():
    a = np.zeros((1500, 1500))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            dense_eigen(a, cap=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dense_sym_requires_square():
    with pytest.raises(ValueError):
        DenseSym(np.zeros((2, 3)))
