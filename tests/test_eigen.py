import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

from stratree.eigen import (
    TriDiag,
    _breadth_first,
    _purify_degenerate,
    _tree_solve,
    dense_eigen,
    sturm_count,
    tridiag_eigen,
)
import stratree.eigen as eigen
import stratree.verify as verify
from stratree.laplacian import assemble
from stratree.tree import CapacityError, GluedTreeSpec, RootedTree, SymmetricTreeSpec, realize

from strategies import trees

SQRT2 = math.sqrt(2.0)


def laplacian(spec):
    tree = realize(spec)
    return tree, assemble(tree).to_dense()


def tridiag_matvec(t, x):
    """``t @ x`` from the diagonals, without densifying ``t``."""
    y = t.diag * x
    if t.m > 1:
        y[:-1] += t.off * x[1:]
        y[1:] += t.off * x[:-1]
    return y


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
            res = np.linalg.norm(tridiag_matvec(t, vecs[:, i]) - vals[i] * vecs[:, i])
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
    # the Sturm recurrence, independent of LAPACK, puts exactly i of its
    # eigenvalues below the midpoint of each consecutive pair i, i + 1
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = int(rng.integers(1, 20))
        t = TriDiag(rng.standard_normal(m), np.abs(rng.standard_normal(max(m - 1, 0))) + 0.05)
        vals = tridiag_eigen(t)
        mids = 0.5 * (vals[:-1] + vals[1:])
        assert sturm_count(t, mids).tolist() == list(range(1, m))


def test_dense_star_spectrum():
    vals, vecs = dense_eigen(realize(SymmetricTreeSpec([2])))
    assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)
    assert np.allclose(vecs.T @ vecs, np.eye(3), atol=1e-10)


def test_dense_four_vertex_star():
    vals, _ = dense_eigen(realize(SymmetricTreeSpec([3])))
    assert np.allclose(vals, [0.0, 1.0, 1.0, 4.0], atol=1e-12)


def test_dense_residuals():
    tree, a = laplacian(SymmetricTreeSpec([3, 2]))
    vals, vecs = dense_eigen(tree)
    n = a.shape[0]
    norm = np.max(np.sum(np.abs(a), axis=1))
    for i in range(n):
        res = np.linalg.norm(a @ vecs[:, i] - vals[i] * vecs[:, i])
        assert res <= 1e-10 * n * norm


def counted_dense_solves(monkeypatch):
    calls = []
    solve = verify.dense_eigen

    def counted(tree):
        calls.append(tree.n)
        return solve(tree)

    monkeypatch.setattr(verify, "dense_eigen", counted)
    return calls


# The dense solve's vertex cap is checked by ``verify.oracle`` from the spec's count.
def test_dense_cap_refusal(monkeypatch):
    calls = counted_dense_solves(monkeypatch)
    star = SymmetricTreeSpec([4])
    with pytest.raises(CapacityError):
        verify.oracle(star, cap=4)
    assert calls == []
    tree, vals, _ = verify.oracle(star, cap=5)
    assert calls == [5] and tree.n == 5
    assert np.allclose(vals, [0.0, 1.0, 1.0, 1.0, 5.0], atol=1e-12)


def test_dense_cap_refused_before_copying(monkeypatch):
    # |V| = 1500: its dense Laplacian would take 18 MB
    calls = counted_dense_solves(monkeypatch)
    spec = SymmetricTreeSpec([1499])
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            verify.oracle(spec, cap=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert calls == []


def test_oracle_drops_the_dense_laplacian_before_purifying():
    # purification reads only the Laplacian's diagonal, so the n x n matrix
    # is released after eigh; held through purification it peaked at 5.0x
    spec = SymmetricTreeSpec([2] * 10)
    n = spec.vertex_count()
    tracemalloc.start()
    try:
        verify.oracle(spec, cap=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 8 * n * n


def dense_purified(a, tol=1e-8):
    """(start, stop, basis) per repeated eigenvalue of ``a``, purified by
    one dense shifted solve per cluster: the reference for the tree solve."""
    vals, vecs = np.linalg.eigh(a)
    n = len(vals)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    out, start = [], 0
    for i in range(1, n + 1):
        if i < n and vals[i] - vals[i - 1] <= tol:
            continue
        if i - start > 1:
            shift = float(np.mean(vals[start:i])) + 1e-12 * scale
            q, _ = np.linalg.qr(np.linalg.solve(a - shift * np.eye(n), vecs[:, start:i]))
            out.append((start, i, q))
        start = i
    return out


PURIFIED = [
    SymmetricTreeSpec([3, 2, 2]),
    SymmetricTreeSpec([4, 4, 3, 2, 2, 2]),
    GluedTreeSpec(SymmetricTreeSpec([3, 3, 2]), SymmetricTreeSpec([2, 2, 2, 2])),
]


@pytest.mark.parametrize("spec", PURIFIED, ids=["3,2,2", "4,4,3,2,2,2", "glued"])
def test_tree_solve_spans_the_dense_solve_cluster(spec):
    tree, a = laplacian(spec)
    vals, vecs = dense_eigen(tree)
    clusters = dense_purified(a)
    assert clusters
    for start, stop, q in clusters:
        ours = vecs[:, start:stop]
        # sine of the largest principal angle between the two spans
        assert np.linalg.norm(ours - q @ (q.T @ ours), 2) <= 1e-10
    norm = np.linalg.norm(a, 2)
    assert np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)) <= 1e-12 * norm
    assert np.max(np.abs(vecs.T @ vecs - np.eye(tree.n))) <= 1e-12 * norm


@settings(max_examples=60, deadline=None)
@given(trees())
def test_tree_solve_matches_a_dense_solve_on_any_numbering(tree):
    # shifts below the Laplacian's spectrum keep both solves well conditioned
    a = assemble(tree).to_dense()
    shifts, owner = np.array([-0.5, -1.5]), np.array([0, 1, 1])
    b = np.random.default_rng(tree.n).standard_normal((tree.n, 3))
    order, up, starts = _breadth_first(tree)
    assert sorted(order.tolist()) == list(range(tree.n))
    x = np.empty_like(b)
    x[order] = _tree_solve(up, starts, np.diagonal(a)[order], shifts, owner, b[order])
    for j, shift in enumerate(shifts[owner]):
        expected = np.linalg.solve(a - shift * np.eye(tree.n), b[:, j])
        assert np.allclose(x[:, j], expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_zero_pivot_still_gives_an_orthonormal_eigenspace():
    # star on 3 leaves: eigenvalue 1 twice.  Leaf 1's diagonal is moved by
    # ~1e-12 to the cluster's shift, so its pivot is exactly 0.
    tree, a = laplacian(SymmetricTreeSpec([3]))
    vals, vecs = np.linalg.eigh(a)
    shift = float(np.mean(vals[1:3])) + 1e-12 * float(np.max(np.abs(vals)))
    diag = np.diagonal(a).copy()
    diag[1] = shift
    out = _purify_degenerate(tree, diag, vals, vecs.copy())
    cluster = out[:, 1:3]
    assert np.all(np.isfinite(cluster))
    assert not np.array_equal(cluster, vecs[:, 1:3])  # the solve's vectors, not LAPACK's
    assert np.allclose(cluster.T @ cluster, np.eye(2), atol=1e-12)
    assert np.max(np.abs(a @ cluster - cluster)) <= 1e-10


def test_no_generator_without_a_retry(monkeypatch):
    # [3, 2] has three clusters, none with an ambiguous near-zero entry
    rotated, made = [], []
    avoid, make = eigen._avoid_fuzzy_zeros, np.random.default_rng

    def counted_avoid(q, seed):
        rotated.append(q.shape)
        return avoid(q, seed)

    def counted_make(*args, **kwargs):
        made.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(eigen, "_avoid_fuzzy_zeros", counted_avoid)
    monkeypatch.setattr(np.random, "default_rng", counted_make)
    dense_eigen(realize(SymmetricTreeSpec([3, 2])))
    assert len(rotated) == 3 and made == []


def test_no_dense_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    tree, a = laplacian(SymmetricTreeSpec([4, 3, 2]))
    vals, vecs = dense_eigen(tree)
    assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-12 * np.linalg.norm(a, 2)


def parent_array_laplacian(tree):
    """The Laplacian written out from the parent array, apart from ``assemble``."""
    a = np.zeros((tree.n, tree.n))
    for v, p in enumerate(tree.parents.tolist()):
        if p >= 0:
            a[v, p] = a[p, v] = -1.0
            a[v, v] += 1.0
            a[p, p] += 1.0
    return a


# a purified cluster at 0.26795 whose neighbour sits 1.9e-3 away: the
# cluster's solve left 1.8e-12 of that neighbour in it
CLOSE_NEIGHBOUR = (
    -1, 0, 0, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 4, 0, 1, 0, 6, 0, 0, 0,
    0, 0, 5, 13, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 0, 7, 9, 9, 0, 12, 0, 0,
)


@settings(max_examples=60, deadline=None)
@given(trees())
@example(RootedTree((-1,)))
@example(RootedTree(CLOSE_NEIGHBOUR))
def test_dense_eigen_on_any_numbering(tree):
    a = parent_array_laplacian(tree)
    vals, vecs = dense_eigen(tree)
    norm = np.linalg.norm(a, 2)
    assert np.all(np.diff(vals) >= 0)
    assert abs(vals[0]) <= 1e-12
    assert np.max(np.abs(vecs.T @ vecs - np.eye(tree.n))) <= 1e-12
    assert np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)) <= 1e-12 * norm
