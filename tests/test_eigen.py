import contextlib
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratree.eigen import (
    TriDiag,
    _breadth_first,
    _purify_degenerate,
    _tree_solve,
    dense_eigen,
    dense_eigenvalues,
    sturm_count,
    trailing_eigenvalues,
)
import stratree.cli as cli
import stratree.eigen as eigen
import stratree.verify as verify
from stratree.decompose import decompose_spectrum, level_matrix
from stratree.laplacian import degrees
from stratree.tree import CapacityError, GluedTreeSpec, RootedTree, SymmetricTreeSpec, realize

from reference import laplacian_of
from strategies import trees

SQRT2 = math.sqrt(2.0)


def laplacian(spec):
    tree = realize(spec)
    return tree, laplacian_of(tree.parents)


def tridiag_matvec(t, x):
    """``t @ x`` from the diagonals, without densifying ``t``."""
    y = t.diag * x
    if t.m > 1:
        y[:-1] += t.off * x[1:]
        y[1:] += t.off * x[:-1]
    return y


def test_one_by_one():
    vals = trailing_eigenvalues(TriDiag([1.0], []), [0])[0]
    assert vals.tolist() == [1.0]


def test_star_recurrence_matrix():
    # trace 3, determinant 0
    vals = trailing_eigenvalues(TriDiag([1.0, 2.0], [SQRT2]), [0])[0]
    assert np.allclose(vals, [0.0, 3.0], atol=1e-12)


def test_dirichlet_recurrence_matrix():
    # trace 4, determinant 1
    vals = trailing_eigenvalues(TriDiag([3.0, 1.0], [SQRT2]), [0])[0]
    assert np.allclose(vals, [2 - math.sqrt(3), 2 + math.sqrt(3)], atol=1e-12)


def test_eigenvalues_sorted_and_distinct_when_unreduced():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.integers(2, 30)
        t = TriDiag(rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)) + 0.1)
        vals = trailing_eigenvalues(t, [0])[0]
        assert np.all(np.diff(vals) > 0)


def test_residuals_and_orthonormality():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(1, 25))
        off = np.abs(rng.standard_normal(max(m - 1, 0))) + 0.05
        t = TriDiag(rng.standard_normal(m), off)
        vals, vecs = np.linalg.eigh(t.to_dense())
        scale = np.linalg.norm(t.to_dense(), np.inf)
        for i in range(m):
            res = np.linalg.norm(tridiag_matvec(t, vecs[:, i]) - vals[i] * vecs[:, i])
            assert res <= 1e-12 * max(scale, 1.0)
        assert np.allclose(vecs.T @ vecs, np.eye(m), atol=1e-10)


def test_sturm_count_consistency():
    rng = np.random.default_rng(11)
    for _ in range(10):
        m = int(rng.integers(2, 20))
        t = TriDiag(rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)) + 0.1)
        vals = trailing_eigenvalues(t, [0])[0]
        for x in rng.uniform(vals[0] - 1, vals[-1] + 1, size=8):
            assert sturm_count(t, float(x)) == int(np.sum(vals < x))


def test_interlacing_of_leading_submatrix():
    rng = np.random.default_rng(13)
    for _ in range(8):
        m = int(rng.integers(3, 15))
        t = TriDiag(rng.standard_normal(m), np.abs(rng.standard_normal(m - 1)) + 0.1)
        vals = trailing_eigenvalues(t, [0])[0]
        sub = TriDiag(t.diag[:-1], t.off[:-1])
        sub_vals = trailing_eigenvalues(sub, [0])[0]
        for i in range(m - 1):
            assert vals[i] < sub_vals[i] < vals[i + 1]


def test_agreement_with_dense_oracle():
    # the Sturm recurrence, independent of LAPACK, puts exactly i of its
    # eigenvalues below the midpoint of each consecutive pair i, i + 1
    rng = np.random.default_rng(17)
    for _ in range(8):
        m = int(rng.integers(1, 20))
        t = TriDiag(rng.standard_normal(m), np.abs(rng.standard_normal(max(m - 1, 0))) + 0.05)
        vals = trailing_eigenvalues(t, [0])[0]
        mids = 0.5 * (vals[:-1] + vals[1:])
        assert sturm_count(t, mids).tolist() == list(range(1, m))


needs_dsterf = pytest.mark.skipif(eigen._dsterf() is None, reason="numpy bundles no dsterf here")
EDGE = int(eigen.UNSCALED[1])  # 2^485: above this max |entry|, eigvalsh rescales


def counted_dsterf(monkeypatch):
    """Route every ``dsterf`` call through a counter; returns the list of
    slice sizes it was called on."""
    fn, sizes = eigen._dsterf(), []

    def counted(n, d, e, info):
        sizes.append(n._obj.value)
        fn(n, d, e, info)

    monkeypatch.setattr(eigen, "_dsterf", lambda: counted)
    return sizes


def dense_values(t, start):
    return np.linalg.eigvalsh(t.trailing(start).to_dense())


@needs_dsterf
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.one_of(st.integers(1, 1000), st.integers(EDGE // 4, EDGE * 4)), min_size=0, max_size=40
    )
)
@example([1000] * 40)
@example([EDGE - 1, 3, 2])  # the root's degree rounds to the edge itself
@example([EDGE + 2**440, 3, 2])  # and to the float just above it
def test_dsterf_and_eigvalsh_agree_bitwise_on_every_slice(children):
    t = level_matrix(SymmetricTreeSpec(children))
    got = trailing_eigenvalues(t, range(t.m))
    for start, vals in enumerate(got):
        assert vals.tobytes() == dense_values(t, start).tobytes()


@needs_dsterf
def test_slices_outside_the_window_take_eigvalsh(monkeypatch):
    sizes = counted_dsterf(monkeypatch)
    t = level_matrix(SymmetricTreeSpec([EDGE * 2, 3, 2]))  # only the root row is above
    vals = trailing_eigenvalues(t, range(t.m))
    assert sizes == [3, 2, 1]
    assert [v.tobytes() for v in vals] == [dense_values(t, s).tobytes() for s in range(t.m)]
    sizes.clear()
    tiny = TriDiag([1e-150, 2e-150], [1e-150])  # below the window
    assert trailing_eigenvalues(tiny, [0])[0].tobytes() == dense_values(tiny, 0).tobytes()
    with contextlib.suppress(np.linalg.LinAlgError):  # not finite
        trailing_eigenvalues(TriDiag([1.0, np.inf], [1.0]), [0])
    assert sizes == []


def test_solve_cap_refuses_before_solving(monkeypatch):
    sizes = counted_dsterf(monkeypatch) if eigen._dsterf() else []
    m = math.isqrt(eigen.SOLVE_CAP) + 1  # one slice over the cap
    with pytest.raises(CapacityError):
        trailing_eigenvalues(TriDiag(np.ones(m), np.ones(m - 1)), [0])
    k = 1500  # each slice under it, their sum over it
    t = TriDiag(np.ones(k), np.ones(k - 1))
    with pytest.raises(CapacityError):
        trailing_eigenvalues(t, range(k))
    assert sizes == []
    assert len(trailing_eigenvalues(t, range(k // 2, k))) == k - k // 2


def test_empty_and_out_of_range_slices():
    t = TriDiag([1.0, 2.0], [1.0])
    assert [v.tolist() for v in trailing_eigenvalues(t, [2, 2])] == [[], []]
    assert trailing_eigenvalues(TriDiag([], []), [0])[0].tolist() == []
    for start in (-1, 3):
        with pytest.raises(IndexError):
            trailing_eigenvalues(t, [start])


FALLBACK_SPECS = {
    "2x16": ["--children", ",".join(["2"] * 16)],
    "forty-ones-10": ["--children", "1," * 40 + "10"],
    "huge": ["--children", ",".join([str(10**300)] * 16)],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", [*FALLBACK_SPECS, "glued"])
def test_eigvalsh_fallback_gives_the_same_bytes(monkeypatch, capsys, tmp_path, name, fmt):
    if name == "glued":
        path = tmp_path / "g.json"
        path.write_text('{"left": [2, 2], "right": [3]}')
        spec = ["--spec", str(path)]
    else:
        spec = FALLBACK_SPECS[name]

    def spectrum():
        assert cli.main(["spectrum", *spec, "--format", fmt]) == 0
        return capsys.readouterr().out

    fast = spectrum()
    monkeypatch.setattr(eigen, "_dsterf", lambda: None)
    assert spectrum() == fast


@needs_dsterf
def test_deep_path_spectrum_never_densifies():
    # one 4000-row slice: its dense matrix alone would take 128 MB
    k = 4000
    tracemalloc.start()
    try:
        spectrum = decompose_spectrum(SymmetricTreeSpec([1] * (k - 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(spectrum.values) == k
    assert peak < 8 * k * k / 100


@pytest.fixture
def rebind():
    """Bind ``dsterf`` afresh in the test and again after it."""
    eigen._dsterf.cache_clear()
    yield
    eigen._dsterf.cache_clear()


def test_debug_log_names_the_values_route_once(rebind, caplog):
    caplog.set_level(logging.DEBUG, logger="stratree")
    trailing_eigenvalues(TriDiag([1.0, 2.0], [1.0]), [0])
    trailing_eigenvalues(TriDiag([1.0], []), [0])
    [line] = [r.getMessage() for r in caplog.records if "values route" in r.getMessage()]
    if eigen._dsterf() is None:
        assert "eigvalsh, since" in line
    else:
        assert eigen.DSTERF_SYMBOL in line and "libscipy_openblas64_" in line


def test_debug_log_says_why_eigvalsh(rebind, caplog, monkeypatch):
    monkeypatch.setattr(eigen, "DSTERF_SYMBOL", "no_such_symbol")
    caplog.set_level(logging.DEBUG, logger="stratree")
    assert trailing_eigenvalues(TriDiag([1.0, 2.0], [SQRT2]), [0])[0].tolist() == pytest.approx([0.0, 3.0])
    [line] = [r.getMessage() for r in caplog.records if "values route" in r.getMessage()]
    assert line.startswith("values route: eigvalsh, since ")
    assert "no_such_symbol" in line or "bundles no libscipy_openblas64_" in line


def test_stratree_log_debug_shows_the_route_on_stderr():
    src = os.path.dirname(os.path.dirname(eigen.__file__))
    env = dict(os.environ, STRATREE_LOG="debug", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "stratree.cli", "spectrum", "--children", "2,2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr.count("values route: ") == 1


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


PURIFIED = [
    SymmetricTreeSpec([3, 2, 2]),
    SymmetricTreeSpec([4, 4, 3, 2, 2, 2]),
    GluedTreeSpec(SymmetricTreeSpec([3, 3, 2]), SymmetricTreeSpec([2, 2, 2, 2])),
]
PURIFIED_SYMMETRIC = [*PURIFIED[:2], SymmetricTreeSpec([2] * 8)]

# a purified cluster at 0.26795 whose neighbour sits 1.9e-3 away: the
# cluster's solve left 1.8e-12 of that neighbour in it
CLOSE_NEIGHBOUR = (
    -1, 0, 0, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 4, 0, 1, 0, 6, 0, 0, 0,
    0, 0, 5, 13, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 0, 7, 9, 9, 0, 12, 0, 0,
)


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


@pytest.mark.parametrize(
    "tree",
    [
        realize(SymmetricTreeSpec([3])),
        *(realize(spec) for spec in PURIFIED_SYMMETRIC),
        RootedTree(CLOSE_NEIGHBOUR),
    ],
    ids=["star", "3,2,2", "4,4,3,2,2,2", "2x8", "close-neighbour"],
)
def test_dense_eigenvalues_are_eigvalsh_of_the_laplacian(tree):
    a = laplacian_of(tree.parents)
    vals = dense_eigenvalues(tree)
    assert np.array_equal(vals, np.linalg.eigvalsh(a))
    assert np.allclose(vals, dense_eigen(tree)[0], rtol=0, atol=1e-12 * np.linalg.norm(a, 2))


class _Numpy:
    """numpy in the eigen module's namespace, counting the purifier's
    breadth-first gathers; with ``in_order`` False no two arrays compare
    equal, so every tree takes the gather and scatter route."""

    def __init__(self, in_order):
        self.in_order, self.gathers = in_order, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def array_equal(self, a, b):
        return self.in_order and np.array_equal(a, b)

    def ix_(self, *args):
        self.gathers += 1
        return np.ix_(*args)


@pytest.mark.parametrize(
    "spec", [*PURIFIED_SYMMETRIC, PURIFIED[-1]], ids=["3,2,2", "4,4,3,2,2,2", "2x8", "glued"]
)
def test_purifier_skips_the_identity_permutation(monkeypatch, spec):
    # realize numbers a symmetric tree breadth-first, so its clusters are
    # gathered and solved in place, and the vectors keep every bit of the
    # route through the breadth-first permutation; a glued tree takes that
    # route
    tree, a = laplacian(spec)
    vals, vecs = np.linalg.eigh(a)
    out = []
    for in_order in (True, False):
        shim = _Numpy(in_order)
        monkeypatch.setattr(eigen, "np", shim)
        out.append(_purify_degenerate(tree, degrees(tree), vals, vecs.copy()))
        monkeypatch.setattr(eigen, "np", np)
        assert shim.gathers == (0 if in_order and isinstance(spec, SymmetricTreeSpec) else 1)
    assert np.array_equal(*out)
    assert not np.array_equal(out[0], vecs)


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
    a = laplacian_of(tree.parents)
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


@settings(max_examples=60, deadline=None)
@given(trees())
@example(RootedTree((-1,)))
@example(RootedTree(CLOSE_NEIGHBOUR))
def test_dense_eigen_on_any_numbering(tree):
    a = laplacian_of(tree.parents)
    vals, vecs = dense_eigen(tree)
    norm = np.linalg.norm(a, 2)
    assert np.all(np.diff(vals) >= 0)
    assert abs(vals[0]) <= 1e-12
    assert np.max(np.abs(vecs.T @ vecs - np.eye(tree.n))) <= 1e-12
    assert np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)) <= 1e-12 * norm


def test_far_from_orthonormal_solve_keeps_lapack_vectors(monkeypatch, caplog):
    # every solved column leans on its block's first one, so the normalized
    # columns are too far apart for Newton-Schulz steps: each cluster of
    # [3, 2] must come back as eigh's own vectors
    solve = eigen._tree_solve

    def skewed(up, starts, diag, shifts, owner, x):
        x = solve(up, starts, diag, shifts, owner, x)
        x += x[:, :1]
        return x

    monkeypatch.setattr(eigen, "_tree_solve", skewed)
    caplog.set_level(logging.DEBUG, logger="stratree")
    tree, a = laplacian(SymmetricTreeSpec([3, 2]))
    vals, vecs = dense_eigen(tree)
    assert np.array_equal(vecs, np.linalg.eigh(a)[1])
    assert np.max(np.abs(vecs.T @ vecs - np.eye(tree.n))) <= 1e-12
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("oracle: ")]
    assert "3 clusters, 0 vectors purified" in line and "3 clusters kept as LAPACK's" in line


def test_no_qr(monkeypatch):
    # [4, 4, 3, 2, 2, 2] takes reflection retries as well as Newton-Schulz steps
    def refuse(*args, **kwargs):
        raise AssertionError("QR called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    tree, a = laplacian(SymmetricTreeSpec([4, 4, 3, 2, 2, 2]))
    vals, vecs = dense_eigen(tree)
    assert np.max(np.abs(a @ vecs - vecs * vals)) <= 1e-12 * np.linalg.norm(a, 2)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(tree.n))) <= 1e-12


@pytest.mark.parametrize(
    "tree",
    [
        realize(SymmetricTreeSpec([3, 1, 4, 1, 3, 2, 4, 3])),
        realize(SymmetricTreeSpec([4, 4, 3, 2, 2, 2])),
        realize(GluedTreeSpec(SymmetricTreeSpec([3, 3, 2]), SymmetricTreeSpec([2, 2, 2, 2]))),
        RootedTree(CLOSE_NEIGHBOUR),
    ],
    ids=["3,1,4,1,3,2,4,3", "4,4,3,2,2,2", "glued", "close-neighbour"],
)
def test_reflections_leave_no_fuzzy_entry(monkeypatch, tree):
    bases, avoid = [], eigen._avoid_fuzzy_zeros

    def kept(q, seed):
        q, retries = avoid(q, seed)
        bases.append(q.copy())  # before the projection off the neighbours
        return q, retries

    monkeypatch.setattr(eigen, "_avoid_fuzzy_zeros", kept)
    dense_eigen(tree)
    assert bases
    for q in bases:
        size = np.abs(q)
        top = np.max(size, axis=0)
        assert not np.any((size > 1e-13 * top) & (size < 1e-6 * top))


def test_debug_line_counts_the_purification(caplog):
    # [4, 4, 3, 2, 2, 2]: 20 clusters of 734 vectors, some needing a retry
    caplog.set_level(logging.DEBUG, logger="stratree")
    dense_eigen(realize(SymmetricTreeSpec([4, 4, 3, 2, 2, 2])))
    [line] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("oracle: ")]
    assert line.startswith("oracle: n=741, 20 clusters, 734 vectors purified, ")
    counts = re.search(
        r"(\d+) Newton-Schulz steps, (\d+) reflection retries, (\d+) clusters kept as"
        r" LAPACK's, worst max\|q'q - I\| (\S+)$",
        line,
    )
    steps, retries, kept, worst = counts.groups()
    assert int(steps) > 0 and int(retries) > 0 and kept == "0"
    assert float(worst) <= 1e-12


def test_no_tally_unless_debug(monkeypatch, caplog):
    # the worst Gram gap costs one more Gram per cluster, so only a debug
    # run pays for it
    caplog.set_level(logging.INFO, logger="stratree")
    tallies, purify = [], eigen._purify_degenerate

    def counted(*args):
        tallies.append(args[4:])
        return purify(*args)

    monkeypatch.setattr(eigen, "_purify_degenerate", counted)
    dense_eigen(realize(SymmetricTreeSpec([3, 2])))
    assert tallies == [()] and not [r for r in caplog.records if "oracle: " in r.getMessage()]
