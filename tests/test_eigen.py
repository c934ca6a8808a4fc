import contextlib
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratree.eigen import TriDiag, dense_eigenvalues, sturm_count, trailing_eigenvalues
import stratree.cli as cli
import stratree.eigen as eigen
from stratree.decompose import decompose_spectrum, level_matrix
from stratree.tree import CapacityError, RootedTree, SymmetricTreeSpec, realize

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
    vals = dense_eigenvalues(realize(SymmetricTreeSpec([2])))
    assert np.allclose(vals, [0.0, 1.0, 3.0], atol=1e-12)


def test_dense_four_vertex_star():
    vals = dense_eigenvalues(realize(SymmetricTreeSpec([3])))
    assert np.allclose(vals, [0.0, 1.0, 1.0, 4.0], atol=1e-12)


def test_dense_residuals():
    # every oracle value has a unit vector x with |(A - lambda I) x| at
    # working precision: the least singular value of A - lambda I
    tree, a = laplacian(SymmetricTreeSpec([3, 2]))
    vals = dense_eigenvalues(tree)
    n = a.shape[0]
    norm = np.max(np.sum(np.abs(a), axis=1))
    for lam in vals:
        assert np.linalg.svd(a - lam * np.eye(n), compute_uv=False)[-1] <= 1e-10 * n * norm


# a repeated eigenvalue at 0.26795 whose neighbour sits 1.9e-3 away
CLOSE_NEIGHBOUR = (
    -1, 0, 0, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 4, 0, 1, 0, 6, 0, 0, 0,
    0, 0, 5, 13, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 0, 7, 9, 9, 0, 12, 0, 0,
)


def counted_dense_solves(monkeypatch):
    calls = []
    solve = cli.dense_eigenvalues

    def counted(tree):
        calls.append(tree.n)
        return solve(tree)

    monkeypatch.setattr(cli, "dense_eigenvalues", counted)
    return calls


# The dense solve's vertex cap is checked by ``verify.oracle_tree`` from the spec's count.
def test_dense_cap_refusal(monkeypatch, capsys):
    calls = counted_dense_solves(monkeypatch)
    assert cli.main(["nodal", "--children", "4", "--oracle-cap", "4"]) == 3
    assert calls == []
    assert cli.main(["nodal", "--children", "4", "--oracle-cap", "5"]) == 0
    assert calls == [5]
    vals = [row["lambda"] for row in json.loads(capsys.readouterr().out)]
    assert np.allclose(vals, [0.0, 1.0, 1.0, 1.0, 5.0], atol=1e-12)


def test_dense_cap_refused_before_copying(monkeypatch, capsys):
    # |V| = 1500: its dense Laplacian would take 18 MB
    calls = counted_dense_solves(monkeypatch)
    tracemalloc.start()
    try:
        code = cli.main(["nodal", "--children", "1499", "--oracle-cap", "1000"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and "exceeds the oracle cap 1000" in capsys.readouterr().err
    assert peak < 1 << 20
    assert calls == []


@pytest.mark.parametrize(
    "tree",
    [
        realize(SymmetricTreeSpec([3])),
        *(realize(SymmetricTreeSpec(c)) for c in ([3, 2, 2], [4, 4, 3, 2, 2, 2], [2] * 8)),
        RootedTree(CLOSE_NEIGHBOUR),
    ],
    ids=["star", "3,2,2", "4,4,3,2,2,2", "2x8", "close-neighbour"],
)
def test_dense_eigenvalues_are_eigvalsh_of_the_laplacian(tree):
    a = laplacian_of(tree.parents)
    vals = dense_eigenvalues(tree)
    assert np.array_equal(vals, np.linalg.eigvalsh(a))


@settings(max_examples=60, deadline=None)
@given(trees())
@example(RootedTree((-1,)))
@example(RootedTree(CLOSE_NEIGHBOUR))
def test_dense_eigen_on_any_numbering(tree):
    # the values-only oracle reads any parent array, however numbered
    a = laplacian_of(tree.parents)
    vals = dense_eigenvalues(tree)
    assert np.all(np.diff(vals) >= 0)
    assert abs(vals[0]) <= 1e-12
    assert np.array_equal(vals, np.linalg.eigvalsh(a))


def test_no_dense_solve(monkeypatch, capsys):
    # nodal and verify solve no dense system: the oracle is eigvalsh and
    # the sign counts read level values
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for command in ("nodal", "verify"):
        assert cli.main([command, "--children", "4,3,2"]) == 0
    capsys.readouterr()


def test_no_qr(monkeypatch, capsys):
    # [4, 4, 3, 2, 2, 2] has 20 clusters of repeated eigenvalues; nodal
    # passes on every row with no QR of any of them
    def refuse(*args, **kwargs):
        raise AssertionError("QR called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert cli.main(["nodal", "--children", "4,4,3,2,2,2"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 741 and all(row["pass"] for row in rows)


def test_nodal_peaks_near_one_dense_matrix(capsys):
    # |V| = 2047: the values-only oracle holds the n x n Laplacian alone
    # (1.0 times it traced), where the eigenpair solve and its purifier
    # peaked at 3.0 times it
    spec = SymmetricTreeSpec([2] * 10)
    n = spec.vertex_count()
    tracemalloc.start()
    try:
        code = cli.main(["nodal", "--children", ",".join(["2"] * 10), "--oracle-cap", str(n)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().err == ""
    assert peak < 1.5 * 8 * n * n
