from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratree.decompose import decompose_spectrum, full_eigenbasis
from stratree.eigen import dense_eigen, dense_eigenvalues
from stratree.nodal import (
    ZERO_TOL,
    cluster_spectrum,
    count_sign_graphs,
    level_nodal_records,
    level_sign_graphs,
    nodal_records,
    oracle_zero_tol,
)
from stratree.tree import GluedTreeSpec, SymmetricTreeSpec, realize

from reference import dense_rows
from strategies import trees


def tree_of(children):
    return realize(SymmetricTreeSpec(children))


def oracle(children):
    tree = tree_of(children)
    vals, vecs = dense_eigen(tree)
    return tree, vals, vecs


class TestCountSignGraphs:
    def test_all_ones(self):
        tree = tree_of([3, 2])
        rep = count_sign_graphs(tree, np.ones(tree.n))
        assert (rep.positive_count, rep.negative_count, rep.zero_count) == (1, 0, 0)

    def test_star_split(self):
        tree = tree_of([2])
        rep = count_sign_graphs(tree, np.array([0.0, 1.0, -1.0]))
        assert (rep.positive_count, rep.negative_count, rep.zero_count) == (1, 1, 1)
        assert rep.total == 2

    def test_zero_function(self):
        tree = tree_of([2, 2])
        rep = count_sign_graphs(tree, np.zeros(tree.n))
        assert (rep.positive_count, rep.negative_count, rep.zero_count) == (0, 0, 7)

    def test_positive_scaling_invariance_and_negation_flip(self):
        tree = tree_of([3, 2])
        rng = np.random.default_rng(1)
        f = rng.standard_normal(tree.n)
        rep = count_sign_graphs(tree, f)
        scaled = count_sign_graphs(tree, 17.5 * f)
        assert (rep.positive_count, rep.negative_count) == (
            scaled.positive_count,
            scaled.negative_count,
        )
        neg = count_sign_graphs(tree, -f)
        assert (rep.positive_count, rep.negative_count) == (
            neg.negative_count,
            neg.positive_count,
        )

    def test_total_bounded_by_vertices(self):
        tree = tree_of([2, 2, 2])
        rng = np.random.default_rng(2)
        for _ in range(10):
            rep = count_sign_graphs(tree, rng.standard_normal(tree.n))
            assert rep.total <= tree.n

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            count_sign_graphs(tree_of([2]), np.ones(4))


@st.composite
def signed_functions(draw):
    tree = draw(trees())
    values = st.sampled_from([-2.5, -1.0, -1e-12, 0.0, 1e-12, 0.5, 3.0])
    f = np.array(draw(st.lists(values, min_size=tree.n, max_size=tree.n)))
    return tree, f, draw(st.sampled_from([0.0, 1e-9]))


def bfs_sign_components(tree, f, zero_tol):
    """(positive, negative, zero) counts by breadth-first search over edges
    whose ends share a strict sign."""
    sign = [1 if x > zero_tol else -1 if x < -zero_tol else 0 for x in f]
    adj = [[] for _ in range(tree.n)]
    for v, p in enumerate(tree.parents):
        if p >= 0:
            adj[p].append(v)
            adj[v].append(p)
    seen = [False] * tree.n
    counts = {1: 0, -1: 0, 0: sign.count(0)}
    for s in range(tree.n):
        if seen[s] or sign[s] == 0:
            continue
        counts[sign[s]] += 1
        seen[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w] and sign[w] == sign[s]:
                    seen[w] = True
                    queue.append(w)
    return counts[1], counts[-1], counts[0]


class TestSignGraphProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(signed_functions())
    def test_counts_match_breadth_first_search(self, case):
        tree, f, zero_tol = case
        rep = count_sign_graphs(tree, f, zero_tol)
        assert (rep.positive_count, rep.negative_count, rep.zero_count) == bfs_sign_components(
            tree, f, zero_tol
        )


@st.composite
def signed_columns(draw):
    """A tree, an (n, m) array and a scalar or per-column zero threshold.

    Entries include exact zeros and values at and just beside each
    column's threshold, on either side of zero."""
    tree = draw(trees())
    m = draw(st.integers(1, 5))
    tols = draw(st.lists(st.sampled_from([0.0, 1e-9, 0.25]), min_size=m, max_size=m))
    cols = []
    for tol in tols:
        near = [tol, np.nextafter(tol, 1.0), np.nextafter(tol, 0.0)]
        values = st.sampled_from([0.0, -0.0, 1.0, -2.5, *near, *(-x for x in near)])
        cols.append(draw(st.lists(values, min_size=tree.n, max_size=tree.n)))
    zero_tol = np.array(tols) if draw(st.booleans()) else tols[0]
    return tree, np.array(cols).T, zero_tol


class TestBatchedCounts:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(signed_columns())
    def test_columns_match_one_dimensional_counts(self, case):
        tree, f, zero_tol = case
        rep = count_sign_graphs(tree, f, zero_tol)
        tols = np.broadcast_to(zero_tol, f.shape[1:])
        one = [count_sign_graphs(tree, f[:, j], float(tols[j])) for j in range(f.shape[1])]
        assert rep.positive_count.tolist() == [r.positive_count for r in one]
        assert rep.negative_count.tolist() == [r.negative_count for r in one]
        assert rep.zero_count.tolist() == [r.zero_count for r in one]
        assert rep.total.tolist() == [r.total for r in one]

    def test_one_dimensional_counts_are_ints(self):
        rep = count_sign_graphs(tree_of([2]), np.array([0.0, 1.0, -1.0]))
        assert all(type(x) is int for x in (rep.positive_count, rep.negative_count, rep.zero_count))

    def test_oracle_tolerance_per_column(self):
        tree, vals, vecs = oracle([3, 2])
        assert oracle_zero_tol(vecs).tolist() == [oracle_zero_tol(v) for v in vecs.T]

    @pytest.mark.parametrize("shape", [(4, 2), (3, 2, 1)])
    def test_shape_mismatch(self, shape):
        with pytest.raises(ValueError):
            count_sign_graphs(tree_of([2]), np.ones(shape))


def clusters_by_loop(values, tol):
    clusters, start = [], 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol:
            clusters.append((start, i - start))
            start = i
    return clusters


class TestClusterSpectrum:
    def test_runs(self):
        vals = np.array([0.0, 1.0, 1.0 + 5e-9, 2.0])
        assert cluster_spectrum(vals, 1e-8) == [(0, 1), (1, 2), (3, 1)]

    def test_empty(self):
        assert cluster_spectrum(np.array([])) == []

    def test_gap_of_exactly_tol_stays_in_the_run(self):
        assert cluster_spectrum(np.array([0.0, 0.125, 0.375]), 0.125) == [(0, 2), (2, 1)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from([0.0, 0.0625, 0.125, 0.1875, 1.0]), max_size=30))
    def test_matches_the_loop(self, gaps):
        # dyadic gaps add up exactly, so some differences equal tol exactly
        values = np.cumsum([0.0, *gaps])
        for tol in (0.0625, 0.125):
            assert cluster_spectrum(values, tol) == clusters_by_loop(values, tol)


class TestCourant:
    def test_constant_eigenfunction_bound_one(self):
        tree, vals, vecs = oracle([2, 2])
        records = nodal_records(tree, vals, vecs)
        assert records.position[0] == 1 and records.bound[0] == 1
        assert records.sign_graphs[0] == 1 and records.passed[0]

    def test_star_second_eigenpair(self):
        tree = tree_of([2])
        vals = np.array([0.0, 1.0, 3.0])
        vecs = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, -0.5], [1.0, -1.0, -0.5]])
        records = nodal_records(tree, vals, vecs)
        assert records.bound[1] == 2 and records.sign_graphs[1] == 2 and records.passed[1]

    @pytest.mark.parametrize("children", [[2], [3], [2, 2], [3, 2], [2, 2, 2], [4, 1, 2]])
    def test_all_oracle_pairs_pass(self, children):
        tree, vals, vecs = oracle(children)
        assert np.all(nodal_records(tree, vals, vecs).passed)


class TestZeroFree:
    def test_constant_is_position_one(self):
        tree, vals, vecs = oracle([2, 2])
        records = nodal_records(tree, vals, vecs)
        assert records.zero_count[0] == 0 and records.zero_free[0]
        assert records.sign_graphs[0] == 1 and records.multiplicity[0] == 1

    def test_two_vertex_path(self):
        tree, vals, vecs = oracle([1])
        records = nodal_records(tree, vals, vecs)
        assert np.isclose(vals[1], 2.0)
        assert records.zero_count[1] == 0 and records.zero_free[1] and records.sign_graphs[1] == 2

    def test_pairs_with_zeros_are_skipped(self):
        tree = tree_of([2])
        vals = np.array([0.0, 1.0, 3.0])
        vecs = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, -0.5], [1.0, -1.0, -0.5]])
        records = nodal_records(tree, vals, vecs)
        assert records.zero_count[1] != 0  # (0, 1, -1) vanishes at the root
        assert records.zero_free[1]

    @pytest.mark.parametrize("children", [[2], [3], [2, 2], [3, 2], [2, 2, 2]])
    def test_all_oracle_pairs_pass(self, children):
        tree, vals, vecs = oracle(children)
        assert np.all(nodal_records(tree, vals, vecs).zero_free)


def records_by_loop(tree, values, vectors, cluster_tol=1e-8):
    """The verdicts of ``nodal_records`` as one tuple of its fields per
    eigenpair, built cluster by cluster and pair by pair."""
    rep = count_sign_graphs(tree, vectors, oracle_zero_tol(vectors))
    totals, zeros = rep.total.tolist(), rep.zero_count.tolist()
    records = []
    for start, size in clusters_by_loop(values, cluster_tol):
        bound = start + size  # (start+1) + size - 1
        for i in range(start, start + size):
            zero_free = zeros[i] > 0 or (size == 1 and totals[i] == start + 1)
            records.append((
                float(values[i]), start + 1, size, totals[i], zeros[i], bound, totals[i] <= bound, zero_free
            ))
    return records


SPECS = [
    SymmetricTreeSpec([3, 2]),
    SymmetricTreeSpec([2, 2, 2]),
    SymmetricTreeSpec([4, 1, 2]),
    SymmetricTreeSpec([1]),
    SymmetricTreeSpec([]),
    GluedTreeSpec(SymmetricTreeSpec([2, 2]), SymmetricTreeSpec([3])),
    GluedTreeSpec(SymmetricTreeSpec([2, 1, 3]), SymmetricTreeSpec([1, 1])),
]


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("cluster_tol", [1e-15, 1e-8, 0.5])
def test_columns_match_the_loop(spec, cluster_tol):
    tree = realize(spec)
    vals, vecs = dense_eigen(tree)
    records = nodal_records(tree, vals, vecs, cluster_tol=cluster_tol)
    expected = records_by_loop(tree, vals, vecs, cluster_tol)
    assert records._fields == (
        "value", "position", "multiplicity", "sign_graphs", "zero_count", "bound", "passed", "zero_free"
    )
    for field, column in zip(records._fields, zip(*expected)):
        got = getattr(records, field)
        assert got.shape == (len(vals),)
        # the CLI writes the columns' tolist(): their cells must be the
        # loop's Python values, type for type
        assert [(type(x), x) for x in got.tolist()] == [(type(x), x) for x in column], field


@pytest.mark.parametrize(
    "spec",
    [
        SymmetricTreeSpec([3, 2]),
        SymmetricTreeSpec([2, 2, 2]),
        SymmetricTreeSpec([4, 1, 2]),
        GluedTreeSpec(SymmetricTreeSpec([2, 2]), SymmetricTreeSpec([3])),
    ],
)
def test_one_record_per_eigenpair_carries_both_verdicts(spec):
    tree = realize(spec)
    vals, vecs = dense_eigen(tree)
    records = nodal_records(tree, vals, vecs)
    assert all(len(column) == len(vals) for column in records)
    clusters = [(start + 1, size) for start, size in cluster_spectrum(vals) for _ in range(size)]
    assert list(zip(records.position.tolist(), records.multiplicity.tolist())) == clusters
    assert np.array_equal(records.bound, records.position + records.multiplicity - 1)
    assert np.array_equal(records.passed, records.sign_graphs <= records.bound)
    assert np.array_equal(
        records.zero_free,
        (records.zero_count > 0) | ((records.multiplicity == 1) & (records.sign_graphs == records.position)),
    )


def common_zeros(vectors, zero_tol_factor=1e-9):
    """Vertices where every row of ``vectors`` vanishes, each row at its own
    scale.  A vertex is a common zero of a span exactly when it is one of
    any basis of it."""
    vecs = np.atleast_2d(vectors)
    small = np.abs(vecs) <= zero_tol_factor * np.max(np.abs(vecs), axis=1, keepdims=True)
    return np.flatnonzero(np.all(small, axis=0)).tolist()


def eigenspace(vals, vecs, value, tol=1e-8):
    """Oracle eigenvectors of ``value``, one per row."""
    return vecs[:, np.abs(vals - value) <= tol].T


class TestCommonVanishing:
    def test_star_single_vector(self):
        assert common_zeros(np.array([[0.0, 1.0, -1.0]])) == [0]

    def test_multiplicity_two_star(self):
        tree, vals, vecs = oracle([3])
        span = eigenspace(vals, vecs, 1.0)
        assert len(span) == 2
        assert common_zeros(span) == [0]

    def test_invariant_under_recombination(self):
        tree, vals, vecs = oracle([3, 2])
        span = eigenspace(vals, vecs, 1.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((len(span), len(span)))
            assert common_zeros(a @ span) == common_zeros(span)

    def test_kernel_has_no_zeros(self):
        tree, vals, vecs = oracle([2, 2])
        assert common_zeros(vecs[:, :1].T) == []

    def test_vanishing_set_is_union_of_levels(self):
        # The paper's lemma: on a symmetric tree the common zeros of an
        # eigenspace are whole levels, and an eigenspace whose value comes
        # from subtree root levels l0 and deeper vanishes above level l0.
        for children in [[3], [3, 2], [2, 2, 2], [2, 1, 3]]:
            spec = SymmetricTreeSpec(children)
            off = np.cumsum([0, *spec.populations()])
            tree, vals, vecs = oracle(children)
            spectrum = decompose_spectrum(spec)
            for value in sorted(set(spectrum.values.tolist())):
                z = set(common_zeros(eigenspace(vals, vecs, value)))
                for l in range(spec.levels):
                    level = set(range(off[l], off[l + 1]))
                    assert level <= z or not (level & z)
                l0 = min(spectrum.origin_level[np.abs(spectrum.values - value) <= 1e-8])
                assert set(range(off[l0])) <= z


def test_oracle_zero_tol_scale():
    f = np.array([0.0, 2.0, -4.0])
    assert oracle_zero_tol(f) == pytest.approx(4e-9)


# six trees of a verify_desk pool, then small, wide, deep and path-like
# trees; [1,1], [1]*5, [2]*9 and [1,1,1,1,4], among others, have level
# values that vanish in exact arithmetic and come out at rounding size
LEVEL_COUNT_SPECS = [
    [3, 4, 2, 3], [4, 2, 1, 4, 3], [2, 1, 1, 2, 3, 2, 2, 2], [3, 2, 4, 2, 5], [4, 1, 3, 1, 2, 5, 2],
    [4, 2, 1, 1, 4, 3, 4], [1, 1], [2], [], [2, 2], [3, 2], [1] * 5, [9, 2], [2] * 9,
    [3, 1, 4, 1, 3, 2, 4, 3], [4, 4, 3, 2, 2, 2], [2, 20, 3], [1, 1, 1, 1, 4], [1] * 30 + [3],
    [5, 1, 1, 1, 1, 1],
]


@pytest.mark.parametrize("children", LEVEL_COUNT_SPECS, ids=str)
def test_level_counts_match_the_realized_rows(children):
    # the counts from the level values equal count_sign_graphs on the first
    # row of each (family, i) written out on the tree, at the oracle
    # threshold of that row, whose largest magnitude is max_j |g_ij|
    spec = SymmetricTreeSpec(children)
    vectors = full_eigenbasis(spec).vectors
    rep = level_sign_graphs(vectors)
    first = np.cumsum([0, *vectors.lines.multiplicity()])[:-1]
    rows = dense_rows(vectors)[first].T
    expected = count_sign_graphs(realize(spec), rows, oracle_zero_tol(rows))
    for field in ("positive_count", "negative_count", "zero_count"):
        got = getattr(rep, field)
        assert got.dtype == np.int64
        assert got.tolist() == getattr(expected, field).tolist(), field


def test_level_counts_read_a_vanishing_level_value_as_zero():
    # the path [1,1] at lambda = 1 is (1, 0, -1); LAPACK's middle level
    # value is a rounding-size number, not 0.0
    vectors = full_eigenbasis(SymmetricTreeSpec([1, 1])).vectors
    g = vectors.families[0].g[1]
    assert g[1] != 0.0 and abs(g[1]) <= ZERO_TOL * np.max(np.abs(g))
    rep = level_sign_graphs(vectors)
    assert (rep.positive_count[1], rep.negative_count[1], rep.zero_count[1]) == (1, 1, 1)


@pytest.mark.parametrize(
    "children", [[3, 2], [2, 2, 2], [4, 1, 2], [1], [], [1, 1], [3, 3], [4, 4, 3, 2, 2, 2]]
)
@pytest.mark.parametrize("cluster_tol", [1e-15, 1e-8, 0.5])
def test_level_records_are_the_records_of_the_written_rows(children, cluster_tol):
    # every row of the basis, in line order and each line's counts repeated
    # by its multiplicity, judged at the sorted values of an independent
    # solve, as nodal_records judges the same rows written out
    spec = SymmetricTreeSpec(children)
    tree = realize(spec)
    vals = dense_eigenvalues(tree)
    vectors = full_eigenbasis(spec).vectors
    records = level_nodal_records(vals, vectors, cluster_tol=cluster_tol)
    expected = nodal_records(tree, vals, dense_rows(vectors).T, cluster_tol=cluster_tol)
    for field in records._fields:
        got, want = getattr(records, field).tolist(), getattr(expected, field).tolist()
        assert [(type(x), x) for x in got] == [(type(x), x) for x in want], field
