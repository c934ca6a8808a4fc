from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratree.decompose import decompose_spectrum
from stratree.eigen import dense_eigen
from stratree.nodal import cluster_spectrum, count_sign_graphs, nodal_records, oracle_zero_tol
from stratree.tree import GluedTreeSpec, SymmetricTreeSpec, realize

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
        first = records[0]
        assert first.position == 1 and first.bound == 1
        assert first.sign_graphs == 1 and first.passed

    def test_star_second_eigenpair(self):
        tree = tree_of([2])
        vals = np.array([0.0, 1.0, 3.0])
        vecs = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, -0.5], [1.0, -1.0, -0.5]])
        rec = nodal_records(tree, vals, vecs)[1]
        assert rec.bound == 2 and rec.sign_graphs == 2 and rec.passed

    @pytest.mark.parametrize("children", [[2], [3], [2, 2], [3, 2], [2, 2, 2], [4, 1, 2]])
    def test_all_oracle_pairs_pass(self, children):
        tree, vals, vecs = oracle(children)
        assert all(r.passed for r in nodal_records(tree, vals, vecs))


class TestZeroFree:
    def test_constant_is_position_one(self):
        tree, vals, vecs = oracle([2, 2])
        rec = nodal_records(tree, vals, vecs)[0]
        assert rec.zero_count == 0 and rec.zero_free
        assert rec.sign_graphs == 1 and rec.multiplicity == 1

    def test_two_vertex_path(self):
        tree, vals, vecs = oracle([1])
        records = nodal_records(tree, vals, vecs)
        assert np.isclose(vals[1], 2.0)
        top = records[1]
        assert top.zero_count == 0 and top.zero_free and top.sign_graphs == 2

    def test_pairs_with_zeros_are_skipped(self):
        tree = tree_of([2])
        vals = np.array([0.0, 1.0, 3.0])
        vecs = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, -0.5], [1.0, -1.0, -0.5]])
        records = nodal_records(tree, vals, vecs)
        assert records[1].zero_count != 0  # (0, 1, -1) vanishes at the root
        assert records[1].zero_free

    @pytest.mark.parametrize("children", [[2], [3], [2, 2], [3, 2], [2, 2, 2]])
    def test_all_oracle_pairs_pass(self, children):
        tree, vals, vecs = oracle(children)
        assert all(r.zero_free for r in nodal_records(tree, vals, vecs))


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
    assert len(records) == len(vals)
    clusters = [(start + 1, size) for start, size in cluster_spectrum(vals) for _ in range(size)]
    assert [(r.position, r.multiplicity) for r in records] == clusters
    for r in records:
        assert r.bound == r.position + r.multiplicity - 1
        assert r.passed == (r.sign_graphs <= r.bound)
        assert r.zero_free == (r.zero_count > 0 or (r.multiplicity == 1 and r.sign_graphs == r.position))


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
