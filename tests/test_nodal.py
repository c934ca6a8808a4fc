from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratree.decompose import decompose_spectrum
from stratree.eigen import dense_eigen
from stratree.laplacian import assemble
from stratree.nodal import (
    cluster_spectrum,
    common_vanishing,
    count_sign_graphs,
    courant_check,
    oracle_zero_tol,
    zero_free_check,
)
from stratree.tree import GluedTreeSpec, RootedTree, SymmetricTreeSpec, build_index, realize_glued


def tree_of(children):
    return RootedTree.from_index(build_index(SymmetricTreeSpec(children)))


def oracle(children):
    idx = build_index(SymmetricTreeSpec(children))
    vals, vecs = dense_eigen(assemble(idx).to_dense())
    return RootedTree.from_index(idx), vals, vecs


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
def trees(draw):
    """A random labelled tree, or a realized glued tree."""
    if draw(st.booleans()):
        side = st.lists(st.integers(1, 3), max_size=3).map(SymmetricTreeSpec)
        return realize_glued(GluedTreeSpec(draw(side), draw(side)))
    n = draw(st.integers(1, 60))
    order = draw(st.permutations(range(n)))  # order[0] is the root
    parents = [-1] * n
    for i in range(1, n):
        parents[order[i]] = order[draw(st.integers(0, i - 1))]
    return RootedTree(tuple(parents))


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


class TestClusterSpectrum:
    def test_runs(self):
        vals = np.array([0.0, 1.0, 1.0 + 5e-9, 2.0])
        assert cluster_spectrum(vals, 1e-8) == [(0, 1), (1, 2), (3, 1)]

    def test_empty(self):
        assert cluster_spectrum(np.array([])) == []


class TestCourant:
    def test_constant_eigenfunction_bound_one(self):
        tree, vals, vecs = oracle([2, 2])
        records = courant_check(tree, vals, vecs)
        first = records[0]
        assert first.position == 1 and first.bound == 1
        assert first.sign_graphs == 1 and first.passed

    def test_star_second_eigenpair(self):
        tree = tree_of([2])
        vals = np.array([0.0, 1.0, 3.0])
        vecs = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, -0.5], [1.0, -1.0, -0.5]])
        rec = courant_check(tree, vals, vecs, zero_tol=0.0)[1]
        assert rec.bound == 2 and rec.sign_graphs == 2 and rec.passed

    @pytest.mark.parametrize("children", [[2], [3], [2, 2], [3, 2], [2, 2, 2], [4, 1, 2]])
    def test_all_oracle_pairs_pass(self, children):
        tree, vals, vecs = oracle(children)
        assert all(r.passed for r in courant_check(tree, vals, vecs))


class TestZeroFree:
    def test_constant_is_position_one(self):
        tree, vals, vecs = oracle([2, 2])
        rec = zero_free_check(tree, vals, vecs)[0]
        assert rec.checked and rec.passed
        assert rec.sign_graphs == 1 and rec.multiplicity == 1

    def test_two_vertex_path(self):
        tree, vals, vecs = oracle([1])
        records = zero_free_check(tree, vals, vecs)
        assert np.isclose(vals[1], 2.0)
        top = records[1]
        assert top.checked and top.passed and top.sign_graphs == 2

    def test_pairs_with_zeros_are_skipped(self):
        tree = tree_of([2])
        vals = np.array([0.0, 1.0, 3.0])
        vecs = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, -0.5], [1.0, -1.0, -0.5]])
        records = zero_free_check(tree, vals, vecs, zero_tol=0.0)
        assert not records[1].checked  # (0, 1, -1) vanishes at the root

    @pytest.mark.parametrize("children", [[2], [3], [2, 2], [3, 2], [2, 2, 2]])
    def test_all_oracle_pairs_pass(self, children):
        tree, vals, vecs = oracle(children)
        assert all(r.passed for r in zero_free_check(tree, vals, vecs) if r.checked)


class TestCommonVanishing:
    def test_star_single_vector(self):
        tree = tree_of([2])
        z = common_vanishing(tree, np.array([[0.0, 1.0, -1.0]]))
        assert z == [0]

    def test_multiplicity_two_star(self):
        tree, vals, vecs = oracle([3])
        idxs = [i for i in range(len(vals)) if abs(vals[i] - 1.0) <= 1e-8]
        assert len(idxs) == 2
        z = common_vanishing(tree, vecs[:, idxs].T)
        assert z == [0]

    def test_invariant_under_recombination(self):
        tree, vals, vecs = oracle([3, 2])
        idxs = [i for i in range(len(vals)) if abs(vals[i] - 1.0) <= 1e-8]
        span = vecs[:, idxs].T
        z1 = common_vanishing(tree, span, seed=0)
        z2 = common_vanishing(tree, span, seed=99)
        assert z1 == z2

    def test_kernel_has_no_zeros(self):
        tree, vals, vecs = oracle([2, 2])
        z = common_vanishing(tree, vecs[:, :1].T)
        assert z == []

    def test_vanishing_set_is_union_of_levels(self):
        # for symmetric trees common zeros come in whole levels of subtrees
        idx = build_index(SymmetricTreeSpec([3]))
        tree = RootedTree.from_index(idx)
        vals, vecs = dense_eigen(assemble(idx).to_dense())
        idxs = [i for i in range(len(vals)) if abs(vals[i] - 1.0) <= 1e-8]
        z = set(common_vanishing(tree, vecs[:, idxs].T))
        for l in range(idx.levels):
            level = set(range(idx.offsets[l], idx.offsets[l + 1]))
            assert level <= z or not (level & z)


def test_oracle_zero_tol_scale():
    f = np.array([0.0, 2.0, -4.0])
    assert oracle_zero_tol(f) == pytest.approx(4e-9)
