import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratree.decompose import (
    EigenBasis,
    antisym_lift,
    counting_identity,
    decompose_spectrum,
    expanded_spectrum,
    full_eigenbasis,
    level_matrix,
    stratified_levels,
    stratified_lift,
    symmetrize,
)
from stratree.eigen import dense_eigen, sturm_count, tridiag_eigen
from stratree.laplacian import assemble, matvec
from stratree.tree import CapacityError, SymmetricTreeSpec, build_index

SQRT2 = math.sqrt(2.0)


def oracle_spectrum(spec):
    lap = assemble(build_index(spec))
    vals, _ = dense_eigen(lap.to_dense())
    return vals


def recurrence(spec, l0):
    """Nonsymmetric level recurrence of the subtree rooted at level l0.

    Row l holds d(l) on the diagonal, -c(l) above and -1 below: applying
    the Laplacian to a level-constant function reads off these weights.
    """
    m = spec.levels - l0
    r = np.diag([float(spec.degree(l)) for l in range(l0, spec.levels)])
    idx = np.arange(m - 1)
    r[idx, idx + 1] = -np.asarray(spec.children[l0:], dtype=float)
    r[idx + 1, idx] = -1.0
    return r


def balancing(spec, l0):
    """Diagonal D with D^-1 R D symmetric: (-1)^j / sqrt(relative population)."""
    pops = spec.populations()[l0:]
    return np.diag([(-1) ** j / math.sqrt(p / pops[0]) for j, p in enumerate(pops)])


class TestLevelRecurrence:
    def test_whole_tree_star(self):
        t = level_matrix(SymmetricTreeSpec([2])).trailing(0)
        assert np.allclose(t.to_dense(), [[2.0, SQRT2], [SQRT2, 1.0]])

    def test_dirichlet_level_one(self):
        t = level_matrix(SymmetricTreeSpec([3, 2])).trailing(1)
        assert np.allclose(t.to_dense(), [[3.0, SQRT2], [SQRT2, 1.0]])

    def test_leaf_level_is_scalar(self):
        for c in (2, 5):
            t = level_matrix(SymmetricTreeSpec([c])).trailing(1)
            assert t.to_dense().tolist() == [[1.0]]

    def test_root_level_out_of_range(self):
        t = level_matrix(SymmetricTreeSpec([2]))
        with pytest.raises(IndexError):
            stratified_levels(t, 2)


class TestBalance:
    def test_star_balanced(self):
        spec = SymmetricTreeSpec([2])
        d = balancing(spec, 0)
        t = level_matrix(spec).trailing(0)
        assert np.allclose(np.linalg.inv(d) @ recurrence(spec, 0) @ d, t.to_dense())

    def test_dirichlet_balanced(self):
        spec = SymmetricTreeSpec([3, 2])
        d = balancing(spec, 1)
        t = level_matrix(spec).trailing(1)
        assert np.allclose(np.linalg.inv(d) @ recurrence(spec, 1) @ d, t.to_dense())

    def test_reversed_form_same_spectrum(self):
        # index reversal of the balanced matrix (leaf-first numbering)
        # has an identical spectrum
        t = level_matrix(SymmetricTreeSpec([2]))
        rev = t.to_dense()[::-1, ::-1]
        assert np.allclose(rev, [[1.0, SQRT2], [SQRT2, 2.0]])
        vals_rev, _ = dense_eigen(rev)
        assert np.allclose(tridiag_eigen(t), vals_rev, atol=1e-12)
        assert np.allclose(vals_rev, [0.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("children,l0", [([2], 0), ([3, 2], 0), ([3, 2], 1), ([2, 3, 2], 0)])
    def test_similar_to_unbalanced_form(self, children, l0):
        spec = SymmetricTreeSpec(children)
        nonsym_vals = np.sort(np.linalg.eigvals(recurrence(spec, l0)).real)
        assert np.allclose(stratified_levels(level_matrix(spec), l0), nonsym_vals, atol=1e-10)

    def test_unbalanced_eigenvector_solves_recurrence(self):
        spec = SymmetricTreeSpec([3, 2, 2])
        for l0 in range(spec.levels):
            r = recurrence(spec, l0)
            vals, gs = stratified_levels(level_matrix(spec), l0, want_vectors=True)
            for lam, g in zip(vals, gs):
                assert g[0] > 0
                assert np.allclose(r @ g, lam * g, atol=1e-10)


# children in 1..5 and up to 40 levels
level_specs = st.lists(st.integers(1, 5), max_size=39).map(SymmetricTreeSpec)
property_settings = settings(max_examples=150, deadline=None, derandomize=True)


class TestLevelMatrixSlices:
    """Each level's spectrum comes from LAPACK on a trailing slice of one
    matrix; Cauchy interlacing and Sturm counts check it independently."""

    @property_settings
    @given(level_specs)
    def test_consecutive_slices_interlace(self, spec):
        t = level_matrix(spec)
        tol = 1e-10 * t.norm_inf()
        spectra = [stratified_levels(t, l0) for l0 in range(t.m)]
        for outer, inner in zip(spectra, spectra[1:]):
            assert np.all(outer[:-1] <= inner + tol)
            assert np.all(inner <= outer[1:] + tol)

    @property_settings
    @given(level_specs)
    def test_sturm_counts_between_eigenvalues(self, spec):
        t = level_matrix(spec)
        for l0 in range(t.m):
            vals = stratified_levels(t, l0)
            mids = 0.5 * (vals[1:] + vals[:-1])
            assert sturm_count(t.trailing(l0), mids).tolist() == list(range(1, t.m - l0))


class TestDecomposeSpectrum:
    def test_star_k12(self):
        lines = decompose_spectrum(SymmetricTreeSpec([2]))
        by_level = {(s.origin_level, s.position): s for s in lines}
        assert np.isclose(by_level[(0, 0)].value, 0.0, atol=1e-12)
        assert np.isclose(by_level[(0, 1)].value, 3.0, atol=1e-12)
        assert np.isclose(by_level[(1, 0)].value, 1.0, atol=1e-12)
        assert sum(s.multiplicity for s in lines) == 3

    def test_star_k13(self):
        lines = decompose_spectrum(SymmetricTreeSpec([3]))
        vals = {round(s.value, 9): s.multiplicity for s in lines}
        assert vals == {0.0: 1, 1.0: 2, 4.0: 1}

    def test_ten_vertex_tree(self):
        lines = decompose_spectrum(SymmetricTreeSpec([3, 2]))
        per_level = {}
        for s in lines:
            per_level.setdefault(s.origin_level, []).append(s)
        assert len(per_level[0]) == 3 and all(s.multiplicity == 1 for s in per_level[0])
        assert sorted(s.value for s in per_level[1]) == pytest.approx(
            [2 - math.sqrt(3), 2 + math.sqrt(3)], abs=1e-10
        )
        assert all(s.multiplicity == 2 for s in per_level[1])
        assert [s.value for s in per_level[2]] == pytest.approx([1.0], abs=1e-12)
        assert per_level[2][0].multiplicity == 3
        assert sum(s.multiplicity for s in lines) == 10

    def test_matches_oracle(self):
        for children in [[], [1], [2], [4], [2, 2], [3, 2], [1, 3], [2, 2, 2], [3, 1, 2], [2, 3, 2]]:
            spec = SymmetricTreeSpec(children)
            fast = expanded_spectrum(decompose_spectrum(spec))
            assert np.allclose(fast, oracle_spectrum(spec), atol=1e-8), children

    def test_unit_children_skip_empty_lines(self):
        # c=1 levels add no new population, hence no multiplicity
        lines = decompose_spectrum(SymmetricTreeSpec([1]))
        assert sum(s.multiplicity for s in lines) == 2
        assert all(s.origin_level == 0 for s in lines)

    def test_eigenvalue_bounds(self):
        spec = SymmetricTreeSpec([3, 2, 2])
        max_deg = max(spec.degree(l) for l in range(spec.levels))
        for s in decompose_spectrum(spec):
            assert s.value >= -1e-12
            assert s.value <= 2 * max_deg + 1e-12

    def test_sorted_output(self):
        lines = decompose_spectrum(SymmetricTreeSpec([3, 2, 2]))
        assert all(a.value <= b.value for a, b in zip(lines, lines[1:]))

    def test_huge_tree_never_materialized(self):
        spec = SymmetricTreeSpec([3] * 49)
        lines = decompose_spectrum(spec)
        assert sum(s.multiplicity for s in lines) == spec.vertex_count()


class TestCountingIdentity:
    @pytest.mark.parametrize(
        "children,expected",
        [([2], 3), ([3, 2], 10), ([], 1)],
    )
    def test_examples(self, children, expected):
        lhs, total = counting_identity(SymmetricTreeSpec(children))
        assert lhs == total == expected

    def test_random_specs_exact(self):
        rng = random.Random(42)
        for _ in range(200):
            k = rng.randint(1, 40)
            children = [rng.randint(1, 6) for _ in range(k - 1)]
            lhs, total = counting_identity(SymmetricTreeSpec(children))
            assert lhs == total


class TestStratifiedLift:
    def test_kernel_vector(self):
        idx = build_index(SymmetricTreeSpec([2]))
        f = stratified_lift(idx, 0, np.array([1.0, 1.0]))
        assert f.tolist() == [1.0, 1.0, 1.0]

    def test_rejects_vanishing_root(self):
        idx = build_index(SymmetricTreeSpec([2]))
        with pytest.raises(ValueError):
            stratified_lift(idx, 0, np.array([0.0, 1.0]))

    def test_whole_tree_lift_is_eigenfunction(self):
        spec = SymmetricTreeSpec([3, 2, 2])
        idx = build_index(spec)
        lap = assemble(idx)
        vals, gs = stratified_levels(level_matrix(spec), 0, want_vectors=True)
        for lam, g in zip(vals, gs):
            f = stratified_lift(idx, 0, g)
            assert np.max(np.abs(matvec(lap, f) - lam * f)) <= 1e-9 * np.max(np.abs(f))

    def test_constant_per_level(self):
        spec = SymmetricTreeSpec([3, 2])
        idx = build_index(spec)
        vals, gs = stratified_levels(level_matrix(spec), 0, want_vectors=True)
        f = stratified_lift(idx, 0, gs[1])
        for l in range(spec.levels):
            level = f[idx.offsets[l] : idx.offsets[l + 1]]
            assert np.all(level == level[0])

    def test_dirichlet_lift_zero_outside_subtree(self):
        spec = SymmetricTreeSpec([3, 2])
        idx = build_index(spec)
        v = idx.offsets[1]
        vals, gs = stratified_levels(level_matrix(spec), 1, want_vectors=True)
        f = stratified_lift(idx, v, gs[0])
        support = set(u for r in idx.subtree_ranges(v) for u in r)
        for u in range(idx.n):
            if u not in support:
                assert f[u] == 0.0


class TestAntisymLift:
    def test_two_leaf_star(self):
        idx = build_index(SymmetricTreeSpec([2]))
        f = np.array([0.0, 1.0, 0.0])
        (out,) = antisym_lift(idx, 1, f)
        assert out.tolist() == [0.0, 1.0, -1.0]
        lap = assemble(idx)
        assert np.allclose(matvec(lap, out), out)  # eigenvalue 1

    def test_three_leaf_star(self):
        idx = build_index(SymmetricTreeSpec([3]))
        f = np.zeros(4)
        f[1] = 1.0
        outs = antisym_lift(idx, 1, f)
        assert [o.tolist() for o in outs] == [
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
        ]
        lap = assemble(idx)
        for o in outs:
            assert np.allclose(matvec(lap, o), o)

    def test_outputs_sum_to_zero_per_level(self):
        spec = SymmetricTreeSpec([3, 2, 2])
        idx = build_index(spec)
        v = idx.offsets[1]
        vals, gs = stratified_levels(level_matrix(spec), 1, want_vectors=True)
        f = stratified_lift(idx, v, gs[0])
        for out in antisym_lift(idx, v, f):
            for l in range(spec.levels):
                assert np.sum(out[idx.offsets[l] : idx.offsets[l + 1]]) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_root(self):
        idx = build_index(SymmetricTreeSpec([2]))
        with pytest.raises(ValueError):
            antisym_lift(idx, 0, np.ones(3))

    def test_rejects_vanishing_at_subtree_root(self):
        idx = build_index(SymmetricTreeSpec([2]))
        with pytest.raises(ValueError):
            antisym_lift(idx, 1, np.zeros(3))


class TestSymmetrize:
    def test_stratified_fixed_point(self):
        spec = SymmetricTreeSpec([3, 2])
        idx = build_index(spec)
        vals, gs = stratified_levels(level_matrix(spec), 0, want_vectors=True)
        f = stratified_lift(idx, 0, gs[0])
        assert np.allclose(symmetrize(idx, 0, f), f)

    def test_two_leaf_average(self):
        idx = build_index(SymmetricTreeSpec([2]))
        f = np.array([0.0, 3.0, 5.0])
        assert symmetrize(idx, 0, f).tolist() == [0.0, 4.0, 4.0]

    def test_idempotent(self):
        idx = build_index(SymmetricTreeSpec([3, 2]))
        rng = np.random.default_rng(0)
        f = rng.standard_normal(idx.n)
        once = symmetrize(idx, 0, f)
        assert np.allclose(symmetrize(idx, 0, once), once)

    def test_leaf_is_identity(self):
        idx = build_index(SymmetricTreeSpec([2]))
        f = np.array([1.0, 2.0, 3.0])
        assert symmetrize(idx, 1, f).tolist() == f.tolist()


class TestFullEigenbasis:
    def test_two_leaf_star(self):
        basis = full_eigenbasis(SymmetricTreeSpec([2]))
        assert basis.n == 3
        assert np.allclose(np.sort(basis.values), [0.0, 1.0, 3.0], atol=1e-10)
        i = int(np.argmin(np.abs(basis.values - 1.0)))
        v = basis.vectors[i]
        assert v[0] == 0.0 and v[1] == -v[2]

    def test_single_vertex(self):
        basis = full_eigenbasis(SymmetricTreeSpec([]))
        assert basis.n == 1
        assert basis.values.tolist() == [0.0]
        assert basis.vectors.tolist() == [[1.0]]

    def test_matches_decomposition_multiset(self):
        spec = SymmetricTreeSpec([3, 2])
        basis = full_eigenbasis(spec)
        assert basis.n == 10
        fast = expanded_spectrum(decompose_spectrum(spec))
        assert np.allclose(np.sort(basis.values), fast, atol=1e-10)

    def test_residuals_and_rank(self):
        for children in [[2], [3], [2, 2], [3, 2], [2, 1, 2], [2, 2, 2]]:
            spec = SymmetricTreeSpec(children)
            basis = full_eigenbasis(spec)
            assert basis.n == spec.vertex_count()
            scales = np.max(np.abs(basis.vectors), axis=1)
            assert np.all(basis.residuals <= 1e-9 * scales)
            assert basis.full_rank(1e-8)

    def test_construction_tags(self):
        basis = full_eigenbasis(SymmetricTreeSpec([3, 2]))
        tags = set(basis.construction)
        assert tags == {"stratified", "antisym"}
        strat = sum(1 for t in basis.construction if t == "stratified")
        assert strat == 3  # one per level of the whole tree

    def test_sorted_by_value_then_level(self):
        basis = full_eigenbasis(SymmetricTreeSpec([3, 2, 2]))
        keys = list(zip(basis.values, basis.origin_levels))
        assert keys == sorted(keys)

    def test_cap(self):
        with pytest.raises(CapacityError):
            full_eigenbasis(SymmetricTreeSpec([3, 2]), basis_cap=5)

    def test_stratified_vectors_exactly_constant_per_level(self):
        spec = SymmetricTreeSpec([2, 3, 2])
        idx = build_index(spec)
        basis = full_eigenbasis(spec)
        for i in range(basis.n):
            if basis.construction[i] != "stratified":
                continue
            f = basis.vectors[i]
            for l in range(spec.levels):
                level = f[idx.offsets[l] : idx.offsets[l + 1]]
                assert np.all(level == level[0])


def basis_of(vectors):
    vectors = np.asarray(vectors, dtype=float)
    n = len(vectors)
    return EigenBasis(np.zeros(n), vectors, np.zeros(n, dtype=int), ["stratified"] * n, np.zeros(n))


class TestFullRank:
    def test_repeated_vector(self):
        assert not basis_of([[1, 0, 0], [0, 2, 0], [0, 1, 0]]).full_rank(1e-8)

    @pytest.mark.parametrize("component, expected", [(1e-9, False), (1e-7, True)])
    def test_threshold_on_the_last_rows_new_component(self, component, expected):
        vectors = [[1, 0, 0], [1, 1, 0], [0, 1, component]]
        assert basis_of(vectors).full_rank(1e-8) is expected


class TestMultiplicityLowerBound:
    def test_on_small_trees(self):
        for children in [[3], [2, 2], [3, 2], [2, 2, 2], [4, 2]]:
            spec = SymmetricTreeSpec(children)
            vals = oracle_spectrum(spec)
            pops = spec.populations()
            for s in decompose_spectrum(spec):
                if s.origin_level < 1:
                    continue
                oracle_mult = int(np.sum(np.abs(vals - s.value) <= 1e-8))
                assert oracle_mult >= pops[s.origin_level] - pops[s.origin_level - 1]
