import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stratree.decompose as decompose
from stratree.decompose import (
    EigenBasis,
    counting_identity,
    decompose_spectrum,
    expanded_spectrum,
    full_eigenbasis,
    level_matrix,
    stratified_levels,
)
from stratree.eigen import dense_eigen, sturm_count, tridiag_eigen
from stratree.laplacian import assemble, matvec
from stratree.tree import CapacityError, SymmetricTreeSpec, realize

from strategies import symmetric_specs

SQRT2 = math.sqrt(2.0)


def oracle_spectrum(spec):
    lap = assemble(realize(spec))
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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(symmetric_specs)
    def test_subtree_dirichlet_spectrum_holds_the_slice(self, spec):
        # The Dirichlet Laplacian of the first level-l0 subtree is the
        # principal submatrix of the Laplacian on its vertices, and each
        # eigenvalue of the level-l0 slice is one of its eigenvalues.
        lap = assemble(realize(spec)).to_dense()
        pops, off = spec.populations(), level_offsets(spec)
        t = level_matrix(spec)
        for l0 in range(spec.levels):
            omega = np.concatenate(
                [off[l] + np.arange(pops[l] // pops[l0]) for l in range(l0, spec.levels)]
            )
            dirichlet = np.linalg.eigvalsh(lap[np.ix_(omega, omega)])
            for lam in stratified_levels(t, l0):
                assert np.min(np.abs(dirichlet - lam)) <= 1e-9 * (1 + abs(lam))

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


def level_offsets(spec):
    """First vertex of each level in breadth-first numbering, then n."""
    return np.cumsum([0, *spec.populations()])


def rows_of(basis, construction):
    return [basis.vectors[i] for i in range(basis.n) if basis.construction[i] == construction]


def swap_subtrees(spec, l0, a, b):
    """Vertex permutation exchanging the subtrees of level-l0 vertices of
    ranks a and b, level block by level block."""
    pops, off = spec.populations(), level_offsets(spec)
    perm = np.arange(off[-1])
    for l in range(l0, spec.levels):
        width = pops[l] // pops[l0]
        ra = off[l] + a * width + np.arange(width)
        rb = off[l] + b * width + np.arange(width)
        perm[ra], perm[rb] = rb, ra
    return perm


def vanishing_at(level):
    """A stand-in for ``stratified_levels`` whose last vector vanishes at
    the subtree root of ``level``."""
    solve = decompose.stratified_levels

    def solved(t, root_level, want_vectors=False):
        vals, g = solve(t, root_level, want_vectors)
        if root_level == level:
            g[-1, 0] = 0.0
        return vals, g

    return solved


class TestStratifiedLift:
    """Whole-tree stratified rows of ``full_eigenbasis``."""

    def test_kernel_vector(self):
        basis = full_eigenbasis(SymmetricTreeSpec([2]))
        assert basis.values[0] == 0.0 and basis.construction[0] == "stratified"
        f = basis.vectors[0]
        assert f[0] > 0 and np.allclose(f, f[0], rtol=1e-15, atol=0)

    def test_rejects_vanishing_root(self, monkeypatch):
        monkeypatch.setattr(decompose, "stratified_levels", vanishing_at(0))
        with pytest.raises(ValueError, match="cannot vanish at the subtree root"):
            full_eigenbasis(SymmetricTreeSpec([2]))

    def test_whole_tree_lift_is_eigenfunction(self):
        spec = SymmetricTreeSpec([3, 2, 2])
        lap = assemble(realize(spec))
        basis = full_eigenbasis(spec)
        strat = [i for i in range(basis.n) if basis.construction[i] == "stratified"]
        assert len(strat) == spec.levels
        for i in strat:
            lam, f = basis.values[i], basis.vectors[i]
            assert np.max(np.abs(matvec(lap, f) - lam * f)) <= 1e-9 * np.max(np.abs(f))

    def test_constant_per_level(self):
        spec = SymmetricTreeSpec([3, 2])
        off = level_offsets(spec)
        for f in rows_of(full_eigenbasis(spec), "stratified"):
            for l in range(spec.levels):
                level = f[off[l] : off[l + 1]]
                assert np.all(level == level[0])

    def test_dirichlet_lift_zero_outside_subtree(self):
        # each antisym row lives on two sibling subtrees, as a copy and its
        # negation, and vanishes on the rest of the tree
        for children in ([3, 2], [2, 1, 3], [2, 3, 2]):
            spec = SymmetricTreeSpec(children)
            pops, off = spec.populations(), level_offsets(spec)
            basis = full_eigenbasis(spec)
            for f, l0 in zip(basis.vectors, basis.origin_levels.tolist()):
                if l0 == 0:
                    continue
                assert not np.any(f[: off[l0]])
                ranks = {
                    v // (pops[l] // pops[l0])
                    for l in range(l0, spec.levels)
                    for v in np.flatnonzero(f[off[l] : off[l + 1]]).tolist()
                }
                a, b = sorted(ranks)
                assert a // spec.children[l0 - 1] == b // spec.children[l0 - 1]
                assert np.array_equal(f[swap_subtrees(spec, l0, a, b)], -f)


class TestAntisymLift:
    """Sibling-difference rows of ``full_eigenbasis``."""

    def test_two_leaf_star(self):
        basis = full_eigenbasis(SymmetricTreeSpec([2]))
        (out,) = rows_of(basis, "antisym")
        assert out.tolist() == [0.0, 1.0, -1.0]
        lap = assemble(realize(SymmetricTreeSpec([2])))
        assert np.allclose(matvec(lap, out), out)  # eigenvalue 1

    def test_three_leaf_star(self):
        basis = full_eigenbasis(SymmetricTreeSpec([3]))
        outs = rows_of(basis, "antisym")
        assert [o.tolist() for o in outs] == [
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
        ]
        lap = assemble(realize(SymmetricTreeSpec([3])))
        for o in outs:
            assert np.allclose(matvec(lap, o), o)

    def test_outputs_sum_to_zero_per_level(self):
        spec = SymmetricTreeSpec([3, 2, 2])
        off = level_offsets(spec)
        outs = rows_of(full_eigenbasis(spec), "antisym")
        assert len(outs) == spec.vertex_count() - spec.levels
        for out in outs:
            for l in range(spec.levels):
                assert np.sum(out[off[l] : off[l + 1]]) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_root(self):
        # no sibling difference is built at the root level: all vanish there
        for children in ([2], [3, 2]):
            basis = full_eigenbasis(SymmetricTreeSpec(children))
            for i in range(basis.n):
                if basis.construction[i] == "antisym":
                    assert basis.origin_levels[i] >= 1 and basis.vectors[i][0] == 0.0

    def test_rejects_vanishing_at_subtree_root(self, monkeypatch):
        monkeypatch.setattr(decompose, "stratified_levels", vanishing_at(1))
        with pytest.raises(ValueError, match="cannot vanish at the subtree root"):
            full_eigenbasis(SymmetricTreeSpec([2]))


    def test_zero_level_value_is_positive_zero_on_both_subtrees(self, monkeypatch):
        # the sibling block holds 0.0 - g, never -g, so a zero stays +0.0
        solve = decompose.stratified_levels

        def zero_at_level_two(t, root_level, want_vectors=False):
            vals, g = solve(t, root_level, want_vectors)
            if root_level == 1:
                g[:, 1] = 0.0
            return vals, g

        monkeypatch.setattr(decompose, "stratified_levels", zero_at_level_two)
        basis = full_eigenbasis(SymmetricTreeSpec([2, 2]))
        deep = basis.vectors[basis.origin_levels == 1]
        assert len(deep) == 2 and not np.signbit(deep[:, 3:]).any()


class TestSymmetrize:
    def test_stratified_fixed_point(self):
        # relabeling the root's children fixes every whole-tree stratified
        # vector and negates the sibling differences between those children
        spec = SymmetricTreeSpec([3, 2])
        basis = full_eigenbasis(spec)
        perm = swap_subtrees(spec, 1, 0, 1)
        negated = 0
        for f, kind, l0 in zip(basis.vectors, basis.construction, basis.origin_levels):
            if kind == "stratified":
                assert np.array_equal(f[perm], f)
            elif l0 == 1 and f[1] and f[2]:  # child 1 minus child 2
                assert np.array_equal(f[perm], -f)
                negated += 1
        assert negated == 2  # one per eigenvalue of the level-1 slice


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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(symmetric_specs)
    def test_matches_the_vector_by_vector_build(self, spec):
        basis = full_eigenbasis(spec)
        entries = eigenbasis_by_vector(spec)
        assert basis.values.tolist() == [e[0] for e in entries]
        assert basis.origin_levels.tolist() == [e[1] for e in entries]
        assert basis.vectors.tobytes() == np.array([e[2] for e in entries]).tobytes()

    def test_peak_memory_is_one_basis(self):
        # the n x n array is allocated once and every vector written in place
        spec = SymmetricTreeSpec([3, 1, 4, 1, 3, 2, 4, 3])
        n = spec.vertex_count()
        tracemalloc.start()
        try:
            full_eigenbasis(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n

    def test_stratified_vectors_exactly_constant_per_level(self):
        spec = SymmetricTreeSpec([2, 3, 2])
        off = level_offsets(spec)
        basis = full_eigenbasis(spec)
        for i in range(basis.n):
            if basis.construction[i] != "stratified":
                continue
            f = basis.vectors[i]
            for l in range(spec.levels):
                level = f[off[l] : off[l + 1]]
                assert np.all(level == level[0])


def eigenbasis_by_vector(spec):
    """(value, origin level, vector) of every basis vector, built one vector
    at a time and stably sorted by (value, origin level)."""
    pops, off = spec.populations(), level_offsets(spec)
    t = level_matrix(spec)
    entries = []
    for l0 in range(spec.levels):
        c = 1 if l0 == 0 else spec.children[l0 - 1]
        if l0 and c == 1:
            continue
        vals, gs = stratified_levels(t, l0, want_vectors=True)
        for p in range(1 if l0 == 0 else pops[l0 - 1]):
            for lam, g in zip(vals.tolist(), gs):
                for s in range(1) if l0 == 0 else range(1, c):
                    f = np.zeros(off[-1])
                    for j, l in enumerate(range(l0, spec.levels)):
                        width = pops[l] // pops[l0]
                        first = off[l] + p * c * width
                        f[first : first + width] = g[j]
                        if l0:
                            f[first + s * width : first + (s + 1) * width] -= g[j]
                    entries.append((lam, l0, f))
    entries.sort(key=lambda e: (e[0], e[1]))
    return entries


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
