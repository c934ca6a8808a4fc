import dataclasses
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stratree.decompose as decompose
from stratree.cli import main
from stratree.decompose import (
    counting_identity,
    decompose_spectrum,
    expanded_spectrum,
    full_eigenbasis,
    level_matrix,
    level_spectra,
    stratified_levels,
    vectors_per_value,
)
from stratree.eigen import dense_eigen, sturm_count, trailing_eigenvalues
from stratree.laplacian import dense, matvec
from stratree.tree import CapacityError, SymmetricTreeSpec, realize
from stratree.verify import check_eigenbasis

from reference import block_row, dense_rows, qr_full_rank, row_facts
from strategies import symmetric_specs

SQRT2 = math.sqrt(2.0)


def oracle_spectrum(spec):
    tree = realize(spec)
    vals, _ = dense_eigen(tree)
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
            stratified_levels(t, [2])


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
        vals_rev = np.linalg.eigvalsh(rev)
        assert np.allclose(trailing_eigenvalues(t, [0])[0], vals_rev, atol=1e-12)
        assert np.allclose(vals_rev, [0.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("children,l0", [([2], 0), ([3, 2], 0), ([3, 2], 1), ([2, 3, 2], 0)])
    def test_similar_to_unbalanced_form(self, children, l0):
        spec = SymmetricTreeSpec(children)
        nonsym_vals = np.sort(np.linalg.eigvals(recurrence(spec, l0)).real)
        [vals] = trailing_eigenvalues(level_matrix(spec), [l0])
        assert np.allclose(vals, nonsym_vals, atol=1e-10)

    def test_unbalanced_eigenvector_solves_recurrence(self):
        spec = SymmetricTreeSpec([3, 2, 2])
        t = level_matrix(spec)
        for l0 in range(spec.levels):
            r = recurrence(spec, l0)
            [vals] = trailing_eigenvalues(t, [l0])
            gs = stratified_levels(t, [l0])[:, l0:]
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
        tol = 1e-10 * np.linalg.norm(t.to_dense(), np.inf)
        spectra = trailing_eigenvalues(t, range(t.m))
        for outer, inner in zip(spectra, spectra[1:]):
            assert np.all(outer[:-1] <= inner + tol)
            assert np.all(inner <= outer[1:] + tol)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(symmetric_specs)
    def test_subtree_dirichlet_spectrum_holds_the_slice(self, spec):
        # The Dirichlet Laplacian of the first level-l0 subtree is the
        # principal submatrix of the Laplacian on its vertices, and each
        # eigenvalue of the level-l0 slice is one of its eigenvalues.
        lap = dense(realize(spec))
        pops, off = spec.populations(), level_offsets(spec)
        t = level_matrix(spec)
        for l0 in range(spec.levels):
            omega = np.concatenate(
                [off[l] + np.arange(pops[l] // pops[l0]) for l in range(l0, spec.levels)]
            )
            dirichlet = np.linalg.eigvalsh(lap[np.ix_(omega, omega)])
            for lam in trailing_eigenvalues(t, [l0])[0]:
                assert np.min(np.abs(dirichlet - lam)) <= 1e-9 * (1 + abs(lam))

    @property_settings
    @given(level_specs)
    def test_sturm_counts_between_eigenvalues(self, spec):
        t = level_matrix(spec)
        for l0, vals in enumerate(trailing_eigenvalues(t, range(t.m))):
            mids = 0.5 * (vals[1:] + vals[:-1])
            assert sturm_count(t.trailing(l0), mids).tolist() == list(range(1, t.m - l0))


class TestDecomposeSpectrum:
    def test_star_k12(self):
        spectrum = decompose_spectrum(SymmetricTreeSpec([2]))
        keys = zip(spectrum.origin_level.tolist(), spectrum.position.tolist())
        by_level = dict(zip(keys, spectrum.values.tolist()))
        assert np.isclose(by_level[(0, 0)], 0.0, atol=1e-12)
        assert np.isclose(by_level[(0, 1)], 3.0, atol=1e-12)
        assert np.isclose(by_level[(1, 0)], 1.0, atol=1e-12)
        assert sum(spectrum.multiplicity()) == 3

    def test_star_k13(self):
        spectrum = decompose_spectrum(SymmetricTreeSpec([3]))
        vals = {round(v, 9): m for v, m in zip(spectrum.values.tolist(), spectrum.multiplicity())}
        assert vals == {0.0: 1, 1.0: 2, 4.0: 1}

    def test_ten_vertex_tree(self):
        spectrum = decompose_spectrum(SymmetricTreeSpec([3, 2]))
        mult = np.array(spectrum.multiplicity())
        at = [spectrum.origin_level == l0 for l0 in range(3)]
        assert np.sum(at[0]) == 3 and all(mult[at[0]] == 1)
        assert sorted(spectrum.values[at[1]]) == pytest.approx(
            [2 - math.sqrt(3), 2 + math.sqrt(3)], abs=1e-10
        )
        assert all(mult[at[1]] == 2)
        assert spectrum.values[at[2]].tolist() == pytest.approx([1.0], abs=1e-12)
        assert mult[at[2]][0] == 3
        assert sum(spectrum.multiplicity()) == 10

    def test_matches_oracle(self):
        for children in [[], [1], [2], [4], [2, 2], [3, 2], [1, 3], [2, 2, 2], [3, 1, 2], [2, 3, 2]]:
            spec = SymmetricTreeSpec(children)
            fast = expanded_spectrum(decompose_spectrum(spec))
            assert np.allclose(fast, oracle_spectrum(spec), atol=1e-8), children

    def test_unit_children_skip_empty_lines(self):
        # c=1 levels add no new population, hence no multiplicity
        spectrum = decompose_spectrum(SymmetricTreeSpec([1]))
        assert sum(spectrum.multiplicity()) == 2
        assert all(spectrum.origin_level == 0)

    def test_eigenvalue_bounds(self):
        spec = SymmetricTreeSpec([3, 2, 2])
        max_deg = max(spec.degree(l) for l in range(spec.levels))
        for value in decompose_spectrum(spec).values.tolist():
            assert value >= -1e-12
            assert value <= 2 * max_deg + 1e-12

    def test_sorted_output(self):
        values = decompose_spectrum(SymmetricTreeSpec([3, 2, 2])).values.tolist()
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_huge_tree_never_materialized(self):
        spec = SymmetricTreeSpec([3] * 49)
        spectrum = decompose_spectrum(spec)
        assert sum(spectrum.multiplicity()) == spec.vertex_count()

    def test_columns(self):
        spectrum = decompose_spectrum(SymmetricTreeSpec([3, 2]))
        assert spectrum.values.dtype == np.float64 and spectrum.origin_side is None
        assert spectrum.multiplicities == (1, 2, 3)  # one per level family
        assert len({len(spectrum.values), len(spectrum.origin_level), len(spectrum.position), len(spectrum.family)}) == 1


# a few values with exact ties, both zeros and neighbouring floats
tied_values = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, 1.0 + 2**-52, 0.5, -1.0]), min_size=1, max_size=5
).map(np.array)


@st.composite
def spectrum_parts(draw):
    """``(side, level, multiplicity, values)`` parts as the spectra give
    them: a symmetric tree's in level order, or a glued tree's left and
    right parts, each side in level order, then its stratified part."""
    def side(name, first, least):
        levels = sorted(draw(st.sets(st.integers(first, 9), min_size=least, max_size=4)))
        return [(name, l0, draw(st.integers(1, 10**30)), draw(tied_values)) for l0 in levels]

    if draw(st.booleans()):
        return side("left", 1, 0) + side("right", 1, 0) + [("stratified", 0, 1, draw(tied_values))]
    return side(None, 0, 1)


class TestSpectrumFromParts:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(spectrum_parts())
    def test_orders_as_the_stable_sort(self, parts):
        # the first value of a level-0 part is the exact zero
        lines = [
            (0.0 if l0 == 0 and pos == 0 else value, side, l0, f, pos)
            for f, (side, l0, _, values) in enumerate(parts)
            for pos, value in enumerate(values.tolist())
        ]
        glued = parts[0][0] is not None
        lines.sort(key=lambda line: (line[0], line[1]) if glued else (line[0], line[2]))
        spectrum = decompose.spectrum_from_parts(parts)
        assert spectrum.family.tolist() == [line[3] for line in lines]
        assert spectrum.position.tolist() == [line[4] for line in lines]
        assert spectrum.origin_level.tolist() == [line[2] for line in lines]
        assert [math.copysign(1, v) for v in spectrum.values.tolist()] == [math.copysign(1, line[0]) for line in lines]
        assert spectrum.values.tolist() == [line[0] for line in lines]
        sides = None if not glued else [line[1] for line in lines]
        assert (spectrum.origin_side if sides is None else spectrum.origin_side.tolist()) == sides
        assert spectrum.multiplicity() == [parts[line[3]][2] for line in lines]


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
    vectors, kinds = dense_rows(basis.vectors), row_facts(basis).construction
    return [vectors[i] for i in range(basis.n) if kinds[i] == construction]


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


def family_rows(t, levels, level):
    """The rows of the family at ``level`` in ``stratified_levels(t, levels)``."""
    levels = list(levels)
    start = sum(t.m - l0 for l0 in levels[: levels.index(level)])
    return slice(start, start + t.m - level)


def vanishing_at(level):
    """A stand-in for ``stratified_levels`` whose last vector of the family
    at ``level`` is forced to vanish at its subtree root, so that it is no
    longer an eigenvector."""
    solve = decompose.stratified_levels

    def solved(t, levels):
        values = solve(t, levels)
        values[family_rows(t, levels, level).stop - 1, level] = 0.0
        return values

    return solved


class TestStratifiedLift:
    """Whole-tree stratified rows of ``full_eigenbasis``."""

    def test_kernel_vector(self):
        basis = full_eigenbasis(SymmetricTreeSpec([2]))
        facts = row_facts(basis)
        assert facts.values[0] == 0.0 and facts.construction[0] == "stratified"
        f = dense_rows(basis.vectors)[0]
        assert f[0] > 0 and np.allclose(f, f[0], rtol=1e-15, atol=0)

    def test_root_value_rounded_to_zero(self, tmp_path, capsys):
        # forty single-child levels above a star of ten leaves: the root
        # family's top eigenvector (about 12.009) lives at the bottom star,
        # and LAPACK rounds its root value to exactly 0.0.  It is still an
        # eigenvector, and the residual and rank certificates pass it.
        children = [1] * 40 + [10]
        spec = SymmetricTreeSpec(children)
        basis = full_eigenbasis(spec)
        assert any(np.any(fam.g[:, 0] == 0.0) for fam in basis.vectors.families)
        assert check_eigenbasis(full_eigenbasis(spec)).passed
        arg = ",".join(map(str, children))
        assert main(["verify", "--children", arg, "--out", str(tmp_path / "v.json")]) == 0
        assert all(row["pass"] for row in json.loads((tmp_path / "v.json").read_text()))
        assert main(["eigvecs", "--children", arg, "--out", str(tmp_path / "e.json")]) == 0
        rows = json.loads((tmp_path / "e.json").read_text())
        assert capsys.readouterr().err == ""
        assert len(rows) == 51
        assert np.array([r["vector"] for r in rows]).tobytes() == dense_rows(basis.vectors).tobytes()

    def test_rejects_vanishing_root(self, monkeypatch):
        # a zero root value is not refused when the basis is built (LAPACK
        # may round one there); a vector forced to vanish at the root is no
        # eigenvector, and the residual certificate rejects it
        monkeypatch.setattr(decompose, "stratified_levels", vanishing_at(0))
        spec = SymmetricTreeSpec([2])
        basis = full_eigenbasis(spec)
        facts = row_facts(basis)
        (i,) = np.flatnonzero(facts.residuals > 1e-3)
        assert facts.origin_levels[i] == 0 and dense_rows(basis.vectors)[i][0] == 0.0
        result = check_eigenbasis(full_eigenbasis(spec))
        assert not result.passed and result.max_deviation > 1e-3

    def test_whole_tree_lift_is_eigenfunction(self):
        spec = SymmetricTreeSpec([3, 2, 2])
        tree = realize(spec)
        basis = full_eigenbasis(spec)
        vectors, facts = dense_rows(basis.vectors), row_facts(basis)
        strat = [i for i in range(basis.n) if facts.construction[i] == "stratified"]
        assert len(strat) == spec.levels
        for i in strat:
            lam, f = facts.values[i], vectors[i]
            assert np.max(np.abs(matvec(tree, f) - lam * f)) <= 1e-9 * np.max(np.abs(f))

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
            for f, l0 in zip(dense_rows(basis.vectors), row_facts(basis).origin_levels.tolist()):
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
        assert np.allclose(matvec(realize(SymmetricTreeSpec([2])), out), out)  # eigenvalue 1

    def test_three_leaf_star(self):
        basis = full_eigenbasis(SymmetricTreeSpec([3]))
        outs = rows_of(basis, "antisym")
        assert [o.tolist() for o in outs] == [
            [0.0, 1.0, -1.0, 0.0],
            [0.0, 1.0, 0.0, -1.0],
        ]
        tree = realize(SymmetricTreeSpec([3]))
        for o in outs:
            assert np.allclose(matvec(tree, o), o)

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
            vectors, facts = dense_rows(basis.vectors), row_facts(basis)
            for i in range(basis.n):
                if facts.construction[i] == "antisym":
                    assert facts.origin_levels[i] >= 1 and vectors[i][0] == 0.0

    def test_rejects_vanishing_at_subtree_root(self, monkeypatch):
        # the same at a deeper level family: the sibling-difference row of
        # the forced vector vanishes at both of its subtree roots, and the
        # residual certificate rejects it
        monkeypatch.setattr(decompose, "stratified_levels", vanishing_at(1))
        spec = SymmetricTreeSpec([2, 2])
        basis = full_eigenbasis(spec)
        facts = row_facts(basis)
        (i,) = np.flatnonzero(facts.residuals > 1e-3)
        assert facts.origin_levels[i] == 1
        row = dense_rows(basis.vectors)[i]
        assert np.all(row[:3] == 0.0) and np.any(row != 0.0)
        result = check_eigenbasis(full_eigenbasis(spec))
        assert not result.passed and result.max_deviation > 1e-3

    def test_zero_level_value_is_positive_zero_on_both_subtrees(self, monkeypatch):
        # the sibling block holds 0.0 - g, never -g, so a zero stays +0.0
        solve = decompose.stratified_levels

        def zero_at_level_two(t, levels):
            values = solve(t, levels)
            values[family_rows(t, levels, 1), 2] = 0.0
            return values

        monkeypatch.setattr(decompose, "stratified_levels", zero_at_level_two)
        basis = full_eigenbasis(SymmetricTreeSpec([2, 2]))
        deep = dense_rows(basis.vectors)[row_facts(basis).origin_levels == 1]
        assert len(deep) == 2 and not np.signbit(deep[:, 3:]).any()


class TestSymmetrize:
    def test_stratified_fixed_point(self):
        # relabeling the root's children fixes every whole-tree stratified
        # vector and negates the sibling differences between those children
        spec = SymmetricTreeSpec([3, 2])
        basis = full_eigenbasis(spec)
        perm = swap_subtrees(spec, 1, 0, 1)
        facts = row_facts(basis)
        negated = 0
        for f, kind, l0 in zip(dense_rows(basis.vectors), facts.construction, facts.origin_levels):
            if kind == "stratified":
                assert np.array_equal(f[perm], f)
            elif l0 == 1 and f[1] and f[2]:  # child 1 minus child 2
                assert np.array_equal(f[perm], -f)
                negated += 1
        assert negated == 2  # one per eigenvalue of the level-1 slice


class TestFullEigenbasis:
    def test_two_leaf_star(self):
        basis = full_eigenbasis(SymmetricTreeSpec([2]))
        values = row_facts(basis).values
        assert basis.n == 3
        assert np.allclose(np.sort(values), [0.0, 1.0, 3.0], atol=1e-10)
        i = int(np.argmin(np.abs(values - 1.0)))
        v = dense_rows(basis.vectors)[i]
        assert v[0] == 0.0 and v[1] == -v[2]

    def test_single_vertex(self):
        basis = full_eigenbasis(SymmetricTreeSpec([]))
        assert basis.n == 1
        assert row_facts(basis).values.tolist() == [0.0]
        assert dense_rows(basis.vectors).tolist() == [[1.0]]

    def test_matches_decomposition_multiset(self):
        spec = SymmetricTreeSpec([3, 2])
        basis = full_eigenbasis(spec)
        assert basis.n == 10
        fast = expanded_spectrum(decompose_spectrum(spec))
        assert np.allclose(np.sort(row_facts(basis).values), fast, atol=1e-10)

    def test_residuals_and_rank(self):
        for children in [[2], [3], [2, 2], [3, 2], [2, 1, 2], [2, 2, 2]]:
            spec = SymmetricTreeSpec(children)
            basis = full_eigenbasis(spec)
            assert basis.n == spec.vertex_count()
            scales = np.max(np.abs(dense_rows(basis.vectors)), axis=1)
            assert np.all(row_facts(basis).residuals <= 1e-9 * scales)
            assert basis.full_rank(1e-8)

    def test_scales_are_the_dense_rows_peaks(self):
        # the certificate scales each residual by its level values' peak:
        # bitwise the same relative residual as by each dense row's peak
        for children in [[], [2], [3, 2], [2, 1, 3], [3, 1, 4, 1]]:
            spec = SymmetricTreeSpec(children)
            basis = full_eigenbasis(spec)
            peaks = np.max(np.abs(dense_rows(basis.vectors)), axis=1)
            rel = float(np.max(row_facts(basis).residuals / peaks))
            assert check_eigenbasis(full_eigenbasis(spec)).max_deviation.hex() == rel.hex()

    def test_construction_tags(self):
        construction = row_facts(full_eigenbasis(SymmetricTreeSpec([3, 2]))).construction
        tags = set(construction)
        assert tags == {"stratified", "antisym"}
        strat = sum(1 for t in construction if t == "stratified")
        assert strat == 3  # one per level of the whole tree

    def test_sorted_by_value_then_level(self):
        facts = row_facts(full_eigenbasis(SymmetricTreeSpec([3, 2, 2])))
        keys = list(zip(facts.values, facts.origin_levels))
        assert keys == sorted(keys)

    def test_cap(self):
        with pytest.raises(CapacityError):
            full_eigenbasis(SymmetricTreeSpec([3, 2]), basis_cap=5)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(symmetric_specs)
    @example(SymmetricTreeSpec([1, 1]))
    @example(SymmetricTreeSpec([3, 2]))
    def test_lines_are_the_spectrum(self, spec):
        # one values route: the basis's lines are those `spectrum` prints,
        # column by column and value by value, bit for bit (eigh's values
        # of [1, 1]'s root slice, say, differ from them in the last bit)
        lines, spectrum = full_eigenbasis(spec).vectors.lines, decompose_spectrum(spec)
        assert lines.values.tobytes() == spectrum.values.tobytes()
        for column in ("origin_level", "position", "family"):
            assert getattr(lines, column).tolist() == getattr(spectrum, column).tolist()
        assert lines.multiplicities == spectrum.multiplicities
        assert lines.origin_side is spectrum.origin_side is None

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(symmetric_specs)
    def test_matches_the_vector_by_vector_build(self, spec):
        basis = full_eigenbasis(spec)
        entries = eigenbasis_by_vector(spec)
        facts = row_facts(basis)
        assert facts.values.tolist() == [e[0] for e in entries]
        assert facts.origin_levels.tolist() == [e[1] for e in entries]
        assert dense_rows(basis.vectors).tobytes() == np.array([e[2] for e in entries]).tobytes()

    @pytest.mark.parametrize("children", [[1, 1, 1, 1, 1], [9, 2], [3, 1, 4, 1, 3, 2, 4, 3]])
    def test_each_family_layout_expands_to_the_level_block_rows(self, children):
        # a path (one family, its root level's m blocks), a wide root, and
        # interleaved families with many parents each: every row of a run
        # of (family, i), written block by block from the family's one
        # layout, and the first row that the residual product multiplies,
        # expanded from the stack's run-length code, are bitwise the
        # vectors built one at a time from the same level values
        spec = SymmetricTreeSpec(children)
        n = spec.vertex_count()
        vectors = full_eigenbasis(spec).vectors
        entries, counts = vectors.first_row_runs()
        assert entries.shape == counts.shape == (len(vectors.values), 3 * spec.levels)
        for f, fam in enumerate(vectors.families):
            gaps, widths = vectors.layout(f)
            assert gaps.shape == (vectors_per_value(spec.populations(), fam.level), len(widths) + 1)
            for i, g in enumerate(fam.g):
                expected = np.array(level_block_rows(spec, fam.level, g))
                values = vectors.block_values(f)[i]
                rows = [block_row(row, widths, values, n) for row in gaps]
                assert np.array(rows).tobytes() == expected.tobytes()
                r = vectors.family_start[f] + i
                assert np.repeat(entries[r], counts[r]).tobytes() == expected[0].tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(symmetric_specs)
    def test_family_residuals_match_the_per_vector_loop(self, spec):
        assert_residuals_per_vector(spec)

    @pytest.mark.parametrize(
        # levels of c >= 9 children have rows that reduceat sums pairwise
        "children", [[3, 1, 4, 1, 3, 2, 4, 3], [9, 3, 2], [2, 20, 3], [12, 2, 2, 2]]
    )
    def test_family_residuals_match_the_per_vector_loop_on_wide_levels(self, children):
        assert_residuals_per_vector(SymmetricTreeSpec(children))

    @pytest.mark.parametrize(
        "children, nbytes", [([3, 1, 4, 1, 3, 2, 4, 3], 2904), ([4, 4, 3, 2, 2, 2], 2016), ([2] * 9, 5280)]
    )
    def test_nbytes(self, children, nbytes):
        # the stack of level values, k columns for each (family, position),
        # counted once, plus 16 bytes per line: the family and position
        # columns of its lines
        assert full_eigenbasis(SymmetricTreeSpec(children)).vectors.nbytes == nbytes

    @pytest.mark.parametrize("children", [[1] * 6, [3, 1, 4, 1, 3, 2, 4, 3]])
    def test_level_values_are_views_of_the_stack(self, children):
        # one store for the level values: each family's g is its rows of
        # the stack from its level's column on, and the stack is +0.0 above
        # that column; on a path the one family is the whole (n, n) stack
        spec = SymmetricTreeSpec(children)
        vectors = full_eigenbasis(spec).vectors
        k, start = spec.levels, vectors.family_start
        assert vectors.values.shape == (sum(k - l0 for l0 in vectors.levels), k)
        for f, fam in enumerate(vectors.families):
            assert np.shares_memory(fam.g, vectors.values)
            assert fam.g.tobytes() == vectors.values[start[f] : start[f + 1], fam.level :].tobytes()
            above = vectors.values[start[f] : start[f + 1], : fam.level]
            assert not np.any(above) and not np.signbit(above).any()

    def test_peak_memory_is_one_basis(self):
        # no n x n array: the basis is its level values and one line per
        # run of rows, and the residuals are taken on blocks of at most
        # RESIDUAL_BLOCK entries
        spec = SymmetricTreeSpec([3, 1, 4, 1, 3, 2, 4, 3])
        n = spec.vertex_count()
        tracemalloc.start()
        try:
            full_eigenbasis(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 8 * n * n

    def test_residual_blocks_bound_the_peak_memory(self):
        # [2]*15, |V| = 65,535 and 136 lines: the residual product is taken
        # RESIDUAL_BLOCK entries at a time, one line at a time at this |V|;
        # one product of every line's columns traced 274 MiB
        spec = SymmetricTreeSpec([2] * 15)
        tracemalloc.start()
        try:
            basis = full_eigenbasis(spec, basis_cap=10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(basis.vectors.lines.values) == 136
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("children", [[2, 20, 3], [4, 4, 3, 2, 2, 2]])
    def test_residuals_do_not_depend_on_the_block_size(self, monkeypatch, children):
        # one line per block, blocks that split a family's lines, and one
        # block of every line give the same bits
        spec = SymmetricTreeSpec(children)
        n = spec.vertex_count()
        expected = full_eigenbasis(spec).residuals.tobytes()
        for entries in (1, 3 * n, 10**9):
            monkeypatch.setattr(decompose, "RESIDUAL_BLOCK", entries)
            assert full_eigenbasis(spec).residuals.tobytes() == expected

    def test_stratified_vectors_exactly_constant_per_level(self):
        spec = SymmetricTreeSpec([2, 3, 2])
        off = level_offsets(spec)
        basis = full_eigenbasis(spec)
        vectors, kinds = dense_rows(basis.vectors), row_facts(basis).construction
        for i in range(basis.n):
            if kinds[i] != "stratified":
                continue
            f = vectors[i]
            for l in range(spec.levels):
                level = f[off[l] : off[l + 1]]
                assert np.all(level == level[0])


def assert_residuals_per_vector(spec):
    """The basis's residuals are bitwise those of one matvec per vector."""
    basis = full_eigenbasis(spec)
    facts = row_facts(basis)
    tree = realize(spec)
    loop = [
        float(np.max(np.abs(matvec(tree, f) - lam * f)))
        for lam, f in zip(facts.values.tolist(), dense_rows(basis.vectors))
    ]
    assert facts.residuals.tobytes() == np.array(loop).tobytes()


def level_block_rows(spec, l0, g):
    """The vectors of level values g at level l0, built one at a time in
    (parent, sibling) order: g on p's first child's subtree minus its copy
    on p's child s's subtree, or g on the whole tree at the root level."""
    pops, off = spec.populations(), level_offsets(spec)
    c = 1 if l0 == 0 else spec.children[l0 - 1]
    rows = []
    for p in range(1 if l0 == 0 else pops[l0 - 1]):
        for s in range(1) if l0 == 0 else range(1, c):
            f = np.zeros(off[-1])
            for j, l in enumerate(range(l0, spec.levels)):
                width = pops[l] // pops[l0]
                first = off[l] + p * c * width
                f[first : first + width] = g[j]
                if l0:
                    f[first + s * width : first + (s + 1) * width] -= g[j]
            rows.append(f)
    return rows


def eigenbasis_by_vector(spec):
    """(value, origin level, vector) of every basis vector, built one vector
    at a time in (level, eigenvalue, parent, sibling) order and stably
    sorted by (value, origin level); the values are ``level_spectra``'s and
    the level values ``stratified_levels``'."""
    t = level_matrix(spec)
    entries = []
    for _, l0, _, vals in level_spectra(spec):
        if l0 == 0:
            vals[0] = 0.0  # the Laplacian's zero, which LAPACK returns as +-1e-16
        for lam, g in zip(vals.tolist(), stratified_levels(t, [l0])[:, l0:]):
            entries += [(lam, l0, f) for f in level_block_rows(spec, l0, g)]
    entries.sort(key=lambda e: (e[0], e[1]))
    return entries


def with_vectors(basis, **fields):
    """``basis`` with fields of its ``BlockVectors`` replaced."""
    return dataclasses.replace(basis, vectors=dataclasses.replace(basis.vectors, **fields))


def with_g(basis, f, g):
    """``basis`` with the level values of family f replaced by ``g``, in a
    copy of its stack."""
    vectors = basis.vectors
    values = vectors.values.copy()
    start = vectors.family_start
    values[start[f] : start[f + 1], vectors.levels[f] :] = g
    return with_vectors(basis, values=values)


def both_ranks(basis, threshold=1e-8):
    """The certificate's verdict and the QR reference's on the dense rows."""
    return basis.full_rank(threshold), qr_full_rank(dense_rows(basis.vectors), threshold)


class TestFullRank:
    # [3, 2, 2]: family 1 is the level-1 family, with 3 positions
    SPEC = SymmetricTreeSpec([3, 2, 2])

    def test_repeated_vector(self):
        basis = full_eigenbasis(self.SPEC)
        g = basis.vectors.families[1].g.copy()
        g[2] = g[0]
        assert both_ranks(with_g(basis, 1, g)) == (False, False)

    @pytest.mark.parametrize("component, expected", [(1e-9, False), (1e-7, True)])
    def test_threshold_on_the_last_rows_new_component(self, component, expected):
        # the QR reference thresholds a row's component orthogonal to the
        # rows before it, not its Gram's eigenvalues
        vectors = [[1, 0, 0], [1, 1, 0], [0, 1, component]]
        assert qr_full_rank(vectors, 1e-8) is expected

    @pytest.mark.parametrize("weight, expected", [(1e-12, False), (0.5, True)])
    def test_row_pushed_towards_another_s_span(self, weight, expected):
        # g[1] = g[0] + weight * g[1]: within 1e-12 of g[0]'s span, or a
        # clearly independent (if no longer orthogonal) row
        basis = full_eigenbasis(self.SPEC)
        g = basis.vectors.families[1].g.copy()
        g[1] = g[0] + weight * g[1]
        assert both_ranks(with_g(basis, 1, g)) == (expected, expected)

    def test_vanishing_row(self):
        # a zero row has no unit-diagonal normalization: refused, not a
        # LAPACK error
        basis = full_eigenbasis(self.SPEC)
        g = basis.vectors.families[1].g.copy()
        g[1] = 0.0
        assert not with_g(basis, 1, g).full_rank()

    def test_repeated_run_key(self):
        basis = full_eigenbasis(self.SPEC)
        lines = basis.vectors.lines
        family, position = lines.family.copy(), lines.position.copy()
        family[5], position[5] = family[4], position[4]
        lines = lines._replace(family=family, position=position)
        assert both_ranks(with_vectors(basis, lines=lines)) == (False, False)

    def test_run_position_out_of_range(self):
        # position i = k - l0 has no level values: lines of the right
        # number, but not the layout the certificate assumes
        basis = full_eigenbasis(SymmetricTreeSpec([2, 2]))
        lines = basis.vectors.lines
        position = lines.position.copy()
        run = np.flatnonzero(lines.family == 2)[0]
        position[run] = 1
        lines = lines._replace(position=position)
        assert basis.full_rank() and not with_vectors(basis, lines=lines).full_rank()

    def test_two_families_at_one_level(self):
        # [2, 2] with its level-2 family replaced by a copy of the level-1
        # family and both its positions in the lines: each (family, i) once
        # and runs that hold |V| rows, the level-1 rows twice
        basis = full_eigenbasis(SymmetricTreeSpec([2, 2]))
        values, start, lines = basis.vectors.values, basis.vectors.family_start, basis.vectors.lines
        lines = lines._replace(
            family=np.append(lines.family, 2), position=np.append(lines.position, 1), multiplicities=(1, 1, 1)
        )
        stack = np.vstack((values[: start[2]], values[start[1] : start[2]]))
        broken = with_vectors(basis, levels=(0, 1, 1), values=stack, lines=lines)
        assert both_ranks(broken) == (False, False)

    def test_multiplicity_its_family_does_not_give(self):
        # [2, 2] without its level-2 family, whose two rows per position the
        # level-1 lines claim instead: |V| rows counted, five built
        basis = full_eigenbasis(SymmetricTreeSpec([2, 2]))
        lines = basis.vectors.lines
        keep = lines.family < 2
        lines = lines._replace(family=lines.family[keep], position=lines.position[keep], multiplicities=(1, 2))
        broken = with_vectors(
            basis, levels=(0, 1), values=basis.vectors.values[: basis.vectors.family_start[2]], lines=lines
        )
        assert broken.n == 7 and len(dense_rows(broken.vectors)) == 5
        assert not broken.full_rank()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(symmetric_specs)
    def test_matches_the_qr_reference(self, spec):
        basis = full_eigenbasis(spec)
        assert both_ranks(basis) == (True, True)
        if spec.levels > 1:
            # the root family with a repeated row
            g = basis.vectors.families[0].g.copy()
            g[-1] = g[0]
            assert both_ranks(with_g(basis, 0, g)) == (False, False)


class TestMultiplicityLowerBound:
    def test_on_small_trees(self):
        for children in [[3], [2, 2], [3, 2], [2, 2, 2], [4, 2]]:
            spec = SymmetricTreeSpec(children)
            vals = oracle_spectrum(spec)
            pops = spec.populations()
            spectrum = decompose_spectrum(spec)
            for value, l0 in zip(spectrum.values.tolist(), spectrum.origin_level.tolist()):
                if l0 < 1:
                    continue
                oracle_mult = int(np.sum(np.abs(vals - value) <= 1e-8))
                assert oracle_mult >= pops[l0] - pops[l0 - 1]
