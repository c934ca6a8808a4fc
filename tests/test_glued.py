import numpy as np
import pytest

from stratree.decompose import decompose_spectrum, expanded_spectrum
from stratree.eigen import dense_eigen, tridiag_eigen
from stratree.glued import glued_spectrum, glued_stratified_matrix
from stratree.tree import GluedTreeSpec, SymmetricTreeSpec, realize_glued


def gspec(left, right):
    return GluedTreeSpec(SymmetricTreeSpec(left), SymmetricTreeSpec(right))


def oracle(spec):
    tree = realize_glued(spec)
    vals, _ = dense_eigen(tree)
    return vals


class TestStratifiedMatrix:
    def test_star_gluing_shape_and_spectrum(self):
        t = glued_stratified_matrix(gspec([2], [3]))
        assert np.allclose(np.diag(t.to_dense()), [1.0, 5.0, 1.0])
        assert np.allclose(t.off, [np.sqrt(3), np.sqrt(2)])
        vals = tridiag_eigen(t)
        assert np.allclose(vals, [0.0, 1.0, 6.0], atol=1e-10)

    def test_empty_left_reduces_to_plain_tree(self):
        for c in (2, 3):
            t = glued_stratified_matrix(gspec([], [c]))
            plain = decompose_spectrum(SymmetricTreeSpec([c]))
            root_vals = sorted(plain.values[plain.origin_level == 0])
            assert np.allclose(tridiag_eigen(t), root_vals, atol=1e-10)

    def test_mirror_symmetry(self):
        a = tridiag_eigen(glued_stratified_matrix(gspec([2, 2], [3])))
        b = tridiag_eigen(glued_stratified_matrix(gspec([3], [2, 2])))
        assert np.allclose(a, b, atol=1e-10)

    def test_single_vertex_gluing(self):
        t = glued_stratified_matrix(gspec([], []))
        assert t.to_dense().tolist() == [[0.0]]


class TestGluedSpectrum:
    def test_star_gluing_matches_k15(self):
        vals = expanded_spectrum(glued_spectrum(gspec([2], [3])))
        assert np.allclose(vals, [0.0, 1.0, 1.0, 1.0, 1.0, 6.0], atol=1e-8)
        assert np.allclose(vals, oracle(gspec([2], [3])), atol=1e-8)

    def test_thirteen_vertex_gluing(self):
        spec = gspec([2, 2], [2, 2])
        vals = expanded_spectrum(glued_spectrum(spec))
        assert len(vals) == 13
        assert np.allclose(vals, oracle(spec), atol=1e-8)

    def test_total_multiplicity(self):
        for left, right in [([2], [3]), ([2, 2], [3]), ([], [2, 2]), ([3, 2], [2, 2])]:
            spec = gspec(left, right)
            assert sum(glued_spectrum(spec).multiplicity()) == spec.vertex_count()

    def test_side_swap_symmetry(self):
        a = expanded_spectrum(glued_spectrum(gspec([2, 2], [3])))
        b = expanded_spectrum(glued_spectrum(gspec([3], [2, 2])))
        assert np.allclose(a, b, atol=1e-10)

    def test_degenerate_gluing_equals_plain_decomposition(self):
        spec = SymmetricTreeSpec([3, 2])
        a = expanded_spectrum(glued_spectrum(gspec([], [3, 2])))
        b = expanded_spectrum(decompose_spectrum(spec))
        assert np.allclose(a, b, atol=1e-10)

    def test_origin_sides(self):
        spectrum = glued_spectrum(gspec([2], [3]))
        lines = zip(spectrum.origin_side.tolist(), spectrum.multiplicity(), spectrum.origin_level.tolist())
        assert set(spectrum.origin_side) == {"left", "right", "stratified"}
        for side, mult, l0 in lines:
            if side == "stratified":
                assert mult == 1 and l0 == 0
            else:
                assert l0 >= 1

    def test_zero_eigenvalue_is_exact(self):
        for left, right in [([2], [3]), ([3, 2], [2, 2]), ([1], [2, 2, 2])]:
            spectrum = glued_spectrum(gspec(left, right))
            assert spectrum.values[0] == 0.0 and spectrum.origin_side[0] == "stratified"
            assert min(spectrum.values) >= 0.0

    @pytest.mark.parametrize(
        "left,right",
        [([2], [2]), ([3], [1, 2]), ([2, 3], [3, 2]), ([1], [2, 2, 2]), ([2, 2, 2], [3])],
    )
    def test_oracle_equivalence(self, left, right):
        spec = gspec(left, right)
        vals = expanded_spectrum(glued_spectrum(spec))
        assert np.allclose(vals, oracle(spec), atol=1e-8)
