import numpy as np
import pytest

from stratree.decompose import decompose_spectrum, expanded_spectrum
from stratree.eigen import dense_eigen, tridiag_eigen
from stratree.glued import glued_spectrum, glued_stratified_matrix
from stratree.laplacian import assemble
from stratree.tree import GluedTreeSpec, SymmetricTreeSpec, realize_glued


def gspec(left, right):
    return GluedTreeSpec(SymmetricTreeSpec(left), SymmetricTreeSpec(right))


def oracle(spec):
    vals, _ = dense_eigen(assemble(realize_glued(spec)).to_dense())
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
            root_vals = sorted(s.value for s in plain if s.origin_level == 0)
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
        lines = glued_spectrum(gspec([2], [3]))
        vals = expanded_spectrum(lines)
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
            lines = glued_spectrum(spec)
            assert sum(s.multiplicity for s in lines) == spec.vertex_count()

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
        lines = glued_spectrum(gspec([2], [3]))
        sides = {s.origin_side for s in lines}
        assert sides == {"left", "right", "stratified"}
        for s in lines:
            if s.origin_side == "stratified":
                assert s.multiplicity == 1 and s.origin_level == 0
            else:
                assert s.origin_level >= 1

    def test_zero_eigenvalue_is_exact(self):
        for left, right in [([2], [3]), ([3, 2], [2, 2]), ([1], [2, 2, 2])]:
            lines = glued_spectrum(gspec(left, right))
            assert lines[0].value == 0.0 and lines[0].origin_side == "stratified"
            assert min(s.value for s in lines) >= 0.0

    @pytest.mark.parametrize(
        "left,right",
        [([2], [2]), ([3], [1, 2]), ([2, 3], [3, 2]), ([1], [2, 2, 2]), ([2, 2, 2], [3])],
    )
    def test_oracle_equivalence(self, left, right):
        spec = gspec(left, right)
        vals = expanded_spectrum(glued_spectrum(spec))
        assert np.allclose(vals, oracle(spec), atol=1e-8)
