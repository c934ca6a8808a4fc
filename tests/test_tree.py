import random

import numpy as np
import pytest
from hypothesis import given, settings

from stratree.tree import (
    CapacityError,
    GluedTreeSpec,
    InvalidSpecError,
    RootedTree,
    SymmetricTreeSpec,
    build_index,
    realize,
    realize_glued,
    subtree,
)

from strategies import symmetric_specs


def test_single_vertex():
    idx = build_index(SymmetricTreeSpec([]))
    assert idx.n == 1
    assert idx.level_of(0) == 0
    assert idx.parent_of(0) is None
    assert list(idx.children_of(0)) == []
    assert idx.spec.degree(0) == 0


def test_star_two_leaves():
    idx = build_index(SymmetricTreeSpec([2]))
    assert idx.n == 3
    assert idx.parent_of(1) == 0 and idx.parent_of(2) == 0
    assert list(idx.children_of(0)) == [1, 2]


def test_populations_product_formula():
    spec = SymmetricTreeSpec([3, 2])
    assert spec.populations() == [1, 3, 6]
    assert spec.vertex_count() == 10
    assert build_index(spec).n == 10


@pytest.mark.parametrize("children", [[0], [2, 0], [-1], [2, -3]])
def test_rejects_nonpositive_children(children):
    with pytest.raises(InvalidSpecError):
        SymmetricTreeSpec(children)


def test_population_sum_matches_index_count():
    for children in [[], [1], [4], [2, 3], [3, 1, 2], [2, 2, 2, 2]]:
        spec = SymmetricTreeSpec(children)
        assert sum(spec.populations()) == build_index(spec).n


def test_index_cap():
    # 2^63 vertices at the last level alone
    with pytest.raises(CapacityError):
        build_index(SymmetricTreeSpec([2] * 64))


def test_degrees_by_level():
    spec = SymmetricTreeSpec([3, 2, 4])
    assert [spec.degree(l) for l in range(4)] == [3, 3, 5, 1]


def test_parent_child_round_trip():
    idx = build_index(SymmetricTreeSpec([3, 2, 2]))
    for v in range(idx.n):
        for u in idx.children_of(v):
            assert idx.parent_of(u) == v


def test_identity_round_trip():
    idx = build_index(SymmetricTreeSpec([3, 2, 2]))
    for v in range(idx.n):
        ident = idx.identity_of(v)
        assert len(ident) == idx.level_of(v)
        assert idx.index_of(ident) == v


def test_identity_example_ordering():
    # first child of first child comes before second child of first child
    idx = build_index(SymmetricTreeSpec([2, 2]))
    assert idx.identity_of(3) == [1, 1]
    assert idx.identity_of(4) == [1, 2]
    assert idx.identity_of(6) == [2, 2]


def test_child_relabeling_permutes_vertex_set():
    # relabeling the children of any vertex maps identities onto identities
    idx = build_index(SymmetricTreeSpec([3, 2]))
    rng = random.Random(7)
    all_idents = {tuple(idx.identity_of(v)) for v in range(idx.n)}
    for v in range(idx.n):
        c = len(idx.children_of(v))
        if c == 0:
            continue
        perm = list(range(1, c + 1))
        rng.shuffle(perm)
        lv = idx.level_of(v)
        permuted = set()
        for ident in all_idents:
            ident = list(ident)
            if len(ident) > lv and tuple(ident[:lv]) == tuple(idx.identity_of(v)):
                ident[lv] = perm[ident[lv] - 1]
            permuted.add(tuple(ident))
        assert permuted == all_idents


def test_subtree_root_is_whole_tree():
    idx = build_index(SymmetricTreeSpec([3, 2]))
    verts, level = subtree(idx, 0)
    assert verts == list(range(10))
    assert level == 0


def test_subtree_counts():
    idx = build_index(SymmetricTreeSpec([3, 2]))
    for v in idx.children_of(0):
        verts, level = subtree(idx, v)
        assert len(verts) == 3
        assert level == 1
    idx = build_index(SymmetricTreeSpec([2, 2, 2]))
    v = idx.offsets[2]
    verts, level = subtree(idx, v)
    assert len(verts) == 3 and level == 2


def test_subtree_is_symmetric_with_tail_spec():
    spec = SymmetricTreeSpec([3, 2, 2])
    idx = build_index(spec)
    v = idx.offsets[1]  # first level-1 vertex
    verts, level = subtree(idx, v)
    assert len(verts) == spec.tail(1).vertex_count()


def test_realize_glued_counts():
    g = GluedTreeSpec(SymmetricTreeSpec([2]), SymmetricTreeSpec([3]))
    tree = realize_glued(g)
    assert tree.n == 6
    assert tree.degrees()[0] == 5  # shared root of K_{1,5}
    g = GluedTreeSpec(SymmetricTreeSpec([2, 2]), SymmetricTreeSpec([2, 2]))
    assert realize_glued(g).n == 13


def test_realize_glued_empty_left_is_star():
    g = GluedTreeSpec(SymmetricTreeSpec([]), SymmetricTreeSpec([2]))
    tree = realize_glued(g)
    assert tree.n == 3
    assert sorted(tree.degrees()) == [1, 1, 2]


def test_glued_signed_levels():
    g = GluedTreeSpec(SymmetricTreeSpec([2]), SymmetricTreeSpec([3]))
    tree = realize_glued(g)
    assert tree.signed_levels.tolist() == [0, 1, 1, -1, -1, -1]


def test_rooted_tree_validation():
    with pytest.raises(InvalidSpecError):
        RootedTree(())
    with pytest.raises(InvalidSpecError):
        RootedTree((-1, -1))
    with pytest.raises(InvalidSpecError):
        RootedTree((0, 5))


@pytest.mark.parametrize(
    "parents",
    [(-1, 2, 1), (-1, 1), (-1, 2, 3, 1), (2, -1, 0, 2), (-1, 0.5)],
    ids=["two_cycle", "self_loop", "three_cycle", "cycle_with_a_branch", "float"],
)
def test_rooted_tree_rejects_non_trees(parents):
    with pytest.raises(InvalidSpecError):
        RootedTree(parents)


def test_rooted_tree_root_anywhere():
    tree = RootedTree((1, -1))
    assert tree.degrees().tolist() == [1, 1]
    assert not hasattr(tree, "root")


def test_parents_are_read_only_copies():
    source = np.array([-1, 0, 0])
    tree = RootedTree(source)
    source[1] = 2
    assert tree.parents.tolist() == [-1, 0, 0]
    for t in [tree, realize(SymmetricTreeSpec([2])), build_index(SymmetricTreeSpec([2]))]:
        assert t.parents.dtype == np.int64
        with pytest.raises(ValueError):
            t.parents[1] = 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(symmetric_specs)
def test_index_parents_match_parent_of(spec):
    idx = build_index(spec)
    assert idx.parents.tolist() == [
        -1 if (p := idx.parent_of(v)) is None else p for v in range(idx.n)
    ]
    assert realize(spec).parents.tolist() == idx.parents.tolist()
