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
    realize,
    realize_glued,
)

from strategies import symmetric_specs


def offsets(spec):
    """First vertex of each level in the breadth-first numbering, and n."""
    return np.cumsum([0, *spec.populations()]).tolist()


def parent_of(spec, v):
    """The breadth-first numbering's parent of v, one vertex at a time."""
    off = offsets(spec)
    l = max(i for i in range(spec.levels) if off[i] <= v)
    if l == 0:
        return -1
    return off[l - 1] + (v - off[l]) // spec.children[l - 1]


def children_of(tree, v):
    return np.flatnonzero(tree.parents == v).tolist()


def depths(tree):
    out = []
    for v, p in enumerate(tree.parents.tolist()):
        out.append(0 if p < 0 else out[p] + 1)  # parents precede their children
    return out


def degrees(tree):
    child = tree.parents >= 0
    return (np.bincount(tree.parents[child], minlength=tree.n) + child).tolist()


def identity_of(tree, v):
    """Child labels (1-based) along the root-to-v path."""
    labels = []
    p = tree.parents[v]
    while p >= 0:
        labels.append(v - children_of(tree, p)[0] + 1)
        v, p = p, tree.parents[p]
    return labels[::-1]


def index_of(spec, identity):
    """Vertex with the given identity: level offset plus mixed-radix rank."""
    t = 0
    for depth, label in enumerate(identity):
        t = t * spec.children[depth] + (label - 1)
    return offsets(spec)[len(identity)] + t


def subtree(tree, v):
    """Sorted vertex set of the maximal subtree rooted at v, plus v's depth."""
    verts, frontier = [v], [v]
    while frontier:
        frontier = [u for w in frontier for u in children_of(tree, w)]
        verts += frontier
    return sorted(verts), depths(tree)[v]


def test_single_vertex():
    tree = realize(SymmetricTreeSpec([]))
    assert tree.n == 1
    assert tree.parents.tolist() == [-1]
    assert SymmetricTreeSpec([]).degree(0) == 0


def test_star_two_leaves():
    tree = realize(SymmetricTreeSpec([2]))
    assert tree.parents.tolist() == [-1, 0, 0]
    assert children_of(tree, 0) == [1, 2]


def test_populations_product_formula():
    spec = SymmetricTreeSpec([3, 2])
    assert spec.populations() == [1, 3, 6]
    assert spec.vertex_count() == 10
    assert realize(spec).n == 10


@pytest.mark.parametrize("children", [[0], [2, 0], [-1], [2, -3]])
def test_rejects_nonpositive_children(children):
    with pytest.raises(InvalidSpecError):
        SymmetricTreeSpec(children)


def test_population_sum_matches_index_count():
    for children in [[], [1], [4], [2, 3], [3, 1, 2], [2, 2, 2, 2]]:
        spec = SymmetricTreeSpec(children)
        assert sum(spec.populations()) == realize(spec).n


def test_index_cap():
    # 2^63 vertices at the last level alone
    with pytest.raises(CapacityError):
        realize(SymmetricTreeSpec([2] * 64))


def test_degrees_by_level():
    spec = SymmetricTreeSpec([3, 2, 4])
    assert [spec.degree(l) for l in range(4)] == [3, 3, 5, 1]


def test_parent_child_round_trip():
    spec = SymmetricTreeSpec([3, 2, 2])
    tree = realize(spec)
    depth = depths(tree)
    for v in range(tree.n):
        # c(level) children in one contiguous run; none below the last level
        c = spec.children[depth[v]] if depth[v] < len(spec.children) else 0
        kids = children_of(tree, v)
        first = kids[0] if kids else 0
        assert kids == list(range(first, first + c))
        for u in kids:
            assert parent_of(spec, u) == v


def test_identity_round_trip():
    spec = SymmetricTreeSpec([3, 2, 2])
    tree = realize(spec)
    for v in range(tree.n):
        ident = identity_of(tree, v)
        assert len(ident) == depths(tree)[v]
        assert index_of(spec, ident) == v


def test_identity_example_ordering():
    # first child of first child comes before second child of first child
    tree = realize(SymmetricTreeSpec([2, 2]))
    assert identity_of(tree, 3) == [1, 1]
    assert identity_of(tree, 4) == [1, 2]
    assert identity_of(tree, 6) == [2, 2]


def test_child_relabeling_permutes_vertex_set():
    # relabeling the children of any vertex maps identities onto identities
    tree = realize(SymmetricTreeSpec([3, 2]))
    rng = random.Random(7)
    all_idents = {tuple(identity_of(tree, v)) for v in range(tree.n)}
    for v in range(tree.n):
        c = len(children_of(tree, v))
        if c == 0:
            continue
        perm = list(range(1, c + 1))
        rng.shuffle(perm)
        lv = depths(tree)[v]
        permuted = set()
        for ident in all_idents:
            ident = list(ident)
            if len(ident) > lv and tuple(ident[:lv]) == tuple(identity_of(tree, v)):
                ident[lv] = perm[ident[lv] - 1]
            permuted.add(tuple(ident))
        assert permuted == all_idents


def test_subtree_root_is_whole_tree():
    verts, level = subtree(realize(SymmetricTreeSpec([3, 2])), 0)
    assert verts == list(range(10))
    assert level == 0


def test_subtree_counts():
    tree = realize(SymmetricTreeSpec([3, 2]))
    for v in children_of(tree, 0):
        verts, level = subtree(tree, v)
        assert len(verts) == 3
        assert level == 1
    spec = SymmetricTreeSpec([2, 2, 2])
    verts, level = subtree(realize(spec), offsets(spec)[2])
    assert len(verts) == 3 and level == 2


def test_subtree_is_symmetric_with_tail_spec():
    # every level-1 subtree is the symmetric tree of the children below
    # level 1, one contiguous block of vertices per level
    spec = SymmetricTreeSpec([3, 2, 2])
    tree, off = realize(spec), offsets(spec)
    for v in range(off[1], off[2]):
        verts, level = subtree(tree, v)
        assert len(verts) == SymmetricTreeSpec(spec.children[1:]).vertex_count()
        for l in range(1, spec.levels):
            block = [u for u in verts if off[l] <= u < off[l + 1]]
            assert block == list(range(block[0], block[0] + len(block)))


def test_realize_glued_counts():
    g = GluedTreeSpec(SymmetricTreeSpec([2]), SymmetricTreeSpec([3]))
    tree = realize_glued(g)
    assert tree.n == 6
    assert degrees(tree)[0] == 5  # shared root of K_{1,5}
    g = GluedTreeSpec(SymmetricTreeSpec([2, 2]), SymmetricTreeSpec([2, 2]))
    assert realize_glued(g).n == 13


def test_realize_glued_empty_left_is_star():
    g = GluedTreeSpec(SymmetricTreeSpec([]), SymmetricTreeSpec([2]))
    tree = realize_glued(g)
    assert tree.n == 3
    assert sorted(degrees(tree)) == [1, 1, 2]


def test_glued_signed_levels():
    g = GluedTreeSpec(SymmetricTreeSpec([2]), SymmetricTreeSpec([3]))
    tree = realize_glued(g)
    # the left tree's vertices first, then the right's non-root vertices
    signed = [d if v < 3 else -d for v, d in enumerate(depths(tree))]
    assert signed == [0, 1, 1, -1, -1, -1]


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
    assert degrees(tree) == [1, 1]
    assert not hasattr(tree, "root")


def test_parents_are_read_only_copies():
    source = np.array([-1, 0, 0])
    tree = RootedTree(source)
    source[1] = 2
    assert tree.parents.tolist() == [-1, 0, 0]
    for t in [tree, realize(SymmetricTreeSpec([2])), realize_glued(GluedTreeSpec(SymmetricTreeSpec([2]), SymmetricTreeSpec([1])))]:
        assert t.parents.dtype == np.int64
        with pytest.raises(ValueError):
            t.parents[1] = 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(symmetric_specs)
def test_index_parents_match_parent_of(spec):
    tree = realize(spec)
    assert tree.parents.tolist() == [parent_of(spec, v) for v in range(tree.n)]
