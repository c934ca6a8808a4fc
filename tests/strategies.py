"""Hypothesis strategies for trees, shared by the test modules."""

from hypothesis import strategies as st

from stratree.tree import GluedTreeSpec, RootedTree, SymmetricTreeSpec, realize_glued

symmetric_specs = st.lists(st.integers(1, 4), max_size=4).map(SymmetricTreeSpec)


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
