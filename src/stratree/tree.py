"""Rooted-tree models: symmetric (balanced) trees, glued trees, and the
generic parent-array tree used by the brute-force code paths.

A symmetric tree is fully described by its children-per-level sequence
c(0), ..., c(k-2): every vertex at level l has exactly c(l) children, the
root is at level 0 and the leaves at level k-1.  Vertices are numbered
breadth-first, level by level, with the children of lower-indexed parents
first, so each level and each subtree occupies contiguous index ranges.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from numbers import Integral
from typing import Iterator, Sequence

MAX_VERTICES = 2**63 - 1


class InvalidSpecError(ValueError):
    """Raised for malformed tree specifications."""


class CapacityError(RuntimeError):
    """Raised when a request exceeds a configured size cap."""


@dataclass(frozen=True)
class SymmetricTreeSpec:
    """Children-per-level sequence of a symmetric tree.

    ``children[i]`` is the number of children of every level-i vertex.  An
    empty sequence is the single-vertex tree.  Counts must be integers (not
    bools or floats) from 1 up to the largest float, so that the level
    degrees are finite.
    """

    children: tuple[int, ...]

    def __init__(self, children: Sequence[int]):
        children = tuple(children)
        for c in children:
            if isinstance(c, bool) or not isinstance(c, Integral):
                raise InvalidSpecError(f"children counts must be integers, got {c!r}")
            if c < 1:
                raise InvalidSpecError(f"children counts must be >= 1, got {c}")
            if c > sys.float_info.max:
                raise InvalidSpecError("a children count is larger than the largest float")
        object.__setattr__(self, "children", tuple(int(c) for c in children))

    @property
    def levels(self) -> int:
        return len(self.children) + 1

    def populations(self) -> list[int]:
        """Vertex count per level: n(0)=1, n(l)=n(l-1)*c(l-1).  Exact ints."""
        pops = [1]
        for c in self.children:
            pops.append(pops[-1] * c)
        return pops

    def vertex_count(self) -> int:
        return sum(self.populations())

    def degree(self, level: int) -> int:
        """Degree shared by all vertices at ``level``."""
        k = self.levels
        if not 0 <= level < k:
            raise InvalidSpecError(f"level {level} out of range for {k}-level tree")
        if k == 1:
            return 0
        if level == 0:
            return self.children[0]
        if level == k - 1:
            return 1
        return self.children[level] + 1

    def tail(self, level: int) -> "SymmetricTreeSpec":
        """Spec of the subtree rooted at any level-``level`` vertex."""
        if not 0 <= level < self.levels:
            raise InvalidSpecError(f"level {level} out of range")
        return SymmetricTreeSpec(self.children[level:])


@dataclass(frozen=True)
class GluedTreeSpec:
    """Two symmetric trees identified at their roots.

    Right-subtree vertices are reported with negative levels so that every
    vertex has a larger absolute level than its parent.
    """

    left: SymmetricTreeSpec
    right: SymmetricTreeSpec

    def vertex_count(self) -> int:
        return self.left.vertex_count() + self.right.vertex_count() - 1


class TreeIndex:
    """Explicit breadth-first vertex numbering of a symmetric tree.

    Levels occupy contiguous ranges; within a level, descendants of a
    common ancestor are contiguous as well, which makes subtree extraction
    and level slicing O(1) range arithmetic.
    """

    def __init__(self, spec: SymmetricTreeSpec):
        self.spec = spec
        self.populations = spec.populations()
        self.n = sum(self.populations)
        if self.n > MAX_VERTICES:
            raise CapacityError(
                f"tree has {self.n} vertices, over the {MAX_VERTICES} indexing cap"
            )
        # offsets[l] = index of the first vertex at level l; sentinel at the end
        self.offsets = [0]
        for p in self.populations:
            self.offsets.append(self.offsets[-1] + p)

    @property
    def levels(self) -> int:
        return self.spec.levels

    def _check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")

    def level_of(self, v: int) -> int:
        self._check(v)
        return bisect_right(self.offsets, v) - 1

    def rank_in_level(self, v: int) -> int:
        """Position of v among the vertices of its level (0-based)."""
        return v - self.offsets[self.level_of(v)]

    def parent_of(self, v: int) -> int | None:
        self._check(v)
        l = self.level_of(v)
        if l == 0:
            return None
        t = v - self.offsets[l]
        return self.offsets[l - 1] + t // self.spec.children[l - 1]

    def children_of(self, v: int) -> range:
        self._check(v)
        l = self.level_of(v)
        if l == self.levels - 1:
            return range(0)
        c = self.spec.children[l]
        t = v - self.offsets[l]
        start = self.offsets[l + 1] + t * c
        return range(start, start + c)

    def identity_of(self, v: int) -> list[int]:
        """Child labels (1-based) along the root-to-v path."""
        self._check(v)
        labels: list[int] = []
        l = self.level_of(v)
        t = v - self.offsets[l]
        while l > 0:
            c = self.spec.children[l - 1]
            labels.append(t % c + 1)
            t //= c
            l -= 1
        labels.reverse()
        return labels

    def index_of(self, identity: Sequence[int]) -> int:
        l = len(identity)
        if l >= self.levels:
            raise IndexError(f"identity {list(identity)} deeper than the tree")
        t = 0
        for depth, label in enumerate(identity):
            c = self.spec.children[depth]
            if not 1 <= label <= c:
                raise IndexError(f"label {label} out of range at depth {depth}")
            t = t * c + (label - 1)
        return self.offsets[l] + t

    def subtree_ranges(self, v: int) -> list[range]:
        """Per-level contiguous index ranges of the maximal subtree at v."""
        self._check(v)
        lv = self.level_of(v)
        t = v - self.offsets[lv]
        ranges = []
        for l in range(lv, self.levels):
            m = self.populations[l] // self.populations[lv]
            start = self.offsets[l] + t * m
            ranges.append(range(start, start + m))
        return ranges

    def vertices(self) -> Iterator[int]:
        return iter(range(self.n))


def build_index(spec: SymmetricTreeSpec) -> TreeIndex:
    """Materialize the breadth-first numbering of a symmetric tree."""
    return TreeIndex(spec)


def subtree(index: TreeIndex, v: int) -> tuple[list[int], int]:
    """Vertex set of the maximal subtree rooted at v, plus v's level."""
    ranges = index.subtree_ranges(v)
    verts = [u for r in ranges for u in r]
    return verts, index.level_of(v)


@dataclass(frozen=True)
class RootedTree:
    """Generic rooted tree as a parent array (root's parent is -1).

    Used for arbitrary inputs to sign-graph counting and for realized
    glued trees.  ``signed_levels`` is populated for glued trees only.
    """

    parents: tuple[int, ...]
    signed_levels: tuple[int, ...] | None = None
    root: int = field(default=0)

    def __post_init__(self):
        n = len(self.parents)
        if n == 0:
            raise InvalidSpecError("a tree has at least one vertex")
        seen_root = False
        for v, p in enumerate(self.parents):
            if p == -1:
                if seen_root:
                    raise InvalidSpecError("multiple roots")
                seen_root = True
            elif not 0 <= p < n:
                raise InvalidSpecError(f"parent {p} of vertex {v} out of range")
        if not seen_root:
            raise InvalidSpecError("no root")

    @property
    def n(self) -> int:
        return len(self.parents)

    def edges(self) -> list[tuple[int, int]]:
        return [(p, v) for v, p in enumerate(self.parents) if p != -1]

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for p, v in self.edges():
            deg[p] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for p, v in self.edges():
            adj[p].append(v)
            adj[v].append(p)
        return adj

    @classmethod
    def from_index(cls, index: TreeIndex) -> "RootedTree":
        parents = tuple(
            -1 if (p := index.parent_of(v)) is None else p for v in range(index.n)
        )
        return cls(parents)


def realize_glued(spec: GluedTreeSpec) -> RootedTree:
    """Explicit tree for two symmetric trees sharing one root.

    The left tree keeps its breadth-first indices; right-tree non-root
    vertices are appended after it.  Right-side levels are negated.
    """
    left = build_index(spec.left)
    right = build_index(spec.right)
    nl = left.n
    parents = [-1 if (p := left.parent_of(v)) is None else p for v in range(nl)]
    levels = [left.level_of(v) for v in range(nl)]
    for v in range(1, right.n):
        p = right.parent_of(v)
        parents.append(0 if p == 0 else nl - 1 + p)
        levels.append(-right.level_of(v))
    return RootedTree(tuple(parents), signed_levels=tuple(levels))


def realize(spec: SymmetricTreeSpec | GluedTreeSpec) -> RootedTree:
    """Explicit parent-array tree of either spec kind."""
    if isinstance(spec, GluedTreeSpec):
        return realize_glued(spec)
    return RootedTree.from_index(build_index(spec))
