"""Rooted-tree models: symmetric (balanced) trees, glued trees, and the
parent-array tree that is the only explicit form of either.

A symmetric tree is fully described by its children-per-level sequence
c(0), ..., c(k-2): every vertex at level l has exactly c(l) children, the
root is at level 0 and the leaves at level k-1.  Vertices are numbered
breadth-first, level by level, with the children of lower-indexed parents
first, so each level and each subtree occupies contiguous index ranges.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

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


def _frozen(values) -> np.ndarray:
    """An int64 copy of ``values`` that cannot be written to."""
    a = np.array(values, dtype=np.int64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RootedTree:
    """Generic rooted tree as a read-only int64 parent array (root's parent
    is -1).

    Used for arbitrary inputs to sign-graph counting and for realized
    trees of either spec kind.
    """

    parents: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.parents)
        n = p.size
        if n == 0:
            raise InvalidSpecError("a tree has at least one vertex")
        if p.ndim != 1 or p.dtype.kind not in "iu":
            raise InvalidSpecError("a parent array is a flat sequence of integers")
        bad = np.flatnonzero((p < -1) | (p >= n))
        if bad.size:
            raise InvalidSpecError(f"parent {p[bad[0]]} of vertex {bad[0]} out of range")
        roots = np.flatnonzero(p == -1)
        if roots.size != 1:
            raise InvalidSpecError("no root" if roots.size == 0 else "multiple roots")
        # Pointer doubling: after j rounds up[v] is v's 2^j-th ancestor, or
        # the root, which points at itself.  Every vertex of a tree is
        # within n - 1 steps of the root; one on a cycle never gets there.
        root = roots[0]
        up = np.where(p == -1, root, p)
        hops = 1
        while hops < n and not np.all(up == root):
            up = up[up]
            hops *= 2
        stray = np.flatnonzero(up != root)
        if stray.size:
            raise InvalidSpecError(f"vertex {stray[0]} does not reach the root")
        object.__setattr__(self, "parents", _frozen(p))

    @property
    def n(self) -> int:
        return len(self.parents)


def _breadth_first_parents(spec: SymmetricTreeSpec) -> np.ndarray:
    """Parent array of the breadth-first numbering of a symmetric tree.

    The root's -1 comes first, then every vertex above the leaf level, in
    index order, once per child.  A tree over the indexing cap, or one
    whose array cannot be allocated, is a ``CapacityError``.
    """
    n = spec.vertex_count()
    if n > MAX_VERTICES:
        raise CapacityError(f"tree has {n} vertices, over the {MAX_VERTICES} indexing cap")
    pops = spec.populations()
    try:
        fanout = np.repeat([1, *spec.children], [1, *pops[:-1]])
        return np.repeat(np.arange(-1, len(fanout) - 1), fanout)
    except MemoryError:
        raise CapacityError(f"the parent array of a {n}-vertex tree does not fit in memory") from None


def realize_glued(spec: GluedTreeSpec) -> RootedTree:
    """Explicit tree for two symmetric trees sharing one root.

    The left tree keeps its breadth-first indices; right-tree non-root
    vertices are appended after it, in their own breadth-first order.
    """
    left = _breadth_first_parents(spec.left)
    up = _breadth_first_parents(spec.right)[1:]
    return RootedTree(np.concatenate((left, np.where(up == 0, 0, up + len(left) - 1))))


def realize(spec: SymmetricTreeSpec | GluedTreeSpec) -> RootedTree:
    """Explicit parent-array tree of either spec kind."""
    if isinstance(spec, GluedTreeSpec):
        return realize_glued(spec)
    return RootedTree(_breadth_first_parents(spec))
