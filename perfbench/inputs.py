"""Seeded workload inputs and independent checks of the program's outputs.

Nothing here calls a stratree solver: trees are numbered, Laplacians are
built and spectra are referenced with plain numpy, so a wrong answer from
the program cannot also be a wrong reference.

Every pool is stratified.  A pool is a fixed number of slots, each slot a
narrow band of the properties that drive the cost of an operation (depth
for ``spectrum``, vertex count and repeated-eigenvalue count for
``verify``, vertex count for ``eigvecs``), and the seed only picks the
tree inside each band.  Different seeds therefore give
different trees with the same cost profile, which keeps a run's aggregate
figures comparable across seeds.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

SPECTRUM_MOMENT_RTOL = 1e-9
SPECTRUM_REF_MAX_N = 500
SPECTRUM_REF_ATOL = 1e-8
EIGVEC_RESIDUAL_RTOL = 1e-8
EIGVEC_SAMPLES = 6
READ_CHUNK = 1 << 22
SIZE_BAND = 0.005
TOP_SLOT_EVERY = 4
# Shapes ``enumerate_shapes`` lists for the sized pools: children counts
# 1..SHAPE_CMAX, at most SHAPE_MAX_ONES single-child levels, at most
# SHAPE_MAX_LEN levels below the root.
SHAPE_CMAX = 5
SHAPE_MAX_ONES = 2
SHAPE_MAX_LEN = 11


@dataclass
class TreeInput:
    """One generated operation input: a symmetric tree or a glued pair."""

    children: tuple[int, ...] = ()
    left: tuple[int, ...] | None = None
    right: tuple[int, ...] | None = None
    cost: float = 0.0
    reference: np.ndarray | None = field(default=None, repr=False)
    levels: dict | None = field(default=None, repr=False)

    @property
    def glued(self) -> bool:
        return self.left is not None

    @property
    def n(self) -> int:
        if self.glued:
            return vertex_count(self.left) + vertex_count(self.right) - 1
        return vertex_count(self.children)

    def spec_doc(self) -> dict:
        if self.glued:
            return {"left": list(self.left), "right": list(self.right)}
        return {"children": list(self.children)}


# ---------------------------------------------------------------- trees


def populations(children) -> list[int]:
    pops = [1]
    for c in children:
        pops.append(pops[-1] * c)
    return pops


def vertex_count(children) -> int:
    return sum(populations(children))


def level_degrees(children) -> list[int]:
    """Degree of every vertex of each level of a symmetric tree."""
    k = len(children) + 1
    if k == 1:
        return [0]
    return [children[0]] + [children[l] + 1 for l in range(1, k - 1)] + [1]


def degree_moment(inp: TreeInput) -> int:
    """Exact sum over vertices of d(d+1), which is trace(L^2)."""

    def side(children, skip_root):
        pops, degs = populations(children), level_degrees(children)
        start = 1 if skip_root else 0
        return sum(p * d * (d + 1) for p, d in zip(pops[start:], degs[start:]))

    if not inp.glued:
        return side(inp.children, False)
    root = (inp.left[0] if inp.left else 0) + (inp.right[0] if inp.right else 0)
    return side(inp.left, True) + side(inp.right, True) + root * (root + 1)


def parent_array(children) -> np.ndarray:
    """Breadth-first numbering: level by level, children of lower-indexed
    parents first; the root's parent is -1."""
    parents = [np.array([-1])]
    first = 0
    for pop, c in zip(populations(children), children):
        parents.append(np.repeat(np.arange(first, first + pop), c))
        first += pop
    return np.concatenate(parents)


def glued_parent_array(left, right) -> np.ndarray:
    """Left tree keeps its numbering; right non-root vertices follow it."""
    pl, pr = parent_array(left), parent_array(right)
    nl = len(pl)
    tail = pr[1:]
    return np.concatenate([pl, np.where(tail == 0, 0, tail + nl - 1)])


def input_parents(inp: TreeInput) -> np.ndarray:
    if inp.glued:
        return glued_parent_array(inp.left, inp.right)
    return parent_array(inp.children)


def laplacian_apply(parents: np.ndarray, v: np.ndarray) -> np.ndarray:
    """L v for the tree with this parent array, without forming L."""
    n = len(parents)
    child = np.nonzero(parents >= 0)[0]
    par = parents[child]
    deg = np.bincount(par, minlength=n) + (parents >= 0)
    out = deg * v
    out[child] -= v[par]
    out -= np.bincount(par, weights=v[child], minlength=n)
    return out


def dense_laplacian(parents: np.ndarray) -> np.ndarray:
    n = len(parents)
    child = np.nonzero(parents >= 0)[0]
    par = parents[child]
    a = np.zeros((n, n))
    a[child, par] = -1.0
    a[par, child] = -1.0
    a[np.arange(n), np.arange(n)] = -a.sum(axis=1)
    return a


def reference_spectrum(inp: TreeInput) -> np.ndarray:
    return np.linalg.eigvalsh(dense_laplacian(input_parents(inp)))


def _tridiagonal_eigvalsh(diag, off) -> np.ndarray:
    m = len(diag)
    a = np.diag(np.asarray(diag, dtype=float))
    if m > 1:
        idx = np.arange(m - 1)
        a[idx, idx + 1] = a[idx + 1, idx] = off
    return np.linalg.eigvalsh(a)


def _side_levels(children, side: str | None, first: int) -> dict:
    """Level groups l0 >= first of a symmetric tree.

    An eigenfunction constant on each level of the subtree rooted at level
    l0 and vanishing above it solves a (k-l0)-row recurrence.  Balanced,
    its diagonal holds the levels' degrees and its off-diagonal sqrt(c).
    The group's multiplicity is the population jump at l0 (1 at the root),
    and a level below a single-child level has no group.
    """
    k = len(children) + 1
    pops, degs = populations(children), level_degrees(children)
    groups = {}
    for l0 in range(first, k):
        mult = 1 if l0 == 0 else pops[l0] - pops[l0 - 1]
        if mult:
            off = np.sqrt(np.asarray(children[l0:], dtype=float))
            groups[(side, l0)] = (mult, _tridiagonal_eigvalsh(degs[l0:], off))
    return groups


def level_references(inp: TreeInput) -> dict:
    """Expected rows of ``spectrum`` output, by (origin_side, origin_level):
    the multiplicity of every row in the group and its sorted eigenvalues.
    Symmetric trees have origin_side None.  A glued pair has each side's
    groups below its root plus the signed-level recurrence ("stratified",
    level 0), a path from the right's deepest level through the shared
    root to the left's deepest level."""
    if not inp.glued:
        return _side_levels(inp.children, None, 0)
    left, right = inp.left, inp.right
    groups = {**_side_levels(left, "left", 1), **_side_levels(right, "right", 1)}
    root = (left[0] if left else 0) + (right[0] if right else 0)
    diag = [*level_degrees(right)[:0:-1], root, *level_degrees(left)[1:]]
    off = np.sqrt(np.asarray([*right[::-1], *left], dtype=float))
    groups[("stratified", 0)] = (1, _tridiagonal_eigvalsh(diag, off))
    return groups


# --------------------------------------------------------------- shapes


def enumerate_shapes(max_n: int):
    """All children sequences with at most ``max_n`` vertices within the
    SHAPE_* limits, as (vertex count, children) pairs sorted by vertex
    count."""
    out: list[tuple[int, tuple[int, ...]]] = []

    def rec(seq, last, total, ones):
        if seq:
            out.append((total, tuple(seq)))
        if len(seq) >= SHAPE_MAX_LEN:
            return
        for c in range(1, SHAPE_CMAX + 1):
            grown = last * c
            if total + grown > max_n:
                break
            if c == 1 and ones >= SHAPE_MAX_ONES:
                continue
            seq.append(c)
            rec(seq, grown, total + grown, ones + (c == 1))
            seq.pop()

    rec([], 1, 1, 0)
    out.sort()
    return out


def _in_band(shapes, counts, lo: float, hi: float):
    """Shapes with lo <= |V| <= hi; ``counts`` holds the shapes' |V|."""
    return shapes[bisect_left(counts, lo) : bisect_right(counts, hi)]


def _matched_shape(rng: random.Random, shapes, counts, centre: float) -> tuple[int, ...]:
    """A shape with |V| within SIZE_BAND of ``centre`` (at least two
    vertices either way), from a class of shapes that cost about the same.

    The class holds the shapes of the band with its median cluster count
    that share |V|, depth and leaf count; the largest such class is taken
    (the lowest key on a tie), and the seed picks a shape within it.
    Shapes of one size but another depth or cluster count took up to 25%
    longer to verify, enough to move a run's median.
    """
    half = max(SIZE_BAND * centre, 2.0)
    band = [s[1] for s in _in_band(shapes, counts, centre - half, centre + half)]
    if not band:
        raise RuntimeError(f"no shape with {centre:.0f} vertices")
    target = sorted(cluster_count(c) for c in band)[len(band) // 2]
    classes: dict[tuple, list] = {}
    for c in band:
        if cluster_count(c) == target:
            classes.setdefault((vertex_count(c), len(c), populations(c)[-1]), []).append(c)
    key = min(classes, key=lambda k: (-len(classes[k]), k))
    return rng.choice(classes[key])


def _path_levels(rng: random.Random, k: int, share: float) -> tuple[int, ...]:
    """Children per level with a ``share`` of single-child (path) levels.

    The path levels are spread evenly (systematic sampling at a fixed
    phase) and each branching level draws its c from SPECTRUM_C.  Which
    levels branch sets the bisection work and c does not change it, so the
    seed picks only the c's: a seeded phase changed the work (rows times
    probes) by up to 50% between seeds.
    """
    m = k - 1
    n_path = round(share * m)
    paths = {int((j + 0.5) * m / n_path) for j in range(n_path)} if n_path else set()
    return tuple(1 if i in paths else rng.choice(SPECTRUM_C) for i in range(m))


def _bisection_cost(children) -> float:
    """Rows times probes of the level solves, the spectrum path's work."""
    k = len(children) + 1
    return float(
        sum((k - l0) ** 2 for l0 in range(k) if l0 == 0 or children[l0 - 1] > 1)
    )


# ---------------------------------------------------------------- pools

SPECTRUM_SHARES = (0.0, 0.5, 0.9)
SPECTRUM_C = (2, 3, 4)


def spectrum_pool(rng: random.Random, tiny: bool = False) -> list[TreeInput]:
    """Deep symmetric trees, one op in four a glued pair.

    Depth k in 8..64 and per-side depth 4..32 are cut into equal bands;
    each band is crossed with every path share so the mix of deep and
    path-like trees is the same for every seed.  Depth sits at its band's
    centre and the path levels at fixed positions; the seed picks the c of
    every branching level.  Depth and path positions drive the cost, so
    drawing them would make a run's figures depend on the seed.
    """
    k_lo, k_hi, side_lo, side_hi = (4, 8, 3, 5) if tiny else (8, 64, 4, 32)
    bands = 2 if tiny else 3
    pool = []
    for b in range(bands):
        for share in SPECTRUM_SHARES:
            children = _path_levels(rng, _band_centre(k_lo, k_hi, b, bands), share)
            pool.append(TreeInput(children=children, cost=_bisection_cost(children)))
        glued_share = SPECTRUM_SHARES[b % len(SPECTRUM_SHARES)]
        left, right = (
            _path_levels(rng, _band_centre(side_lo, side_hi, sb, bands), glued_share)
            for sb in (b, bands - 1 - b)
        )
        cost = _bisection_cost(left) + _bisection_cost(right) + float(len(left) + len(right) + 1) ** 2
        pool.append(TreeInput(left=left, right=right, cost=cost))
    for inp in pool:
        inp.levels = level_references(inp)
        if inp.n <= SPECTRUM_REF_MAX_N:
            inp.reference = reference_spectrum(inp)
    return pool


def _band_centre(lo: int, hi: int, band: int, bands: int) -> int:
    """The centre of the band-th of ``bands`` equal slices of lo..hi."""
    return lo + round((band + 0.5) * (hi - lo) / bands)


def cluster_count(children) -> int:
    """Repeated eigenvalues of a symmetric tree, counted from its shape:
    each level l0 >= 1 whose population jump exceeds 1 contributes k - l0
    of them.  A jump of 1 (a root with two children) gives simple
    eigenvalues.  The dense oracle's purification does one dense solve
    per cluster, so this and |V| set the cost of ``verify``."""
    k = len(children) + 1
    pops = populations(children)
    return sum(k - l0 for l0 in range(1, k) if pops[l0] - pops[l0 - 1] > 1)


def _sized_pool(rng, centres, glued_every=0):
    """One tree per slot, its |V| near the slot's centre (``_matched_shape``).

    Every ``glued_every``-th slot is a glued pair, its left side a third of
    the vertices and each side a matched shape.
    """
    shapes = enumerate_shapes(int(max(centres) * (1 + SIZE_BAND)) + 2)
    counts = [s[0] for s in shapes]
    pool = []
    for i, centre in enumerate(centres):
        if glued_every and i % glued_every == glued_every - 1:
            left = _matched_shape(rng, shapes, counts, (centre + 1) / 3)
            right = _matched_shape(rng, shapes, counts, centre + 1 - vertex_count(left))
            inp = TreeInput(left=left, right=right)
        else:
            inp = TreeInput(children=_matched_shape(rng, shapes, counts, centre))
        inp.cost = float(inp.n)
        pool.append(inp)
    return pool


def log_centres(lo: float, hi: float, slots: int, power: float = 0.0) -> list[float]:
    """Geometric centres of ``slots`` contiguous bands over lo..hi of equal
    width in n**-power (in log n for power 0).  One tree per band samples
    |V| with density n**-(power+1)."""
    if power == 0:
        edges = [lo * (hi / lo) ** (i / slots) for i in range(slots + 1)]
    else:
        a, b = lo**-power, hi**-power
        edges = [(a + (b - a) * i / slots) ** (-1.0 / power) for i in range(slots + 1)]
    return [math.sqrt(x * y) for x, y in zip(edges, edges[1:])]


def verify_pool(rng: random.Random, tiny: bool = False) -> list[TreeInput]:
    """Desk-size trees, |V| log-uniform over 100..800, one in four glued.

    A symmetric spec costs three dense oracle solves and a glued pair one,
    so a slot's cost is oracle solves times |V|^3: a glued pair of 700
    vertices runs faster than a symmetric tree of 540.
    """
    if tiny:
        pool = _sized_pool(rng, log_centres(10, 40, 4), glued_every=4)
    else:
        pool = _sized_pool(rng, log_centres(100, 800, 8), glued_every=4)
    for inp in pool:
        inp.cost = (1.0 if inp.glued else 3.0) * float(inp.n) ** 3
    return pool


def eigvecs_pool(rng: random.Random, tiny: bool = False) -> list[TreeInput]:
    """|V| over 300..2100 with density |V|**-3.

    An eigvecs op costs about |V|**2, so with that density every octave
    of |V| takes about the same share of the run's time and many small
    trees give the latency percentiles enough samples.  The top slot,
    |V| near 1290, sets the run's peak memory.
    """
    if tiny:
        return _sized_pool(rng, log_centres(10, 60, 4, 2))
    return _sized_pool(rng, log_centres(300, 2100, 8, 2))


def visit_order(pool: list[TreeInput]) -> list[int]:
    """One cycle of pool indices, TOP_SLOT_EVERY passes long.

    A pass visits every slot, costliest first, in bit-reversed rank order;
    then the cheaper half, through the median slot, once more in the same
    order.  The costliest slot is in the first pass only.

    Any prefix of the first pass samples the cost range evenly, so a run
    cut short by its deadline still sees the workload's stated mix, and
    the costliest slot, which sets peak memory, runs first.  The latency
    figures take each slot's median over its repeats and weigh every slot
    the same however often it runs.  Neither the median nor the tail is the
    costliest slot, which took a quarter of a run's time when it ran
    every pass, so running it less and the cheap half twice gives the
    slots those figures come from more repeats in the same time.
    """
    ranked = sorted(range(len(pool)), key=lambda i: -pool[i].cost)

    def radical_inverse(i: int) -> float:
        x, base = 0.0, 0.5
        while i:
            x += base * (i & 1)
            i >>= 1
            base *= 0.5
        return x

    slots = sorted(range(len(pool)), key=radical_inverse)
    order = [ranked[s] for s in slots]
    cheap = set(ranked[(len(pool) - 1) // 2 :])
    first = order + [i for i in order if i in cheap]
    rest = [i for i in first if i != ranked[0]]
    return first + rest * (TOP_SLOT_EVERY - 1)


# --------------------------------------------------------------- checks


def check_spectrum(inp: TreeInput, rows) -> str | None:
    """Exact vertex count and the first two spectral moments; every level
    group against its own recurrence, so that a wrong eigenvalue of
    multiplicity 1 shows even where it is far below the moments'
    tolerance; and the dense reference for small trees."""
    if not isinstance(rows, list) or not rows:
        return "spectrum output is not a nonempty list"
    n = inp.n
    mults = [r["multiplicity"] for r in rows]
    if any(not isinstance(m, int) or m < 1 for m in mults):
        return "multiplicities must be positive integers"
    if sum(mults) != n:
        return f"multiplicities sum to {sum(mults)}, |V| is {n}"
    lams = [float(r["lambda"]) for r in rows]
    first = math.fsum(m * lam for m, lam in zip(mults, lams))
    second = math.fsum(m * lam * lam for m, lam in zip(mults, lams))
    for name, got, want in (
        ("sum of eigenvalues", first, 2 * (n - 1)),
        ("sum of squared eigenvalues", second, degree_moment(inp)),
    ):
        if abs(got - want) > SPECTRUM_MOMENT_RTOL * max(abs(want), 1):
            return f"{name} is {got!r}, expected {want}"
    if inp.levels is not None:
        error = _check_levels(inp.levels, rows, lams)
        if error:
            return error
    if inp.reference is not None:
        expanded = np.sort(np.repeat(np.array(lams), mults))
        dev = float(np.max(np.abs(expanded - inp.reference)))
        if dev > SPECTRUM_REF_ATOL:
            return f"spectrum deviates from the dense reference by {dev:.3g}"
    return None


def _check_levels(levels: dict, rows, lams) -> str | None:
    groups: dict = {}
    for r, lam in zip(rows, lams):
        key = (r.get("origin_side"), r.get("origin_level"))
        groups.setdefault(key, ([], []))
        groups[key][0].append(r["multiplicity"])
        groups[key][1].append(lam)
    if groups.keys() != levels.keys():
        return f"level groups {sorted(groups, key=str)}, expected {sorted(levels, key=str)}"
    for key, (mult, want) in levels.items():
        got_mults, got = groups[key]
        if len(got) != len(want) or any(m != mult for m in got_mults):
            return f"level group {key}: {len(got)} rows, expected {len(want)} of multiplicity {mult}"
        dev = float(np.max(np.abs(np.sort(got) - want)))
        if dev > SPECTRUM_REF_ATOL:
            return f"level group {key} deviates from its recurrence by {dev:.3g}"
    return None


def check_verify(rows) -> str | None:
    if not isinstance(rows, list) or not rows:
        return "verify output is not a nonempty list"
    failing = [r.get("check") for r in rows if r.get("pass") is not True]
    return f"checks failed: {failing}" if failing else None


def _row_offsets(path: str) -> list[int]:
    """Byte offset of every '{' in the file.  Eigvecs rows are flat JSON
    objects and hold no braces inside strings, so each brace starts a row,
    whatever the indentation."""
    offsets = []
    base = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(READ_CHUNK):
            at = chunk.find(b"{")
            while at >= 0:
                offsets.append(base + at)
                at = chunk.find(b"{", at + 1)
            base += len(chunk)
    return offsets


def _read_row(path: str, offset: int, size_hint: int) -> dict:
    decoder = json.JSONDecoder()
    with open(path, "rb") as fh:
        while True:
            fh.seek(offset)
            text = fh.read(size_hint).decode()
            try:
                return decoder.raw_decode(text)[0]
            except json.JSONDecodeError:
                if len(text) < size_hint:
                    raise
                size_hint *= 2


def check_eigvecs(inp: TreeInput, path: str, rng: random.Random) -> str | None:
    """Row count, and the residual of sampled vectors against a Laplacian
    built here.  Reads the file in chunks so the check adds little to the
    process's peak memory."""
    n = inp.n
    offsets = _row_offsets(path)
    if len(offsets) != n:
        return f"{len(offsets)} eigvecs rows for |V|={n}"
    parents = input_parents(inp)
    picks = {0, n - 1, *rng.sample(range(n), min(n, EIGVEC_SAMPLES))}
    for i in sorted(picks):
        row = _read_row(path, offsets[i], 32 * n + 256)
        v = np.asarray(row["vector"], dtype=float)
        if v.shape != (n,):
            return f"row {i} has a vector of length {len(v)}"
        scale = float(np.max(np.abs(v)))
        if scale == 0.0:
            return f"row {i} is the zero vector"
        lam = float(row["lambda"])
        res = float(np.max(np.abs(laplacian_apply(parents, v) - lam * v)))
        if res > EIGVEC_RESIDUAL_RTOL * scale * max(1.0, abs(lam)):
            return f"row {i}: residual {res:.3g} at lambda {lam!r}"
    return None
