"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with ``pytest -s`` to see them on success).
"""

import itertools
import random
import time

import numpy as np
import pytest

from stratree.decompose import (
    counting_identity,
    decompose_spectrum,
    expanded_spectrum,
    full_eigenbasis,
)
from stratree.eigen import dense_eigenvalues
from stratree.glued import glued_spectrum, glued_vectors
from stratree.laplacian import dense
from stratree.nodal import ZERO_TOL, count_sign_graphs, level_nodal_records
from stratree.tree import (
    GluedTreeSpec,
    SymmetricTreeSpec,
    realize,
    realize_glued,
)

from reference import dense_rows, row_facts

SPECTRUM_TOL = 1e-8
RESIDUAL_TOL = 1e-9
RANK_THRESHOLD = 1e-8


def sweep_specs(max_len, max_child, max_vertices):
    specs = []
    for length in range(max_len + 1):
        for children in itertools.product(range(1, max_child + 1), repeat=length):
            spec = SymmetricTreeSpec(children)
            if spec.vertex_count() <= max_vertices:
                specs.append(spec)
    return specs


@pytest.fixture(scope="module")
def sweep():
    """k <= 5, c(i) <= 4, |V| <= 400: each spec with its oracle eigenvalues."""
    out = []
    for spec in sweep_specs(4, 4, 400):
        tree = realize(spec)
        out.append((spec, tree, dense_eigenvalues(tree)))
    return out


def report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_oracle_equivalence(sweep):
    t0 = time.perf_counter()
    worst = 0.0
    for spec, _, vals in sweep:
        fast = expanded_spectrum(decompose_spectrum(spec))
        worst = max(worst, float(np.max(np.abs(fast - vals))))
    elapsed = time.perf_counter() - t0
    report(
        "criterion-1 oracle equivalence",
        worst <= SPECTRUM_TOL and elapsed < 60.0,
        f"{len(sweep)} specs, max deviation {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_counting_identity():
    rng = random.Random(20260824)
    failures = 0
    for _ in range(1000):
        k = rng.randint(1, 40)
        children = [rng.randint(1, 6) for _ in range(k - 1)]
        lhs, total = counting_identity(SymmetricTreeSpec(children))
        if lhs != total:
            failures += 1
    report("criterion-2 counting identity", failures == 0, f"1000 random specs, {failures} failures")


def test_criterion_3_star_closed_form():
    worst = 0.0
    for c in range(2, 11):
        expected = sorted([0.0] + [1.0] * (c - 1) + [c + 1.0])
        got = expanded_spectrum(decompose_spectrum(SymmetricTreeSpec([c])))
        worst = max(worst, float(np.max(np.abs(got - expected))))
    report("criterion-3 star closed form", worst <= 1e-10, f"c in 2..10, max deviation {worst:.3e}")


def test_criterion_4_eigenbasis_certificate(sweep):
    ok = True
    worst = 0.0
    for spec, _, _ in sweep:
        basis = full_eigenbasis(spec)
        if basis.n != spec.vertex_count():
            ok = False
            continue
        scales = np.max(np.abs(dense_rows(basis.vectors)), axis=1)
        rel = float(np.max(row_facts(basis).residuals / scales))
        worst = max(worst, rel)
        if rel > RESIDUAL_TOL or not basis.full_rank(RANK_THRESHOLD):
            ok = False
    report(
        "criterion-4 eigenbasis certificate",
        ok and worst <= RESIDUAL_TOL,
        f"{len(sweep)} specs, max relative residual {worst:.3e}",
    )


def test_criterion_5_nodal_bounds(sweep):
    # on the constructed basis, counted from its level values at the
    # oracle's eigenvalues, as verify and nodal judge it
    bad = checked = 0
    for spec, _, vals in sweep:
        records = level_nodal_records(vals, full_eigenbasis(spec).vectors, cluster_tol=SPECTRUM_TOL)
        zero_free = records.zero_count == 0
        checked += len(records.passed) + int(np.count_nonzero(zero_free))
        bad += int(np.count_nonzero(~records.passed) + np.count_nonzero(zero_free & ~records.zero_free))
    report(
        "criterion-5 nodal bounds",
        bad == 0,
        f"{len(sweep)} specs; constructed basis: {checked} checks, {bad} failures",
    )


def eigh_counts_on_simple_rows(spec, vectors):
    """(rows checked, rows whose sign graphs or zeros differ) over the
    simple eigenvalues of ``spec``'s Laplacian: the level counts of the
    constructed basis against ``count_sign_graphs`` on LAPACK's own
    eigenvectors, each at the level counts' threshold relative to its
    largest magnitude.  A simple eigenvalue has one eigenvector up to sign,
    so the two must agree."""
    tree = realize(spec)
    vals = dense_eigenvalues(tree)
    records = level_nodal_records(vals, vectors, cluster_tol=SPECTRUM_TOL)
    vecs = np.linalg.eigh(dense(tree))[1]
    raw = count_sign_graphs(tree, vecs, ZERO_TOL * np.max(np.abs(vecs), axis=0))
    simple = records.multiplicity == 1
    differ = (raw.total != records.sign_graphs) | (raw.zero_count != records.zero_count)
    return int(np.count_nonzero(simple)), int(np.count_nonzero(simple & differ))


def test_criterion_5_simple_rows_match_lapack_vectors(sweep):
    checked = bad = 0
    glued = [GluedTreeSpec(left, right) for left in sweep_specs(2, 3, 20) for right in sweep_specs(2, 3, 20)]
    for spec, vectors in [
        *((spec, full_eigenbasis(spec).vectors) for spec, _, _ in sweep),
        *((spec, glued_vectors(spec)) for spec in glued),
    ]:
        rows, differ = eigh_counts_on_simple_rows(spec, vectors)
        checked, bad = checked + rows, bad + differ
    report(
        "criterion-5 simple rows match LAPACK's vectors",
        bad == 0 and checked > 0,
        f"{len(sweep)} symmetric and {len(glued)} glued specs; {checked} simple rows, {bad} differ",
    )


def test_criterion_6_multiplicity_lower_bound(sweep):
    bad = 0
    checked = 0
    for spec, _, vals in sweep:
        pops = spec.populations()
        spectrum = decompose_spectrum(spec)
        for value, l0 in zip(spectrum.values.tolist(), spectrum.origin_level.tolist()):
            if l0 < 1:
                continue
            checked += 1
            oracle_mult = int(np.sum(np.abs(vals - value) <= SPECTRUM_TOL))
            if oracle_mult < pops[l0] - pops[l0 - 1]:
                bad += 1
    report("criterion-6 multiplicity lower bound", bad == 0, f"{checked} lines, {bad} violations")


def test_criterion_7_glued_equivalence():
    specs = sweep_specs(3, 3, 300)
    worst = 0.0
    pairs = 0
    for left in specs:
        for right in specs:
            gspec = GluedTreeSpec(left, right)
            if gspec.vertex_count() > 300:
                continue
            pairs += 1
            fast = expanded_spectrum(glued_spectrum(gspec))
            vals = dense_eigenvalues(realize_glued(gspec))
            worst = max(worst, float(np.max(np.abs(fast - vals))))
    # star-gluing sanity: left=[a], right=[b] is the star on a+b leaves
    star_worst = 0.0
    for a in range(1, 4):
        for b in range(1, 4):
            gspec = GluedTreeSpec(SymmetricTreeSpec([a]), SymmetricTreeSpec([b]))
            got = expanded_spectrum(glued_spectrum(gspec))
            expected = sorted([0.0] + [1.0] * (a + b - 1) + [a + b + 1.0])
            star_worst = max(star_worst, float(np.max(np.abs(got - expected))))
    report(
        "criterion-7 glued equivalence",
        worst <= SPECTRUM_TOL and star_worst <= SPECTRUM_TOL,
        f"{pairs} pairs, max deviation {worst:.3e}, star deviation {star_worst:.3e}",
    )


def test_criterion_8_performance():
    spec17 = SymmetricTreeSpec([2] * 16)
    spec50 = SymmetricTreeSpec([3] * 49)
    decompose_spectrum(spec17)  # warm-up
    best17 = min(
        _timed(lambda: decompose_spectrum(spec17)) for _ in range(3)
    )
    total17 = sum(decompose_spectrum(spec17).multiplicity())
    best50 = min(
        _timed(lambda: decompose_spectrum(spec50)) for _ in range(3)
    )
    total50 = sum(decompose_spectrum(spec50).multiplicity())
    ok = (
        best17 < 0.100
        and total17 == 131071
        and best50 < 1.0
        and total50 == spec50.vertex_count()
    )
    report(
        "criterion-8 performance",
        ok,
        f"k=17: {best17 * 1e3:.1f}ms ({total17} states); k=50: {best50:.2f}s (|V|={total50})",
    )


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_9_stratification_structure():
    bad = 0
    total = 0
    for spec in [SymmetricTreeSpec(c) for c in ([2], [3, 2], [2, 2, 2], [4, 1, 3], [2, 3, 2, 2])]:
        offsets = np.cumsum([0, *spec.populations()])
        basis = full_eigenbasis(spec)
        vectors, kinds = dense_rows(basis.vectors), row_facts(basis).construction
        for i in range(basis.n):
            if kinds[i] != "stratified":
                continue
            total += 1
            f = vectors[i]
            for l in range(spec.levels):
                level = f[offsets[l] : offsets[l + 1]]
                if not np.all(level == level[0]):
                    bad += 1
                    break
    report(
        "criterion-9 stratification structure",
        bad == 0 and total > 0,
        f"{total} stratified vectors, {bad} not exactly level-constant",
    )
