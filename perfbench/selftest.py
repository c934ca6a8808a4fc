"""Smoke self-test of the benchmark, on tiny seeded inputs.

    python3 perfbench/selftest.py

Runs every workload untraced and traced for about a second each and
asserts that every metric BENCHMARK.json names is emitted with its unit,
that no operation failed, that the traced self times add up to the traced
operations' wall time, and that the output checks reject wrong answers.
Last, it checks that the benchmark fails cleanly in a directory that holds
only BENCHMARK.json and this directory.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile

import numpy as np

import inputs
from run import HERE, ROOT, WORKLOADS, declared_metrics, result_line, run_worker

SECONDS = 1.0


def check_workload(name: str) -> None:
    for trace in (0, 1):
        record = run_worker(name, seed=0, seconds=SECONDS, trace=trace, tiny=True)
        assert record["failed"] == 0 and record["error_rate"] == 0.0, record["errors"]
        line = result_line(record, trace)
        for decl in declared_metrics(trace):
            metric = line["metrics"][decl["name"]]
            assert metric["unit"] == decl["unit"], decl
            assert isinstance(metric["value"], (int, float)), decl
        if trace:
            t = record["trace"]
            assert t["counter_errors"] == 0, t
            assert abs(t["self_s_sum"] - t["op_wall_s"]) <= 0.02 * t["op_wall_s"] + 1e-3, t
        else:
            assert record["env"]["blas_threads"] == "1", record["env"]
        print(f"ok  {name} trace={trace} attempted={record['attempted']}")


def spectrum_rows(inp: inputs.TreeInput) -> list[dict]:
    """Correct ``spectrum`` output rows, from the level references."""
    rows = []
    for (side, level), (mult, values) in inp.levels.items():
        extra = {"origin_side": side} if side else {}
        rows += [{"lambda": float(v), "multiplicity": mult, "origin_level": level, **extra}
                 for v in values]
    return rows


def check_checks() -> None:
    """The independent checks must reject a wrong answer."""
    inp = inputs.TreeInput(children=(2, 3))
    inp.levels = inputs.level_references(inp)
    inp.reference = inputs.reference_spectrum(inp)
    rows = spectrum_rows(inp)
    assert inputs.check_spectrum(inp, rows) is None
    rows[-1] = {**rows[-1], "lambda": rows[-1]["lambda"] * (1 + 1e-6)}
    assert inputs.check_spectrum(inp, rows) is not None

    # On a deep tree a wrong simple eigenvalue is far below the moments'
    # tolerance; only the level check sees it.
    for inp in (inputs.TreeInput(children=(3,) * 40),
                inputs.TreeInput(left=(2,) * 30, right=(4, 1, 3) * 8)):
        inp.levels = inputs.level_references(inp)
        rows = spectrum_rows(inp)
        assert inputs.check_spectrum(inp, rows) is None
        simple = next(i for i, r in enumerate(rows) if r["multiplicity"] == 1)
        rows[simple] = {**rows[simple], "lambda": rows[simple]["lambda"] + 1e-6}
        levels, inp.levels = inp.levels, None
        assert inputs.check_spectrum(inp, rows) is None
        inp.levels = levels
        assert inputs.check_spectrum(inp, rows) is not None
    assert inputs.check_verify([{"check": "x", "pass": False}]) is not None

    inp = inputs.TreeInput(children=(2, 3))
    parents = inputs.parent_array(inp.children)
    lam, vecs = np.linalg.eigh(inputs.dense_laplacian(parents))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        path = f"{workdir}/out.json"
        for broken in (False, True):
            if broken:
                vecs[0, 0] += 1e-3
            doc = [{"lambda": float(l), "vector": vecs[:, i].tolist()} for i, l in enumerate(lam)]
            with open(path, "w") as fh:
                json.dump(doc, fh)
            error = inputs.check_eigvecs(inp, path, random.Random(0))
            assert (error is not None) == broken, error
    finally:
        shutil.rmtree(workdir)
    print("ok  output checks reject wrong answers")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark exits nonzero, silently."""
    bare = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, f"{bare}/{HERE.name}", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("ok  bare directory fails without a result")


def main() -> int:
    for name in WORKLOADS:
        check_workload(name)
    check_checks()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
