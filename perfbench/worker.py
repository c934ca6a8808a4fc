"""One workload in one fresh process: set up, run the timed phase, print
one JSON record on stdout.

``run.py`` starts this file with BLAS pinned to one thread.  Operations
run in a closed loop with one client: each call of ``stratree.cli.main``
starts after the previous one returned and its output was checked.  Only
the call itself is timed, and a speed probe right before it; the output
check runs between calls, inside the phase's wall-clock budget.

With ``--trace 1`` the budget is split: an untraced half, then the same
visit order again with the tracer installed.  The per-layer figures come
from the traced half, and the ratio of the two halves' throughput is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import inputs
from spans import HARNESS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SETUP_SAMPLES = 5
IMPORT_PROBE = "import sys, time; sys.path.insert(0, 'src'); import stratree.cli; print(time.time())"
RAW_TAIL_BEYOND = 10
# The speed probe: a fixed amount of interpreter work, JSON encoding and
# LAPACK, the three kinds of work the workloads spend their time in.
PROBE_LOOP = 20_000
PROBE_FLOATS = np.random.default_rng(0).standard_normal(1500).tolist()
PROBE_MATRIX = np.random.default_rng(1).standard_normal((110, 110))
PROBE_MATRIX = PROBE_MATRIX + PROBE_MATRIX.T
# The machine's speed at an operation is the median probe time of the
# operations within PROBE_WINDOW of it, either side: that follows drifts
# of a second or more, and not the jitter of a single 5 ms probe.
PROBE_WINDOW = 4


def probe_seconds() -> float:
    """Wall time of one run of the speed probe.

    The probe is independent of stratree, so its time measures only how
    fast the machine runs at that moment.  It is timed right before each
    operation.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    json.dumps(PROBE_FLOATS)
    np.linalg.eigh(PROBE_MATRIX)
    return perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    command: str
    pool: Callable[[random.Random, bool], list]
    fmt_args: tuple[str, ...]


# Why each workload exists is written in README.md and BENCHMARK.json.
WORKLOADS = {
    "spectrum_deep": Workload("spectrum", inputs.spectrum_pool, ("--format", "json")),
    "verify_desk": Workload("verify", inputs.verify_pool, ()),
    "eigvecs_out": Workload("eigvecs", inputs.eigvecs_pool, ("--format", "json")),
}


def import_stratree():
    sys.path.insert(0, str(ROOT / "src"))
    import stratree.cli

    where = Path(stratree.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise ImportError(f"stratree imported from {where}, not from this checkout's src/")
    return stratree.cli


def import_seconds() -> float:
    """Seconds from starting a fresh interpreter to having imported stratree."""
    start = time.time()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=60, check=True,
    )
    return float(proc.stdout) - start


class Run:
    """Inputs of one workload and the loop that drives the CLI with them."""

    def __init__(self, name: str, seed: int, workdir: str, tiny: bool):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.out = os.path.join(workdir, "out.json")

    def setup(self, cli) -> float:
        """Generate the pool, its references and spec files, warm up once."""
        t0 = perf_counter()
        rng = random.Random(f"{self.name}/{self.seed}")
        self.pool = self.workload.pool(rng, self.tiny)
        self.order = inputs.visit_order(self.pool)
        self.argvs = []
        for i, inp in enumerate(self.pool):
            if inp.glued:
                path = os.path.join(self.workdir, f"spec{i}.json")
                with open(path, "w") as fh:
                    json.dump(inp.spec_doc(), fh)
                spec_args = ["--spec", path]
            else:
                spec_args = ["--children", ",".join(map(str, inp.children))]
            self.argvs.append(
                [self.workload.command, *spec_args, *self.workload.fmt_args, "--out", self.out]
            )
        self.check_rng = random.Random(f"{self.name}/{self.seed}/check")
        cheapest = min(range(len(self.pool)), key=lambda i: self.pool[i].cost)
        error = self.check(cheapest, cli.main(self.argvs[cheapest]))
        if error:
            raise RuntimeError(f"warm-up operation failed: {error}")
        return perf_counter() - t0

    def check(self, i: int, rc) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        inp = self.pool[i]
        if self.workload.command == "eigvecs":
            return inputs.check_eigvecs(inp, self.out, self.check_rng)
        with open(self.out) as fh:
            rows = json.load(fh)
        if self.workload.command == "spectrum":
            return inputs.check_spectrum(inp, rows)
        return inputs.check_verify(rows)

    def phase(self, cli, seconds: float, tracer: Tracer | None = None, setup_samples: int = 0) -> dict:
        """Closed loop over the visit order until ``seconds`` have passed.

        ``setup_samples`` more set-ups, each with a fresh interpreter's
        import time, are spread evenly over the phase, so that set-up time
        is sampled across the run as the operations are.
        """
        times, probes, errors = [], [], []
        by_slot: dict[int, list[tuple[float, int]]] = {}
        setups: dict[str, list[float]] = {"import_s": [], "setup_s": []}
        attempted = failed = bytes_out = 0
        start = perf_counter()
        while attempted == 0 or perf_counter() - start < seconds:
            if len(setups["setup_s"]) < setup_samples * (perf_counter() - start) / seconds:
                setups["import_s"].append(import_seconds())
                setups["setup_s"].append(self.setup(cli))
            i = self.order[attempted % len(self.order)]
            attempted += 1
            if os.path.exists(self.out):
                os.remove(self.out)
            gc.collect()  # the probe and the op start from a collected heap
            probes.append(probe_seconds())
            t0 = perf_counter()
            try:
                if tracer is None:
                    rc = cli.main(self.argvs[i])
                else:
                    rc = tracer.call(HARNESS, "op", cli.main, (self.argvs[i],), {})
                error = None
            except SystemExit as exc:
                rc, error = exc.code, None
            except Exception as exc:  # an operation that raises is counted, not fatal
                rc, error = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if os.path.exists(self.out):
                bytes_out += os.path.getsize(self.out)
            error = error or self.check(i, rc)
            if error:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{self.argvs[i][:3]}: {error}")
            else:
                times.append(dt)
                by_slot.setdefault(i, []).append((dt, len(probes) - 1))
        while len(setups["setup_s"]) < setup_samples:
            setups["import_s"].append(import_seconds())
            setups["setup_s"].append(self.setup(cli))
        return {
            "attempted": attempted,
            "failed": failed,
            "errors": errors,
            "times": times,
            "probes": probes,
            "by_slot": by_slot,
            "wall_s": perf_counter() - start,
            "bytes_out": bytes_out,
            "setups": setups,
        }


def quantile(xs: list[float], q: float) -> float:
    """Linearly interpolated q-quantile of sorted values."""
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(ph: dict) -> dict:
    """Latency and throughput at the stated mix, one figure per input.

    Every pool slot runs several times in a run, and every slot weighs the
    same, so the figures describe the program at the pool's mix wherever
    the deadline cut the last pass.  A slot's figure is the median over
    its runs.  A shared virtual machine's speed swings by up to 2x, for
    seconds or for a whole run, so the declared figures are in probe
    units: each operation's wall time divided by the machine's speed at
    that moment, the median probe time of the operations around it.  The
    same figures in wall-clock milliseconds are kept alongside.

    The tail is the highest of the S slots' figures that has one slot
    beyond it, the quantile at (S-2)/(S-1).  S is fixed by the workload,
    so the tail does not move to another slot when the program gets
    faster, and the costliest slot alone cannot move it.  Raw percentiles
    over all N samples are kept too, the raw tail at the highest
    percentile with at least RAW_TAIL_BEYOND samples beyond it.
    """
    raw = sorted(ph["times"])
    n = len(raw)
    if n == 0:
        return {"samples": 0}
    probes = ph["probes"]

    def speed(k: int) -> float:
        return statistics.median(probes[max(k - PROBE_WINDOW, 0) : k + PROBE_WINDOW + 1])

    slots = sorted(ph["by_slot"].items())
    slot_ms = {i: 1000.0 * statistics.median(dt for dt, _ in runs) for i, runs in slots}
    slot_probe = {i: statistics.median(dt / speed(k) for dt, k in runs) for i, runs in slots}
    wall, rel = sorted(slot_ms.values()), sorted(slot_probe.values())
    tail_q = (len(rel) - 2) / (len(rel) - 1) if len(rel) > 2 else 1.0
    raw_tail_q = (n - RAW_TAIL_BEYOND) / n if n > RAW_TAIL_BEYOND else 1.0
    return {
        "samples": n,
        "slots_timed": len(rel),
        "op_p50_probe": quantile(rel, 0.5),
        "op_tail_probe": quantile(rel, tail_q),
        "tail_percentile": 100.0 * tail_q,
        "probe_ms": 1000.0 * statistics.median(probes),
        "ops_per_s": 1000.0 * len(wall) / math.fsum(wall),
        "ops_per_probe": len(rel) / math.fsum(rel),
        "op_p50_ms": quantile(wall, 0.5),
        "op_tail_ms": quantile(wall, tail_q),
        "raw_p50_ms": 1000.0 * quantile(raw, 0.5),
        "raw_tail_ms": 1000.0 * quantile(raw, raw_tail_q),
        "raw_tail_percentile": 100.0 * raw_tail_q,
        "slot_probe": slot_probe,
        "slot_ms": slot_ms,
        "slot_repeats": {i: len(runs) for i, runs in slots},
    }


def layer_metrics(tracer: Tracer, ph: dict, layers: list[str]) -> tuple[dict, dict]:
    ops = max(ph["attempted"], 1)
    counts = tracer.counts
    m = {f"{layer}.self_s": tracer.self_s.get(layer, 0.0) / ops for layer in (*LAYERS, *layers)}
    m[f"{HARNESS}.self_s"] = tracer.self_s.get(HARNESS, 0.0) / ops
    for key in (
        "eigen.sturm_calls", "eigen.sturm_row_probes", "eigen.tridiag_rows",
        "eigen.dense_calls", "eigen.dense_n3", "laplacian.nnz", "laplacian.dense_bytes",
        "decompose.level_solves", "decompose.basis_bytes", "decompose.full_rank_s",
        "nodal.sign_counts", "nodal.edges_visited",
    ):
        m[key] = counts.get(key, 0.0) / ops
    rows = counts.get("eigen.tridiag_rows", 0.0)
    m["eigen.sturm_probes_per_eigenvalue"] = counts.get("eigen.sturm_probes", 0.0) / rows if rows else 0.0
    m["verify.oracle_builds_per_spec"] = counts.get("verify.oracle_builds", 0.0) / ops
    m["cli.bytes_out"] = ph["bytes_out"] / ops
    op_wall = math.fsum(ph["times"])
    accounted = math.fsum(tracer.self_s.values())
    by_name = sorted(
        ({"parent": p, "span": s, "calls": e[0], "total_s": e[1], "self_s": e[2]}
         for (p, s), e in tracer.edges.items()),
        key=lambda r: -r["self_s"],
    )
    name_self: dict[str, float] = {}
    for (_, label), e in tracer.edges.items():
        name_self[label] = name_self.get(label, 0.0) + e[2]
    share = (lambda x: x / accounted) if accounted else (lambda x: 0.0)
    detail = {
        "op_wall_s": op_wall,
        "self_s_sum": accounted,
        "layer_share": {layer: share(tracer.self_s[layer]) for layer in sorted(tracer.self_s)},
        "name_share": {
            label: share(t) for label, t in sorted(name_self.items(), key=lambda kv: -kv[1])[:12]
        },
        "counter_errors": tracer.counter_errors,
        "spans": by_name[:25],
    }
    return m, detail


def environment(seed: int) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "seed": seed,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    cli = import_stratree()
    import_s = time.time() - args.spawned_at
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(args.workload, args.seed, workdir, args.tiny)
        imports, setups = [import_s], [run.setup(cli)]
        record = {
            "workload": args.workload,
            "env": environment(args.seed),
            "pool": {"size": len(run.pool), "glued": sum(p.glued for p in run.pool),
                     "vertices": sorted(p.n for p in run.pool)[:: max(len(run.pool) // 8, 1)]},
            "setup": {"import_s": imports, "setup_s": setups},
        }
        if args.trace:
            plain = run.phase(cli, args.seconds / 2)
            tracer = Tracer()
            layers = tracer.install()
            try:
                traced = run.phase(cli, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            metrics, detail = layer_metrics(tracer, traced, layers)
            # throughput in probe units, so that a drift of the machine's
            # speed between the halves does not read as tracing overhead
            plain_rate = latency_summary(plain).get("ops_per_probe", 0.0)
            traced_rate = latency_summary(traced).get("ops_per_probe", 0.0)
            metrics["trace.ops_per_s_ratio"] = traced_rate / plain_rate if plain_rate else 0.0
            detail["untraced_ops_per_probe"] = plain_rate
            detail["traced_ops_per_probe"] = traced_rate
            record["trace"] = detail
            phases = [plain, traced]
        else:
            plain = run.phase(cli, args.seconds, setup_samples=SETUP_SAMPLES - 1)
            summary = latency_summary(plain)
            metrics = {k: summary[k] for k in ("op_p50_probe", "op_tail_probe", "ops_per_s",
                                               "op_p50_ms", "op_tail_ms") if k in summary}
            imports += plain["setups"]["import_s"]
            setups += plain["setups"]["setup_s"]
            metrics["setup_s"] = statistics.median(imports) + statistics.median(setups)
            record["latency"] = {k: summary[k] for k in summary if k not in metrics}
            phases = [plain]
        attempted = sum(p["attempted"] for p in phases)
        failed = sum(p["failed"] for p in phases)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(
            attempted=attempted,
            failed=failed,
            error_rate=failed / attempted,
            errors=[e for p in phases for e in p["errors"]],
            measured_s=[p["wall_s"] for p in phases],
            metrics=metrics,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
