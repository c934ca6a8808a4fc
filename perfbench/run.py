"""Benchmark entry point: run one workload in a fresh process and report.

    python3 perfbench/run.py --workload spectrum_deep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(``worker.py``) with BLAS pinned to one thread, so its peak RSS is its
own and thread counts cannot change its timings.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The line
before it is the run's full record: environment, set-up times, every
metric measured, latency sample counts, error rate and, when traced, the
span breakdown.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectrum_deep", "verify_desk", "eigvecs_out")
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170


def declared_metrics(trace: int) -> list[dict]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run_worker(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Run one workload in a fresh process and return its record."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.time()),
    ]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_line(record: dict, trace: int) -> dict:
    """The result line: outcome counts and the metrics BENCHMARK.json
    declares for this mode, with their units."""
    metrics = {}
    for decl in declared_metrics(trace):
        if decl["name"] not in record["metrics"]:
            raise KeyError(f"metric {decl['name']} was not measured")
        metrics[decl["name"]] = {"value": record["metrics"][decl["name"]], "unit": decl["unit"]}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        record = run_worker(args.workload, args.seed, args.seconds, args.trace)
        line = result_line(record, args.trace)
    except (OSError, RuntimeError, KeyError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
