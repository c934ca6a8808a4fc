"""Print every end-to-end metric, by name and unit, for every workload.

    python3 perfbench/summary.py --seed 1 --seconds 40

Runs each workload once, untraced, in its own process, and prints one row
per metric plus the error rate and the sample count behind the tail.
Exits 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import sys

from run import WORKLOADS, result_line, run_worker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    clean = True
    print(f"{'workload':<15} {'metric':<12} {'value':>14}  unit")
    for name in WORKLOADS:
        record = run_worker(name, args.seed, args.seconds, trace=0)
        line = result_line(record, trace=0)
        for metric, m in line["metrics"].items():
            print(f"{name:<15} {metric:<12} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<15} {'ops_per_s':<12} {record['metrics']['ops_per_s']:>14.6g}  1/s"
              "  (record only)")
        print(f"{name:<15} {'error_rate':<12} {record['error_rate']:>14.6g}  ratio"
              f"  ({record['failed']}/{record['attempted']} failed)")
        lat = record["latency"]
        print(f"{'':<15} tail is p{lat['tail_percentile']:.1f} of {lat['slots_timed']} slots'"
              f" median times ({lat['samples']} samples); probe {lat['probe_ms']:.3g} ms;"
              f" BLAS {record['env']['blas']} x{record['env']['blas_threads']}")
        clean = clean and record["failed"] == 0
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
