"""CLI for the perf harness: ``python -m repro.perf``.

Examples
--------
Write a full report::

    PYTHONPATH=src python -m repro.perf --tag baseline

CI regression gate (exit 1 on >30% aggregate regression)::

    PYTHONPATH=src python -m repro.perf --tag PR \
        --compare BENCH_baseline.json --max-regression 0.30
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.perf.harness import (
    BenchReport,
    DEFAULT_ACCESSES,
    EnvironmentMismatchError,
    PINNED_WORKLOADS,
    compare_reports,
    run_figure_bench,
    run_microbench,
    write_report,
)


def main(argv=None) -> int:
    """Run the benchmark harness CLI; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Simulation hot-path throughput benchmark")
    parser.add_argument("--tag", default="PR",
                        help="report tag; output defaults to BENCH_<tag>.json")
    parser.add_argument("--output", type=Path, default=None,
                        help="output path (default: BENCH_<tag>.json in cwd)")
    parser.add_argument("--accesses", type=int, default=DEFAULT_ACCESSES,
                        help="accesses per micro-benchmark run")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repeats per pair; fastest run is kept "
                             "(damps scheduler noise on shared machines)")
    parser.add_argument("--workloads", nargs="+", default=list(PINNED_WORKLOADS),
                        help="pinned workload names to time")
    parser.add_argument("--skip-figure", action="store_true",
                        help="skip the end-to-end figure-runner benchmark")
    parser.add_argument("--compare", type=Path, default=None,
                        help="baseline BENCH_*.json to gate against")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="max tolerated fractional regression (default 0.30)")
    parser.add_argument("--allow-env-mismatch", action="store_true",
                        help="compare even when the baseline report comes "
                             "from a different engine/NumPy/Python")
    args = parser.parse_args(argv)

    print(f"repro.perf: micro-benchmark "
          f"({args.accesses} accesses x {args.repeats} repeats)")
    entries = run_microbench(num_accesses=args.accesses,
                             workloads=args.workloads,
                             repeats=args.repeats,
                             verbose=True)
    report = BenchReport(tag=args.tag, entries=entries)
    if not args.skip_figure:
        print("repro.perf: end-to-end figure runner (Fig. 5)")
        report.figure_runner = run_figure_bench()
        print(f"  fig05: {report.figure_runner['wall_s']:.2f}s "
              f"({report.figure_runner['accesses_per_sec']:.0f} acc/s)")

    output = args.output or Path(f"BENCH_{args.tag}.json")
    write_report(report, output)
    print(f"repro.perf: aggregate {report.accesses_per_sec:.0f} accesses/sec "
          f"(geomean) -> {output}")

    if args.compare is not None:
        baseline = json.loads(args.compare.read_text())
        try:
            failures = compare_reports(report.as_dict(), baseline,
                                       max_regression=args.max_regression,
                                       allow_env_mismatch=args.allow_env_mismatch)
        except EnvironmentMismatchError as exc:
            print(f"repro.perf: error: {exc}", file=sys.stderr)
            return 2
        if failures:
            for failure in failures:
                print(f"repro.perf: REGRESSION: {failure}", file=sys.stderr)
            return 1
        base = float(baseline.get("accesses_per_sec", 0.0))
        if base > 0:
            print(f"repro.perf: vs {args.compare.name}: "
                  f"{report.accesses_per_sec / base:.2f}x baseline throughput")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
