"""Throughput measurement of the simulation hot path.

The micro-benchmark times :func:`repro.sim.simulator.simulate_trace` on
pinned-seed synthetic workloads (trace generation happens *outside* the
timed region) for a pinned config matrix covering the three hot-path
shapes: no-prefetching (pure core+hierarchy), a prefetcher (Pythia), and
a full Hermes stack (SPP + POPET).  The end-to-end benchmark times one
real figure runner (Fig. 5) so harness overhead and experiment plumbing
stay visible in the trajectory.

Reports are plain dicts so they serialise straight to ``BENCH_<tag>.json``.
"""

from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine import numpy_or_none
from repro.experiments.common import ExperimentSetup
from repro.experiments.motivation import run_fig05_offchip_rate
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate_trace
from repro.workloads.suite import make_trace

#: Report schema version.
#: v2: aggregate ``accesses_per_sec`` is the *geometric* mean of the
#: per-entry throughputs (schema 1 used total accesses / total wall,
#: which let one slow config dominate the aggregate); reports also
#: record the ``engine`` and the ``numpy`` version (or ``"none"``) so
#: comparisons can refuse cross-environment gating.
BENCH_SCHEMA_VERSION = 2

#: Pinned-seed workloads used by the micro-benchmark — one pointer-chasing,
#: one graph-analytics, one server-like trace (the three access shapes that
#: dominate the paper's sweeps).
PINNED_WORKLOADS: Tuple[str, ...] = ("spec06.mcf_chase", "ligra.bfs", "cvp.server_int")

#: Accesses per (config, workload) micro-benchmark run.
DEFAULT_ACCESSES = 20000


def microbench_configs() -> List[SystemConfig]:
    """The pinned config matrix: bare hierarchy, prefetcher, full Hermes."""
    return [
        SystemConfig.no_prefetching(),
        SystemConfig.baseline("pythia"),
        SystemConfig.with_hermes("popet", prefetcher="spp"),
    ]


@dataclass
class BenchEntry:
    """One timed (config, workload) simulation."""

    config_label: str
    workload: str
    accesses: int
    wall_s: float

    @property
    def accesses_per_sec(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.accesses / self.wall_s

    def as_dict(self) -> Dict[str, Union[str, int, float]]:
        return {
            "config": self.config_label,
            "workload": self.workload,
            "accesses": self.accesses,
            "wall_s": self.wall_s,
            "accesses_per_sec": self.accesses_per_sec,
        }


@dataclass
class BenchReport:
    """A full harness run, serialisable to ``BENCH_<tag>.json``."""

    tag: str
    entries: List[BenchEntry] = field(default_factory=list)
    figure_runner: Dict[str, float] = field(default_factory=dict)
    engine: str = "scalar"

    @property
    def total_accesses(self) -> int:
        return sum(entry.accesses for entry in self.entries)

    @property
    def total_wall_s(self) -> float:
        return sum(entry.wall_s for entry in self.entries)

    @property
    def accesses_per_sec(self) -> float:
        """Aggregate throughput: geometric mean of per-entry throughputs.

        The geomean weights every (config, workload) cell equally; the
        schema-1 aggregate (total accesses / total wall) was dominated
        by whichever config ran slowest, so a speedup concentrated in
        the fast cells barely moved it.
        """
        rates = [entry.accesses_per_sec for entry in self.entries]
        if not rates or any(rate <= 0 for rate in rates):
            return 0.0
        return math.exp(sum(math.log(rate) for rate in rates) / len(rates))

    def as_dict(self) -> Dict[str, object]:
        numpy_version = numpy_or_none()
        return {
            "tag": self.tag,
            "schema": BENCH_SCHEMA_VERSION,
            "timestamp": time.time(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "engine": self.engine,
            "numpy": numpy_version.__version__ if numpy_version else "none",
            "accesses_per_sec": self.accesses_per_sec,
            "total_accesses": self.total_accesses,
            "wall_s": self.total_wall_s,
            "configs": [entry.as_dict() for entry in self.entries],
            "figure_runner": dict(self.figure_runner),
        }


def run_microbench(num_accesses: int = DEFAULT_ACCESSES,
                   workloads: Sequence[str] = PINNED_WORKLOADS,
                   configs: Optional[Sequence[SystemConfig]] = None,
                   repeats: int = 1,
                   verbose: bool = False) -> List[BenchEntry]:
    """Time ``simulate_trace`` for every (config, workload) pair.

    ``repeats`` re-runs each pair and keeps the fastest wall time, which
    filters scheduler noise on loaded CI machines.
    """
    if num_accesses <= 0:
        raise ValueError("num_accesses must be positive")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    configs = list(configs) if configs is not None else microbench_configs()
    entries: List[BenchEntry] = []
    for config in configs:
        for workload in workloads:
            trace = make_trace(workload, num_accesses)  # untimed (memoised)
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                simulate_trace(config, trace)
                best = min(best, time.perf_counter() - start)
            entry = BenchEntry(config_label=config.label, workload=workload,
                               accesses=num_accesses, wall_s=best)
            entries.append(entry)
            if verbose:
                print(f"  {config.label:28s} {workload:20s} "
                      f"{entry.accesses_per_sec:>12.0f} acc/s")
    return entries


def run_figure_bench(num_accesses: int = 4000,
                     per_category: int = 1) -> Dict[str, float]:
    """Time one end-to-end figure runner (Fig. 5, serial backend)."""
    setup = ExperimentSetup(num_accesses=num_accesses,
                            per_category=per_category)
    # Generate every trace first so the timed region measures simulation
    # and experiment plumbing, not workload generation.
    setup.build_suite()
    start = time.perf_counter()
    run_fig05_offchip_rate(setup)
    wall = time.perf_counter() - start
    jobs = len(setup.workload_names()) * 2  # two configs in Fig. 5
    return {
        "figure": 5.0,
        "num_accesses": float(num_accesses),
        "jobs": float(jobs),
        "wall_s": wall,
        "accesses_per_sec": jobs * num_accesses / wall if wall > 0 else 0.0,
    }


def write_report(report: BenchReport, path: Union[str, Path]) -> Path:
    """Serialise ``report`` to ``path`` as JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
    return path


class EnvironmentMismatchError(ValueError):
    """Two benchmark reports come from incomparable environments.

    Raised by :func:`compare_reports` when the current and baseline
    reports disagree on the engine, NumPy presence/version, or
    Python minor version — a throughput delta between such runs measures
    the environment, not the code under test.  Pass
    ``allow_env_mismatch=True`` (CLI: ``--allow-env-mismatch``) to
    compare anyway.
    """


def _report_environment(report: Dict[str, object]) -> Dict[str, str]:
    """The comparison-relevant environment fields of a report dict.

    Schema-1 reports predate the engine field: they were produced by the
    scalar engine (the only one that existed) and never imported NumPy
    on the hot path, so they normalise to ``scalar`` / ``none``.  Python
    is compared at minor-version granularity — patch releases do not
    meaningfully shift interpreter throughput.
    """
    schema = int(report.get("schema", 1) or 1)
    python = str(report.get("python", "unknown"))
    engine = str(report.get("engine", "scalar") if schema >= 2 else "scalar")
    numpy = str(report.get("numpy", "none") if schema >= 2 else "none")
    return {
        "engine": engine,
        # NumPy only touched the timed path of the engines older reports
        # may name; a scalar report's throughput is independent of
        # whatever NumPy happens to be installed.
        "numpy": numpy if engine != "scalar" else "n/a",
        "python": ".".join(python.split(".")[:2]),
    }


def compare_reports(current: Dict[str, object], baseline: Dict[str, object],
                    max_regression: float = 0.30,
                    allow_env_mismatch: bool = False) -> List[str]:
    """Compare two report dicts; return a list of regression descriptions.

    Only the aggregate micro-benchmark throughput gates (per-entry noise
    on small runs is too high to gate on); per-config numbers are still
    reported for trend analysis.

    Raises :class:`EnvironmentMismatchError` when the two reports were
    produced under different engines, NumPy versions, or Python minor
    versions, unless ``allow_env_mismatch`` is set.
    """
    if not 0.0 <= max_regression < 1.0:
        raise ValueError("max_regression must be in [0, 1)")
    if not allow_env_mismatch:
        cur_env = _report_environment(current)
        base_env = _report_environment(baseline)
        mismatches = [f"{key}: current={cur_env[key]} baseline={base_env[key]}"
                      for key in ("engine", "numpy", "python")
                      if cur_env[key] != base_env[key]]
        if mismatches:
            raise EnvironmentMismatchError(
                "refusing to compare benchmark reports from different "
                "environments (" + "; ".join(mismatches) + "); rerun the "
                "baseline in this environment, or pass "
                "allow_env_mismatch=True / --allow-env-mismatch to "
                "override")
    failures: List[str] = []
    base = float(baseline.get("accesses_per_sec", 0.0))
    cur = float(current.get("accesses_per_sec", 0.0))
    if base > 0 and cur < base * (1.0 - max_regression):
        failures.append(
            f"aggregate throughput regressed: {cur:.0f} acc/s vs baseline "
            f"{base:.0f} acc/s (allowed floor "
            f"{base * (1.0 - max_regression):.0f})")
    return failures
