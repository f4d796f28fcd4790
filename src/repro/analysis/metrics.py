"""Aggregation metrics used by the experiments (paper Appendix A.7)."""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence

from repro.sim.results import SimulationResult


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregation for speedups)."""
    values = [v for v in values]
    if not values:
        return 0.0
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def average(values: Iterable[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def percent_increase(value: float, baseline: float) -> float:
    """Percentage increase of ``value`` over ``baseline``."""
    if baseline == 0:
        return 0.0
    return 100.0 * (value - baseline) / baseline


def _pair_by_workload(results: Sequence[SimulationResult],
                      baselines: Sequence[SimulationResult]) -> List[tuple]:
    baseline_by_workload = {result.workload: result for result in baselines}
    pairs = []
    for result in results:
        baseline = baseline_by_workload.get(result.workload)
        if baseline is None:
            raise ValueError(f"no baseline run found for workload {result.workload!r}")
        pairs.append((result, baseline))
    return pairs


def geomean_speedup(results: Sequence[SimulationResult],
                    baselines: Sequence[SimulationResult]) -> float:
    """Geomean IPC speedup of ``results`` over per-workload ``baselines``."""
    pairs = _pair_by_workload(results, baselines)
    return geomean([result.speedup_over(baseline) for result, baseline in pairs])


def speedup_by_category(results: Sequence[SimulationResult],
                        baselines: Sequence[SimulationResult]) -> Dict[str, float]:
    """Per-category geomean speedup plus an overall GEOMEAN entry (Fig. 12 layout)."""
    pairs = _pair_by_workload(results, baselines)
    by_category: Dict[str, List[float]] = defaultdict(list)
    for result, baseline in pairs:
        by_category[result.category].append(result.speedup_over(baseline))
    table = {category: geomean(speedups) for category, speedups in by_category.items()}
    table["GEOMEAN"] = geomean([result.speedup_over(baseline)
                                for result, baseline in pairs])
    return table


def category_mean(results: Sequence[SimulationResult], metric: str) -> Dict[str, float]:
    """Arithmetic mean of a per-result attribute, grouped by category (+ AVG)."""
    by_category: Dict[str, List[float]] = defaultdict(list)
    all_values: List[float] = []
    for result in results:
        value = getattr(result, metric)
        by_category[result.category].append(value)
        all_values.append(value)
    table = {category: average(values) for category, values in by_category.items()}
    table["AVG"] = average(all_values)
    return table


def main_memory_overhead(results: Sequence[SimulationResult],
                         baselines: Sequence[SimulationResult]) -> float:
    """Average % increase in main-memory requests over the baseline (Fig. 15b)."""
    pairs = _pair_by_workload(results, baselines)
    increases = [percent_increase(result.main_memory_requests,
                                  baseline.main_memory_requests)
                 for result, baseline in pairs
                 if baseline.main_memory_requests > 0]
    return average(increases)


def stall_reduction(results: Sequence[SimulationResult],
                    baselines: Sequence[SimulationResult]) -> float:
    """Average % reduction in off-chip-load stall cycles (Fig. 15a)."""
    pairs = _pair_by_workload(results, baselines)
    reductions = []
    for result, baseline in pairs:
        if baseline.core.stall_cycles_offchip <= 0:
            continue
        reductions.append(100.0 * (baseline.core.stall_cycles_offchip
                                   - result.core.stall_cycles_offchip)
                          / baseline.core.stall_cycles_offchip)
    return average(reductions)
