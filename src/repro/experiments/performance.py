"""Single-core performance experiments (Figs. 12, 13, 14, 15, 18 and 22)."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional, Sequence

from repro.analysis.metrics import (
    average,
    geomean_speedup,
    main_memory_overhead,
    speedup_by_category,
    stall_reduction,
)
from repro.analysis.power import PowerModel
from repro.experiments.common import (
    ExperimentSetup,
    Grouped,
    plan_matrix,
    runner_for,
)
from repro.runner import SweepSpec
from repro.sim.config import SystemConfig


def _standard_configs() -> Dict[str, SystemConfig]:
    """The five systems compared in Fig. 12."""
    return {
        "hermes-P": SystemConfig.with_hermes("popet", prefetcher="none", optimistic=False),
        "hermes-O": SystemConfig.with_hermes("popet", prefetcher="none", optimistic=True),
        "pythia": SystemConfig.baseline("pythia"),
        "pythia+hermes-P": SystemConfig.with_hermes("popet", prefetcher="pythia",
                                                    optimistic=False),
        "pythia+hermes-O": SystemConfig.with_hermes("popet", prefetcher="pythia",
                                                    optimistic=True),
    }


def plan_fig12_singlecore_speedup(setup: Optional[ExperimentSetup] = None,
                                  ) -> SweepSpec:
    """Per-category geomean speedup of the Fig. 12 systems over no-prefetching.

    Paper figure: Fig. 12 (the headline result).  Sweep axes: system ∈
    {Hermes-P, Hermes-O, Pythia, Pythia+Hermes-P, Pythia+Hermes-O} ×
    the setup's workload suite, plus the no-prefetching baseline.

    Payload: ``{system: {category: geomean_speedup}}`` with a
    ``"GEOMEAN"`` entry per system.
    """
    def reduce(results: Grouped) -> Dict[str, Dict[str, float]]:
        baseline = results.pop("baseline")
        return {label: speedup_by_category(rs, baseline)
                for label, rs in results.items()}

    matrix = {"baseline": SystemConfig.no_prefetching()}
    matrix.update(_standard_configs())
    return plan_matrix("fig12", setup or ExperimentSetup(), matrix, reduce)


run_fig12_singlecore_speedup = runner_for(plan_fig12_singlecore_speedup)


def plan_fig13_per_workload_speedup(setup: Optional[ExperimentSetup] = None,
                                    ) -> SweepSpec:
    """Per-workload speedups of Hermes, Pythia and Pythia+Hermes (Fig. 13 line graph).

    Paper figure: Fig. 13.  Sweep axes: system ∈ {Hermes-O, Pythia,
    Pythia+Hermes-O} × the setup's workload suite, plus the
    no-prefetching baseline.

    Payload: ``{workload: {system: speedup}}`` — one point per
    (workload, system), no aggregation.
    """
    def reduce(results: Grouped) -> Dict[str, Dict[str, float]]:
        baseline_by_workload = {r.workload: r for r in results.pop("baseline")}
        table: Dict[str, Dict[str, float]] = defaultdict(dict)
        for label, rs in results.items():
            for result in rs:
                table[result.workload][label] = result.speedup_over(
                    baseline_by_workload[result.workload])
        return dict(table)

    return plan_matrix("fig13", setup or ExperimentSetup(), {
        "baseline": SystemConfig.no_prefetching(),
        "hermes-O": SystemConfig.with_hermes("popet", prefetcher="none"),
        "pythia": SystemConfig.baseline("pythia"),
        "pythia+hermes-O": SystemConfig.with_hermes("popet", prefetcher="pythia"),
    }, reduce)


run_fig13_per_workload_speedup = runner_for(plan_fig13_per_workload_speedup)


def plan_fig14_predictor_comparison(setup: Optional[ExperimentSetup] = None,
                                    predictors: Sequence[str] = ("hmp", "ttp", "popet",
                                                                 "ideal"),
                                    ) -> SweepSpec:
    """Geomean speedup of Pythia + Hermes-{HMP, TTP, POPET, Ideal} over no-prefetching.

    Paper figure: Fig. 14.  Sweep axes: off-chip predictor ∈
    ``predictors`` (on top of Pythia) × the setup's workload suite,
    plus Pythia alone and the no-prefetching baseline.

    Payload: ``{"pythia" | "pythia+hermes-<predictor>":
    geomean_speedup}`` (flat).
    """
    def reduce(results: Grouped) -> Dict[str, float]:
        baseline = results.pop("baseline")
        return {label: geomean_speedup(rs, baseline)
                for label, rs in results.items()}

    matrix = {
        "baseline": SystemConfig.no_prefetching(),
        "pythia": SystemConfig.baseline("pythia"),
    }
    for predictor in predictors:
        matrix[f"pythia+hermes-{predictor}"] = SystemConfig.with_hermes(
            predictor, prefetcher="pythia")
    return plan_matrix("fig14", setup or ExperimentSetup(), matrix, reduce)


run_fig14_predictor_comparison = runner_for(plan_fig14_predictor_comparison)


def plan_fig15_stalls_and_overhead(setup: Optional[ExperimentSetup] = None,
                                   ) -> SweepSpec:
    """Fig. 15(a): stall-cycle reduction of Hermes; Fig. 15(b): memory-request overhead.

    Paper figure: Fig. 15.  Sweep axes: system ∈ {no-prefetching,
    Pythia, Pythia+Hermes, Hermes alone} × the setup's workload suite.

    Payload (flat): ``{stall_reduction_pct_vs_pythia,
    memory_overhead_pct_hermes, memory_overhead_pct_pythia,
    memory_overhead_pct_pythia_hermes}`` — percentages (paper: 5.5% for
    Hermes vs 38.5% for Pythia).
    """
    def reduce(results: Grouped) -> Dict[str, float]:
        return {
            "stall_reduction_pct_vs_pythia": stall_reduction(
                results["pythia+hermes"], results["pythia"]),
            "memory_overhead_pct_hermes": main_memory_overhead(
                results["hermes"], results["noprefetch"]),
            "memory_overhead_pct_pythia": main_memory_overhead(
                results["pythia"], results["noprefetch"]),
            "memory_overhead_pct_pythia_hermes": main_memory_overhead(
                results["pythia+hermes"], results["noprefetch"]),
        }

    return plan_matrix("fig15", setup or ExperimentSetup(), {
        "noprefetch": SystemConfig.no_prefetching(),
        "pythia": SystemConfig.baseline("pythia"),
        "pythia+hermes": SystemConfig.with_hermes("popet", prefetcher="pythia"),
        "hermes": SystemConfig.with_hermes("popet", prefetcher="none"),
    }, reduce)


run_fig15_stalls_and_overhead = runner_for(plan_fig15_stalls_and_overhead)


def plan_fig18_power(setup: Optional[ExperimentSetup] = None) -> SweepSpec:
    """Runtime dynamic power of Hermes / Pythia / Pythia+Hermes vs no-prefetching.

    Paper figure: Fig. 18.  Sweep axes: system ∈ {no-prefetching,
    Hermes, Pythia, Pythia+Hermes} × the setup's workload suite, fed
    through the analytical :class:`~repro.analysis.power.PowerModel`.

    Payload: ``{system: relative_dynamic_power}`` (flat; the
    no-prefetching baseline is 1.0 by construction).
    """
    def reduce(results: Grouped) -> Dict[str, float]:
        model = PowerModel()
        baseline_by_workload = {r.workload: r
                                for r in results.pop("no-prefetching")}
        table: Dict[str, float] = {"no-prefetching": 1.0}
        for label, rs in results.items():
            ratios = [model.relative_power(
                result, baseline_by_workload[result.workload]) for result in rs]
            table[label] = average(ratios)
        return table

    return plan_matrix("fig18", setup or ExperimentSetup(), {
        "no-prefetching": SystemConfig.no_prefetching(),
        "hermes": SystemConfig.with_hermes("popet", prefetcher="none"),
        "pythia": SystemConfig.baseline("pythia"),
        "pythia+hermes": SystemConfig.with_hermes("popet", prefetcher="pythia"),
    }, reduce)


run_fig18_power = runner_for(plan_fig18_power)


def plan_fig22_overhead_by_prefetcher(setup: Optional[ExperimentSetup] = None,
                                      prefetchers: Sequence[str] = ("pythia", "bingo",
                                                                    "spp", "mlop", "sms"),
                                      ) -> SweepSpec:
    """Main-memory request overhead of each prefetcher alone and with Hermes.

    Paper figure: Fig. 22.  Sweep axes: prefetcher ∈ ``prefetchers`` ×
    Hermes ∈ {off, on} × the setup's workload suite, plus the
    no-prefetching baseline.

    Payload: ``{prefetcher: {prefetcher_pct,
    prefetcher_plus_hermes_pct}}`` — average % increase in main-memory
    requests over no-prefetching.
    """
    def reduce(results: Grouped) -> Dict[str, Dict[str, float]]:
        noprefetch = results["noprefetch"]
        return {
            prefetcher: {
                "prefetcher_pct": main_memory_overhead(
                    results[f"{prefetcher}/only"], noprefetch),
                "prefetcher_plus_hermes_pct": main_memory_overhead(
                    results[f"{prefetcher}/hermes"], noprefetch),
            }
            for prefetcher in prefetchers
        }

    matrix = {"noprefetch": SystemConfig.no_prefetching()}
    for prefetcher in prefetchers:
        matrix[f"{prefetcher}/only"] = SystemConfig.baseline(prefetcher)
        matrix[f"{prefetcher}/hermes"] = SystemConfig.with_hermes(
            "popet", prefetcher=prefetcher)
    return plan_matrix("fig22", setup or ExperimentSetup(), matrix, reduce)


run_fig22_overhead_by_prefetcher = runner_for(plan_fig22_overhead_by_prefetcher)
