"""Ideal-Hermes potential study (Fig. 4 of the paper).

Fig. 4(a): speedup of Ideal Hermes by itself and combined with Pythia
over the no-prefetching system.  Fig. 4(b): Ideal Hermes combined with
the four other prefetchers (Bingo, SPP, MLOP, SMS).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.metrics import geomean_speedup
from repro.experiments.common import (
    ExperimentSetup,
    Grouped,
    plan_matrix,
    runner_for,
)
from repro.runner import SweepSpec
from repro.sim.config import SystemConfig


def plan_fig04_ideal_hermes(setup: Optional[ExperimentSetup] = None,
                            prefetchers: Sequence[str] = ("pythia", "bingo", "spp",
                                                          "mlop", "sms"),
                            ) -> SweepSpec:
    """Speedups of prefetcher-only and prefetcher+Ideal-Hermes systems.

    Paper figure: Fig. 4.  Sweep axes: prefetcher ∈ ``prefetchers`` ×
    Ideal-Hermes ∈ {off, on} × the setup's workload suite, plus the
    no-prefetching baseline and an "ideal hermes alone" system matching
    Fig. 4(a).

    Payload: ``{"ideal-hermes-alone": {speedup}}`` plus one
    ``{prefetcher: {prefetcher_only, prefetcher_plus_ideal_hermes}}``
    row per prefetcher — geomean speedups over no-prefetching.
    """
    matrix = {
        "baseline": SystemConfig.no_prefetching(),
        "ideal-hermes-alone": SystemConfig.with_hermes("ideal", prefetcher="none"),
    }
    for prefetcher in prefetchers:
        matrix[f"{prefetcher}/only"] = SystemConfig.baseline(prefetcher)
        matrix[f"{prefetcher}/ideal"] = SystemConfig.with_hermes(
            "ideal", prefetcher=prefetcher)

    def reduce(results: Grouped) -> Dict[str, Dict[str, float]]:
        baseline = results["baseline"]
        table: Dict[str, Dict[str, float]] = {
            "ideal-hermes-alone": {
                "speedup": geomean_speedup(results["ideal-hermes-alone"],
                                           baseline)},
        }
        for prefetcher in prefetchers:
            table[prefetcher] = {
                "prefetcher_only": geomean_speedup(
                    results[f"{prefetcher}/only"], baseline),
                "prefetcher_plus_ideal_hermes": geomean_speedup(
                    results[f"{prefetcher}/ideal"], baseline),
            }
        return table

    return plan_matrix("fig04", setup or ExperimentSetup(), matrix, reduce)


run_fig04_ideal_hermes = runner_for(plan_fig04_ideal_hermes)
