"""Sensitivity studies (Figs. 17, 19 and 20 of the paper).

Every runner sweeps one system parameter and reports the geomean speedup
of Pythia alone and Pythia+Hermes over the no-prefetching system, so the
benchmark output has the same series as the corresponding figure.  Each
plan holds its full (parameter x configuration x workload) job matrix,
so a parallel backend spreads the whole figure at once.

The ROB-size and LLC-size sweeps (Figs. 19/20) declare their systems
through the experiment-spec API — the same :class:`~repro.runner.spec.
ExperimentSpec` a TOML file loads into — and plan the spec's
configurations with ``plan_matrix`` like every other figure.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.metrics import average, geomean_speedup
from repro.experiments.common import (
    ConfigEntry,
    ExperimentSetup,
    Grouped,
    PredictorSpec,
    plan_matrix,
    runner_for,
)
from repro.runner import SweepSpec
from repro.runner.spec import Axis, AxisPoint, ExperimentSpec
from repro.sim.config import SystemConfig

#: The four systems every sensitivity figure compares, as override axes
#: points (the spec-file equivalent of the SystemConfig classmethods).
_SYSTEM_AXIS = Axis("system", [
    AxisPoint("baseline", {"prefetcher": "none"}),
    AxisPoint("hermes", {"prefetcher": "none",
                         "offchip_predictor": "popet",
                         "hermes.enabled": True}),
    AxisPoint("pythia", {"prefetcher": "pythia"}),
    AxisPoint("pythia+hermes", {"prefetcher": "pythia",
                                "offchip_predictor": "popet",
                                "hermes.enabled": True}),
])


def plan_fig17a_bandwidth_sensitivity(setup: Optional[ExperimentSetup] = None,
                                      mtps_values: Sequence[int] = (800, 1600, 3200, 6400),
                                      ) -> SweepSpec:
    """Speedups while scaling main-memory bandwidth (MTPS sweep, Fig. 17a).

    Paper figure: Fig. 17a.  Sweep axes: memory bandwidth ∈
    ``mtps_values`` × system ∈ {baseline, Hermes, Pythia,
    Pythia+Hermes} × the setup's workload suite (the baseline is
    re-run at each bandwidth).

    Payload: ``{mtps: {hermes, pythia, "pythia+hermes"}}`` — geomean
    speedups over the same-bandwidth no-prefetching baseline.
    """
    matrix: Dict[str, ConfigEntry] = {}
    for mtps in mtps_values:
        # The no-prefetching baseline must use the same bandwidth.
        matrix[f"{mtps}/baseline"] = (
            SystemConfig.no_prefetching().with_memory_bandwidth(mtps))
        matrix[f"{mtps}/hermes"] = (
            SystemConfig.with_hermes("popet").with_memory_bandwidth(mtps))
        matrix[f"{mtps}/pythia"] = (
            SystemConfig.baseline("pythia").with_memory_bandwidth(mtps))
        matrix[f"{mtps}/pythia+hermes"] = SystemConfig.with_hermes(
            "popet", prefetcher="pythia").with_memory_bandwidth(mtps)

    def reduce(results: Grouped) -> Dict[int, Dict[str, float]]:
        return {
            mtps: {
                label: geomean_speedup(results[f"{mtps}/{label}"],
                                       results[f"{mtps}/baseline"])
                for label in ("hermes", "pythia", "pythia+hermes")
            }
            for mtps in mtps_values
        }

    return plan_matrix("fig17a", setup or ExperimentSetup(), matrix, reduce)


run_fig17a_bandwidth_sensitivity = runner_for(plan_fig17a_bandwidth_sensitivity)


def plan_fig17b_prefetcher_sensitivity(setup: Optional[ExperimentSetup] = None,
                                       prefetchers: Sequence[str] = ("pythia", "bingo",
                                                                     "spp", "mlop", "sms"),
                                       ) -> SweepSpec:
    """Hermes-P/O on top of each baseline prefetcher (Fig. 17b).

    Paper figure: Fig. 17b.  Sweep axes: prefetcher ∈ ``prefetchers``
    × Hermes ∈ {off, Hermes-P, Hermes-O} × the setup's workload suite.

    Payload: ``{prefetcher: {prefetcher_only, "prefetcher+hermes-P",
    "prefetcher+hermes-O"}}`` — geomean speedups over no-prefetching.
    """
    matrix: Dict[str, ConfigEntry] = {"baseline": SystemConfig.no_prefetching()}
    for prefetcher in prefetchers:
        matrix[f"{prefetcher}/only"] = SystemConfig.baseline(prefetcher)
        matrix[f"{prefetcher}/hermes-P"] = SystemConfig.with_hermes(
            "popet", prefetcher=prefetcher, optimistic=False)
        matrix[f"{prefetcher}/hermes-O"] = SystemConfig.with_hermes(
            "popet", prefetcher=prefetcher, optimistic=True)

    def reduce(results: Grouped) -> Dict[str, Dict[str, float]]:
        baseline = results["baseline"]
        return {
            prefetcher: {
                "prefetcher_only": geomean_speedup(results[f"{prefetcher}/only"],
                                                   baseline),
                "prefetcher+hermes-P": geomean_speedup(
                    results[f"{prefetcher}/hermes-P"], baseline),
                "prefetcher+hermes-O": geomean_speedup(
                    results[f"{prefetcher}/hermes-O"], baseline),
            }
            for prefetcher in prefetchers
        }

    return plan_matrix("fig17b", setup or ExperimentSetup(), matrix, reduce)


run_fig17b_prefetcher_sensitivity = runner_for(plan_fig17b_prefetcher_sensitivity)


def plan_fig17c_issue_latency_sensitivity(setup: Optional[ExperimentSetup] = None,
                                          latencies: Sequence[int] = (0, 6, 12, 18, 24),
                                          ) -> SweepSpec:
    """Speedup as the Hermes request issue latency varies (Fig. 17c).

    Paper figure: Fig. 17c.  Sweep axes: Hermes issue latency ∈
    ``latencies`` (Pythia+Hermes) × the setup's workload suite, with
    shared baseline and Pythia-only runs.

    Payload: ``{latency: {pythia, "pythia+hermes"}}`` — geomean
    speedups over no-prefetching (the Pythia series is constant across
    latencies by construction).
    """
    matrix: Dict[str, ConfigEntry] = {
        "baseline": SystemConfig.no_prefetching(),
        "pythia": SystemConfig.baseline("pythia"),
    }
    for latency in latencies:
        matrix[f"issue{latency}"] = SystemConfig.with_hermes(
            "popet", prefetcher="pythia").with_hermes_issue_latency(latency)

    def reduce(results: Grouped) -> Dict[int, Dict[str, float]]:
        baseline = results["baseline"]
        pythia = geomean_speedup(results["pythia"], baseline)
        return {
            latency: {
                "pythia": pythia,
                "pythia+hermes": geomean_speedup(results[f"issue{latency}"],
                                                 baseline),
            }
            for latency in latencies
        }

    return plan_matrix("fig17c", setup or ExperimentSetup(), matrix, reduce)


run_fig17c_issue_latency_sensitivity = runner_for(plan_fig17c_issue_latency_sensitivity)


def plan_fig17d_cache_latency_sensitivity(setup: Optional[ExperimentSetup] = None,
                                          llc_latencies: Sequence[int] = (40, 55, 65),
                                          ) -> SweepSpec:
    """Speedup as the on-chip hierarchy (LLC) access latency varies (Fig. 17d).

    Paper figure: Fig. 17d.  Sweep axes: LLC latency ∈
    ``llc_latencies`` × system ∈ {baseline, Pythia, Pythia+Hermes} ×
    the setup's workload suite (the baseline is re-run at each
    latency).

    Payload: ``{llc_latency: {pythia, "pythia+hermes"}}`` — geomean
    speedups over the same-latency no-prefetching baseline.
    """
    matrix: Dict[str, ConfigEntry] = {}
    for latency in llc_latencies:
        matrix[f"{latency}/baseline"] = (
            SystemConfig.no_prefetching().with_llc_latency(latency))
        matrix[f"{latency}/pythia"] = (
            SystemConfig.baseline("pythia").with_llc_latency(latency))
        matrix[f"{latency}/pythia+hermes"] = SystemConfig.with_hermes(
            "popet", prefetcher="pythia").with_llc_latency(latency)

    def reduce(results: Grouped) -> Dict[int, Dict[str, float]]:
        return {
            latency: {
                "pythia": geomean_speedup(results[f"{latency}/pythia"],
                                          results[f"{latency}/baseline"]),
                "pythia+hermes": geomean_speedup(
                    results[f"{latency}/pythia+hermes"],
                    results[f"{latency}/baseline"]),
            }
            for latency in llc_latencies
        }

    return plan_matrix("fig17d", setup or ExperimentSetup(), matrix, reduce)


run_fig17d_cache_latency_sensitivity = runner_for(plan_fig17d_cache_latency_sensitivity)


def plan_fig17e_activation_threshold(setup: Optional[ExperimentSetup] = None,
                                     thresholds: Sequence[int] = (-30, -26, -22, -18,
                                                                  -10, -2),
                                     ) -> SweepSpec:
    """POPET accuracy/coverage and Hermes speedup vs the activation threshold.

    Paper figure: Fig. 17e.  Sweep axes: POPET activation threshold ∈
    ``thresholds`` (declared as :class:`~repro.runner.job.
    PredictorSpec` variants on Pythia+Hermes) × the setup's workload
    suite, plus the no-prefetching baseline.

    Payload: ``{threshold: {accuracy, coverage, speedup}}`` — suite
    averages.
    """
    config = SystemConfig.with_hermes("popet", prefetcher="pythia")
    matrix: Dict[str, ConfigEntry] = {"baseline": SystemConfig.no_prefetching()}
    for threshold in thresholds:
        matrix[f"thr{threshold}"] = (
            config, PredictorSpec("popet", {"activation_threshold": threshold}))

    def reduce(results: Grouped) -> Dict[int, Dict[str, float]]:
        baseline_by_workload = {r.workload: r for r in results["baseline"]}
        table: Dict[int, Dict[str, float]] = {}
        for threshold in thresholds:
            rs = results[f"thr{threshold}"]
            table[threshold] = {
                "accuracy": average(r.predictor_accuracy for r in rs),
                "coverage": average(r.predictor_coverage for r in rs),
                "speedup": average(
                    r.speedup_over(baseline_by_workload[r.workload]) for r in rs),
            }
        return table

    return plan_matrix("fig17e", setup or ExperimentSetup(), matrix, reduce)


run_fig17e_activation_threshold = runner_for(plan_fig17e_activation_threshold)


def plan_fig19_rob_size_sensitivity(setup: Optional[ExperimentSetup] = None,
                                    rob_sizes: Sequence[int] = (256, 512, 1024),
                                    ) -> SweepSpec:
    """Speedup sensitivity to the reorder-buffer size (Fig. 19).

    Paper figure: Fig. 19.  Sweep axes: ROB size ∈ ``rob_sizes`` ×
    system ∈ {baseline, Hermes, Pythia, Pythia+Hermes} × the setup's
    workload suite — declared through the spec API: a (system ×
    ROB-size) axis cross-product, exactly what a TOML spec file with
    the same axes expands to.

    Payload: ``{rob_size: {hermes, pythia, "pythia+hermes"}}`` —
    geomean speedups over the same-ROB no-prefetching baseline.
    """
    spec = ExperimentSpec(
        name="fig19-rob-size",
        axes=[_SYSTEM_AXIS,
              Axis("rob", [AxisPoint(f"rob{rob}", {"core.rob_size": rob})
                           for rob in rob_sizes])])

    def reduce(results: Grouped) -> Dict[int, Dict[str, float]]:
        return {
            rob: {
                label: geomean_speedup(results[f"{label}/rob{rob}"],
                                       results[f"baseline/rob{rob}"])
                for label in ("hermes", "pythia", "pythia+hermes")
            }
            for rob in rob_sizes
        }

    return plan_matrix("fig19", setup or ExperimentSetup(), spec.configs(),
                       reduce)


run_fig19_rob_size_sensitivity = runner_for(plan_fig19_rob_size_sensitivity)


def plan_fig20_llc_size_sensitivity(setup: Optional[ExperimentSetup] = None,
                                    llc_sizes_mb: Sequence[float] = (3, 6, 12),
                                    ) -> SweepSpec:
    """Speedup sensitivity to the per-core LLC size (Fig. 20).

    Paper figure: Fig. 20.  Sweep axes: LLC size ∈ ``llc_sizes_mb`` ×
    system ∈ {baseline, Hermes, Pythia, Pythia+Hermes} × the setup's
    workload suite — spec-driven like
    :func:`plan_fig19_rob_size_sensitivity`, with the LLC capacity
    expressed as the ``hierarchy.llc.size_bytes`` override a TOML axis
    would use.

    Payload: ``{llc_size_mb: {hermes, pythia, "pythia+hermes"}}`` —
    geomean speedups over the same-size no-prefetching baseline.
    """
    spec = ExperimentSpec(
        name="fig20-llc-size",
        axes=[_SYSTEM_AXIS,
              Axis("llc", [AxisPoint(
                  f"llc{size_mb}MB",
                  {"hierarchy.llc.size_bytes": int(size_mb * 1024 * 1024)})
                  for size_mb in llc_sizes_mb])])

    def reduce(results: Grouped) -> Dict[float, Dict[str, float]]:
        return {
            size_mb: {
                label: geomean_speedup(results[f"{label}/llc{size_mb}MB"],
                                       results[f"baseline/llc{size_mb}MB"])
                for label in ("hermes", "pythia", "pythia+hermes")
            }
            for size_mb in llc_sizes_mb
        }

    return plan_matrix("fig20", setup or ExperimentSetup(), spec.configs(),
                       reduce)


run_fig20_llc_size_sensitivity = runner_for(plan_fig20_llc_size_sensitivity)
