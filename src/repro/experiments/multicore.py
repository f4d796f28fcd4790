"""Eight-core performance experiment (Fig. 16 of the paper)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import geomean
from repro.experiments.common import ExperimentSetup, runner_for
from repro.runner import SimJob, SweepSpec
from repro.sim.config import SystemConfig
from repro.sim.multicore import MultiCoreResult
from repro.workloads.suite import multicore_mix_names


def plan_fig16_multicore(num_cores: int = 8, num_mixes: int = 3,
                         num_accesses: int = 4000,
                         predictors: Sequence[str] = ("hmp", "ttp", "popet"),
                         seed: int = 99,
                         setup: Optional[ExperimentSetup] = None) -> SweepSpec:
    """Geomean throughput speedup of Pythia + Hermes-{HMP,TTP,POPET} over no-prefetching.

    Paper figure: Fig. 16.  Sweep axes: system ∈ {no-prefetching,
    Pythia, Pythia+Hermes-<predictor> for each of ``predictors``} ×
    ``num_mixes`` seeded multi-programmed mixes of ``num_cores``
    workloads each (one per core, shared LLC, the paper's 4-channel
    eight-core memory system).

    Payload: ``{system: geomean_throughput_speedup}`` (flat).  Mix
    sizing comes from the explicit arguments, not from ``setup``.
    """
    mixes = multicore_mix_names(num_cores=num_cores, num_mixes=num_mixes,
                                seed=seed)
    configs: Dict[str, SystemConfig] = {
        "baseline": SystemConfig.no_prefetching(),
        "pythia": SystemConfig.baseline("pythia"),
    }
    for predictor in predictors:
        configs[f"pythia+hermes-{predictor}"] = SystemConfig.with_hermes(
            predictor, prefetcher="pythia")

    jobs: List[SimJob] = [
        SimJob(config=config, workload=tuple(mix), num_accesses=num_accesses,
               mode="multicore")
        for config in configs.values()
        for mix in mixes
    ]

    def reduce(results: List[MultiCoreResult]) -> Dict[str, float]:
        throughputs = {
            label: [results[config_index * len(mixes) + mix_index].throughput
                    for mix_index in range(len(mixes))]
            for config_index, label in enumerate(configs)
        }
        baseline_throughputs = throughputs.pop("baseline")
        table: Dict[str, float] = {}
        for label, values in throughputs.items():
            speedups = [t / b for t, b in zip(values, baseline_throughputs)
                        if b > 0]
            table[label] = geomean(speedups)
        return table

    return SweepSpec(name="fig16", jobs=jobs, reducer=reduce)


run_fig16_multicore = runner_for(plan_fig16_multicore)
