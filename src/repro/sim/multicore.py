"""Multi-core simulation (shared LLC + shared memory controller).

The paper's eight-core experiments (Section 8.3) run multi-programmed
mixes over private L1/L2 caches, a shared sliced LLC (3 MB per core) and
a higher-bandwidth memory system (4 channels, 2 ranks).
:func:`simulate_multicore` runs one trace per core through
:func:`~repro.sim.simulator.simulate_cores`, the driver single-core runs
use too, and sums the cores' off-chip predictor confusion matrices.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.cpu.core import CoreStats
from repro.dram.config import DRAMConfig
from repro.offchip.base import PredictorStats
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate_cores
from repro.workloads.trace import Trace


@dataclass
class MultiCoreResult:
    """Results of one multi-programmed mix."""

    config_label: str
    workloads: List[str]
    per_core: List[CoreStats]
    memory_controller: Dict[str, float] = field(default_factory=dict)
    predictor: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Sum of per-core IPC (the aggregate metric used for mix speedups)."""
        return sum(stats.ipc for stats in self.per_core)

    def speedup_over(self, baseline: "MultiCoreResult") -> float:
        if baseline.throughput == 0:
            return 0.0
        return self.throughput / baseline.throughput


def simulate_multicore(config: SystemConfig, traces: Sequence[Trace],
                       dram_config: Optional[DRAMConfig] = None) -> MultiCoreResult:
    """Run one multi-programmed mix (one trace per core) to completion."""
    if not traces:
        raise ValueError("simulate_multicore needs at least one trace")
    config = replace(config, dram=dram_config or SystemConfig.eight_core_dram())
    systems = simulate_cores(
        config, [[(trace.accesses, len(trace.accesses))] for trace in traces],
        [int(len(trace.accesses) * config.warmup_fraction) for trace in traces])

    predictor_stats: Dict[str, float] = {}
    predictors = [system.predictor for system in systems
                  if system.predictor is not None]
    if predictors:
        # Sum the cores' confusion matrices, counter by counter.
        counts = zip(*(astuple(predictor.stats) for predictor in predictors))
        predictor_stats = PredictorStats(*map(sum, counts)).as_dict()

    return MultiCoreResult(
        config_label=config.label,
        workloads=[trace.name for trace in traces],
        per_core=[system.core.stats for system in systems],
        memory_controller=systems[0].memory_controller.stats.as_dict(),
        predictor=predictor_stats,
    )
