"""Multi-core simulation driver (shared LLC + shared memory controller).

The paper's eight-core experiments (Section 8.3) run multi-programmed
mixes over private L1/L2 caches, a shared sliced LLC (3 MB per core) and
a higher-bandwidth memory system (4 channels, 2 ranks).  This driver
builds one :class:`~repro.cpu.core.OutOfOrderCore` per trace, wires every
per-core hierarchy to a single shared LLC and memory controller, and
interleaves the cores' execution ordered by each core's own frontend
clock, so contention on the shared structures emerges from overlapping
request streams.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.hermes import HermesEngine, HermesStats
from repro.cpu.core import CoreStats, OutOfOrderCore
from repro.dram.config import DRAMConfig
from repro.dram.controller import MemoryController
from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import CacheHierarchy, HierarchyStats
from repro.offchip.base import PredictorStats
from repro.offchip.factory import make_predictor
from repro.offchip.ideal import IdealPredictor
from repro.prefetchers.factory import make_prefetcher
from repro.sim.config import SystemConfig
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

    @property
    def total_offchip_loads(self) -> int:
        return sum(stats.offchip_loads for stats in self.per_core)

    def speedup_over(self, baseline: "MultiCoreResult") -> float:
        if baseline.throughput == 0:
            return 0.0
        return self.throughput / baseline.throughput


def _reset_core_stats(core: OutOfOrderCore) -> None:
    """Discard one core's warmup statistics; keep microarchitectural state."""
    core.stats = CoreStats()
    hierarchy = core.hierarchy
    hierarchy.stats = HierarchyStats()
    for cache in (hierarchy.l1d, hierarchy.l2):
        cache.stats = type(cache.stats)()
    if hierarchy.prefetcher is not None:
        hierarchy.prefetcher.stats = type(hierarchy.prefetcher.stats)()
    if core.hermes is not None:
        core.hermes.stats = HermesStats()
        core.hermes.predictor.stats = PredictorStats()


def simulate_multicore(config: SystemConfig, traces: Sequence[Trace],
                       dram_config: Optional[DRAMConfig] = None) -> MultiCoreResult:
    """Run one multi-programmed mix (one trace per core) to completion."""
    config.validate()
    num_cores = len(traces)
    if num_cores == 0:
        raise ValueError("simulate_multicore needs at least one trace")

    dram = dram_config or SystemConfig.eight_core_dram()
    memory_controller = MemoryController(dram)
    shared_llc_config = replace(config.hierarchy.llc,
                                size_bytes=config.hierarchy.llc.size_bytes * num_cores,
                                name="LLC-shared")
    shared_llc = Cache(shared_llc_config)

    cores: List[OutOfOrderCore] = []
    predictors = []
    for _ in range(num_cores):
        prefetcher = make_prefetcher(config.prefetcher)
        hierarchy = CacheHierarchy(config=config.hierarchy,
                                   prefetcher=prefetcher,
                                   llc=shared_llc,
                                   memory_controller=memory_controller)
        hermes: Optional[HermesEngine] = None
        if config.offchip_predictor is not None:
            predictor = make_predictor(config.offchip_predictor)
            if isinstance(predictor, IdealPredictor):
                predictor.bind_oracle(hierarchy.would_go_offchip)
            predictors.append(predictor)
            hermes = HermesEngine(predictor, memory_controller, config.hermes)
        core = OutOfOrderCore(hierarchy, hermes=hermes, config=config.core)
        cores.append(core)

    # Interleave cores ordered by their own frontend clocks so requests to
    # the shared LLC/DRAM from different cores overlap realistically: the
    # core with the lowest (cycle, index) heap key runs until its key
    # passes the next lowest, exactly the order of running one access at
    # a time from the heap.  As in the single-core driver, the first
    # ``config.warmup_fraction`` of each trace is a warmup span whose
    # statistics are discarded: each core's private stats reset when that
    # core ends its own warmup span (no barrier, so the interleaving is
    # identical with warmup disabled), and the shared LLC /
    # memory-controller stats reset once every core is past warmup.
    warmup_limits = [int(len(trace.accesses) * config.warmup_fraction)
                     for trace in traces]
    warming = [limit > 0 for limit in warmup_limits]
    cores_warming = sum(warming)
    heap = []
    for index, core in enumerate(cores):
        accesses = traces[index].accesses
        core.begin()
        core.open_span(accesses, 0, warmup_limits[index] or len(accesses),
                       index)
        heapq.heappush(heap, (0.0, index))
    while heap:
        _, index = heapq.heappop(heap)
        core = cores[index]
        if core.step(heap[0] if heap else None):
            heapq.heappush(heap, (core.current_cycle, index))
        elif warming[index]:
            warming[index] = False
            _reset_core_stats(core)
            cores_warming -= 1
            if cores_warming == 0:
                memory_controller.stats = type(memory_controller.stats)()
                shared_llc.stats = type(shared_llc.stats)()
            accesses = traces[index].accesses
            core.open_span(accesses, warmup_limits[index], len(accesses), index)
            heapq.heappush(heap, (core.current_cycle, index))

    per_core = [core.finalize() for core in cores]

    predictor_stats: Dict[str, float] = {}
    if predictors:
        # Aggregate the confusion matrices across cores.
        totals = {"true_positives": 0, "false_positives": 0,
                  "true_negatives": 0, "false_negatives": 0}
        for predictor in predictors:
            for key in totals:
                totals[key] += getattr(predictor.stats, key)
        predicted = totals["true_positives"] + totals["false_positives"]
        actual = totals["true_positives"] + totals["false_negatives"]
        predictor_stats = dict(totals)
        predictor_stats["accuracy"] = (totals["true_positives"] / predicted
                                       if predicted else 0.0)
        predictor_stats["coverage"] = (totals["true_positives"] / actual
                                       if actual else 0.0)

    return MultiCoreResult(
        config_label=config.label,
        workloads=[trace.name for trace in traces],
        per_core=per_core,
        memory_controller=memory_controller.stats.as_dict(),
        predictor=predictor_stats,
    )
