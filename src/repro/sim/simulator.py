"""Single-core simulation drivers.

:func:`simulate_trace` runs an in-memory :class:`Trace`;
:func:`simulate_stream` runs a :class:`StreamingTrace` (typically a
file-backed external trace from :mod:`repro.workloads.formats`) in
bounded chunks so arbitrarily long traces execute under O(1) memory.
Both share :func:`build_system` and produce identical statistics for the
same access sequence, warmup split, and configuration — the streaming
path feeds the same core loop
(:meth:`~repro.cpu.core.OutOfOrderCore.run_span`), one chunk at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Sequence, Union

from repro.core.hermes import HermesEngine, HermesStats
from repro.cpu.core import CoreStats, OutOfOrderCore
from repro.dram.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy, HierarchyStats
from repro.offchip.base import OffChipPredictor, PredictorStats
from repro.offchip.factory import make_predictor
from repro.offchip.ideal import IdealPredictor
from repro.prefetchers.factory import make_prefetcher
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.workloads.trace import StreamingTrace, Trace


@dataclass
class System:
    """A fully wired single-core system."""

    config: SystemConfig
    hierarchy: CacheHierarchy
    memory_controller: MemoryController
    core: OutOfOrderCore
    hermes: Optional[HermesEngine]
    predictor: Optional[OffChipPredictor]

    def reset_stats(self) -> None:
        """Replace every statistics object (used after the warmup phase)."""
        self.hierarchy.stats = HierarchyStats()
        self.memory_controller.stats = type(self.memory_controller.stats)()
        if self.hermes is not None:
            self.hermes.stats = HermesStats()
        if self.predictor is not None:
            self.predictor.stats = PredictorStats()
        if self.hierarchy.prefetcher is not None:
            self.hierarchy.prefetcher.stats = type(self.hierarchy.prefetcher.stats)()
        for cache in (self.hierarchy.l1d, self.hierarchy.l2, self.hierarchy.llc):
            cache.stats = type(cache.stats)()


def build_system(config: SystemConfig,
                 predictor: Optional[OffChipPredictor] = None) -> System:
    """Construct a single-core system from ``config``.

    ``predictor`` may be supplied to inject a pre-built (or custom-feature)
    off-chip predictor — used by the feature-ablation experiments.
    """
    config.validate()
    prefetcher = make_prefetcher(config.prefetcher)
    memory_controller = MemoryController(config.dram)
    hierarchy = CacheHierarchy(config=config.hierarchy,
                               prefetcher=prefetcher,
                               memory_controller=memory_controller)
    hermes: Optional[HermesEngine] = None
    if config.offchip_predictor is not None or predictor is not None:
        if predictor is None:
            predictor = make_predictor(config.offchip_predictor)
        if isinstance(predictor, IdealPredictor):
            predictor.bind_oracle(hierarchy.would_go_offchip)
        hermes = HermesEngine(predictor, memory_controller, config.hermes)
    core = OutOfOrderCore(hierarchy, hermes=hermes, config=config.core)
    return System(config=config, hierarchy=hierarchy,
                  memory_controller=memory_controller, core=core,
                  hermes=hermes, predictor=predictor)


def simulate_trace(config: SystemConfig, trace: Trace,
                   predictor: Optional[OffChipPredictor] = None,
                   max_accesses: Optional[int] = None) -> SimulationResult:
    """Run ``trace`` on a freshly built system described by ``config``.

    A warmup phase (``config.warmup_fraction`` of the trace) primes the
    caches and the predictors; statistics are collected only over the
    measured portion, mirroring the paper's warmup/simulate split
    (Section 7).
    """
    # build_system validates the config first thing (recursing through
    # every embedded config and resolving component names against the
    # registries), so invalid configs fail before any simulation work.
    system = build_system(config, predictor=predictor)
    accesses = trace.accesses
    total = len(accesses) if max_accesses is None else min(max_accesses, len(accesses))
    warmup_count = int(total * config.warmup_fraction)

    core = system.core
    core.begin()
    # The loop iterates the shared access list in place — no per-run
    # copy of the (potentially huge) trace.
    core.run_span(accesses, 0, warmup_count)
    if warmup_count:
        # Keep microarchitectural state, discard warmup statistics.
        system.reset_stats()
        core.stats = CoreStats()
    core.run_span(accesses, warmup_count, total)
    core_stats = core.finalize()

    return _collect(system, trace, core_stats)


#: Chunk size (accesses) of the streaming driver's read-ahead buffer;
#: peak extra memory is roughly ``STREAM_CHUNK_SIZE`` MemoryAccess
#: records regardless of trace length.
STREAM_CHUNK_SIZE = 65536


def simulate_stream(config: SystemConfig,
                    stream: Union[StreamingTrace, Trace],
                    predictor: Optional[OffChipPredictor] = None,
                    max_accesses: Optional[int] = None,
                    chunk_size: int = STREAM_CHUNK_SIZE) -> SimulationResult:
    """Run a streaming trace under bounded memory.

    Statistics are bit-identical to :func:`simulate_trace` on the same
    access sequence: the warmup/measure split uses the stream's declared
    ``length`` (trace-file headers carry it) and the chunked
    :meth:`~repro.cpu.core.OutOfOrderCore.run_span` calls are
    semantically equivalent to one span over the whole list.  When the
    length is unknown (a pipe, or a trace header without a ``count``)
    the warmup phase is skipped, since ``config.warmup_fraction`` of an
    unknown total is undefined — a ``UserWarning`` flags the resulting
    stats divergence from an in-memory run (traces written by
    :mod:`repro.workloads.formats` always declare their length).
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    # build_system validates the config before the stream (which may be
    # a single-pass pipe) is touched.
    system = build_system(config, predictor=predictor)
    length = stream.length if isinstance(stream, StreamingTrace) else len(stream)
    if length is None and config.warmup_fraction > 0:
        import warnings
        warnings.warn(
            f"stream {stream.name!r} does not declare its length; skipping "
            f"the warmup phase (warmup_fraction={config.warmup_fraction}) — "
            f"statistics will include cold-start effects an in-memory run "
            f"would discard", UserWarning, stacklevel=2)
    if length is not None and max_accesses is not None:
        length = min(length, max_accesses)
    warmup_count = int(length * config.warmup_fraction) if length else 0

    core = system.core
    core.begin()
    source = iter(stream)
    if max_accesses is not None:
        source = islice(source, max_accesses)
    position = 0
    measuring = warmup_count == 0
    while True:
        chunk = list(islice(source, chunk_size))
        if not chunk:
            break
        start = 0
        if not measuring:
            boundary = warmup_count - position
            if boundary >= len(chunk):
                core.run_span(chunk, 0, len(chunk))
                position += len(chunk)
                continue
            if boundary:
                core.run_span(chunk, 0, boundary)
            # Keep microarchitectural state, discard warmup statistics
            # (mirrors simulate_trace's split).
            system.reset_stats()
            core.stats = CoreStats()
            measuring = True
            start = boundary
        core.run_span(chunk, start, len(chunk))
        position += len(chunk)
    if not measuring:
        # The source ended inside the warmup phase: its declared length
        # overstated the actual record count (e.g. a truncated file), so
        # the measured statistics would silently include warmup.  Refuse.
        raise ValueError(
            f"stream {stream.name!r} ended after {position} accesses, inside "
            f"the {warmup_count}-access warmup derived from its declared "
            f"length {length}; the trace is shorter than its header claims")
    core_stats = core.finalize()
    return _collect(system, stream, core_stats)


def simulate_suite(config: SystemConfig, traces: Sequence[Trace],
                   max_accesses: Optional[int] = None) -> List[SimulationResult]:
    """Run a list of traces through (fresh copies of) the same configuration."""
    return [simulate_trace(config, trace, max_accesses=max_accesses)
            for trace in traces]


def _collect(system: System, trace: Union[Trace, StreamingTrace],
             core_stats: CoreStats) -> SimulationResult:
    predictor_stats: Dict[str, float] = {}
    if system.predictor is not None:
        predictor_stats = system.predictor.stats.as_dict()
    hermes_stats: Dict[str, int] = {}
    if system.hermes is not None:
        hermes_stats = system.hermes.stats.as_dict()
    prefetcher_stats: Dict[str, int] = {}
    if system.hierarchy.prefetcher is not None:
        prefetcher_stats = system.hierarchy.prefetcher.stats.as_dict()
    return SimulationResult(
        workload=trace.name,
        category=trace.category,
        config_label=system.config.label,
        core=core_stats,
        hierarchy=system.hierarchy.stats.as_dict(),
        memory_controller=system.memory_controller.stats.as_dict(),
        predictor=predictor_stats,
        hermes=hermes_stats,
        llc=system.hierarchy.llc.stats.as_dict(),
        prefetcher=prefetcher_stats,
    )
