"""Simulation drivers.

:func:`simulate_cores` is the one driver: N cores over one LLC and one
memory controller, each core fed ``(accesses, stop)`` chunks.  A
single-core run is its one-core case: :func:`simulate_trace` passes an
in-memory :class:`Trace` as one chunk, and :func:`simulate_stream` a
:class:`StreamingTrace` (typically a file-backed external trace from
:mod:`repro.workloads.formats`) in bounded chunks, so arbitrarily long
traces run under O(1) memory with the statistics of an in-memory run.
:func:`repro.sim.multicore.simulate_multicore` passes one trace per core.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from itertools import islice
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.core.hermes import HermesEngine
from repro.cpu.core import OutOfOrderCore
from repro.dram.controller import MemoryController
from repro.memory.cache import Cache
from repro.memory.hierarchy import CacheHierarchy
from repro.offchip.base import OffChipPredictor
from repro.offchip.factory import make_predictor
from repro.offchip.ideal import IdealPredictor
from repro.prefetchers.factory import make_prefetcher
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.workloads.trace import MemoryAccess, StreamingTrace, Trace

#: One core's input: ``(accesses, stop)`` chunks, run as ``accesses[:stop]``.
Chunks = Iterable[Tuple[Sequence[MemoryAccess], int]]


@dataclass
class System:
    """One fully wired core, with the LLC and memory controller it may
    share with other cores."""

    config: SystemConfig
    hierarchy: CacheHierarchy
    memory_controller: MemoryController
    core: OutOfOrderCore
    hermes: Optional[HermesEngine]
    predictor: Optional[OffChipPredictor]

    def reset_stats(self) -> None:
        """Replace the core's private statistics objects (used after its
        warmup phase); the shared LLC and controller are left alone."""
        hierarchy = self.hierarchy
        for part in (self.core, hierarchy, hierarchy.l1d, hierarchy.l2,
                     hierarchy.prefetcher, self.hermes, self.predictor):
            if part is not None:
                part.stats = type(part.stats)()


def build_system(config: SystemConfig,
                 predictor: Optional[OffChipPredictor] = None,
                 llc: Optional[Cache] = None,
                 memory_controller: Optional[MemoryController] = None) -> System:
    """Construct one core's system from ``config``.

    ``predictor`` may be supplied to inject a pre-built (or custom-feature)
    off-chip predictor — used by the feature-ablation experiments.
    ``llc`` and ``memory_controller`` are shared with other cores when
    given; otherwise the system builds its own from ``config``.
    """
    config.validate()
    prefetcher = make_prefetcher(config.prefetcher)
    if memory_controller is None:
        memory_controller = MemoryController(config.dram)
    hierarchy = CacheHierarchy(config=config.hierarchy,
                               prefetcher=prefetcher,
                               llc=llc,
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


def _spans(chunks: Chunks, warmup: int
           ) -> Iterator[Tuple[Sequence[MemoryAccess], int, int, bool]]:
    """One core's spans ``(accesses, start, stop, measured)``: its chunks
    in order, the one holding the warmup boundary cut in two there."""
    position = 0
    for accesses, stop in chunks:
        cut = min(max(warmup - position, 0), stop)
        if cut:
            yield accesses, 0, cut, False
        if cut < stop:
            yield accesses, cut, stop, True
        position += stop


def simulate_cores(config: SystemConfig, sources: Sequence[Chunks],
                   warmups: Sequence[int],
                   predictor: Optional[OffChipPredictor] = None
                   ) -> List[System]:
    """Run one core per chunk source over one LLC and memory controller.

    Core ``i`` runs ``sources[i]``; its first ``warmups[i]`` accesses
    prime the caches and predictors, and their statistics are discarded
    (the paper's warmup/simulate split, Section 7).  The LLC is the
    configured one times the number of cores.

    The cores interleave in the order of their frontend clocks, so
    requests to the shared LLC/DRAM overlap realistically: the core with
    the lowest (cycle, index) heap key runs until its key passes the
    next lowest, exactly the order of running one access at a time from
    the heap.  A span never pauses after its last access, so re-opening
    a span at a chunk boundary changes nothing, and a core's private
    statistics reset at the end of its own warmup, before any other core
    runs.  The shared statistics reset once every core is past warmup.
    Returns the systems with their cores finalized.
    """
    config.validate()
    llc_config = config.hierarchy.llc
    llc = Cache(replace(llc_config,
                        size_bytes=llc_config.size_bytes * len(sources)))
    memory_controller = MemoryController(config.dram)
    systems = [build_system(config, predictor, llc=llc,
                            memory_controller=memory_controller)
               for _ in sources]
    cores = [system.core for system in systems]
    spans = [_spans(chunks, warmup) for chunks, warmup in zip(sources, warmups)]
    warming = {index for index, warmup in enumerate(warmups) if warmup > 0}

    def open_next(index: int) -> bool:
        """Open core ``index``'s next span; False once it has none left."""
        span = next(spans[index], None)
        if span is None:
            return False
        accesses, start, stop, measured = span
        if measured and index in warming:
            # Keep microarchitectural state, discard warmup statistics.
            warming.remove(index)
            systems[index].reset_stats()
            if not warming:
                memory_controller.stats = type(memory_controller.stats)()
                llc.stats = type(llc.stats)()
        cores[index].open_span(accesses, start, stop, index)
        return True

    heap = []
    for index, core in enumerate(cores):
        core.begin()
        if open_next(index):
            heap.append((0.0, index))
    while heap:
        _, index = heapq.heappop(heap)
        core = cores[index]
        if core.step(heap[0] if heap else None) or open_next(index):
            heapq.heappush(heap, (core.current_cycle, index))
    for core in cores:
        core.finalize()
    return systems


def simulate_trace(config: SystemConfig, trace: Trace,
                   predictor: Optional[OffChipPredictor] = None,
                   max_accesses: Optional[int] = None) -> SimulationResult:
    """Run ``trace`` on a freshly built system described by ``config``.

    A warmup phase (``config.warmup_fraction`` of the trace) primes the
    caches and the predictors; statistics are collected only over the
    measured portion.
    """
    accesses = trace.accesses
    total = len(accesses) if max_accesses is None else min(max_accesses, len(accesses))
    # One chunk: the core iterates the shared access list in place — no
    # per-run copy of the (potentially huge) trace.
    [system] = simulate_cores(config, [[(accesses, total)]],
                              [int(total * config.warmup_fraction)],
                              predictor=predictor)
    return _collect(system, trace)


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
    ``length`` (trace-file headers carry it).  When the length is
    unknown (a pipe, or a trace header without a ``count``) the warmup
    phase is skipped, since ``config.warmup_fraction`` of an unknown
    total is undefined — a ``UserWarning`` flags the resulting stats
    divergence from an in-memory run (traces written by
    :mod:`repro.workloads.formats` always declare their length).
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
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
    read = 0

    def chunks() -> Chunks:
        nonlocal read
        # Opened only now, once the driver has validated the config: the
        # stream may be a single-pass pipe.
        source = islice(stream, max_accesses)
        while chunk := list(islice(source, chunk_size)):
            read += len(chunk)
            yield chunk, len(chunk)

    [system] = simulate_cores(config, [chunks()], [warmup_count],
                              predictor=predictor)
    if warmup_count and read <= warmup_count:
        # The source ended inside the warmup phase: its declared length
        # overstated the actual record count (e.g. a truncated file), so
        # the measured statistics would silently include warmup.  Refuse.
        raise ValueError(
            f"stream {stream.name!r} ended after {read} accesses, inside "
            f"the {warmup_count}-access warmup derived from its declared "
            f"length {length}; the trace is shorter than its header claims")
    return _collect(system, stream)


def simulate_suite(config: SystemConfig, traces: Sequence[Trace],
                   max_accesses: Optional[int] = None) -> List[SimulationResult]:
    """Run a list of traces through (fresh copies of) the same configuration."""
    return [simulate_trace(config, trace, max_accesses=max_accesses)
            for trace in traces]


def _collect(system: System,
             trace: Union[Trace, StreamingTrace]) -> SimulationResult:
    def stats(part: Any) -> Dict[str, float]:
        return {} if part is None else part.stats.as_dict()

    return SimulationResult(
        workload=trace.name,
        category=trace.category,
        config_label=system.config.label,
        core=system.core.stats,
        hierarchy=stats(system.hierarchy),
        memory_controller=stats(system.memory_controller),
        predictor=stats(system.predictor),
        hermes=stats(system.hermes),
        llc=stats(system.hierarchy.llc),
        prefetcher=stats(system.hierarchy.prefetcher),
    )
