"""Workload catalogue: named traces grouped into the paper's categories.

The paper evaluates five suites (SPEC06, SPEC17, PARSEC, Ligra, CVP).  We
provide several named synthetic workloads per category, each built from
one of the generators in :mod:`repro.workloads.generators` with distinct
parameters and seeds, so category averages aggregate genuinely different
behaviours as in the paper.  The catalogue lists the paper-shaped
workloads first within each category (experiment setups that take the
first N per category keep reproducing the paper's sweeps), with extra
scenario families — phase-changing, multi-tenant interference, bursty
server — appended after them.

:func:`make_trace` also accepts a *trace file path* (any extension known
to :mod:`repro.workloads.formats`, e.g. ``traces/app.jsonl.gz``)
anywhere a catalogue name is accepted, so external traces flow through
the same job/runner/cache machinery as synthetic ones.
"""

from __future__ import annotations

import os
import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.workloads.generators import (
    BurstyServerWorkload,
    GraphAnalyticsWorkload,
    MixedIrregularWorkload,
    MultiTenantWorkload,
    PhaseChangingWorkload,
    PointerChaseWorkload,
    ServerWorkload,
    StreamingWorkload,
    StridedWorkload,
    SyntheticWorkload,
)
from repro.workloads.trace import Trace

#: Workload categories, in the paper's presentation order.
CATEGORIES: List[str] = ["SPEC06", "SPEC17", "PARSEC", "Ligra", "CVP"]


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload and the factory that builds its generator."""

    name: str
    category: str
    factory: Callable[[], SyntheticWorkload]


def _specs() -> List[WorkloadSpec]:
    return [
        # SPEC CPU2006-like: strided fp kernels and hot/cold integer codes.
        WorkloadSpec("spec06.mcf_chase", "SPEC06",
                     lambda: PointerChaseWorkload("spec06.mcf_chase", seed=13,
                                                  footprint_mb=96,
                                                  hot_probability=0.85)),
        WorkloadSpec("spec06.stencil", "SPEC06",
                     lambda: StridedWorkload("spec06.stencil", seed=11,
                                             stride_bytes=24, array_mb=48)),
        WorkloadSpec("spec06.libq_stream", "SPEC06",
                     lambda: StreamingWorkload("spec06.libq_stream", seed=12,
                                               num_streams=2, array_mb=48,
                                               store_fraction=0.05)),
        WorkloadSpec("spec06.gcc_mixed", "SPEC06",
                     lambda: MixedIrregularWorkload("spec06.gcc_mixed", seed=14,
                                                    cold_probability=0.1,
                                                    cold_footprint_mb=64)),
        WorkloadSpec("spec17.mcf_chase", "SPEC17",
                     lambda: PointerChaseWorkload("spec17.mcf_chase", seed=22,
                                                  footprint_mb=128,
                                                  hot_probability=0.8)),
        WorkloadSpec("spec17.lbm_stream", "SPEC17",
                     lambda: StreamingWorkload("spec17.lbm_stream", seed=21,
                                               num_streams=6, array_mb=40,
                                               store_fraction=0.25)),
        WorkloadSpec("spec17.xalanc_mixed", "SPEC17",
                     lambda: MixedIrregularWorkload("spec17.xalanc_mixed", seed=23,
                                                    cold_probability=0.15,
                                                    cold_footprint_mb=96)),
        WorkloadSpec("spec17.roms_strided", "SPEC17",
                     lambda: StridedWorkload("spec17.roms_strided", seed=24,
                                             stride_bytes=40, array_mb=64)),
        WorkloadSpec("parsec.canneal", "PARSEC",
                     lambda: PointerChaseWorkload("parsec.canneal", seed=32,
                                                  footprint_mb=80,
                                                  hot_probability=0.82,
                                                  chase_length=6)),
        WorkloadSpec("parsec.streamcluster", "PARSEC",
                     lambda: StreamingWorkload("parsec.streamcluster", seed=31,
                                               num_streams=4, array_mb=32)),
        WorkloadSpec("parsec.facesim", "PARSEC",
                     lambda: StridedWorkload("parsec.facesim", seed=33,
                                             stride_bytes=16, array_mb=36)),
        WorkloadSpec("ligra.bfs", "Ligra",
                     lambda: GraphAnalyticsWorkload("ligra.bfs", seed=41,
                                                    edges_per_vertex=3,
                                                    hot_access_probability=0.8)),
        WorkloadSpec("ligra.pagerank", "Ligra",
                     lambda: GraphAnalyticsWorkload("ligra.pagerank", seed=42,
                                                    edges_per_vertex=6,
                                                    hot_access_probability=0.85)),
        WorkloadSpec("ligra.components", "Ligra",
                     lambda: GraphAnalyticsWorkload("ligra.components", seed=43,
                                                    edges_per_vertex=4,
                                                    hot_access_probability=0.75)),
        WorkloadSpec("cvp.server_int", "CVP",
                     lambda: ServerWorkload("cvp.server_int", seed=51,
                                            num_load_pcs=192, footprint_mb=48)),
        WorkloadSpec("cvp.compute_fp", "CVP",
                     lambda: StreamingWorkload("cvp.compute_fp", seed=53,
                                               num_streams=8, array_mb=24,
                                               store_fraction=0.15)),
        WorkloadSpec("cvp.server_db", "CVP",
                     lambda: ServerWorkload("cvp.server_db", seed=52,
                                            num_load_pcs=320, footprint_mb=64,
                                            random_access_probability=0.15)),
        # Extra scenario families (appended after the paper-shaped
        # workloads so first-N-per-category experiment slices are stable).
        WorkloadSpec("spec17.fotonik_phase", "SPEC17",
                     lambda: PhaseChangingWorkload("spec17.fotonik_phase",
                                                   seed=25, phase_length=2500,
                                                   footprint_mb=96)),
        WorkloadSpec("parsec.dedup_tenants", "PARSEC",
                     lambda: MultiTenantWorkload("parsec.dedup_tenants",
                                                 seed=34, num_tenants=4,
                                                 hot_set_kb=512)),
        WorkloadSpec("cvp.web_bursty", "CVP",
                     lambda: BurstyServerWorkload("cvp.web_bursty", seed=54,
                                                  footprint_mb=64,
                                                  burst_length=48)),
    ]


_SPEC_INDEX: Dict[str, WorkloadSpec] = {spec.name: spec for spec in _specs()}


class TraceCache:
    """In-process LRU memo for generated traces.

    Keyed by ``(workload name, num_accesses, generator seed)``.  Trace
    generation is deterministic given the seed, and consumers treat
    traces as read-only, so repeated requests (every experiment runner
    regenerating the same evaluation suite) can share one object instead
    of re-running the generator.
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[str, int, int], Trace]" = OrderedDict()

    def get_or_create(self, key: Tuple[str, int, int],
                      factory: Callable[[], Trace]) -> Trace:
        try:
            trace = self._entries[key]
        except KeyError:
            self.misses += 1
            trace = factory()
            self._entries[key] = trace
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        else:
            self.hits += 1
            self._entries.move_to_end(key)
        return trace

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def info(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._entries), "maxsize": self.maxsize}

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide trace cache used by :func:`make_trace`.
_TRACE_CACHE = TraceCache()


def trace_cache() -> TraceCache:
    """The process-wide trace cache (for inspection and tests)."""
    return _TRACE_CACHE


def clear_trace_cache() -> None:
    """Drop every memoised trace (tests; long-lived processes)."""
    _TRACE_CACHE.clear()


def trace_cache_info() -> Dict[str, int]:
    """Hit/miss/size counters of the process-wide trace cache."""
    return _TRACE_CACHE.info()


def workload_names(category: Optional[str] = None) -> List[str]:
    """Return all workload names, optionally filtered by category."""
    if category is None:
        return list(_SPEC_INDEX)
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    return [name for name, spec in _SPEC_INDEX.items() if spec.category == category]


def make_trace(name: str, num_accesses: int = 20000) -> Trace:
    """Build the named workload's trace with ``num_accesses`` memory ops.

    ``name`` is either a catalogue workload name (generated
    synthetically) or a trace file path in any registered interchange
    format, in which case the file is loaded and truncated to at most
    ``num_accesses`` records.  Results are memoised in the process-wide
    :class:`TraceCache` (traces are deterministic given the generator
    seed — or the file contents — and treated as read-only), so repeated
    requests return the same object without regeneration.
    """
    try:
        spec = _SPEC_INDEX[name]
    except KeyError as exc:
        from repro.workloads.formats import is_trace_path, stream_trace
        if is_trace_path(name) and os.path.exists(name):
            # External trace file: key the cache on the file identity
            # (path + mtime) so an overwritten file is re-read.  Read
            # through the streaming API so at most num_accesses records
            # are ever decoded, however long the file is.
            mtime_ns = os.stat(name).st_mtime_ns

            def _load() -> Trace:
                return stream_trace(name).materialised(num_accesses)

            return _TRACE_CACHE.get_or_create((name, num_accesses, mtime_ns),
                                              _load)
        raise ValueError(
            f"unknown workload {name!r}; expected one of {list(_SPEC_INDEX)} "
            f"or an existing trace file path"
        ) from exc
    generator = spec.factory()
    generator.category = spec.category

    def _generate() -> Trace:
        trace = generator.generate(num_accesses)
        trace.category = spec.category
        return trace

    return _TRACE_CACHE.get_or_create((name, num_accesses, generator.seed),
                                      _generate)


def select_workload_names(categories: Optional[Sequence[str]] = None,
                          per_category: Optional[int] = None) -> List[str]:
    """The suite's workload selection, in suite order.

    This is the *single* implementation of the category/per-category
    selection rule — :func:`workload_suite`,
    :meth:`repro.experiments.common.ExperimentSetup.workload_names` and
    experiment-spec files all derive from it, so they cannot drift.
    ``per_category`` keeps the first N workloads of each category (the
    paper-shaped ones come first in the catalogue).
    """
    selected_categories = (list(categories) if categories is not None
                           else list(CATEGORIES))
    names: List[str] = []
    for category in selected_categories:
        selected = workload_names(category)
        if per_category is not None:
            selected = selected[:per_category]
        names.extend(selected)
    return names


def workload_suite(num_accesses: int = 20000,
                   categories: Optional[Sequence[str]] = None,
                   per_category: Optional[int] = None) -> List[Trace]:
    """Generate the full evaluation suite (or a subset of it).

    The selection comes from :func:`select_workload_names`;
    ``per_category`` limits the number of workloads taken from each
    category, which keeps the benchmark harness affordable while still
    exercising every category.
    """
    return [make_trace(name, num_accesses)
            for name in select_workload_names(categories, per_category)]


def multicore_mix_names(num_cores: int = 8, num_mixes: int = 4,
                        seed: int = 99,
                        homogeneous: bool = False) -> List[List[str]]:
    """Choose the workload names of each multi-programmed mix.

    Separated from trace generation so the declarative experiment job
    model can describe a multicore run as a list of names (regenerated
    deterministically inside worker processes) instead of shipping
    trace objects around.
    """
    rng = random.Random(seed)
    names = workload_names()
    mixes: List[List[str]] = []
    for mix_index in range(num_mixes):
        if homogeneous:
            mixes.append([names[mix_index % len(names)]] * num_cores)
        else:
            mixes.append([rng.choice(names) for _ in range(num_cores)])
    return mixes


def multicore_mixes(num_cores: int = 8, num_mixes: int = 4,
                    num_accesses: int = 8000, seed: int = 99,
                    homogeneous: bool = False) -> List[List[Trace]]:
    """Build multi-programmed workload mixes for the eight-core experiments.

    Homogeneous mixes run ``num_cores`` copies of one workload;
    heterogeneous mixes draw ``num_cores`` random workloads from the
    catalogue, as in Section 7.1.
    """
    return [[make_trace(name, num_accesses) for name in mix]
            for mix in multicore_mix_names(num_cores=num_cores,
                                           num_mixes=num_mixes, seed=seed,
                                           homogeneous=homogeneous)]
