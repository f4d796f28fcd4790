"""Synthetic workload trace generators.

Each generator models one of the access-pattern classes that dominate the
paper's workload categories:

* :class:`StreamingWorkload` — sequential streams over large arrays
  (SPEC fp / PARSEC ``streamcluster``-like).  Highly prefetchable; the
  off-chip loads that remain are the stream heads (byte offset 0), which
  is exactly the correlation the "PC ^ byte offset" POPET feature learns.
* :class:`StridedWorkload` — short-stride stencil-like sweeps with
  per-element reuse and occasional phase changes (SPEC fp kernels).
* :class:`PointerChaseWorkload` — dependent random traversals over a
  footprint much larger than the LLC (``mcf``/linked-structure-like).
  Not prefetchable; per-PC behaviour is strongly bimodal, which POPET's
  PC-based features capture.
* :class:`GraphAnalyticsWorkload` — Ligra-like hybrid: a sequential pass
  over an index array plus random accesses to a large property array with
  a skewed (hot/cold) vertex popularity distribution.
* :class:`MixedIrregularWorkload` — SPEC int-like mix of a cache-resident
  hot set and cold random accesses, partitioned by PC.
* :class:`ServerWorkload` — CVP-like: many static loads, large code
  footprint, bursty accesses with strong within-burst line reuse.
* :class:`PhaseChangingWorkload` — alternates whole program phases
  (streaming, strided, pointer-chase) every few thousand accesses, the
  regime where POPET's online re-training matters most.
* :class:`MultiTenantWorkload` — several interleaved tenants whose hot
  sets thrash each other in the shared hierarchy (consolidated-server
  interference).
* :class:`BurstyServerWorkload` — ON/OFF request bursts separated by
  long compute-only gaps, with heavy within-burst reuse and a long-tail
  of cold random accesses.

The generators are calibrated so that, in the no-prefetching baseline
system, LLC MPKI lands in the single-digit-to-low-tens range the paper's
memory-intensive traces exhibit (its selection threshold is >= 3 MPKI),
and so that only a minority of loads go off-chip — the regime that makes
off-chip prediction hard (Section 3.2).

All generators are deterministic given their seed.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.memory.address import BLOCK_SIZE, PAGE_SIZE
from repro.workloads.trace import MemoryAccess, Trace

#: Base virtual address of the synthetic data segment (arbitrary, page aligned).
_DATA_BASE = 0x1000_0000
#: Base virtual address of the synthetic code segment (for PCs).
_CODE_BASE = 0x40_0000

MB = 1 << 20
KB = 1 << 10


class SyntheticWorkload(ABC):
    """Base class for deterministic synthetic trace generators."""

    #: Category label matching the paper's workload suites.
    category: str = "SYNTH"

    def __init__(self, name: str, seed: int = 1) -> None:
        self.name = name
        self.seed = seed

    def generate(self, num_accesses: int) -> Trace:
        """Generate a trace with ``num_accesses`` memory instructions."""
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        rng = random.Random(self.seed)
        trace = Trace(name=self.name, category=self.category)
        self._fill(trace, num_accesses, rng)
        return trace

    @abstractmethod
    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        """Append ``num_accesses`` records to ``trace``."""

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _pc(index: int) -> int:
        """Synthesise a stable PC for static load site ``index``."""
        return _CODE_BASE + index * 4

    @staticmethod
    def _addr(region_offset: int) -> int:
        return _DATA_BASE + region_offset


class StreamingWorkload(SyntheticWorkload):
    """Multiple interleaved sequential streams over large arrays."""

    category = "PARSEC"

    def __init__(self, name: str, seed: int = 1, num_streams: int = 4,
                 array_mb: int = 32, element_bytes: int = 8,
                 nonmem_per_access: int = 6, store_fraction: float = 0.1,
                 dependent_fraction: float = 0.15) -> None:
        super().__init__(name, seed)
        self.num_streams = num_streams
        self.array_bytes = array_mb * MB
        self.element_bytes = element_bytes
        self.nonmem_per_access = nonmem_per_access
        self.store_fraction = store_fraction
        self.dependent_fraction = dependent_fraction

    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        # Each stream has its own array region and its own load PC.
        cursors = [rng.randrange(0, self.array_bytes // 2) // self.element_bytes
                   * self.element_bytes
                   for _ in range(self.num_streams)]
        for i in range(num_accesses):
            stream = i % self.num_streams
            offset = stream * self.array_bytes + cursors[stream]
            cursors[stream] = (cursors[stream] + self.element_bytes) % self.array_bytes
            is_store = rng.random() < self.store_fraction
            # A fraction of loads feed loop-carried computation (e.g. a
            # reduction), limiting how far the core can run ahead.
            dependent = (not is_store) and rng.random() < self.dependent_fraction
            trace.accesses.append(MemoryAccess(
                pc=self._pc(stream * 2 + int(is_store)),
                address=self._addr(offset),
                is_load=not is_store,
                nonmem_before=self.nonmem_per_access,
                depends_on_previous_load=dependent))


class StridedWorkload(SyntheticWorkload):
    """Stencil-like sweeps: short strides, per-element reuse, phase changes."""

    category = "SPEC06"

    def __init__(self, name: str, seed: int = 2, stride_bytes: int = 24,
                 repeats_per_element: int = 3, array_mb: int = 48,
                 phase_length: int = 4096, nonmem_per_access: int = 6) -> None:
        super().__init__(name, seed)
        if repeats_per_element <= 0:
            raise ValueError("repeats_per_element must be positive")
        self.stride_bytes = stride_bytes
        self.repeats_per_element = repeats_per_element
        self.array_bytes = array_mb * MB
        self.phase_length = phase_length
        self.nonmem_per_access = nonmem_per_access

    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        cursor = 0
        stride = self.stride_bytes
        pc_index = 0
        count = 0
        while count < num_accesses:
            if count and count % self.phase_length < self.repeats_per_element:
                # Phase change: new stride, new load PC, new starting point.
                stride = self.stride_bytes * rng.choice([1, 2])
                pc_index = (pc_index + 1) % 8
                cursor = rng.randrange(0, self.array_bytes // BLOCK_SIZE) * BLOCK_SIZE
            cursor = (cursor + stride) % self.array_bytes
            # The same element is read several times (e.g. neighbouring
            # stencil points), so most accesses hit in the L1.
            for repeat in range(self.repeats_per_element):
                if count >= num_accesses:
                    break
                trace.accesses.append(MemoryAccess(
                    pc=self._pc(pc_index * 4 + repeat),
                    address=self._addr(cursor + repeat * 8),
                    is_load=True,
                    nonmem_before=self.nonmem_per_access))
                count += 1


class PointerChaseWorkload(SyntheticWorkload):
    """Dependent random traversal over a footprint larger than the LLC."""

    category = "SPEC17"

    def __init__(self, name: str, seed: int = 3, footprint_mb: int = 64,
                 hot_set_kb: int = 96, hot_probability: float = 0.85,
                 chase_length: int = 8, nonmem_per_access: int = 10) -> None:
        super().__init__(name, seed)
        self.footprint_bytes = footprint_mb * MB
        self.hot_set_bytes = hot_set_kb * KB
        self.hot_probability = hot_probability
        self.chase_length = chase_length
        self.nonmem_per_access = nonmem_per_access

    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        num_blocks = self.footprint_bytes // BLOCK_SIZE
        hot_blocks = max(1, self.hot_set_bytes // BLOCK_SIZE)
        count = 0
        while count < num_accesses:
            # A chase alternates between "hot" PCs touching the cache-resident
            # working set and "cold" PCs walking the full footprint (those
            # are the loads that go off-chip and that POPET learns from).
            for step in range(self.chase_length):
                if count >= num_accesses:
                    break
                hot = rng.random() < self.hot_probability
                if hot:
                    block = rng.randrange(hot_blocks)
                    pc = self._pc(32 + (block % 4))
                else:
                    block = rng.randrange(num_blocks)
                    pc = self._pc(step % 8)
                trace.accesses.append(MemoryAccess(
                    pc=pc,
                    address=self._addr(block * BLOCK_SIZE + rng.randrange(0, 8) * 8),
                    is_load=True,
                    nonmem_before=self.nonmem_per_access,
                    depends_on_previous_load=(not hot and step > 0)))
                count += 1


class GraphAnalyticsWorkload(SyntheticWorkload):
    """Ligra-like hybrid: streaming index reads + irregular property accesses."""

    category = "Ligra"

    def __init__(self, name: str, seed: int = 4, num_vertices: int = 1 << 20,
                 edges_per_vertex: int = 4, property_bytes: int = 16,
                 hot_vertex_fraction: float = 0.003,
                 hot_access_probability: float = 0.8,
                 index_nonmem: int = 10, edge_nonmem: int = 6) -> None:
        super().__init__(name, seed)
        self.num_vertices = num_vertices
        self.edges_per_vertex = edges_per_vertex
        self.property_bytes = property_bytes
        self.hot_vertex_fraction = hot_vertex_fraction
        self.hot_access_probability = hot_access_probability
        self.index_nonmem = index_nonmem
        self.edge_nonmem = edge_nonmem

    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        index_array_bytes = self.num_vertices * 8
        property_base = index_array_bytes
        hot_vertices = max(1, int(self.num_vertices * self.hot_vertex_fraction))
        vertex = 0
        count = 0
        while count < num_accesses:
            # Sequential read of the vertex's edge index (streaming, PC 0).
            trace.accesses.append(MemoryAccess(
                pc=self._pc(0),
                address=self._addr(vertex * 8),
                is_load=True,
                nonmem_before=self.index_nonmem))
            count += 1
            # Neighbour property accesses: mostly popular (hot, cached)
            # vertices, occasionally an arbitrary vertex (off-chip).
            for edge in range(self.edges_per_vertex):
                if count >= num_accesses:
                    break
                if rng.random() < self.hot_access_probability:
                    neighbour = rng.randrange(hot_vertices)
                else:
                    neighbour = rng.randrange(self.num_vertices)
                address = property_base + neighbour * self.property_bytes
                trace.accesses.append(MemoryAccess(
                    pc=self._pc(1 + edge % 4),
                    address=self._addr(address),
                    is_load=True,
                    nonmem_before=self.edge_nonmem,
                    depends_on_previous_load=(edge == 0)))
                count += 1
            vertex = (vertex + 1) % self.num_vertices


class MixedIrregularWorkload(SyntheticWorkload):
    """SPEC int-like mix of a hot cache-resident set and cold random accesses."""

    category = "SPEC06"

    def __init__(self, name: str, seed: int = 5, hot_set_kb: int = 96,
                 cold_footprint_mb: int = 96, cold_probability: float = 0.12,
                 num_hot_pcs: int = 12, num_cold_pcs: int = 4,
                 nonmem_per_access: int = 8, store_fraction: float = 0.15) -> None:
        super().__init__(name, seed)
        self.hot_set_bytes = hot_set_kb * KB
        self.cold_footprint_bytes = cold_footprint_mb * MB
        self.cold_probability = cold_probability
        self.num_hot_pcs = num_hot_pcs
        self.num_cold_pcs = num_cold_pcs
        self.nonmem_per_access = nonmem_per_access
        self.store_fraction = store_fraction

    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        hot_blocks = self.hot_set_bytes // BLOCK_SIZE
        cold_blocks = self.cold_footprint_bytes // BLOCK_SIZE
        for _ in range(num_accesses):
            cold = rng.random() < self.cold_probability
            if cold:
                block = rng.randrange(cold_blocks)
                pc = self._pc(64 + rng.randrange(self.num_cold_pcs))
                address = self.hot_set_bytes + block * BLOCK_SIZE
            else:
                block = rng.randrange(hot_blocks)
                pc = self._pc(rng.randrange(self.num_hot_pcs))
                address = block * BLOCK_SIZE
            is_store = (not cold) and rng.random() < self.store_fraction
            trace.accesses.append(MemoryAccess(
                pc=pc,
                address=self._addr(address + rng.randrange(0, 8) * 8),
                is_load=not is_store,
                nonmem_before=self.nonmem_per_access))


class ServerWorkload(SyntheticWorkload):
    """CVP-like server workload: many static loads, bursty accesses with reuse."""

    category = "CVP"

    def __init__(self, name: str, seed: int = 6, num_load_pcs: int = 256,
                 footprint_mb: int = 48, burst_length: int = 32,
                 lines_per_burst: int = 3, random_access_probability: float = 0.08,
                 nonmem_per_access: int = 8, store_fraction: float = 0.2) -> None:
        super().__init__(name, seed)
        self.num_load_pcs = num_load_pcs
        self.footprint_bytes = footprint_mb * MB
        self.burst_length = burst_length
        self.lines_per_burst = lines_per_burst
        self.random_access_probability = random_access_probability
        self.nonmem_per_access = nonmem_per_access
        self.store_fraction = store_fraction

    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        num_pages = self.footprint_bytes // PAGE_SIZE
        lines_in_page = PAGE_SIZE // BLOCK_SIZE
        count = 0
        # Each PC has an affinity to a region of pages (code/data locality),
        # which creates the PC/off-chip correlation POPET exploits.
        pc_page_bias = [rng.randrange(num_pages) for _ in range(self.num_load_pcs)]
        while count < num_accesses:
            pc_index = rng.randrange(self.num_load_pcs)
            base_page = pc_page_bias[pc_index]
            burst_page = (base_page + rng.randrange(0, 8)) % num_pages
            # The burst repeatedly touches a small set of lines in one page,
            # so only the first touch of each line (and the occasional truly
            # random access) goes off-chip.
            burst_lines = [rng.randrange(lines_in_page)
                           for _ in range(self.lines_per_burst)]
            for _ in range(self.burst_length):
                if count >= num_accesses:
                    break
                if rng.random() < self.random_access_probability:
                    page = rng.randrange(num_pages)
                    line = rng.randrange(lines_in_page)
                    pc = self._pc(512 + pc_index % 16)
                else:
                    page = burst_page
                    line = rng.choice(burst_lines)
                    pc = self._pc(pc_index)
                offset = page * PAGE_SIZE + line * BLOCK_SIZE + rng.randrange(8) * 8
                is_store = rng.random() < self.store_fraction
                trace.accesses.append(MemoryAccess(
                    pc=pc,
                    address=self._addr(offset),
                    is_load=not is_store,
                    nonmem_before=self.nonmem_per_access))
                count += 1


class PhaseChangingWorkload(SyntheticWorkload):
    """Program phases that alternate between unrelated access patterns.

    Each phase lasts ``phase_length`` accesses and is one of: a
    sequential stream, a short-stride sweep, or a dependent random chase
    over the full footprint.  Every phase draws fresh PCs from its own
    PC range, so a predictor trained on one phase sees genuinely new
    static loads in the next — the adaptation stress the paper's
    longest-running traces exhibit at phase boundaries.
    """

    category = "SPEC17"

    def __init__(self, name: str, seed: int = 7, phase_length: int = 3000,
                 footprint_mb: int = 96, stride_bytes: int = 24,
                 hot_probability: float = 0.8,
                 nonmem_per_access: int = 7) -> None:
        super().__init__(name, seed)
        if phase_length <= 0:
            raise ValueError("phase_length must be positive")
        self.phase_length = phase_length
        self.footprint_bytes = footprint_mb * MB
        self.stride_bytes = stride_bytes
        self.hot_probability = hot_probability
        self.nonmem_per_access = nonmem_per_access

    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        num_blocks = self.footprint_bytes // BLOCK_SIZE
        hot_blocks = max(1, (96 * KB) // BLOCK_SIZE)
        count = 0
        phase_index = 0
        while count < num_accesses:
            kind = phase_index % 3
            pc_base = (phase_index % 8) * 16
            cursor = rng.randrange(num_blocks) * BLOCK_SIZE
            stride = self.stride_bytes * rng.choice([1, 2, 4])
            remaining = min(self.phase_length, num_accesses - count)
            for step in range(remaining):
                if kind == 0:
                    # Streaming phase: one sequential cursor, element walk.
                    cursor = (cursor + 8) % self.footprint_bytes
                    trace.accesses.append(MemoryAccess(
                        pc=self._pc(pc_base),
                        address=self._addr(cursor),
                        is_load=True,
                        nonmem_before=self.nonmem_per_access))
                elif kind == 1:
                    # Strided phase: stencil-like short-stride sweep.
                    cursor = (cursor + stride) % self.footprint_bytes
                    trace.accesses.append(MemoryAccess(
                        pc=self._pc(pc_base + step % 4),
                        address=self._addr(cursor),
                        is_load=True,
                        nonmem_before=self.nonmem_per_access))
                else:
                    # Chase phase: hot/cold dependent random traversal.
                    hot = rng.random() < self.hot_probability
                    block = rng.randrange(hot_blocks if hot else num_blocks)
                    trace.accesses.append(MemoryAccess(
                        pc=self._pc(pc_base + (8 if hot else step % 4)),
                        address=self._addr(block * BLOCK_SIZE
                                           + rng.randrange(0, 8) * 8),
                        is_load=True,
                        nonmem_before=self.nonmem_per_access,
                        depends_on_previous_load=(not hot and step > 0)))
                count += 1
            phase_index += 1


class MultiTenantWorkload(SyntheticWorkload):
    """Round-robin tenants whose working sets interfere in the shared caches.

    Each tenant owns a private region with its own hot set and static
    load PCs; the generator switches tenant every ``quantum`` accesses
    (a scheduling quantum).  With enough tenants the combined hot
    footprint exceeds the LLC, so each tenant's return to the CPU finds
    its lines partially evicted — the consolidation-interference regime
    that makes off-chip prediction valuable on servers.
    """

    category = "PARSEC"

    def __init__(self, name: str, seed: int = 8, num_tenants: int = 4,
                 quantum: int = 96, hot_set_kb: int = 384,
                 blocks_per_quantum: int = 12,
                 tenant_footprint_mb: int = 32,
                 cold_probability: float = 0.08,
                 nonmem_per_access: int = 7,
                 store_fraction: float = 0.12) -> None:
        super().__init__(name, seed)
        if num_tenants <= 0 or quantum <= 0:
            raise ValueError("num_tenants and quantum must be positive")
        self.num_tenants = num_tenants
        self.quantum = quantum
        self.hot_set_bytes = hot_set_kb * KB
        self.blocks_per_quantum = blocks_per_quantum
        self.tenant_footprint_bytes = tenant_footprint_mb * MB
        self.cold_probability = cold_probability
        self.nonmem_per_access = nonmem_per_access
        self.store_fraction = store_fraction

    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        hot_blocks = max(1, self.hot_set_bytes // BLOCK_SIZE)
        tenant_blocks = self.tenant_footprint_bytes // BLOCK_SIZE
        count = 0
        tenant = 0
        while count < num_accesses:
            base = tenant * self.tenant_footprint_bytes
            pc_base = tenant * 24
            # The quantum works on a small slice of the tenant's hot set
            # (request state): strong reuse while scheduled, but by the
            # time the tenant runs again other tenants have pushed these
            # lines down the shared hierarchy.
            quantum_blocks = [rng.randrange(hot_blocks)
                              for _ in range(self.blocks_per_quantum)]
            for _ in range(min(self.quantum, num_accesses - count)):
                cold = rng.random() < self.cold_probability
                if cold:
                    block = rng.randrange(tenant_blocks)
                    pc = self._pc(pc_base + 16 + block % 4)
                else:
                    block = rng.choice(quantum_blocks)
                    pc = self._pc(pc_base + block % 12)
                is_store = (not cold) and rng.random() < self.store_fraction
                trace.accesses.append(MemoryAccess(
                    pc=pc,
                    address=self._addr(base + block * BLOCK_SIZE
                                       + rng.randrange(0, 8) * 8),
                    is_load=not is_store,
                    nonmem_before=self.nonmem_per_access))
                count += 1
            tenant = (tenant + 1) % self.num_tenants


class BurstyServerWorkload(SyntheticWorkload):
    """ON/OFF server load: request bursts separated by compute-only gaps.

    During a burst, a handful of request-handler PCs hammer a few lines
    of one page (strong reuse, the occasional first-touch miss); between
    bursts the core runs a long non-memory gap (modelled as a large
    ``nonmem_before`` on the next access), after which much of the
    request state has aged out of the small caches.
    """

    category = "CVP"

    def __init__(self, name: str, seed: int = 9, burst_length: int = 48,
                 lines_per_burst: int = 4, idle_nonmem: int = 400,
                 footprint_mb: int = 64, num_load_pcs: int = 160,
                 random_access_probability: float = 0.1,
                 nonmem_per_access: int = 5,
                 store_fraction: float = 0.18) -> None:
        super().__init__(name, seed)
        if burst_length <= 0:
            raise ValueError("burst_length must be positive")
        self.burst_length = burst_length
        self.lines_per_burst = lines_per_burst
        self.idle_nonmem = idle_nonmem
        self.footprint_bytes = footprint_mb * MB
        self.num_load_pcs = num_load_pcs
        self.random_access_probability = random_access_probability
        self.nonmem_per_access = nonmem_per_access
        self.store_fraction = store_fraction

    def _fill(self, trace: Trace, num_accesses: int, rng: random.Random) -> None:
        num_pages = self.footprint_bytes // PAGE_SIZE
        lines_in_page = PAGE_SIZE // BLOCK_SIZE
        count = 0
        while count < num_accesses:
            page = rng.randrange(num_pages)
            pc_index = rng.randrange(self.num_load_pcs)
            burst_lines = [rng.randrange(lines_in_page)
                           for _ in range(self.lines_per_burst)]
            first = True
            for _ in range(min(self.burst_length, num_accesses - count)):
                if rng.random() < self.random_access_probability:
                    target_page = rng.randrange(num_pages)
                    line = rng.randrange(lines_in_page)
                    pc = self._pc(768 + pc_index % 8)
                else:
                    target_page = page
                    line = rng.choice(burst_lines)
                    pc = self._pc(pc_index)
                offset = (target_page * PAGE_SIZE + line * BLOCK_SIZE
                          + rng.randrange(8) * 8)
                is_store = rng.random() < self.store_fraction
                trace.accesses.append(MemoryAccess(
                    pc=pc,
                    address=self._addr(offset),
                    is_load=not is_store,
                    # The burst's first access absorbs the idle gap.
                    nonmem_before=(self.idle_nonmem if first
                                   else self.nonmem_per_access)))
                first = False
                count += 1
