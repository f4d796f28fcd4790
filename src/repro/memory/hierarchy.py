"""Multi-level on-chip cache hierarchy (L1D -> L2 -> LLC -> main memory).

The hierarchy composes three :class:`~repro.memory.cache.Cache` levels, a
:class:`~repro.dram.controller.MemoryController`, and an optional LLC
prefetcher.  It exposes a latency-returning ``load``/``store`` interface to
the core model and implements the Hermes waiting semantics: a load that is
passed an in-flight ``hermes_ready`` cycle and misses the LLC completes at
``max(time it reaches the memory controller, hermes_ready)`` instead of
paying a fresh DRAM access (Section 6.2.1 of the paper).

The per-level access latencies are *round-trip* latencies as in the
paper's Table 4 (L1 5, L2 15, LLC 55 cycles), so the latency of an
off-chip load in the baseline is ``LLC latency + DRAM latency`` and the
part Hermes can hide is everything after the L1/TLB access.

Hot-path contract: ``load``/``store`` return a *reused*
:class:`LoadOutcome` record owned by the hierarchy — its fields are only
valid until the hierarchy's next load/store.  Callers consume the fields
immediately; anything that needs to keep an outcome must copy the
scalars out (the tests do exactly that).

On the Table 4 hierarchy (this exact class with LRU L1 and L2) the core
loop, :meth:`repro.cpu.core.OutOfOrderCore._span_loop`, does not call
``load``: it runs the L1 and L2 hit, MSHR and L1 fill work inline,
reading the caches' tag stores and LRU state directly.  With a SHiP LLC
and an exact :class:`~repro.dram.controller.MemoryController` it runs
:meth:`CacheHierarchy._post_l2`, the LLC and DRAM half of an L2 miss,
inline too, and calls it otherwise.  ``load`` and ``_post_l2`` are the
reference that inline copy is tested against, and what every other
hierarchy runs; stores always go through ``store``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.config.schema import SerializableConfig
from repro.dram import DRAMConfig, MemoryController, RequestSource
from repro.memory.address import BLOCK_BITS
from repro.memory.cache import (
    Cache,
    CacheConfig,
    FLAG_DIRTY,
    FLAG_PREFETCHED,
    FLAG_REUSED,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.prefetchers.base import Prefetcher


@dataclass
class HierarchyConfig(SerializableConfig):
    """Cache hierarchy configuration (paper Table 4 defaults)."""

    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1D", size_bytes=48 * 1024, ways=12, latency=5, mshrs=16))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L2", size_bytes=1280 * 1024, ways=20, latency=15, mshrs=48))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="LLC", size_bytes=3 * 1024 * 1024, ways=12, latency=55,
        mshrs=64, replacement="ship"))

    def validate(self) -> None:
        self.l1d.validate()
        self.l2.validate()
        self.llc.validate()

    @property
    def onchip_miss_latency(self) -> int:
        """Cycles spent traversing the full hierarchy to discover an LLC miss."""
        return self.l1d.latency + self.l2.latency + self.llc.latency

    @property
    def post_l1_latency(self) -> int:
        """The L2 + LLC portion that Hermes hides for a correct prediction."""
        return self.l2.latency + self.llc.latency


class LoadOutcome:
    """Result of one demand load through the hierarchy.

    One instance is owned (and reused) by each :class:`CacheHierarchy`;
    fields are valid until that hierarchy's next ``load``/``store``.
    """

    __slots__ = ("address", "pc", "issue_cycle", "completion_cycle",
                 "served_by", "went_offchip", "onchip_latency", "hermes_used")

    def __init__(self, address: int = 0, pc: int = 0, issue_cycle: int = 0,
                 completion_cycle: int = 0, served_by: str = "",
                 went_offchip: bool = False, onchip_latency: int = 0,
                 hermes_used: bool = False) -> None:
        self.address = address
        self.pc = pc
        self.issue_cycle = issue_cycle
        self.completion_cycle = completion_cycle
        self.served_by = served_by
        self.went_offchip = went_offchip
        self.onchip_latency = onchip_latency
        self.hermes_used = hermes_used

    @property
    def latency(self) -> int:
        return self.completion_cycle - self.issue_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LoadOutcome({self.served_by}, issue={self.issue_cycle}, "
                f"completion={self.completion_cycle}, "
                f"offchip={self.went_offchip})")


@dataclass(slots=True)
class HierarchyStats:
    """Hierarchy-level counters used by the analysis module."""

    loads: int = 0
    stores: int = 0
    offchip_loads: int = 0
    llc_misses: int = 0
    llc_prefetch_issued: int = 0
    llc_prefetch_late: int = 0
    hermes_waits: int = 0
    total_load_latency: int = 0
    total_offchip_latency: int = 0
    total_offchip_onchip_latency: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "loads": self.loads,
            "stores": self.stores,
            "offchip_loads": self.offchip_loads,
            "llc_misses": self.llc_misses,
            "llc_prefetch_issued": self.llc_prefetch_issued,
            "llc_prefetch_late": self.llc_prefetch_late,
            "hermes_waits": self.hermes_waits,
            "total_load_latency": self.total_load_latency,
            "total_offchip_latency": self.total_offchip_latency,
            "total_offchip_onchip_latency": self.total_offchip_onchip_latency,
        }


class CacheHierarchy:
    """L1D/L2/LLC hierarchy in front of a main-memory controller.

    For multi-core simulations the LLC and the memory controller may be
    shared: pass existing ``llc`` / ``memory_controller`` objects and every
    per-core hierarchy will route its misses through them.
    """

    __slots__ = ("config", "l1d", "l2", "llc", "memory_controller",
                 "prefetcher", "stats", "_pending_prefetch", "_outcome",
                 "_l1_latency", "_l2_onchip", "_full_onchip", "_l1_lru")

    def __init__(self,
                 config: Optional[HierarchyConfig] = None,
                 dram_config: Optional[DRAMConfig] = None,
                 prefetcher: Optional["Prefetcher"] = None,
                 llc: Optional[Cache] = None,
                 memory_controller: Optional[MemoryController] = None) -> None:
        self.config = config or HierarchyConfig()
        self.config.validate()
        self.l1d = Cache(self.config.l1d)
        self.l2 = Cache(self.config.l2)
        self.llc = llc if llc is not None else Cache(self.config.llc)
        self.memory_controller = (memory_controller if memory_controller is not None
                                  else MemoryController(dram_config or DRAMConfig()))
        self.prefetcher = prefetcher
        self.stats = HierarchyStats()
        # Prefetches whose data is still in flight: block -> ready cycle.
        self._pending_prefetch: Dict[int, int] = {}
        self._outcome = LoadOutcome()
        # Per-level latency sums, hoisted for the per-access path (the
        # latencies are fixed at construction).
        self._l1_latency = self.l1d.latency
        self._l2_onchip = self.l1d.latency + self.l2.latency
        self._full_onchip = self.l1d.latency + self.l2.latency + self.llc.latency
        # When the L1 uses plain LRU (the Table 4 default), the store hit
        # fast path inlines the age-stamp update instead of calling
        # on_hit (LRUPolicy state is flat, indexed exactly by slot).
        from repro.memory.replacement import LRUPolicy
        replacement = self.l1d.replacement
        self._l1_lru = replacement if type(replacement) is LRUPolicy else None

    # ------------------------------------------------------------------ #
    # Demand path
    # ------------------------------------------------------------------ #

    # repro: hot
    def load(self, address: int, pc: int, cycle: int,
             hermes_ready: Optional[int] = None) -> LoadOutcome:
        """Perform a demand load, returning its timing and off-chip outcome."""
        stats = self.stats
        stats.loads += 1
        outcome = self._access(address, pc, cycle, False, hermes_ready)
        latency = outcome.completion_cycle - cycle
        stats.total_load_latency += latency
        if outcome.went_offchip:
            stats.offchip_loads += 1
            stats.total_offchip_latency += latency
            stats.total_offchip_onchip_latency += outcome.onchip_latency
        return outcome

    # repro: hot
    def store(self, address: int, pc: int, cycle: int) -> LoadOutcome:
        """Perform a demand store (write-allocate; latency is off the critical path)."""
        self.stats.stores += 1
        # Fast path: store hit in L1 with no outstanding miss (mirrors the
        # load fast path, plus the dirty bit).
        l1d = self.l1d
        block = address >> BLOCK_BITS
        slot = l1d._where_get(block, -1)
        if slot >= 0 and block not in l1d._mshr:
            l1_stats = l1d.stats
            l1_stats.demand_accesses += 1
            l1_stats.demand_hits += 1
            flags = l1d._flags[slot]
            if flags & FLAG_PREFETCHED and not flags & FLAG_REUSED:
                l1_stats.useful_prefetches += 1
            l1d._flags[slot] = flags | FLAG_REUSED | FLAG_DIRTY
            lru = self._l1_lru
            if lru is not None:
                set_index = slot // l1d.num_ways
                clock = lru._clock[set_index] + 1
                lru._clock[set_index] = clock
                lru._age[slot] = clock
            else:
                set_index = (block & l1d._set_mask if l1d._use_mask
                             else block % l1d.num_sets)
                l1d.replacement.on_hit(set_index,
                                       slot - set_index * l1d.num_ways,
                                       pc, address)
            l1_latency = self._l1_latency
            outcome = self._outcome
            outcome.address = address
            outcome.pc = pc
            outcome.issue_cycle = cycle
            outcome.completion_cycle = cycle + l1_latency
            outcome.served_by = "L1D"
            outcome.went_offchip = False
            outcome.onchip_latency = l1_latency
            outcome.hermes_used = False
            return outcome
        return self._access(address, pc, cycle, is_write=True, hermes_ready=None)

    def would_go_offchip(self, address: int, cycle: int) -> bool:
        """Oracle probe: would a load to ``address`` issued now miss the LLC?

        Used by the Ideal-Hermes predictor and by tests.  Does not change
        any cache or DRAM state.
        """
        block = address >> BLOCK_BITS
        if self.l1d.probe(address) or self.l2.probe(address) or self.llc.probe(address):
            return False
        ready = self._pending_prefetch.get(block)
        if ready is not None and ready <= cycle:
            return False
        if self.l1d.outstanding_miss_probe(address, cycle):
            return False
        return True

    # ------------------------------------------------------------------ #
    # Internal access machinery
    # ------------------------------------------------------------------ #

    def _access(self, address: int, pc: int, cycle: int, is_write: bool,
                hermes_ready: Optional[int]) -> LoadOutcome:
        outcome = self._outcome

        # --- L1D ---
        l1d = self.l1d
        l1_latency = self._l1_latency
        l1_result = l1d.access(address, pc, is_write=is_write)
        if l1_result.hit:
            # The tag may be present while the data is still in flight (the
            # fill of an earlier miss to the same block): merge with that
            # outstanding miss instead of returning an instant hit.
            outcome.address = address
            outcome.pc = pc
            outcome.issue_cycle = cycle
            outcome.went_offchip = False
            outcome.hermes_used = False
            l1_ready = l1d.outstanding_miss(address, cycle)
            if l1_ready is not None and l1_ready > cycle + l1_latency:
                outcome.completion_cycle = l1_ready
                outcome.served_by = "MSHR"
            else:
                outcome.completion_cycle = cycle + l1_latency
                outcome.served_by = "L1D"
            outcome.onchip_latency = l1_latency
            return outcome
        l1_ready = l1d.outstanding_miss(address, cycle)
        if l1_ready is not None:
            # Merge with an outstanding miss to the same block.
            outcome.address = address
            outcome.pc = pc
            outcome.issue_cycle = cycle
            outcome.went_offchip = False
            outcome.hermes_used = False
            completion = cycle + l1_latency
            outcome.completion_cycle = l1_ready if l1_ready > completion else completion
            outcome.served_by = "MSHR"
            outcome.onchip_latency = l1_latency
            return outcome
        return self._post_l1(address >> BLOCK_BITS, address, pc, cycle, is_write,
                             hermes_ready)

    def _post_l1(self, block: int, address: int, pc: int, cycle: int,
                 is_write: bool, hermes_ready: Optional[int]) -> LoadOutcome:
        """The L2 -> LLC -> DRAM portion of a demand access (post-L1-miss)."""
        # --- L2 (Cache.access inlined: same stats/flags/policy updates) ---
        l2 = self.l2
        l2_stats = l2.stats
        l2_stats.demand_accesses += 1
        slot = l2._where_get(block, -1)
        if slot >= 0:
            l2_stats.demand_hits += 1
            flags = l2._flags[slot]
            if flags & FLAG_PREFETCHED and not flags & FLAG_REUSED:
                l2_stats.useful_prefetches += 1
            l2._flags[slot] = flags | FLAG_REUSED
            set_index = block & l2._set_mask if l2._use_mask else block % l2.num_sets
            l2.replacement.on_hit(set_index, slot - set_index * l2.num_ways,
                                  pc, address)
            onchip = self._l2_onchip
            completion = cycle + onchip
            self._fill_l1(address, pc, completion, is_write)
            outcome = self._outcome
            outcome.address = address
            outcome.pc = pc
            outcome.issue_cycle = cycle
            outcome.completion_cycle = completion
            outcome.served_by = "L2"
            outcome.went_offchip = False
            outcome.onchip_latency = onchip
            outcome.hermes_used = False
            return outcome
        l2_stats.demand_misses += 1
        return self._post_l2(block, address, pc, cycle, is_write, hermes_ready)

    # repro: hot
    def _post_l2(self, block: int, address: int, pc: int, cycle: int,
                 is_write: bool, hermes_ready: Optional[int]) -> LoadOutcome:
        """The LLC -> DRAM portion of a demand access (post-L2-miss).

        On the Table 4 system the core loop runs this inline, statement
        for statement; behind any other LLC policy or controller it
        calls this directly for an L2 miss.  It reads the shared LLC's
        and memory controller's statistics objects afresh on every call
        (the inline copy, after every resume), since the driver
        replaces them while other cores' spans are paused.
        """
        outcome = self._outcome
        outcome.address = address
        outcome.pc = pc
        outcome.issue_cycle = cycle
        outcome.went_offchip = False
        outcome.hermes_used = False

        # --- LLC (Cache.access inlined) ---
        llc = self.llc
        llc_cycle = cycle + self._l2_onchip
        llc_stats = llc.stats
        llc_stats.demand_accesses += 1
        slot = llc._where_get(block, -1)
        onchip = self._full_onchip
        outcome.onchip_latency = onchip
        if slot >= 0:
            llc_stats.demand_hits += 1
            flags = llc._flags[slot]
            if flags & FLAG_PREFETCHED and not flags & FLAG_REUSED:
                llc_stats.useful_prefetches += 1
            llc._flags[slot] = flags | FLAG_REUSED
            set_index = (block & llc._set_mask if llc._use_mask
                         else block % llc.num_sets)
            llc.replacement.on_hit(set_index, slot - set_index * llc.num_ways,
                                   pc, address)
            prefetch_wait = 0
            ready = self._pending_prefetch.pop(block, None)
            if ready is not None and ready > cycle + onchip:
                # Late prefetch: the data is still in flight from DRAM.
                prefetch_wait = ready - (cycle + onchip)
                self.stats.llc_prefetch_late += 1
            completion = cycle + onchip + prefetch_wait
            if self.prefetcher is not None:
                self._train_prefetcher(address, pc, llc_cycle, hit=True)
            self._fill_l2_l1(address, pc, completion, is_write)
            outcome.completion_cycle = completion
            outcome.served_by = "LLC"
            return outcome
        llc_stats.demand_misses += 1

        # --- Off-chip ---
        self.stats.llc_misses += 1
        if self.prefetcher is not None:
            self._train_prefetcher(address, pc, llc_cycle, hit=False)
        arrival = cycle + onchip
        memory_controller = self.memory_controller
        if hermes_ready is not None:
            # The regular request finds the in-flight Hermes request in the
            # memory controller's read queue and waits for it.
            inflight = memory_controller.lookup_inflight(address, arrival)
            wait_until = inflight if inflight is not None else hermes_ready
            completion = wait_until if wait_until > arrival else arrival
            memory_controller.claim_hermes(address)
            self.stats.hermes_waits += 1
            outcome.hermes_used = True
        else:
            inflight = memory_controller.lookup_inflight(address, arrival)
            if inflight is not None:
                completion = inflight if inflight > arrival else arrival
                memory_controller.stats.merged_requests += 1
            else:
                completion = memory_controller.access(address, arrival,
                                                      RequestSource.DEMAND)
        self.l1d.record_miss(address, completion)
        self._fill_all(address, pc, completion, is_write)
        outcome.completion_cycle = completion
        outcome.served_by = "DRAM"
        outcome.went_offchip = True
        return outcome

    # ------------------------------------------------------------------ #
    # Fills
    # ------------------------------------------------------------------ #

    def _fill_l1(self, address: int, pc: int, cycle: int, dirty: bool) -> None:
        writeback = self.l1d.fill(address, pc, dirty=dirty)
        if writeback is not None:
            self.l2.fill(writeback, pc, dirty=True)

    def _fill_l2_l1(self, address: int, pc: int, cycle: int, dirty: bool) -> None:
        writeback = self.l2.fill(address, pc)
        if writeback is not None:
            self.llc.fill(writeback, pc, dirty=True)
        self._fill_l1(address, pc, cycle, dirty)

    def _fill_all(self, address: int, pc: int, cycle: int, dirty: bool) -> None:
        writeback = self.llc.fill(address, pc)
        if writeback is not None:
            self.memory_controller.stats.writeback_requests += 1
        self._fill_l2_l1(address, pc, cycle, dirty)

    # ------------------------------------------------------------------ #
    # Prefetching
    # ------------------------------------------------------------------ #

    def _train_prefetcher(self, address: int, pc: int, cycle: int, hit: bool) -> None:
        candidates = self.prefetcher.on_demand_access(address, pc, cycle, hit)
        if not candidates:
            return
        for prefetch_address in candidates:
            self._issue_prefetch(prefetch_address, pc, cycle)

    def _issue_prefetch(self, address: int, pc: int, cycle: int) -> None:
        if address < 0:
            return
        if self.llc.probe(address):
            return
        block = address >> BLOCK_BITS
        pending = self._pending_prefetch
        if block in pending and pending[block] > cycle:
            return
        if self.memory_controller.lookup_inflight(address, cycle) is not None:
            return
        ready = self.memory_controller.access(address, cycle, RequestSource.PREFETCH)
        self.stats.llc_prefetch_issued += 1
        self.llc.fill(address, pc, is_prefetch=True)
        pending[block] = ready
        if len(pending) > 4096:
            self._prune_pending(cycle)

    def _prune_pending(self, cycle: int) -> None:
        stale = [block for block, ready in self._pending_prefetch.items()
                 if ready <= cycle]
        for block in stale:
            del self._pending_prefetch[block]

    # ------------------------------------------------------------------ #
    # Introspection helpers
    # ------------------------------------------------------------------ #

    @property
    def onchip_miss_latency(self) -> int:
        return self.config.onchip_miss_latency

    def llc_mpki(self, instructions: int) -> float:
        """LLC misses per kilo instructions."""
        if instructions <= 0:
            return 0.0
        return 1000.0 * self.stats.llc_misses / instructions
