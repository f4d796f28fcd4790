"""Set-associative cache model with MSHR-based miss merging.

Each :class:`Cache` models one level of the on-chip hierarchy: a tag store
organised as sets x ways, a pluggable replacement policy, a fixed access
(round-trip) latency, and a set of MSHRs used to merge requests to a block
that already has an outstanding miss.

The model is *latency-returning*: an access does not schedule events, it
returns whether the block hit and lets the :class:`~repro.memory.hierarchy.
CacheHierarchy` compose per-level latencies and the DRAM model into the
final load latency.  MSHR merging is modelled by remembering, per block,
the cycle at which an outstanding fill will complete.

Hot-path layout
---------------
The tag store is *flat*: one preallocated tags list and one flags
bytearray, both indexed by ``set_index * ways + way``, plus a single
``block -> slot`` dict for O(1) lookup (a block maps to exactly one set,
so block numbers are globally unique keys).  The per-way valid/dirty/
prefetched/reused booleans are bits of the flags byte.  ``access``
returns a *reused* :class:`AccessResult` record — the instance is only
valid until the cache's next ``access`` call; callers must copy any field
they need to keep (the simulator never does).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config.schema import SerializableConfig
from repro.memory.address import BLOCK_BITS, BLOCK_SIZE
from repro.memory.replacement import (
    LRUPolicy,
    RandomPolicy,
    ReplacementPolicy,
    SHiPPolicy,
    SRRIPPolicy,
    make_replacement_policy,
)

#: Bits of the per-way flags byte (``Cache._flags``).
FLAG_VALID = 1
FLAG_DIRTY = 2
FLAG_PREFETCHED = 4
FLAG_REUSED = 8


@dataclass
class CacheConfig(SerializableConfig):
    """Configuration of a single cache level.

    Sizes follow the paper's Table 4 defaults (see
    :mod:`repro.sim.config` for the full-system defaults).
    """

    name: str
    size_bytes: int
    ways: int
    latency: int
    mshrs: int = 16
    replacement: str = "lru"

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (BLOCK_SIZE * self.ways)
        if sets <= 0:
            raise ValueError(f"cache {self.name}: size too small for {self.ways} ways")
        return sets

    def validate(self) -> None:
        if self.size_bytes <= 0 or self.ways <= 0:
            raise ValueError(f"cache {self.name}: size and ways must be positive")
        if self.size_bytes % (BLOCK_SIZE * self.ways) != 0:
            raise ValueError(
                f"cache {self.name}: size {self.size_bytes} not divisible by "
                f"{BLOCK_SIZE * self.ways}"
            )
        if self.latency < 0:
            raise ValueError(f"cache {self.name}: latency must be non-negative")


class AccessResult:
    """Result of a single cache-level access.

    Each :class:`Cache` owns one instance and returns it from every
    ``access`` call (the zero-allocation hot path); the fields are only
    valid until that cache's next access.
    """

    __slots__ = ("hit", "latency", "evicted_block", "was_prefetched")

    def __init__(self, hit: bool = False, latency: int = 0,
                 evicted_block: Optional[int] = None,
                 was_prefetched: bool = False) -> None:
        self.hit = hit
        self.latency = latency
        self.evicted_block = evicted_block
        self.was_prefetched = was_prefetched

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AccessResult(hit={self.hit}, latency={self.latency}, "
                f"was_prefetched={self.was_prefetched})")


@dataclass(slots=True)
class CacheStats:
    """Per-level access statistics."""

    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0
    useful_prefetches: int = 0
    evictions: int = 0
    writebacks: int = 0
    mshr_merges: int = 0

    @property
    def demand_hit_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_hits / self.demand_accesses

    def as_dict(self) -> Dict[str, float]:
        return {
            "demand_accesses": self.demand_accesses,
            "demand_hits": self.demand_hits,
            "demand_misses": self.demand_misses,
            "demand_hit_rate": self.demand_hit_rate,
            "prefetch_fills": self.prefetch_fills,
            "useful_prefetches": self.useful_prefetches,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "mshr_merges": self.mshr_merges,
        }


class Cache:
    """One level of a set-associative cache hierarchy."""

    __slots__ = ("config", "num_sets", "num_ways", "latency", "_set_mask",
                 "_use_mask", "replacement", "_tags", "_flags", "_where",
                 "_where_get", "_valid_count", "_all_valid", "_result",
                 "_mshr", "_mshr_heap", "_mshr_prune_limit", "stats",
                 "_fused_policy", "_has_holes")

    def __init__(self, config: CacheConfig,
                 replacement: Optional[ReplacementPolicy] = None) -> None:
        config.validate()
        self.config = config
        self.num_sets = config.num_sets
        self.num_ways = config.ways
        self.latency = config.latency
        self._set_mask = self.num_sets - 1
        self._use_mask = (self.num_sets & (self.num_sets - 1)) == 0
        self.replacement = replacement or make_replacement_policy(
            config.replacement, self.num_sets, self.num_ways)
        # Flat tag store: tags and per-way flag bytes indexed by
        # set_index * ways + way, plus one block -> slot lookup dict.
        capacity = self.num_sets * self.num_ways
        self._tags: List[int] = [-1] * capacity
        self._flags = bytearray(capacity)
        self._where: Dict[int, int] = {}
        # Pre-bound dict.get: the lookup dict is never replaced, and the
        # bound method saves two lookups per access on the hot path.
        self._where_get = self._where.get
        # Per-set count of valid ways; when a set is full the victim call
        # receives a shared all-valid tuple instead of a fresh list.
        self._valid_count: List[int] = [0] * self.num_sets
        self._all_valid: Tuple[bool, ...] = (True,) * self.num_ways
        # Until an invalidate() punches a hole, fills take the first
        # invalid way, so invalid ways always form the suffix
        # [valid_count, ways) and the first invalid way IS valid_count.
        self._has_holes = False
        self._result = AccessResult(latency=self.latency)
        # Outstanding misses (MSHRs): block number -> fill-ready cycle,
        # plus a lazy min-heap of (ready, block) for incremental pruning.
        self._mshr: Dict[int, int] = {}
        self._mshr_heap: List[Tuple[int, int]] = []
        self._mshr_prune_limit = 4 * max(config.mshrs, 64)
        # The built-in policies support the fused evict+fill call (they
        # never read the evicted block's address); exact-type check so a
        # subclass with overridden hooks gets the generic three-call path.
        self._fused_policy = (
            self.replacement
            if type(self.replacement) in (LRUPolicy, RandomPolicy,
                                          SRRIPPolicy, SHiPPolicy)
            else None)
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Addressing helpers
    # ------------------------------------------------------------------ #

    def set_index(self, block: int) -> int:
        if self._use_mask:
            return block & self._set_mask
        return block % self.num_sets

    # ------------------------------------------------------------------ #
    # Lookup / fill
    # ------------------------------------------------------------------ #

    def probe(self, address: int) -> bool:
        """Return True if ``address``'s block is present (no state change)."""
        return (address >> BLOCK_BITS) in self._where

    def access(self, address: int, pc: int, is_write: bool = False) -> AccessResult:
        """Perform a demand access; updates replacement state and stats.

        Returns this cache's reused :class:`AccessResult` record (valid
        until the next ``access`` on the same cache).
        """
        stats = self.stats
        stats.demand_accesses += 1
        block = address >> BLOCK_BITS
        slot = self._where_get(block, -1)
        result = self._result
        if slot >= 0:
            stats.demand_hits += 1
            flags = self._flags[slot]
            prefetched = flags & FLAG_PREFETCHED
            if prefetched and not flags & FLAG_REUSED:
                stats.useful_prefetches += 1
            if is_write:
                flags |= FLAG_DIRTY
            self._flags[slot] = flags | FLAG_REUSED
            set_index = block & self._set_mask if self._use_mask else block % self.num_sets
            self.replacement.on_hit(set_index, slot - set_index * self.num_ways,
                                    pc, address)
            result.hit = True
            result.was_prefetched = prefetched != 0
            return result
        stats.demand_misses += 1
        result.hit = False
        result.was_prefetched = False
        return result

    def fill(self, address: int, pc: int, is_prefetch: bool = False,
             dirty: bool = False) -> Optional[int]:
        """Fill ``address``'s block, returning the evicted dirty block (if any).

        Returns the *byte address* of an evicted dirty block that must be
        written back to the next level, or ``None``.
        """
        block = address >> BLOCK_BITS
        where = self._where
        slot = where.get(block, -1)
        if slot >= 0:
            # Already present (e.g. a prefetch raced with a demand fill).
            if dirty:
                self._flags[slot] |= FLAG_DIRTY
            return None
        ways = self.num_ways
        set_index = block & self._set_mask if self._use_mask else block % self.num_sets
        base = set_index * ways
        flags_store = self._flags
        stats = self.stats
        fused = self._fused_policy
        if self._valid_count[set_index] == ways:
            if fused is not None:
                # Steady-state fast path: one fused policy call covers
                # victim + on_eviction + on_fill.
                victim_way = fused.evict_fill_full(set_index, pc, is_prefetch)
                victim_slot = base + victim_way
                victim_flags = flags_store[victim_slot]
                old_block = self._tags[victim_slot]
                del where[old_block]
                stats.evictions += 1
                writeback = None
                if victim_flags & FLAG_DIRTY:
                    stats.writebacks += 1
                    writeback = old_block << BLOCK_BITS
                self._tags[victim_slot] = block
                new_flags = FLAG_VALID
                if dirty:
                    new_flags |= FLAG_DIRTY
                if is_prefetch:
                    new_flags |= FLAG_PREFETCHED
                    stats.prefetch_fills += 1
                flags_store[victim_slot] = new_flags
                where[block] = victim_slot
                return writeback
            victim_way = self.replacement.victim_full(set_index)
        elif not self._has_holes:
            victim_way = self._valid_count[set_index]
        else:
            # An invalid way exists: every policy prefers the first invalid
            # way, so resolve it here without materialising a valid list.
            victim_way = 0
            for way in range(ways):
                if not flags_store[base + way] & FLAG_VALID:
                    victim_way = way
                    break
        victim_slot = base + victim_way
        writeback = None
        victim_flags = flags_store[victim_slot]
        if victim_flags & FLAG_VALID:
            old_block = self._tags[victim_slot]
            self.replacement.on_eviction(set_index, victim_way,
                                         old_block << BLOCK_BITS,
                                         bool(victim_flags & FLAG_REUSED))
            del where[old_block]
            stats.evictions += 1
            if victim_flags & FLAG_DIRTY:
                stats.writebacks += 1
                writeback = old_block << BLOCK_BITS
        else:
            self._valid_count[set_index] += 1
        self._tags[victim_slot] = block
        new_flags = FLAG_VALID
        if dirty:
            new_flags |= FLAG_DIRTY
        if is_prefetch:
            new_flags |= FLAG_PREFETCHED
            stats.prefetch_fills += 1
        flags_store[victim_slot] = new_flags
        where[block] = victim_slot
        self.replacement.on_fill(set_index, victim_way, pc, address, is_prefetch)
        return writeback

    def invalidate(self, address: int) -> bool:
        """Invalidate the block holding ``address``; return True if present."""
        block = address >> BLOCK_BITS
        slot = self._where.pop(block, -1)
        if slot < 0:
            return False
        self._flags[slot] = 0
        self._tags[slot] = -1
        self._valid_count[slot // self.num_ways] -= 1
        self._has_holes = True
        return True

    # ------------------------------------------------------------------ #
    # MSHR handling
    # ------------------------------------------------------------------ #

    def outstanding_miss(self, address: int, cycle: int) -> Optional[int]:
        """Return the fill-ready cycle of an outstanding miss to this block.

        Returns ``None`` when there is no outstanding miss (or the previous
        one already completed before ``cycle``).
        """
        block = address >> BLOCK_BITS
        mshr = self._mshr
        ready = mshr.get(block)
        if ready is None:
            return None
        if ready <= cycle:
            del mshr[block]
            return None
        self.stats.mshr_merges += 1
        return ready

    def outstanding_miss_probe(self, address: int, cycle: int) -> bool:
        """Return True if a miss to this block is still outstanding (no state change)."""
        ready = self._mshr.get(address >> BLOCK_BITS)
        return ready is not None and ready > cycle

    def record_miss(self, address: int, ready_cycle: int) -> None:
        """Record an outstanding miss to ``address`` completing at ``ready_cycle``."""
        block = address >> BLOCK_BITS
        mshr = self._mshr
        current = mshr.get(block)
        if current is None or ready_cycle < current:
            mshr[block] = ready_cycle
            heapq.heappush(self._mshr_heap, (ready_cycle, block))
        # The occupancy-bound prune deliberately uses ``ready_cycle`` (a
        # future cycle) as the horizon, exactly like the pre-flat-array
        # model, so its (semantics-bearing) trigger point is unchanged.
        if len(mshr) > self._mshr_prune_limit:
            self._prune_mshrs(ready_cycle)
        elif len(self._mshr_heap) > 2 * (self._mshr_prune_limit + len(mshr)):
            # Compact stale heap twins without touching the MSHR dict (no
            # semantic effect) so the lazy heap stays bounded.
            heap = [(ready, blk) for blk, ready in mshr.items()]
            heapq.heapify(heap)
            self._mshr_heap = heap

    def _prune_mshrs(self, cycle: int) -> None:
        """Incrementally drop completed entries (lazy heap, no full scans)."""
        heap = self._mshr_heap
        mshr = self._mshr
        while heap and heap[0][0] <= cycle:
            ready, block = heapq.heappop(heap)
            if mshr.get(block) == ready:
                del mshr[block]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def resident_blocks(self) -> int:
        """Number of valid blocks currently resident."""
        return len(self._where)

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.num_ways

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Cache({self.config.name}, {self.config.size_bytes >> 10}KB, "
                f"{self.num_ways}-way, {self.latency}cyc)")
