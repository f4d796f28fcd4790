"""Main-memory controller with a Hermes-aware read queue.

The controller services three kinds of requests (``RequestSource``):

* ``DEMAND`` — a regular load that missed the LLC.
* ``PREFETCH`` — a prefetcher-generated fill.
* ``HERMES`` — a speculative request issued directly by the core for a
  load POPET predicted to go off-chip.

The key Hermes behaviour lives here: when a demand request arrives and a
Hermes (or any) request to the same block is already in flight, the demand
request *merges* with it and completes when the in-flight request
completes (Section 6.2.1 of the paper).  When a Hermes request completes
and no demand ever arrived for it, the data is dropped — the controller
just counts it as a wasted request (Section 6.2.2); nothing is filled into
the cache hierarchy, so no coherence recovery is needed.

Timing is approximate but bandwidth-aware: each request occupies its bank
for the row access latency and the channel data bus for the burst length,
and queueing delay grows when the read queue backs up, which is what makes
low-accuracy predictors (TTP) and aggressive prefetchers hurt in the
bandwidth-constrained configurations, as in the paper.

``access`` is on the simulation hot path and returns the data-ready cycle
as a plain ``int`` — no per-request object is allocated.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dram.config import DRAMConfig
from repro.dram.timing import BankState, DRAMTiming

# Cacheline size is 64 B throughout the simulator.  Defined locally (rather
# than imported from repro.memory.address) so the DRAM package has no import
# dependency on the cache package.
BLOCK_BITS = 6


class RequestSource(enum.Enum):
    """Origin of a main-memory request."""

    DEMAND = "demand"
    PREFETCH = "prefetch"
    HERMES = "hermes"
    WRITEBACK = "writeback"


@dataclass(slots=True)
class ControllerStats:
    """Counts of requests serviced by the memory controller."""

    demand_requests: int = 0
    prefetch_requests: int = 0
    hermes_requests: int = 0
    writeback_requests: int = 0
    merged_requests: int = 0
    hermes_dropped: int = 0
    hermes_consumed: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    total_read_latency: int = 0
    total_reads: int = 0

    @property
    def total_requests(self) -> int:
        return (self.demand_requests + self.prefetch_requests
                + self.hermes_requests + self.writeback_requests)

    @property
    def average_read_latency(self) -> float:
        if self.total_reads == 0:
            return 0.0
        return self.total_read_latency / self.total_reads

    def as_dict(self) -> Dict[str, float]:
        return {
            "demand_requests": self.demand_requests,
            "prefetch_requests": self.prefetch_requests,
            "hermes_requests": self.hermes_requests,
            "writeback_requests": self.writeback_requests,
            "merged_requests": self.merged_requests,
            "hermes_dropped": self.hermes_dropped,
            "hermes_consumed": self.hermes_consumed,
            "total_requests": self.total_requests,
            "average_read_latency": self.average_read_latency,
        }


class MemoryController:
    """Bandwidth- and row-buffer-aware main-memory controller."""

    __slots__ = ("config", "timing", "_banks", "_channel_busy_until",
                 "_inflight", "_inflight_heap", "_hermes_unclaimed", "stats",
                 "_blocks_per_row", "_banks_per_channel", "_prune_limit",
                 "_burst_cycles")

    def __init__(self, config: Optional[DRAMConfig] = None) -> None:
        self.config = config or DRAMConfig()
        self.config.validate()
        self.timing = DRAMTiming(self.config)
        self._banks: List[BankState] = [BankState() for _ in range(self.config.total_banks)]
        self._channel_busy_until: List[int] = [0] * self.config.channels
        # In-flight requests: block -> ready cycle.  Used both for Hermes
        # matching and for demand/prefetch merging.  The companion lazy
        # min-heap of (ready, block) makes pruning incremental: the old
        # full-dict scan per access turned O(n^2) whenever the read queue
        # stayed saturated (exactly the TTP/prefetch-heavy configs).
        self._inflight: Dict[int, int] = {}
        self._inflight_heap: List[Tuple[int, int]] = []
        # Blocks fetched by a Hermes request that have not (yet) been
        # claimed by a demand request.
        self._hermes_unclaimed: Dict[int, int] = {}
        self.stats = ControllerStats()
        # Row interleaving: consecutive blocks map to the same row until the
        # row buffer is exhausted; rows stripe across banks.
        self._blocks_per_row = max(1, self.config.row_buffer_bytes // 64)
        self._banks_per_channel = (self.config.ranks_per_channel
                                   * self.config.banks_per_rank)
        self._prune_limit = 4 * self.config.read_queue_size
        # burst_cycles is a computed property (float math + round); hoist
        # it out of the per-request path.
        self._burst_cycles = self.config.burst_cycles

    # ------------------------------------------------------------------ #
    # Request servicing
    # ------------------------------------------------------------------ #

    def access(self, address: int, cycle: int,
               source: RequestSource = RequestSource.DEMAND) -> int:
        """Service a main-memory request arriving at ``cycle``.

        Returns the cycle at which the data is available at the memory
        controller.  Requests to a block with an in-flight access merge
        with it.
        """
        block = address >> BLOCK_BITS
        stats = self.stats
        if source is RequestSource.DEMAND:
            stats.demand_requests += 1
        elif source is RequestSource.PREFETCH:
            stats.prefetch_requests += 1
        elif source is RequestSource.HERMES:
            stats.hermes_requests += 1
        else:
            stats.writeback_requests += 1

        hermes_unclaimed = self._hermes_unclaimed
        inflight_ready = self._inflight.get(block)
        if inflight_ready is not None and inflight_ready > cycle:
            # Merge with the in-flight request (includes the demand-finds-
            # Hermes-request case).
            stats.merged_requests += 1
            if source is RequestSource.DEMAND and block in hermes_unclaimed:
                del hermes_unclaimed[block]
                stats.hermes_consumed += 1
            if source is not RequestSource.WRITEBACK:
                stats.total_reads += 1
                stats.total_read_latency += inflight_ready - cycle
            return inflight_ready

        # Address mapping (rows stripe across channels, then banks) and
        # row-buffer timing (DRAMTiming.access_latency), inlined for the
        # per-request path.
        channels = self.config.channels
        banks_per_channel = self._banks_per_channel
        row_id = block // self._blocks_per_row
        channel = row_id % channels
        bank = self._banks[channel * banks_per_channel
                           + (row_id // channels) % banks_per_channel]
        row = row_id // (channels * banks_per_channel)

        # Queueing: the request cannot start before its bank is free, and its
        # data transfer cannot start before the channel's data bus is free.
        # Bank- and channel-occupancy together model FR-FCFS-style queueing
        # delay without an explicit event queue.
        busy_until = bank.busy_until
        start = cycle if cycle > busy_until else busy_until

        timing = self.timing
        open_row = bank.open_row
        if open_row == row:
            bank.row_hits += 1
            stats.row_hits += 1
            access_latency = timing.tcas
        elif open_row == -1:
            bank.row_misses += 1
            bank.open_row = row
            stats.row_misses += 1
            access_latency = timing.trcd + timing.tcas
        else:
            bank.row_conflicts += 1
            bank.open_row = row
            stats.row_conflicts += 1
            access_latency = timing.trp + timing.trcd + timing.tcas

        busy = start + access_latency
        channel_free = self._channel_busy_until[channel]
        data_start = busy if busy > channel_free else channel_free
        ready = data_start + self._burst_cycles
        bank.busy_until = busy
        self._channel_busy_until[channel] = ready

        self._track(block, ready, cycle)
        if source is RequestSource.HERMES:
            hermes_unclaimed[block] = ready
        elif source is RequestSource.DEMAND and block in hermes_unclaimed:
            del hermes_unclaimed[block]
            stats.hermes_consumed += 1

        if source is not RequestSource.WRITEBACK:
            stats.total_reads += 1
            stats.total_read_latency += ready - cycle
        return ready

    def lookup_inflight(self, address: int, cycle: int) -> Optional[int]:
        """Return the ready cycle of an in-flight request to ``address``, if any."""
        ready = self._inflight.get(address >> BLOCK_BITS)
        if ready is None or ready <= cycle:
            return None
        return ready

    def claim_hermes(self, address: int) -> bool:
        """Mark the Hermes request for ``address`` as consumed by a demand load.

        Returns True if an unclaimed Hermes request to the block existed.
        """
        block = address >> BLOCK_BITS
        if block in self._hermes_unclaimed:
            del self._hermes_unclaimed[block]
            self.stats.hermes_consumed += 1
            return True
        return False

    def drain_unclaimed_hermes(self, cycle: int) -> int:
        """Drop completed Hermes requests nobody claimed; return how many.

        Mirrors Section 6.2.2: data fetched by a mispredicted Hermes request
        is never filled into the hierarchy.
        """
        expired = [block for block, ready in self._hermes_unclaimed.items()
                   if ready <= cycle]
        for block in expired:
            del self._hermes_unclaimed[block]
        self.stats.hermes_dropped += len(expired)
        return len(expired)

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _track(self, block: int, ready: int, cycle: int) -> None:
        """Record a request to ``block`` that arrived at ``cycle`` and is
        in flight until ``ready``.

        ``access`` and the core loop's inlined demand path share this.
        Once the in-flight dict outgrows four read queues, completed
        requests are pruned; otherwise, once the lazy heap holds more
        than twice that many stale twins, it is rebuilt from the dict
        (no semantic effect), so it stays bounded.
        """
        inflight = self._inflight
        inflight[block] = ready
        heapq.heappush(self._inflight_heap, (ready, block))
        if len(inflight) > self._prune_limit:
            self._prune(cycle)
        elif len(self._inflight_heap) > 2 * (self._prune_limit + len(inflight)):
            heap = [(r, b) for b, r in inflight.items()]
            heapq.heapify(heap)
            self._inflight_heap = heap

    def _prune(self, cycle: int) -> None:
        """Incrementally drop completed requests (lazy heap, no full scans).

        Deletes exactly the ``ready <= cycle`` entries the old full-dict
        scan removed, at the same trigger points, so the dict evolution
        (and therefore every simulated statistic) is unchanged.
        """
        heap = self._inflight_heap
        inflight = self._inflight
        while heap and heap[0][0] <= cycle:
            ready, block = heapq.heappop(heap)
            if inflight.get(block) == ready:
                del inflight[block]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def row_buffer_hit_rate(self) -> float:
        total = self.stats.row_hits + self.stats.row_misses + self.stats.row_conflicts
        if total == 0:
            return 0.0
        return self.stats.row_hits / total
