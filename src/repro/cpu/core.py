"""Trace-driven out-of-order core model.

The model advances a *frontend cycle* as it dispatches instructions at the
configured width, and keeps a window of in-flight loads bounded by the
reorder-buffer size.  A load's completion time comes from the cache
hierarchy (and, with Hermes enabled, from the Hermes engine's speculative
request).  When the distance between the dispatching instruction and the
oldest incomplete load exceeds the ROB size, the frontend stalls until
that load completes — this is exactly the "off-chip load blocks
instruction retirement from the ROB" behaviour the paper quantifies
(Figs. 2 and 3), and is where Hermes's latency savings turn into saved
stall cycles and higher IPC.

Dependent loads (``depends_on_previous_load``) cannot issue before the
previous load's data returns, which limits memory-level parallelism for
pointer-chasing workloads the way real dependence chains do.

There is one core loop, :meth:`OutOfOrderCore._span_loop`, written as
a generator.  The simulation driver opens a span per core
(:meth:`~OutOfOrderCore.open_span`) and resumes each one
(:meth:`~OutOfOrderCore.step`) until its clock passes the next core's,
interleaving several cores over a shared LLC and memory controller; a
single core runs each span to its end in one resume.
:meth:`~OutOfOrderCore.run_span` does that in one call.
On the paper's Table 4 system the loop also runs POPET and the demand
load path, from the L1 down to the LLC and the DRAM controller, inline
instead of calling them.

The in-flight load window is a ring buffer of parallel preallocated
lists (instruction index, completion cycle, off-chip flag, on-chip
latency) — the loop allocates nothing per load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.config.schema import SerializableConfig
from repro.core.hermes import HermesEngine
from repro.dram.controller import MemoryController, RequestSource
from repro.memory.address import BLOCK_BITS, PAGE_BITS, PAGE_SIZE
from repro.memory.cache import (
    FLAG_DIRTY,
    FLAG_PREFETCHED,
    FLAG_REUSED,
    FLAG_VALID,
)
from repro.memory.hierarchy import CacheHierarchy
from repro.memory.replacement import LRUPolicy, SHiPPolicy
from repro.offchip.popet import POPET, WEIGHT_MAX, WEIGHT_MIN
from repro.prefetchers.base import NoPrefetcher
from repro.workloads.trace import Trace

#: A multicore scheduling bound: another core's (frontend cycle, rank)
#: heap key, or ``None`` for no bound.
Bound = Optional[Tuple[float, int]]

_PAGE_OFFSET_MASK = PAGE_SIZE - 1
_BLOCK_OFFSET_MASK = (1 << BLOCK_BITS) - 1
#: POPET hashes 64-bit feature values.
_MASK64 = (1 << 64) - 1


@dataclass
class CoreConfig(SerializableConfig):
    """Core parameters (paper Table 4 defaults)."""

    rob_size: int = 512
    fetch_width: int = 6
    commit_width: int = 6
    load_queue_size: int = 128
    store_queue_size: int = 72

    def validate(self) -> None:
        if self.rob_size <= 0:
            raise ValueError("rob_size must be positive")
        if self.fetch_width <= 0 or self.commit_width <= 0:
            raise ValueError("fetch_width and commit_width must be positive")
        if self.load_queue_size <= 0 or self.store_queue_size <= 0:
            raise ValueError("queue sizes must be positive")


@dataclass(slots=True)
class CoreStats:
    """Per-core execution statistics."""

    instructions: int = 0
    memory_instructions: int = 0
    loads: int = 0
    stores: int = 0
    cycles: int = 0
    offchip_loads: int = 0
    blocking_offchip_loads: int = 0
    nonblocking_offchip_loads: int = 0
    stall_cycles_offchip: int = 0
    stall_cycles_offchip_onchip_portion: int = 0
    stall_cycles_other: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def average_offchip_stall(self) -> float:
        """Average stall cycles per blocking off-chip load (Fig. 3 metric)."""
        if self.blocking_offchip_loads == 0:
            return 0.0
        return self.stall_cycles_offchip / self.blocking_offchip_loads

    def as_dict(self) -> Dict[str, float]:
        return {
            "instructions": self.instructions,
            "memory_instructions": self.memory_instructions,
            "loads": self.loads,
            "stores": self.stores,
            "cycles": self.cycles,
            "ipc": self.ipc,
            "offchip_loads": self.offchip_loads,
            "blocking_offchip_loads": self.blocking_offchip_loads,
            "nonblocking_offchip_loads": self.nonblocking_offchip_loads,
            "stall_cycles_offchip": self.stall_cycles_offchip,
            "stall_cycles_offchip_onchip_portion": self.stall_cycles_offchip_onchip_portion,
            "stall_cycles_other": self.stall_cycles_other,
            "average_offchip_stall": self.average_offchip_stall,
        }


class OutOfOrderCore:
    """Cycle-approximate out-of-order core executing a memory-access trace."""

    __slots__ = ("config", "hierarchy", "hermes", "stats",
                 "_il_capacity", "_il_index", "_il_completion", "_il_offchip",
                 "_il_onchip", "_il_head", "_il_count",
                 "_dispatch_cycle", "_instruction_index",
                 "_previous_load_completion", "_running", "_span",
                 "_fetch_width", "_rob_size", "_lq_size", "_l1_latency")

    def __init__(self, hierarchy: CacheHierarchy,
                 hermes: Optional[HermesEngine] = None,
                 config: Optional[CoreConfig] = None) -> None:
        self.config = config or CoreConfig()
        self.config.validate()
        self.hierarchy = hierarchy
        self.hermes = hermes
        self.stats = CoreStats()
        # Ring buffer of in-flight loads (parallel arrays).  The window
        # never exceeds load_queue_size + 1 entries: the loop drains the
        # oldest load as soon as the queue overflows.
        self._il_capacity = self.config.load_queue_size + 2
        self._il_index = [0] * self._il_capacity
        self._il_completion = [0] * self._il_capacity
        self._il_offchip = [False] * self._il_capacity
        self._il_onchip = [0] * self._il_capacity
        self._il_head = 0
        self._il_count = 0
        self._dispatch_cycle = 0.0
        self._instruction_index = 0
        self._previous_load_completion = 0
        self._running = False
        #: The span opened for :meth:`step`, paused between resumes.
        self._span: Optional[Generator[None, Bound, None]] = None
        # Hot-loop constants hoisted out of the config dataclass.
        self._fetch_width = self.config.fetch_width
        self._rob_size = self.config.rob_size
        self._lq_size = self.config.load_queue_size
        self._l1_latency = hierarchy.l1d.latency

    # ------------------------------------------------------------------ #
    # One-shot execution
    # ------------------------------------------------------------------ #

    def run(self, trace: Trace, max_accesses: Optional[int] = None) -> CoreStats:
        """Execute ``trace`` to completion and return the execution statistics."""
        self.begin()
        accesses = trace.accesses
        total = len(accesses) if max_accesses is None else min(max_accesses,
                                                               len(accesses))
        self.run_span(accesses, 0, total)
        return self.finalize()

    # ------------------------------------------------------------------ #
    # Span execution: begin(), spans in trace order, finalize()
    # ------------------------------------------------------------------ #

    def begin(self) -> None:
        """Reset dynamic state before executing a trace."""
        self._il_head = 0
        self._il_count = 0
        self._dispatch_cycle = 0.0
        self._instruction_index = 0
        self._previous_load_completion = 0
        self._span = None
        self._running = True

    def run_span(self, accesses, start: int, stop: int) -> None:
        """Execute ``accesses[start:stop]`` to the end, with no bound."""
        if not self._running:
            raise RuntimeError("call begin() before run_span()")
        span = self._span_loop(accesses, start, stop, 0)
        next(span, None)  # set up; pauses before the first access
        next(span, None)  # resume with no bound: run to the span's end

    def open_span(self, accesses, start: int, stop: int, rank: int) -> None:
        """Open ``accesses[start:stop]`` for bounded execution by :meth:`step`.

        ``rank`` is the core's index in its mix: between two cores at the
        same frontend cycle, the lower rank runs first.
        """
        if not self._running:
            raise RuntimeError("call begin() before open_span()")
        span = self._span_loop(accesses, start, stop, rank)
        next(span, None)  # set up; pauses before the first access
        self._span = span

    def step(self, bound: Bound) -> bool:
        """Run the open span until this core's (frontend cycle, rank)
        passes ``bound``, another core's heap key.

        Returns True when the span paused there, and False once its last
        access has run: the span is then closed, its statistics flushed.
        """
        span = self._span
        if span is None:
            raise RuntimeError("call open_span() before step()")
        try:
            span.send(bound)
        except StopIteration:
            self._span = None
            return False
        return True

    # repro: hot
    def _span_loop(self, accesses, start: int, stop: int,
                   rank: int) -> Generator[None, Bound, None]:
        """The core loop over ``accesses[start:stop]``, as a generator.

        Core state and statistics counters live in locals for the whole
        span and are flushed back once, when it ends.  The loop pauses
        before an access once the core's (frontend cycle, ``rank``) has
        passed the current bound, and each resume sends the next bound.
        It starts paused, before its first access; it never pauses after
        its last one, so the driver acts on a span's end (a warmup stats
        reset) before any other core runs.  While the loop is paused,
        only ``_dispatch_cycle`` and POPET's PC-history head are current
        on the instances.

        On the Table 4 system the loop runs the common per-load work of
        the layers below it inline, statement for statement:

        * POPET's ``predict`` and ``train``, when the predictor is
          exactly :class:`~repro.offchip.popet.POPET` with its default
          feature set (``_use_fused``);
        * ``CacheHierarchy.load`` for an L1 hit (with or without an MSHR
          entry still recorded), an L1 MSHR merge, and an L2 hit with its
          L1 fill, when the hierarchy is exactly
          :class:`~repro.memory.hierarchy.CacheHierarchy` with LRU L1 and
          L2;
        * ``CacheHierarchy._post_l2`` for an L2 miss, when in addition the
          LLC's policy is exactly :class:`~repro.memory.replacement.SHiPPolicy`
          and the controller exactly
          :class:`~repro.dram.controller.MemoryController`: an LLC hit
          with its late-prefetch wait, or an LLC miss with the Hermes
          wait and claim, a merge into a request in flight, or a new
          demand request with its bank, row-buffer and channel timing;
          then the L1 MSHR record and the LLC, L2 and L1 fills in
          ``_fill_all``'s order.  Otherwise an L2 miss calls
          ``_post_l2``.

        Everything else calls the layer methods: stores, other
        predictors, subclasses and replacement policies, prefetcher
        training and prefetch issue, Hermes requests and drains, the L1
        MSHR record (``Cache.record_miss``) and the in-flight insert
        (``MemoryController._track``), which own the heap entries, and
        fills that write a dirty victim back, find the LLC set full, or
        find a set with holes.  The per-core counters of the inlined
        paths (L1, L2, hierarchy, Hermes, POPET and the no-prefetching
        baseline's observation count) are batched in locals too.  The
        shared LLC's and controller's counters update in place, and
        their statistics objects are read again after every resume,
        since the driver replaces them while a span is paused.  The
        layers reassign ``_has_holes`` and the MSHR and in-flight heaps,
        so the loop never binds those.
        """
        stats = self.stats
        hierarchy = self.hierarchy
        hermes = self.hermes
        hierarchy_load = hierarchy.load
        hierarchy_store = hierarchy.store
        l1d = hierarchy.l1d
        l2 = hierarchy.l2
        llc = hierarchy.llc
        memory_controller = hierarchy.memory_controller
        inline_memory = (type(hierarchy) is CacheHierarchy
                         and type(l1d.replacement) is LRUPolicy
                         and type(l2.replacement) is LRUPolicy)
        inline_miss = (inline_memory
                       and type(llc.replacement) is SHiPPolicy
                       and type(memory_controller) is MemoryController)
        if inline_memory:
            post_l2 = hierarchy._post_l2
            l1_where = l1d._where
            l1_where_get = l1d._where_get
            l1_tags = l1d._tags
            l1_flags = l1d._flags
            l1_valid_count = l1d._valid_count
            l1_ways = l1d.num_ways
            l1_sets = l1d.num_sets
            l1_set_mask = l1d._set_mask
            l1_use_mask = l1d._use_mask
            l1_age = l1d.replacement._age
            l1_clock = l1d.replacement._clock
            l1_mshr = l1d._mshr
            l1_mshr_get = l1_mshr.get
            l1_fill = l1d.fill
            l1_record_miss = l1d.record_miss
            l2_where = l2._where
            l2_where_get = l2._where_get
            l2_tags = l2._tags
            l2_flags = l2._flags
            l2_valid_count = l2._valid_count
            l2_ways = l2.num_ways
            l2_sets = l2.num_sets
            l2_set_mask = l2._set_mask
            l2_use_mask = l2._use_mask
            l2_age = l2.replacement._age
            l2_clock = l2.replacement._clock
            l2_fill = l2.fill
            l2_onchip = hierarchy._l2_onchip
        if inline_miss:
            full_onchip = hierarchy._full_onchip
            llc_where = llc._where
            llc_where_get = llc._where_get
            llc_tags = llc._tags
            llc_flags = llc._flags
            llc_valid_count = llc._valid_count
            llc_ways = llc.num_ways
            llc_sets = llc.num_sets
            llc_set_mask = llc._set_mask
            llc_use_mask = llc._use_mask
            llc_fill = llc.fill
            ship = llc.replacement
            ship_rrpv = ship._rrpv
            ship_signature = ship._signature
            ship_reused = ship._reused
            ship_shct = ship._shct
            shct_mask = SHiPPolicy.SHCT_SIZE - 1
            shct_max = SHiPPolicy.SHCT_MAX
            max_rrpv = SHiPPolicy.MAX_RRPV
            pending_pop = hierarchy._pending_prefetch.pop
            issue_prefetch = hierarchy._issue_prefetch
            prefetcher = hierarchy.prefetcher
            # The no-prefetching baseline's prefetcher only counts the
            # accesses it observes; the count is batched.
            count_observed = type(prefetcher) is NoPrefetcher
            prefetcher_observe = (None if prefetcher is None or count_observed
                                  else prefetcher.on_demand_access)
            inflight_get = memory_controller._inflight.get
            hermes_unclaimed = memory_controller._hermes_unclaimed
            mc_track = memory_controller._track
            banks = memory_controller._banks
            channel_busy = memory_controller._channel_busy_until
            channels = memory_controller.config.channels
            banks_per_channel = memory_controller._banks_per_channel
            channel_banks = channels * banks_per_channel
            blocks_per_row = memory_controller._blocks_per_row
            timing = memory_controller.timing
            row_hit_cycles = timing.tcas
            row_miss_cycles = timing.trcd + timing.tcas
            row_conflict_cycles = timing.trp + timing.trcd + timing.tcas
            burst_cycles = memory_controller._burst_cycles
        inline_popet = False
        if hermes is not None:
            predictor = hermes.predictor
            predictor_predict = predictor.predict
            predictor_train = predictor.train
            hermes_context = hermes._context
            hermes_enabled = hermes._enabled
            hermes_request_delay = hermes._request_delay
            hermes_drain_interval = hermes._drain_interval
            hermes_loads_since_drain = hermes._loads_since_drain
            mc_access = hermes.memory_controller.access
            mc_drain = hermes.memory_controller.drain_unclaimed_hermes
            hermes_source = RequestSource.HERMES
            inline_popet = type(predictor) is POPET and predictor._use_fused
            if inline_popet:
                popet_config = predictor.config
                activation_threshold = popet_config.activation_threshold
                train_low = popet_config.negative_training_threshold
                train_high = popet_config.positive_training_threshold
                weights0, weights1, weights2, weights3, weights4 = predictor.weights
                memo0_get = predictor._ix0_cache.get
                memo1_get = predictor._ix1_cache.get
                memo2_get = predictor._ix2_cache.get
                memo4_get = predictor._ix4_cache.get
                memo_index = predictor._memo_index
                page_buffer = predictor.extractor.page_buffer
                page_entries = page_buffer.entries
                pages = page_buffer._buffer
                pages_get = pages.get
                pages_move_to_end = pages.move_to_end
                pages_popitem = pages.popitem
                history = predictor.extractor.pc_history
                history_pcs = history._pcs
                history_head = history._head
        fetch_width = self._fetch_width
        rob_size = self._rob_size
        lq_size = self._lq_size
        capacity = self._il_capacity
        indices = self._il_index
        completions = self._il_completion
        offchips = self._il_offchip
        onchips = self._il_onchip
        l1_latency = self._l1_latency
        head = self._il_head
        count = self._il_count
        dispatch_cycle = self._dispatch_cycle
        instruction_index = self._instruction_index
        previous_load_completion = self._previous_load_completion
        # Batched statistics (flushed to the stats objects after the span).
        n_loads = n_stores = 0
        n_offchip = n_blocking = n_nonblocking = 0
        stall_offchip = stall_onchip_portion = stall_other = 0
        n_l1_hits = n_l1_useful = n_l1_merges = n_l1_evictions = 0
        n_l1_writebacks = n_l2_accesses = n_l2_hits = n_l2_useful = 0
        n_l2_evictions = n_l2_writebacks = n_observed = 0
        n_llc_misses = n_hermes_waits = n_late_prefetches = 0
        load_latency = n_hierarchy_offchip = offchip_latency = 0
        offchip_onchip_latency = 0
        n_issued = n_useful = 0
        n_true_pos = n_false_pos = n_true_neg = n_false_neg = 0
        n_trained = n_saturated = 0
        # The bound as a cycle limit: past it when above the limit, or at
        # it when this core ranks after the bound's core.  No cycle is
        # below -1, so the first access pauses to receive the first bound.
        limit = -1.0
        tie_pauses = False

        def pop_oldest_stall() -> None:
            """Pop the oldest in-flight load, accounting any stall (inline
            twin of _wait_for_oldest operating on the span's locals)."""
            nonlocal dispatch_cycle, head, count, n_offchip, n_blocking, \
                n_nonblocking, stall_offchip, stall_onchip_portion, stall_other
            completion = completions[head]
            went_offchip = offchips[head]
            onchip_latency = onchips[head]
            head += 1
            if head == capacity:
                head = 0
            count -= 1
            if completion <= dispatch_cycle:
                if went_offchip:
                    n_offchip += 1
                    n_nonblocking += 1
                return
            stall = completion - dispatch_cycle
            if went_offchip:
                n_offchip += 1
                n_blocking += 1
                stall_offchip += int(stall)
                hidden = onchip_latency - l1_latency
                if hidden < 0:
                    hidden = 0
                if hidden > int(stall):
                    hidden = int(stall)
                stall_onchip_portion += hidden
            else:
                stall_other += int(stall)
            dispatch_cycle = float(completion)

        for position in range(start, stop):
            if dispatch_cycle >= limit and (dispatch_cycle > limit or tie_pauses):
                self._dispatch_cycle = dispatch_cycle
                if inline_popet:
                    history._head = history_head
                bound = yield
                if inline_miss:
                    # The driver replaces the shared LLC's and controller's
                    # statistics while this span is paused.
                    llc_stats = llc.stats
                    mc_stats = memory_controller.stats
                if bound is None:
                    limit = float("inf")
                else:
                    limit, bound_rank = bound
                    tie_pauses = rank > bound_rank

            access = accesses[position]
            group_size = access.nonmem_before + 1
            instruction_index += group_size
            dispatch_cycle += group_size / fetch_width

            # Retire completed loads that the frontend has caught up with.
            while count and completions[head] <= dispatch_cycle:
                if offchips[head]:
                    n_offchip += 1
                    n_nonblocking += 1
                head += 1
                if head == capacity:
                    head = 0
                count -= 1
            # ROB limit: stall until the oldest in-flight load completes.
            while count and (instruction_index - indices[head]) >= rob_size:
                pop_oldest_stall()

            issue_cycle = int(dispatch_cycle)
            if access.depends_on_previous_load and previous_load_completion > issue_cycle:
                issue_cycle = previous_load_completion

            if not access.is_load:
                # Stores update cache state but retire off the critical
                # path through the store queue.
                hierarchy_store(access.address, access.pc, issue_cycle)
                n_stores += 1
                continue

            pc = access.pc
            address = access.address
            hermes_ready = None
            if hermes is not None:
                # Predict at load-queue allocation; a predicted off-chip
                # load sends a Hermes request straight to the memory
                # controller (Section 5 of the paper).
                if inline_popet:
                    # POPET.predict: page buffer (PageBuffer.first_access),
                    # PC history push, the five table indices, the sum.
                    page = address >> PAGE_BITS
                    cl_offset = (address & _PAGE_OFFSET_MASK) >> BLOCK_BITS
                    line_bit = 1 << cl_offset
                    bitmap = pages_get(page)
                    if bitmap is None:
                        if len(pages) >= page_entries:
                            pages_popitem(False)
                        pages[page] = line_bit
                        first = 1
                    else:
                        pages_move_to_end(page)
                        if bitmap & line_bit:
                            first = 0
                        else:
                            pages[page] = bitmap | line_bit
                            first = 1
                    history_pcs[history_head] = pc
                    history_head += 1
                    if history_head == 4:
                        history_head = 0
                    key = (pc << BLOCK_BITS) | cl_offset
                    index0 = memo0_get(key, -1)
                    if index0 < 0:
                        index0 = memo_index(0, key)
                    key = (pc << BLOCK_BITS) | (address & _BLOCK_OFFSET_MASK)
                    index1 = memo1_get(key, -1)
                    if index1 < 0:
                        index1 = memo_index(1, key)
                    key = (pc << 1) | first
                    index2 = memo2_get(key, -1)
                    if index2 < 0:
                        index2 = memo_index(2, key)
                    # cl_offset_first_access fits its 128-entry table.
                    index3 = (cl_offset << 1) | first
                    # last_4_load_pcs: the history's shifted XOR, oldest first.
                    key = (history_pcs[history_head]
                           ^ (history_pcs[history_head - 3] << 1)
                           ^ (history_pcs[history_head - 2] << 2)
                           ^ (history_pcs[history_head - 1] << 3)) & _MASK64
                    index4 = memo4_get(key, -1)
                    if index4 < 0:
                        index4 = memo_index(4, key)
                    total = (weights0[index0] + weights1[index1]
                             + weights2[index2] + weights3[index3]
                             + weights4[index4])
                    predicted = total >= activation_threshold
                else:
                    hermes_context.pc = pc
                    hermes_context.address = address
                    hermes_context.cycle = issue_cycle
                    record = predictor_predict(hermes_context)
                    predicted = record.predicted_offchip
                if hermes_enabled and predicted:
                    hermes_ready = mc_access(
                        address, issue_cycle + hermes_request_delay,
                        hermes_source)
                    n_issued += 1
                hermes_loads_since_drain += 1
                if hermes_loads_since_drain >= hermes_drain_interval:
                    hermes_loads_since_drain = 0
                    mc_drain(issue_cycle)

            if inline_memory:
                # CacheHierarchy.load, up to an L2 miss.
                completion = issue_cycle + l1_latency
                onchip_latency = l1_latency
                went_offchip = hermes_used = False
                block = address >> BLOCK_BITS
                slot = l1_where_get(block, -1)
                if slot >= 0:
                    # L1 hit (Cache.access with LRUPolicy.on_hit).
                    n_l1_hits += 1
                    flags = l1_flags[slot]
                    if flags & FLAG_PREFETCHED and not flags & FLAG_REUSED:
                        n_l1_useful += 1
                    l1_flags[slot] = flags | FLAG_REUSED
                    set_index = slot // l1_ways
                    clock = l1_clock[set_index] + 1
                    l1_clock[set_index] = clock
                    l1_age[slot] = clock
                    # The tag may be present while the fill of an earlier
                    # miss is in flight (Cache.outstanding_miss).
                    ready = l1_mshr_get(block)
                    if ready is not None:
                        if ready <= issue_cycle:
                            del l1_mshr[block]
                        else:
                            n_l1_merges += 1
                            if ready > completion:
                                completion = ready
                else:
                    ready = l1_mshr_get(block)
                    if ready is not None and ready <= issue_cycle:
                        del l1_mshr[block]
                        ready = None
                    if ready is not None:
                        # Merge with the outstanding miss to the block.
                        n_l1_merges += 1
                        if ready > completion:
                            completion = ready
                    else:
                        n_l2_accesses += 1
                        slot = l2_where_get(block, -1)
                        if slot < 0 and not inline_miss:
                            outcome = post_l2(block, address, pc, issue_cycle,
                                              False, hermes_ready)
                            completion = outcome.completion_cycle
                            onchip_latency = outcome.onchip_latency
                            if outcome.went_offchip:
                                went_offchip = True
                                hermes_used = outcome.hermes_used
                                n_hierarchy_offchip += 1
                                offchip_latency += completion - issue_cycle
                                offchip_onchip_latency += onchip_latency
                        else:
                            if slot >= 0:
                                # L2 hit (Cache.access with LRUPolicy.on_hit).
                                n_l2_hits += 1
                                flags = l2_flags[slot]
                                if (flags & FLAG_PREFETCHED
                                        and not flags & FLAG_REUSED):
                                    n_l2_useful += 1
                                l2_flags[slot] = flags | FLAG_REUSED
                                set_index = slot // l2_ways
                                clock = l2_clock[set_index] + 1
                                l2_clock[set_index] = clock
                                l2_age[slot] = clock
                                completion = issue_cycle + l2_onchip
                                onchip_latency = l2_onchip
                            else:
                                # CacheHierarchy._post_l2: the LLC (Cache.access
                                # with SHiPPolicy.on_hit), then DRAM.
                                llc_cycle = issue_cycle + l2_onchip
                                completion = issue_cycle + full_onchip
                                onchip_latency = full_onchip
                                llc_stats.demand_accesses += 1
                                slot = llc_where_get(block, -1)
                                if slot >= 0:
                                    llc_stats.demand_hits += 1
                                    flags = llc_flags[slot]
                                    if (flags & FLAG_PREFETCHED
                                            and not flags & FLAG_REUSED):
                                        llc_stats.useful_prefetches += 1
                                    llc_flags[slot] = flags | FLAG_REUSED
                                    ship_rrpv[slot] = 0
                                    if not ship_reused[slot]:
                                        ship_reused[slot] = 1
                                        signature = ship_signature[slot]
                                        if ship_shct[signature] < shct_max:
                                            ship_shct[signature] += 1
                                    ready = pending_pop(block, None)
                                    if ready is not None and ready > completion:
                                        # Late prefetch: the data is still
                                        # in flight from DRAM.
                                        n_late_prefetches += 1
                                        completion = ready
                                    if prefetcher_observe is None:
                                        n_observed += 1
                                    else:
                                        for candidate in prefetcher_observe(
                                                address, pc, llc_cycle, True):
                                            issue_prefetch(candidate, pc,
                                                           llc_cycle)
                                else:
                                    llc_stats.demand_misses += 1
                                    n_llc_misses += 1
                                    if prefetcher_observe is None:
                                        n_observed += 1
                                    else:
                                        for candidate in prefetcher_observe(
                                                address, pc, llc_cycle, False):
                                            issue_prefetch(candidate, pc,
                                                           llc_cycle)
                                    arrival = completion
                                    ready = inflight_get(block)
                                    if hermes_ready is not None:
                                        # Wait for the in-flight Hermes
                                        # request (lookup_inflight) and
                                        # claim it (claim_hermes).
                                        if ready is None or ready <= arrival:
                                            ready = hermes_ready
                                        if ready > arrival:
                                            completion = ready
                                        if block in hermes_unclaimed:
                                            del hermes_unclaimed[block]
                                            mc_stats.hermes_consumed += 1
                                        n_hermes_waits += 1
                                        hermes_used = True
                                    elif ready is not None and ready > arrival:
                                        # Merge into the request in flight.
                                        completion = ready
                                        mc_stats.merged_requests += 1
                                    else:
                                        # MemoryController.access for a new
                                        # demand request.
                                        mc_stats.demand_requests += 1
                                        row = block // blocks_per_row
                                        channel = row % channels
                                        bank = banks[
                                            channel * banks_per_channel
                                            + (row // channels)
                                            % banks_per_channel]
                                        row //= channel_banks
                                        busy = bank.busy_until
                                        if arrival > busy:
                                            busy = arrival
                                        open_row = bank.open_row
                                        if open_row == row:
                                            bank.row_hits += 1
                                            mc_stats.row_hits += 1
                                            busy += row_hit_cycles
                                        elif open_row == -1:
                                            bank.row_misses += 1
                                            bank.open_row = row
                                            mc_stats.row_misses += 1
                                            busy += row_miss_cycles
                                        else:
                                            bank.row_conflicts += 1
                                            bank.open_row = row
                                            mc_stats.row_conflicts += 1
                                            busy += row_conflict_cycles
                                        ready = channel_busy[channel]
                                        if busy > ready:
                                            ready = busy
                                        ready += burst_cycles
                                        bank.busy_until = busy
                                        channel_busy[channel] = ready
                                        mc_track(block, ready, arrival)
                                        if block in hermes_unclaimed:
                                            del hermes_unclaimed[block]
                                            mc_stats.hermes_consumed += 1
                                        mc_stats.total_reads += 1
                                        mc_stats.total_read_latency += (
                                            ready - arrival)
                                        completion = ready
                                    went_offchip = True
                                    n_hierarchy_offchip += 1
                                    offchip_latency += completion - issue_cycle
                                    offchip_onchip_latency += full_onchip
                                    l1_record_miss(address, completion)
                                    # Cache.fill into the LLC (_fill_all); a
                                    # block a prefetch raced in stays as it
                                    # is.
                                    if llc_where_get(block, -1) < 0:
                                        set_index = (
                                            block & llc_set_mask if llc_use_mask
                                            else block % llc_sets)
                                        way = llc_valid_count[set_index]
                                        if way < llc_ways and not llc._has_holes:
                                            # The set's first invalid way
                                            # (SHiPPolicy.on_fill).
                                            llc_valid_count[set_index] = way + 1
                                            slot = set_index * llc_ways + way
                                            llc_tags[slot] = block
                                            llc_flags[slot] = FLAG_VALID
                                            llc_where[block] = slot
                                            signature = ((pc ^ (pc >> 14))
                                                         & shct_mask)
                                            ship_signature[slot] = signature
                                            ship_reused[slot] = 0
                                            ship_rrpv[slot] = (
                                                max_rrpv
                                                if ship_shct[signature] == 0
                                                else max_rrpv - 1)
                                        elif llc_fill(address, pc) is not None:
                                            mc_stats.writeback_requests += 1
                                # Cache.fill into the L2 (_fill_l2_l1); it
                                # missed, and only the LLC has filled since.
                                set_index = (block & l2_set_mask if l2_use_mask
                                             else block % l2_sets)
                                way = l2_valid_count[set_index]
                                if way == l2_ways:
                                    # A full set (LRUPolicy.evict_fill_full).
                                    base = set_index * l2_ways
                                    end = base + l2_ways
                                    slot = l2_age.index(
                                        min(l2_age[base:end]), base, end)
                                    clock = l2_clock[set_index] + 1
                                    l2_clock[set_index] = clock
                                    l2_age[slot] = clock
                                    victim = l2_tags[slot]
                                    victim_dirty = l2_flags[slot] & FLAG_DIRTY
                                    del l2_where[victim]
                                    n_l2_evictions += 1
                                    l2_tags[slot] = block
                                    l2_flags[slot] = FLAG_VALID
                                    l2_where[block] = slot
                                    if victim_dirty:
                                        n_l2_writebacks += 1
                                        llc_fill(victim << BLOCK_BITS, pc,
                                                 dirty=True)
                                elif not l2._has_holes:
                                    # The set's first invalid way
                                    # (LRUPolicy.on_fill).
                                    l2_valid_count[set_index] = way + 1
                                    slot = set_index * l2_ways + way
                                    l2_tags[slot] = block
                                    l2_flags[slot] = FLAG_VALID
                                    l2_where[block] = slot
                                    clock = l2_clock[set_index] + 1
                                    l2_clock[set_index] = clock
                                    l2_age[slot] = clock
                                else:
                                    victim = l2_fill(address, pc)
                                    if victim is not None:
                                        llc_fill(victim, pc, dirty=True)
                            # Cache.fill into the L1 (_fill_l1), which missed.
                            set_index = (block & l1_set_mask if l1_use_mask
                                         else block % l1_sets)
                            if l1_valid_count[set_index] == l1_ways:
                                # A full set (LRUPolicy.evict_fill_full).
                                base = set_index * l1_ways
                                end = base + l1_ways
                                slot = l1_age.index(min(l1_age[base:end]),
                                                    base, end)
                                clock = l1_clock[set_index] + 1
                                l1_clock[set_index] = clock
                                l1_age[slot] = clock
                                victim = l1_tags[slot]
                                victim_dirty = l1_flags[slot] & FLAG_DIRTY
                                del l1_where[victim]
                                n_l1_evictions += 1
                                l1_tags[slot] = block
                                l1_flags[slot] = FLAG_VALID
                                l1_where[block] = slot
                                if victim_dirty:
                                    n_l1_writebacks += 1
                                    l2_fill(victim << BLOCK_BITS, pc, dirty=True)
                            else:
                                l1_fill(address, pc)
                load_latency += completion - issue_cycle
            else:
                outcome = hierarchy_load(address, pc, issue_cycle, hermes_ready)
                completion = outcome.completion_cycle
                went_offchip = outcome.went_offchip
                onchip_latency = outcome.onchip_latency
                hermes_used = outcome.hermes_used

            if hermes is not None:
                # Train the predictor with the load's true outcome.
                if hermes_used:
                    n_useful += 1
                if inline_popet:
                    # POPET.train: confusion matrix, then the weight update
                    # unless the prediction was correct and saturated.
                    if predicted:
                        if went_offchip:
                            n_true_pos += 1
                        else:
                            n_false_pos += 1
                    elif went_offchip:
                        n_false_neg += 1
                    else:
                        n_true_neg += 1
                    if predicted != went_offchip or train_low <= total <= train_high:
                        # Weights start at 0 and move one step at a time,
                        # so clamping is a bound check.
                        n_trained += 1
                        if went_offchip:
                            if weights0[index0] < WEIGHT_MAX:
                                weights0[index0] += 1
                            if weights1[index1] < WEIGHT_MAX:
                                weights1[index1] += 1
                            if weights2[index2] < WEIGHT_MAX:
                                weights2[index2] += 1
                            if weights3[index3] < WEIGHT_MAX:
                                weights3[index3] += 1
                            if weights4[index4] < WEIGHT_MAX:
                                weights4[index4] += 1
                        else:
                            if weights0[index0] > WEIGHT_MIN:
                                weights0[index0] -= 1
                            if weights1[index1] > WEIGHT_MIN:
                                weights1[index1] -= 1
                            if weights2[index2] > WEIGHT_MIN:
                                weights2[index2] -= 1
                            if weights3[index3] > WEIGHT_MIN:
                                weights3[index3] -= 1
                            if weights4[index4] > WEIGHT_MIN:
                                weights4[index4] -= 1
                    else:
                        n_saturated += 1
                else:
                    predictor_train(record, went_offchip)

            previous_load_completion = completion
            n_loads += 1
            tail = head + count
            if tail >= capacity:
                tail -= capacity
            indices[tail] = instruction_index
            completions[tail] = completion
            offchips[tail] = went_offchip
            onchips[tail] = onchip_latency
            count += 1
            if count > lq_size:
                pop_oldest_stall()

        # Flush span state and counters back to the instances.
        self._il_head = head
        self._il_count = count
        self._dispatch_cycle = dispatch_cycle
        self._instruction_index = instruction_index
        self._previous_load_completion = previous_load_completion
        stats.loads += n_loads
        stats.stores += n_stores
        stats.memory_instructions += (stop - start)
        stats.offchip_loads += n_offchip
        stats.blocking_offchip_loads += n_blocking
        stats.nonblocking_offchip_loads += n_nonblocking
        stats.stall_cycles_offchip += stall_offchip
        stats.stall_cycles_offchip_onchip_portion += stall_onchip_portion
        stats.stall_cycles_other += stall_other
        if inline_memory:
            hierarchy_stats = hierarchy.stats
            hierarchy_stats.loads += n_loads
            hierarchy_stats.total_load_latency += load_latency
            hierarchy_stats.offchip_loads += n_hierarchy_offchip
            hierarchy_stats.total_offchip_latency += offchip_latency
            hierarchy_stats.total_offchip_onchip_latency += offchip_onchip_latency
            hierarchy_stats.llc_misses += n_llc_misses
            hierarchy_stats.llc_prefetch_late += n_late_prefetches
            hierarchy_stats.hermes_waits += n_hermes_waits
            l1_stats = l1d.stats
            l1_stats.demand_accesses += n_loads
            l1_stats.demand_hits += n_l1_hits
            l1_stats.demand_misses += n_loads - n_l1_hits
            l1_stats.useful_prefetches += n_l1_useful
            l1_stats.mshr_merges += n_l1_merges
            l1_stats.evictions += n_l1_evictions
            l1_stats.writebacks += n_l1_writebacks
            l2_stats = l2.stats
            l2_stats.demand_accesses += n_l2_accesses
            l2_stats.demand_hits += n_l2_hits
            l2_stats.demand_misses += n_l2_accesses - n_l2_hits
            l2_stats.useful_prefetches += n_l2_useful
            l2_stats.evictions += n_l2_evictions
            l2_stats.writebacks += n_l2_writebacks
        if inline_miss and count_observed:
            prefetcher.stats.accesses_observed += n_observed
        if hermes is not None:
            hermes._loads_since_drain = hermes_loads_since_drain
            hermes_stats = hermes.stats
            hermes_stats.loads_seen += n_loads
            hermes_stats.predicted_offchip += n_issued
            hermes_stats.hermes_requests_issued += n_issued
            hermes_stats.hermes_requests_useful += n_useful
        if inline_popet:
            history._head = history_head
            predictor_stats = predictor.stats
            predictor_stats.true_positives += n_true_pos
            predictor_stats.false_positives += n_false_pos
            predictor_stats.true_negatives += n_true_neg
            predictor_stats.false_negatives += n_false_neg
            predictor.training_events += n_trained
            predictor.training_skipped_saturated += n_saturated

    def finalize(self) -> CoreStats:
        """Drain outstanding loads and close out the statistics."""
        final_cycle = self._dispatch_cycle
        while self._il_count:
            final_cycle = self._wait_for_oldest(final_cycle)
        self.stats.instructions = self._instruction_index
        self.stats.cycles = max(1, int(final_cycle))
        self._running = False
        return self.stats

    @property
    def current_cycle(self) -> float:
        """The frontend's current cycle (used by the multi-core scheduler)."""
        return self._dispatch_cycle

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _wait_for_oldest(self, dispatch_cycle: float) -> float:
        """Pop the oldest in-flight load, accounting any stall it causes."""
        head = self._il_head
        completion = self._il_completion[head]
        went_offchip = self._il_offchip[head]
        onchip_latency = self._il_onchip[head]
        self._il_head = (head + 1) % self._il_capacity
        self._il_count -= 1
        stats = self.stats
        if completion <= dispatch_cycle:
            if went_offchip:
                stats.offchip_loads += 1
                stats.nonblocking_offchip_loads += 1
            return dispatch_cycle
        stall = completion - dispatch_cycle
        if went_offchip:
            stats.offchip_loads += 1
            stats.blocking_offchip_loads += 1
            stats.stall_cycles_offchip += int(stall)
            # The portion of the stall the on-chip hierarchy access is
            # responsible for (Fig. 3's dark bars): everything after the L1
            # access, capped by the actual stall length.
            hidden = min(int(stall), max(0, onchip_latency - self._l1_latency))
            stats.stall_cycles_offchip_onchip_portion += hidden
        else:
            stats.stall_cycles_other += int(stall)
        return float(completion)
