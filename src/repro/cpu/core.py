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
a generator.  The single-core drivers run a span to its end
(:meth:`~OutOfOrderCore.run_span`); the multi-core driver opens a span
per core (:meth:`~OutOfOrderCore.open_span`) and resumes each one
(:meth:`~OutOfOrderCore.step`) until its clock passes the next core's,
interleaving several cores over a shared LLC and memory controller.

The in-flight load window is a ring buffer of parallel preallocated
lists (instruction index, completion cycle, off-chip flag, on-chip
latency) — the loop allocates nothing per load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.config.schema import SerializableConfig
from repro.core.hermes import HermesEngine
from repro.dram.controller import RequestSource
from repro.memory.hierarchy import CacheHierarchy
from repro.workloads.trace import Trace

#: A multicore scheduling bound: another core's (frontend cycle, rank)
#: heap key, or ``None`` for no bound.
Bound = Optional[Tuple[float, int]]


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
        """Execute ``accesses[start:stop]`` to the end (single-core driving)."""
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
        reset) before any other core runs.  While the loop is paused, only
        ``_dispatch_cycle`` is current on the instance.
        """
        stats = self.stats
        hierarchy = self.hierarchy
        hermes = self.hermes
        hierarchy_load = hierarchy.load
        hierarchy_store = hierarchy.store
        if hermes is not None:
            predictor_predict = hermes.predictor.predict
            predictor_train = hermes.predictor.train
            hermes_stats = hermes.stats
            hermes_context = hermes._context
            hermes_enabled = hermes._enabled
            hermes_request_delay = hermes._request_delay
            hermes_drain_interval = hermes._drain_interval
            hermes_loads_since_drain = hermes._loads_since_drain
            mc_access = hermes.memory_controller.access
            mc_drain = hermes.memory_controller.drain_unclaimed_hermes
            hermes_source = RequestSource.HERMES
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
        # Batched statistics (flushed to self.stats after the span).
        n_loads = n_stores = 0
        n_offchip = n_blocking = n_nonblocking = 0
        stall_offchip = stall_onchip_portion = stall_other = 0
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
                bound = yield
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

            if access.is_load:
                pc = access.pc
                address = access.address
                if hermes is not None:
                    # Predict at load-queue allocation; a predicted
                    # off-chip load sends a Hermes request straight to the
                    # memory controller (Section 5 of the paper).
                    hermes_stats.loads_seen += 1
                    hermes_context.pc = pc
                    hermes_context.address = address
                    hermes_context.cycle = issue_cycle
                    record = predictor_predict(hermes_context)
                    if hermes_enabled and record.predicted_offchip:
                        hermes_stats.predicted_offchip += 1
                        hermes_ready = mc_access(
                            address, issue_cycle + hermes_request_delay,
                            hermes_source)
                        hermes_stats.hermes_requests_issued += 1
                    else:
                        hermes_ready = None
                    hermes_loads_since_drain += 1
                    if hermes_loads_since_drain >= hermes_drain_interval:
                        hermes_loads_since_drain = 0
                        mc_drain(issue_cycle)
                    outcome = hierarchy_load(address, pc, issue_cycle,
                                             hermes_ready)
                    # Train the predictor with the load's true outcome.
                    if outcome.hermes_used:
                        hermes_stats.hermes_requests_useful += 1
                    predictor_train(record, outcome.went_offchip)
                else:
                    outcome = hierarchy_load(address, pc, issue_cycle)
                completion = outcome.completion_cycle
                previous_load_completion = completion
                n_loads += 1
                tail = head + count
                if tail >= capacity:
                    tail -= capacity
                indices[tail] = instruction_index
                completions[tail] = completion
                offchips[tail] = outcome.went_offchip
                onchips[tail] = outcome.onchip_latency
                count += 1
                if count > lq_size:
                    pop_oldest_stall()
            else:
                # Stores update cache state but retire off the critical
                # path through the store queue.
                hierarchy_store(access.address, access.pc, issue_cycle)
                n_stores += 1

        # Flush span state and counters back to the instance.
        if hermes is not None:
            hermes._loads_since_drain = hermes_loads_since_drain
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
