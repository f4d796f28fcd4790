"""Span tracer and frame sampler for the benchmark's traced runs.

:class:`Tracer` wraps callables at layer boundaries.  Each call becomes a
span (name, start, end, parent): the parent is the span open on the
stack when the call began.  A single-core traced pass closes millions of
spans, so spans are folded into per-name sums as they close instead of
being kept: a span's self time is its duration minus the durations of
its direct children, which is exactly what the parent needs added to its
child total when the child closes.

Patched classes are restored in forked children, so pool workers run
the original code: their spans could not reach the parent anyway.

:func:`calibrate` times a wrapped no-op to split the wrapper's cost into
the part inside a span's own interval (charged to the span's self time)
and the part outside it (charged to the parent's self time), so
:meth:`Tracer.self_times` can subtract both.

:class:`Sampler` is the independent cross-check: a thread that reads
the main thread's stack through ``sys._current_frames()`` and charges
each sample to a layer by the source file of the innermost frame the
classifier recognises.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

Observer = Callable[[tuple, dict, Any], None]


class SpanStats:
    """Running sums over every closed span of one name."""

    __slots__ = ("calls", "total", "outer", "self", "child_calls", "depth")

    def __init__(self) -> None:
        self.calls = 0
        #: Summed durations of every span.
        self.total = 0.0
        #: Summed durations of spans with no open span of the same name
        #: above them (recursion and nested same-layer calls count once).
        self.outer = 0.0
        #: Summed durations minus the direct children's durations.
        self.self = 0.0
        #: Number of direct child spans (each adds wrapper cost here).
        self.child_calls = 0
        #: Spans of this name currently open.
        self.depth = 0


@dataclass(frozen=True)
class Calibration:
    """Wrapper cost per span, in seconds."""

    #: Cost between a span's start and end beyond the wrapped call.
    inside: float
    #: Cost outside a span's interval, charged to its parent.
    outside: float


class Tracer:
    """Records spans at the boundaries it wraps; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        #: One ``[child_time, child_calls]`` frame per open span.
        self._stack: List[List[float]] = []
        #: (owner, attribute, original) for every patched attribute.
        self._patched: List[Tuple[Any, str, Any]] = []
        self._fork_hook = False

    def wrap(self, name: str, fn: Callable[..., Any],
             observe: Optional[Observer] = None) -> Callable[..., Any]:
        """Return ``fn`` wrapped so each call records a ``name`` span.

        ``observe(args, kwargs, result)`` runs after an outermost span of
        ``name`` returns normally, for counters that need the call's
        arguments or result.
        """
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, 0]
            stack.append(frame)
            stats.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.total += elapsed
                stats.self += elapsed - frame[0]
                stats.child_calls += frame[1]
                if not stats.depth:
                    stats.outer += elapsed
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
            if observe is not None and not stats.depth:
                observe(args, kwargs, result)
            return result

        return span

    def patch(self, owner: Any, attribute: str, name: str,
              observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attribute`` (a class or module attribute) with
        a wrapped version; :meth:`restore` puts the original back.

        Only attributes that ``owner`` defines itself may be patched, so
        restoring never leaves an inherited attribute shadowed.
        """
        if attribute not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attribute!r}")
        if not self._fork_hook:
            # A forked child (a pool worker) runs the original code: its
            # spans could not reach this process, only its cost would.
            os.register_at_fork(after_in_child=self.restore)
            self._fork_hook = True
        original = vars(owner)[attribute]
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, observe))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def self_times(self, calibration: Calibration) -> Dict[str, float]:
        """Per-name self time with the wrapper cost subtracted."""
        return {name: max(0.0, stats.self - stats.calls * calibration.inside
                          - stats.child_calls * calibration.outside)
                for name, stats in self.stats.items()}


class _Probe:
    def noop(self) -> None:
        return None


def calibrate(rounds: int = 20000, repeats: int = 5) -> Calibration:
    """Measure the wrapper's cost per span on a no-op method.

    Each loop is timed ``repeats`` times and the fastest kept, which
    drops interruptions by other processes.
    """
    clock = time.perf_counter
    probe = _Probe()

    def empty_loop() -> float:
        start = clock()
        for _ in range(rounds):
            pass
        return (clock() - start) / rounds

    def call_loop(call: Callable[[], Any]) -> float:
        start = clock()
        for _ in range(rounds):
            call()
        return (clock() - start) / rounds

    empty = min(empty_loop() for _ in range(repeats))
    plain = min(call_loop(probe.noop) for _ in range(repeats))
    best: Optional[Tuple[float, float]] = None
    for _ in range(repeats):
        tracer = Tracer(clock)
        wrapped = call_loop(tracer.wrap("noop", probe.noop))
        recorded = tracer.stats["noop"].total / rounds
        if best is None or wrapped < best[0]:
            best = (wrapped, recorded)
    wrapped, recorded = best
    # recorded = the no-op call itself + clock and bookkeeping inside the
    # interval; the rest of (wrapped - plain) lies outside the interval.
    inside = max(0.0, recorded - (plain - empty))
    return Calibration(inside=inside,
                       outside=max(0.0, wrapped - plain - inside))


class Sampler:
    """Samples the calling thread's stack from a background thread.

    ``classify(filename)`` returns a layer name or ``None``; each sample
    is charged to the innermost frame it recognises, and samples with no
    recognised frame are not counted.  The switch interval is shortened
    while sampling so the sampler gets the interpreter lock promptly
    (the old interval is restored on exit).
    """

    #: Seconds between samples.
    INTERVAL_S = 0.001
    #: Switch interval while sampling (the default is 5 ms).
    SWITCH_INTERVAL_S = 0.0002

    def __init__(self, classify: Callable[[str], Optional[str]]) -> None:
        self.classify = classify
        self.counts: Counter = Counter()
        self._target = threading.get_ident()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._previous_switch = sys.getswitchinterval()
        self._layers: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "Sampler":
        self._target = threading.get_ident()
        self._previous_switch = sys.getswitchinterval()
        sys.setswitchinterval(self.SWITCH_INTERVAL_S)
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        try:
            self._thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(self._previous_switch)
        if self._thread.is_alive():
            raise RuntimeError("the sampler thread did not stop")

    def _run(self) -> None:
        layers = self._layers
        while not self._stop.wait(self.INTERVAL_S):
            frame = sys._current_frames().get(self._target)
            while frame is not None:
                filename = frame.f_code.co_filename
                try:
                    layer = layers[filename]
                except KeyError:
                    layer = layers[filename] = self.classify(filename)
                if layer is not None:
                    self.counts[layer] += 1
                    break
                frame = frame.f_back
            del frame

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> Dict[str, float]:
        total = self.samples
        return {layer: count / total for layer, count in self.counts.items()} \
            if total else {}
