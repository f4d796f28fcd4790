"""Tests of the benchmark's span tracer (``perfbench/tracer.py``).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from tracer import Calibration, Sampler, Tracer  # noqa: E402


class FakeClock:
    """A clock that only moves when the code under test advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Widget:
    def scale(self, value, *, factor=2):
        return value * factor

    def explode(self, message):
        raise KeyError(message)


class Gadget(Widget):
    pass


def test_wrapper_returns_like_the_original():
    tracer = Tracer()
    tracer.patch(Widget, "scale", "widget")
    try:
        assert Widget().scale(3) == 6
        assert Widget().scale(3, factor=5) == 15
        assert Gadget().scale("ab") == "abab"
        assert Widget.scale.__name__ == "scale"
    finally:
        tracer.restore()
    assert tracer.stats["widget"].calls == 3


def test_wrapper_raises_like_the_original():
    tracer = Tracer()
    tracer.patch(Widget, "explode", "widget")
    try:
        with pytest.raises(KeyError) as raised:
            Widget().explode("boom")
        assert raised.value.args == ("boom",)
        # The failed span still closes, so later spans are not nested in it.
        assert tracer.stats["widget"].calls == 1
        assert tracer.stats["widget"].depth == 0
        assert not tracer._stack
    finally:
        tracer.restore()


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(seconds):
        clock.advance(seconds)

    def middle():
        clock.advance(2)
        traced_leaf(3)
        clock.advance(4)

    def outer():
        clock.advance(1)
        traced_middle()
        traced_leaf(5)
        clock.advance(6)

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    stats = tracer.stats
    assert (stats["outer"].total, stats["outer"].self) == (21, 7)
    assert (stats["middle"].total, stats["middle"].self) == (9, 6)
    assert (stats["leaf"].total, stats["leaf"].self, stats["leaf"].calls) == (8, 8, 2)
    assert [stats[name].child_calls for name in ("outer", "middle", "leaf")] == [2, 1, 0]
    # Self times partition the root span's duration.
    assert sum(s.self for s in stats.values()) == stats["outer"].total

    calibrated = tracer.self_times(Calibration(inside=0.5, outside=0.25))
    assert calibrated == {"outer": 7 - 0.5 - 2 * 0.25,
                          "middle": 6 - 0.5 - 0.25,
                          "leaf": 8 - 2 * 0.5}


def test_nested_spans_of_one_name_count_once_in_outer_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def countdown(n):
        clock.advance(1)
        if n:
            traced(n - 1)

    traced = tracer.wrap("recursive", countdown)
    traced(2)
    stats = tracer.stats["recursive"]
    assert stats.calls == 3
    assert stats.outer == 3
    assert stats.total == 3 + 2 + 1
    assert stats.self == 3


def test_observer_sees_outermost_results_only():
    seen = []
    tracer = Tracer()

    def countdown(n):
        return traced(n - 1) if n else "done"

    traced = tracer.wrap("recursive", countdown,
                         observe=lambda args, kwargs, result: seen.append(args))
    assert traced(2) == "done"
    assert seen == [(2,)]


def test_restore_puts_back_the_original_attributes():
    before = {cls: dict(vars(cls)) for cls in (Widget, Gadget)}
    tracer = Tracer()
    tracer.patch(Widget, "scale", "widget")
    tracer.patch(Widget, "explode", "widget")
    assert vars(Widget)["scale"] is not before[Widget]["scale"]
    tracer.restore()
    assert {cls: dict(vars(cls)) for cls in (Widget, Gadget)} == before
    assert "scale" not in vars(Gadget)


def test_patch_refuses_inherited_attributes():
    with pytest.raises(AttributeError):
        Tracer().patch(Gadget, "scale", "widget")


def test_layer_boundaries_install_and_restore_cleanly():
    import importlib

    def snapshot():
        state = {}
        for _, module, name, _ in layers.BOUNDARIES:
            base = getattr(importlib.import_module(module), name)
            for cls in layers._with_subclasses(base):
                state[cls] = dict(vars(cls))
        return state

    before = snapshot()
    tracer = Tracer()
    missing = layers.install(tracer, layers.RunnerCounters())
    try:
        assert missing == []
        assert snapshot() != before
    finally:
        tracer.restore()
    assert snapshot() == before


def test_forked_child_runs_the_original_code():
    original = vars(Widget)["scale"]
    tracer = Tracer()
    tracer.patch(Widget, "scale", "widget")
    try:
        pid = os.fork()
        if pid == 0:  # child
            os._exit(0 if vars(Widget)["scale"] is original else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert vars(Widget)["scale"] is not original
    finally:
        tracer.restore()


def test_sampler_charges_the_innermost_recognised_frame():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    switch = sys.getswitchinterval()
    this_file = __file__
    with Sampler(lambda name: "tests" if name == this_file else None) as sampler:
        busy(0.3)
    assert sys.getswitchinterval() == switch
    assert sampler.samples > 10
    assert sampler.shares() == {"tests": 1.0}


def test_classify_file_maps_modules_to_layers():
    classify = layers.classify_file
    assert classify("/x/src/repro/memory/hierarchy.py") == "memory.hierarchy"
    assert classify("/x/src/repro/memory/replacement.py") == "memory.cache"
    assert classify("/x/src/repro/memory/address.py") is None
    assert classify("/x/src/repro/engine/scalar.py") == "cpu"
    assert classify("/x/src/repro/offchip/popet.py") == "offchip"
    assert classify("/x/src/repro/analysis/metrics.py") is None
    assert classify("/usr/lib/python3.11/random.py") is None
