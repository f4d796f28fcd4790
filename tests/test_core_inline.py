"""The core loop's inlined POPET and L1/L2 paths against the layer methods.

On the Table 4 system ``OutOfOrderCore._span_loop`` runs POPET's
``predict``/``train`` and the common ``CacheHierarchy.load`` paths
inline.  Its guards are exact-type checks, so a subclass of
``CacheHierarchy`` or ``POPET`` that changes nothing still takes the
call path.  Every configuration run both ways must produce identical
statistics, and counting wrappers show that the inline paths engage
where they should.
"""

from collections import Counter

import pytest

import repro.offchip.popet as popet_module
import repro.sim.simulator as simulator_module
from repro.memory.hierarchy import CacheHierarchy
from repro.offchip.factory import make_predictor
from repro.offchip.popet import POPET, POPETConfig
from repro.perf.golden import (
    GOLDEN_PREDICTORS,
    GOLDEN_PREFETCHERS,
    fingerprint_multicore,
    fingerprint_single,
    golden_config,
)
from repro.sim.config import SystemConfig
from repro.sim.multicore import simulate_multicore
from repro.sim.simulator import simulate_trace
from repro.workloads.suite import make_trace

ACCESSES = 3000
MIX_ACCESSES = 2000
#: mcf_chase is load-only; server_int has stores and loads that hit the
#: L1 while an MSHR entry is recorded; gcc_mixed evicts dirty L1 blocks
#: into the L2 when an L2 hit fills a full L1 set.
WORKLOADS = ("spec06.mcf_chase", "cvp.server_int", "spec06.gcc_mixed")
MIX = ("ligra.bfs", "spec17.lbm_stream", "spec06.mcf_chase", "cvp.server_int")


class CallPathHierarchy(CacheHierarchy):
    """Fails the loop's exact-type guard: every load calls ``load``."""

    __slots__ = ()


class CallPathPOPET(POPET):
    """Fails the loop's exact-type guard: every load calls ``predict``
    and ``train``."""


def learned_state(predictor):
    """POPET's weights, training counters, PC history and page buffer."""
    if not isinstance(predictor, POPET):
        return None
    extractor = predictor.extractor
    return (predictor.weights, predictor.training_events,
            predictor.training_skipped_saturated,
            extractor.pc_history.snapshot(),
            list(extractor.page_buffer._buffer.items()))


def private_cache_state(hierarchy):
    """Statistics and final contents of a hierarchy's L1 and L2."""
    return [(cache.stats.as_dict(), cache._tags, bytes(cache._flags),
             cache._mshr, vars(cache.replacement))
            for cache in (hierarchy.l1d, hierarchy.l2)]


def recording(cls, built):
    """A stand-in for ``cls`` that records every instance it builds."""
    def build(*args, **kwargs):
        instance = cls(*args, **kwargs)
        built.append(instance)
        return instance
    return build


def both_ways(monkeypatch, run):
    """``run()`` as built, then with ``build_system`` building the
    call-path subclasses (``POPET`` is looked up in its module at build
    time).  Each run's result comes with its hierarchies' L1 and L2
    state."""
    runs = []
    for hierarchy_class, popet_class in ((CacheHierarchy, POPET),
                                         (CallPathHierarchy, CallPathPOPET)):
        built = []
        with monkeypatch.context() as patch:
            patch.setattr(simulator_module, "CacheHierarchy",
                          recording(hierarchy_class, built))
            patch.setattr(popet_module, "POPET", popet_class)
            result = run()
        assert {type(hierarchy) for hierarchy in built} == {hierarchy_class}
        runs.append((result, [private_cache_state(hierarchy)
                              for hierarchy in built]))
    return runs


def single_core(config, workload, build_predictor=None):
    """A run of ``workload``: its fingerprint and the predictor's state."""
    def run():
        predictor = build_predictor() if build_predictor is not None else None
        result = simulate_trace(config, make_trace(workload, ACCESSES),
                                predictor=predictor)
        return fingerprint_single(result), learned_state(predictor)
    return run


def golden_predictor(name):
    return None if name is None else (lambda: make_predictor(name))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("predictor", GOLDEN_PREDICTORS)
@pytest.mark.parametrize("prefetcher", GOLDEN_PREFETCHERS)
def test_loop_matches_layer_methods(monkeypatch, prefetcher, predictor,
                                    workload):
    config = golden_config(prefetcher, predictor)
    inline, called = both_ways(monkeypatch, single_core(
        config, workload, golden_predictor(predictor)))
    assert inline == called


@pytest.mark.parametrize("level", ["l1d", "l2"])
def test_non_lru_cache_takes_the_call_path(monkeypatch, level):
    # SRRIP state has no LRU ages: inlining it by mistake would fail or
    # drift from the call path.
    config = golden_config("spp", "popet").override(
        {f"hierarchy.{level}.replacement": "srrip"})
    inline, called = both_ways(monkeypatch, single_core(
        config, "cvp.server_int", golden_predictor("popet")))
    assert inline == called


@pytest.mark.parametrize("build", [
    lambda: popet_module.POPET.with_features(
        ["pc_first_access", "pc_xor_cl_offset", "last_4_load_pcs"]),
    lambda: popet_module.POPET(POPETConfig(pc_history_depth=6)),
], ids=["custom-features", "history-depth-6"])
def test_non_default_popet_takes_the_call_path(monkeypatch, build):
    config = golden_config("pythia", "popet")
    inline, called = both_ways(monkeypatch, single_core(
        config, "spec06.mcf_chase", build))
    assert inline == called
    assert not build()._use_fused


@pytest.mark.parametrize("prefetcher,predictor",
                         [("pythia", "popet"), ("spp", "ideal")])
def test_multicore_loop_matches_layer_methods(monkeypatch, prefetcher,
                                              predictor):
    config = golden_config(prefetcher, predictor)

    def run():
        traces = [make_trace(name, MIX_ACCESSES) for name in MIX]
        return fingerprint_multicore(simulate_multicore(config, traces))

    inline, called = both_ways(monkeypatch, run)
    assert inline == called


# --------------------------------------------------------------------------- #
# Engagement: a guard that stopped matching would only show as a slowdown
# --------------------------------------------------------------------------- #

LAYER_METHODS = ((POPET, "predict"), (POPET, "train"),
                 (CacheHierarchy, "load"), (CacheHierarchy, "store"))


def counting(counts, key, method):
    def counted(*args, **kwargs):
        counts[key] += 1
        return method(*args, **kwargs)
    return counted


@pytest.fixture
def calls(monkeypatch):
    """Per-method call counts of the wrapped layer methods (wrapped on the
    class, as ``perfbench/layers.py`` does)."""
    counts = Counter()
    for cls, name in LAYER_METHODS:
        key = f"{cls.__name__}.{name}"
        monkeypatch.setattr(cls, name, counting(counts, key, vars(cls)[name]))
    return counts


def test_table4_system_runs_the_inline_paths(calls):
    config = SystemConfig.with_hermes("popet", prefetcher="spp")
    simulate_trace(config, make_trace("cvp.server_int", ACCESSES))
    assert calls["POPET.predict"] == calls["POPET.train"] == 0
    assert calls["CacheHierarchy.load"] == 0
    assert calls["CacheHierarchy.store"] > 0

    calls.clear()
    simulate_multicore(config, [make_trace(name, MIX_ACCESSES)
                                for name in ("cvp.server_int", "ligra.bfs")])
    assert calls["POPET.predict"] == calls["POPET.train"] == 0
    assert calls["CacheHierarchy.load"] == 0
    assert calls["CacheHierarchy.store"] > 0


def test_call_path_subclasses_call_every_layer_method(monkeypatch, calls):
    monkeypatch.setattr(simulator_module, "CacheHierarchy", CallPathHierarchy)
    trace = make_trace("cvp.server_int", ACCESSES)
    loads = sum(access.is_load for access in trace.accesses)
    simulate_trace(SystemConfig.with_hermes("popet", prefetcher="spp"), trace,
                   predictor=CallPathPOPET())
    assert (calls["POPET.predict"] == calls["POPET.train"]
            == calls["CacheHierarchy.load"] == loads)
    assert calls["CacheHierarchy.store"] == len(trace.accesses) - loads
