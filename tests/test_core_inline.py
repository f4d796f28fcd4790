"""The core loop's inlined POPET and load paths against the layer methods.

On the Table 4 system ``OutOfOrderCore._span_loop`` runs POPET's
``predict``/``train`` and ``CacheHierarchy.load`` inline, down to the
LLC and DRAM.  Its guards are exact-type checks, so a subclass of
``CacheHierarchy``, ``POPET``, the LLC's ``SHiPPolicy`` or
``MemoryController`` that changes nothing still takes the call path.
Every configuration run both ways must produce identical statistics,
and counting wrappers show that the inline paths engage where they
should.  ``test_loop_contract.py`` fuzzes the same comparison.
"""

from collections import Counter
from dataclasses import replace

import pytest

import repro.offchip.popet as popet_module
import repro.sim.simulator as simulator_module
from repro.dram.controller import MemoryController
from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import CacheHierarchy
from repro.memory.replacement import SHiPPolicy
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


class CallPathSHiP(SHiPPolicy):
    """An LLC policy that fails the loop's exact-type guard: every L2
    miss calls ``CacheHierarchy._post_l2``."""


class CallPathController(MemoryController):
    """Fails the loop's exact-type guard: every L2 miss calls
    ``CacheHierarchy._post_l2``."""

    __slots__ = ()


def call_path_llc(config: CacheConfig) -> Cache:
    """The driver's LLC, with a SHiP policy that fails the loop's guard."""
    if config.replacement != "ship":
        return Cache(config)
    return Cache(config, CallPathSHiP(config.num_sets, config.ways))


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
                 (CacheHierarchy, "load"), (CacheHierarchy, "store"),
                 (CacheHierarchy, "_post_l2"))


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


@pytest.mark.parametrize("reference",
                         [None, "hierarchy", "llc-policy", "controller"])
def test_l2_misses_run_the_inline_miss_path(monkeypatch, calls, reference):
    # mcf_chase is load-only, so every L2 miss is a load's: as built the
    # loop runs them all inline, and each call-path subclass alone makes
    # every one of them call _post_l2 again.
    config = replace(SystemConfig.with_hermes("popet", prefetcher="spp"),
                     warmup_fraction=0.0)
    trace = make_trace("spec06.mcf_chase", ACCESSES)
    assert all(access.is_load for access in trace.accesses)
    built = []
    monkeypatch.setattr(simulator_module, "CacheHierarchy", recording(
        CallPathHierarchy if reference == "hierarchy" else CacheHierarchy,
        built))
    if reference == "llc-policy":
        monkeypatch.setattr(simulator_module, "Cache", call_path_llc)
    elif reference == "controller":
        monkeypatch.setattr(simulator_module, "MemoryController",
                            CallPathController)
    simulate_trace(config, trace)
    simulate_multicore(config, [trace, trace])
    assert len(built) == 3
    misses = sum(hierarchy.l2.stats.demand_misses for hierarchy in built)
    assert misses > 0
    assert calls["CacheHierarchy._post_l2"] == (misses if reference else 0)
