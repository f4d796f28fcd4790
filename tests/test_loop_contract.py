"""The fuzzed differential contract of the core loop's inlined paths.

On the Table 4 system ``OutOfOrderCore._span_loop`` runs POPET and the
cache hierarchy's load path inline, behind exact-type guards, and the
layer methods stay the reference every other configuration runs.  Fixed
cells (the golden fixture, ``test_core_inline.py``) miss paths, so this
module draws the system, the number of cores, the chunk split points
and the traces, and checks on every draw that:

* the run as built equals the run through a call-path subclass (the
  hierarchy with POPET, the LLC's SHiP policy, or the memory
  controller), in statistics and in the final state of every cache, the
  memory controller and each hierarchy's prefetch bookkeeping;
* the accounting identities between the layers' counters hold;
* splitting the cores' traces into chunks changes nothing;
* a one-core ``simulate_multicore`` equals ``simulate_trace``.

The draws are derandomized, so tier-1 runs the same examples every
time.  For a change to the core loop, also run it long with fresh
draws (about a minute per 1,000 examples on a 2-vCPU host)::

    REPRO_CONTRACT_EXAMPLES=2000 PYTHONPATH=src python -m pytest -q \\
        tests/test_loop_contract.py --hypothesis-seed=1
"""

from __future__ import annotations

import dataclasses
import os
import random
import reprlib
from typing import Dict, List, Optional, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.offchip.popet as popet_module
import repro.sim.simulator as simulator_module
from repro.core.hermes import HermesConfig
from repro.cpu.core import CoreConfig
from repro.dram.config import DRAMConfig
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.offchip.factory import make_predictor
from repro.offchip.features import FEATURE_NAMES
from repro.prefetchers.factory import available_prefetchers
from repro.sim.config import SystemConfig
from repro.sim.multicore import simulate_multicore
from repro.sim.simulator import simulate_cores, simulate_trace
from repro.workloads.trace import MemoryAccess, Trace

from test_core_inline import (
    CallPathController,
    CallPathHierarchy,
    CallPathPOPET,
    call_path_llc,
    learned_state,
)

#: Examples per tier-1 run; ``REPRO_CONTRACT_EXAMPLES`` asks for a long
#: run, which also draws afresh (seeded by ``--hypothesis-seed``).
LONG_EXAMPLES = os.environ.get("REPRO_CONTRACT_EXAMPLES")
CONTRACT = settings(
    max_examples=int(LONG_EXAMPLES) if LONG_EXAMPLES else 200,
    derandomize=not LONG_EXAMPLES, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

#: The call paths a run as built is compared against.  ``hierarchy``
#: calls ``CacheHierarchy.load`` and POPET's methods for every load;
#: ``llc-policy`` and ``controller`` each fail one guard of the miss
#: path alone, so the L1/L2 path stays inline.
REFERENCES = ("hierarchy", "llc-policy", "controller")

# --------------------------------------------------------------------------- #
# Traces: snippet 2's shapes, each from its own seeded Random
# --------------------------------------------------------------------------- #

SHAPES = ("static", "shifting", "oscillating")
#: First block of every trace's footprint (page-aligned, so POPET's page
#: buffer and the prefetchers' page bounds see whole pages).
BASE_BLOCK = 1 << 20


@dataclasses.dataclass(frozen=True)
class TraceSpec:
    """The parameters of one generated trace."""

    shape: str
    seed: int
    length: int
    footprint: int
    stride: int
    store_ratio: float
    burst_ratio: float
    dependent_ratio: float

    def build(self) -> Trace:
        """Generate the trace.

        ``static`` is a hot set plus sequential scans, ``shifting`` a hot
        set that moves each of four phases, ``oscillating`` a working set
        that alternates between the hot set and the whole footprint.
        Footprint blocks lie ``stride`` blocks apart: 64 puts them all at
        one line offset of their pages, which drives small caches into
        set conflicts and POPET's weights into saturation.
        Bursts repeat the previous block (MSHR merges, L1 hits on fills
        in flight); stores dirty blocks, so evictions write back.
        """
        rng = random.Random(self.seed)
        pcs = [0x401000 + 8 * index for index in range(rng.randint(2, 16))]
        hot = max(1, self.footprint // 8)
        accesses: List[MemoryAccess] = []
        block = scan = 0
        for position in range(self.length):
            pc = rng.choice(pcs[1:])
            if position and rng.random() < self.burst_ratio:
                pass  # same block as the previous access
            elif self.shape == "static":
                if rng.random() < 0.7:
                    block = rng.randrange(hot)
                else:
                    block = hot + scan % self.footprint
                    scan += 1
                    pc = pcs[0]
            elif self.shape == "shifting":
                phase = 4 * position // self.length
                block = phase * hot + rng.randrange(hot)
            else:
                size = hot if (position // 48) % 2 else self.footprint
                block = rng.randrange(size)
            accesses.append(MemoryAccess(
                pc=pc,
                address=(((BASE_BLOCK + self.stride * block) << 6)
                         | rng.randrange(0, 64, 8)),
                is_load=rng.random() >= self.store_ratio,
                nonmem_before=rng.randrange(6),
                depends_on_previous_load=rng.random() < self.dependent_ratio))
        return Trace(name=f"contract.{self.shape}", category="contract",
                     accesses=accesses)


trace_specs = st.builds(
    TraceSpec,
    shape=st.sampled_from(SHAPES),
    seed=st.integers(0, 2**16),
    length=st.integers(40, 700),
    footprint=st.sampled_from((4, 16, 64, 256, 1024, 4096)),
    stride=st.sampled_from((1, 64)),
    store_ratio=st.sampled_from((0.0, 0.1, 0.3, 0.6)),
    burst_ratio=st.sampled_from((0.0, 0.1, 0.4)),
    dependent_ratio=st.sampled_from((0.0, 0.2)))

# --------------------------------------------------------------------------- #
# Systems
# --------------------------------------------------------------------------- #

POLICIES = ("lru", "srrip", "ship", "random")


def mostly(default: str) -> st.SearchStrategy[str]:
    """``default`` four times in five, else any replacement policy."""
    return st.sampled_from((default,) * 12 + POLICIES)


def caches(name: str, max_sets: int, max_ways: int, latency: Tuple[int, int],
           policy: str) -> st.SearchStrategy[CacheConfig]:
    """One cache level; set counts need not be powers of two."""
    return st.builds(
        lambda sets, ways, **fields: CacheConfig(
            name=name, size_bytes=sets * ways * 64, ways=ways, **fields),
        sets=st.integers(1, max_sets), ways=st.integers(1, max_ways),
        latency=st.integers(*latency), mshrs=st.integers(1, 16),
        replacement=mostly(policy))


drams = st.builds(
    DRAMConfig,
    channels=st.integers(1, 2), ranks_per_channel=st.integers(1, 2),
    banks_per_rank=st.integers(1, 4),
    transfer_rate_mtps=st.sampled_from((400, 1600, 3200)),
    bus_width_bits=st.sampled_from((32, 64)),
    row_buffer_bytes=st.sampled_from((64, 256, 2048)),
    trcd_ns=st.sampled_from((1.0, 5.0, 12.5)),
    trp_ns=st.sampled_from((1.0, 12.5)),
    tcas_ns=st.sampled_from((1.0, 5.0, 12.5)),
    # A queue this short keeps the in-flight heap pruned and compacted.
    read_queue_size=st.integers(1, 8))


@st.composite
def predictors(draw) -> Tuple[Optional[str], Dict[str, object]]:
    """An off-chip predictor name and its factory options."""
    name = draw(st.sampled_from((None, "popet", "popet", "popet", "hmp",
                                 "ttp", "ideal")))
    options: Dict[str, object] = {}
    if name == "popet":
        if draw(st.integers(0, 2)) == 0:
            options["features"] = draw(st.lists(
                st.sampled_from(FEATURE_NAMES), min_size=1, max_size=5,
                unique=True))
        # Half the training bands are wider than the five weights' range
        # (-80 to 75), so they keep training saturated weights.
        low = draw(st.one_of(st.integers(-60, 10), st.integers(-100, -80)))
        high = draw(st.one_of(st.integers(max(low, 0), 60),
                              st.integers(75, 100)))
        options.update(activation_threshold=draw(st.integers(-40, 10)),
                       negative_training_threshold=low,
                       positive_training_threshold=high)
    return name, options


@dataclasses.dataclass
class Case:
    """One drawn run: the system, its predictor options, and per core a
    trace and the points its chunks split at."""

    config: SystemConfig
    options: Dict[str, object]
    specs: List[TraceSpec]
    splits: List[List[int]]

    def traces(self) -> List[Trace]:
        return [spec.build() for spec in self.specs]


@st.composite
def cases(draw) -> Case:
    predictor, options = draw(predictors())
    config = SystemConfig(
        label="contract",
        # A load queue of one or two entries spaces a small footprint's
        # DRAM requests out, so the same lines are fetched again and again.
        core=draw(st.builds(CoreConfig,
                            rob_size=st.sampled_from((4, 16, 64, 256)),
                            fetch_width=st.integers(1, 6),
                            load_queue_size=st.sampled_from((1, 2, 8, 48)))),
        hierarchy=HierarchyConfig(
            l1d=draw(caches("L1D", 8, 6, (1, 5), "lru")),
            l2=draw(caches("L2", 32, 8, (0, 20), "lru")),
            llc=draw(caches("LLC", 64, 12, (0, 60), "ship"))),
        dram=draw(drams),
        prefetcher=draw(st.sampled_from(available_prefetchers())),
        offchip_predictor=predictor,
        hermes=(HermesConfig(issue_latency=draw(st.integers(0, 24)),
                             drain_interval=draw(st.integers(1, 600)))
                if predictor is not None else HermesConfig.disabled()),
        warmup_fraction=draw(st.sampled_from((0.0, 0.0, 0.1, 0.3))))
    specs = draw(st.lists(trace_specs, min_size=1, max_size=3))
    splits = [sorted(draw(st.sets(st.integers(1, spec.length - 1),
                                  max_size=3)))
              for spec in specs]
    return Case(config, options, specs, splits)

# --------------------------------------------------------------------------- #
# Runs and their fingerprints
# --------------------------------------------------------------------------- #


def chunks(trace: Trace, splits: Sequence[int]
           ) -> List[Tuple[List[MemoryAccess], int]]:
    """``trace`` as ``(accesses, stop)`` chunks cut at ``splits``."""
    bounds = [0, *splits, len(trace.accesses)]
    return [(trace.accesses[start:stop], stop - start)
            for start, stop in zip(bounds, bounds[1:])]


def fields(record) -> Optional[Dict[str, object]]:
    return None if record is None else dataclasses.asdict(record)


def policy_state(policy) -> Dict[str, object]:
    state = {}
    for name, value in vars(policy).items():
        if isinstance(value, random.Random):
            value = value.getstate()
        elif isinstance(value, bytearray):
            value = bytes(value)
        state[name] = value
    return state


def cache_state(cache) -> Dict[str, object]:
    return {"stats": fields(cache.stats), "tags": list(cache._tags),
            "flags": bytes(cache._flags),
            "valid_count": list(cache._valid_count),
            "mshr": dict(cache._mshr), "mshr_heap": sorted(cache._mshr_heap),
            "policy": policy_state(cache.replacement)}


def controller_state(controller) -> Dict[str, object]:
    return {"stats": fields(controller.stats),
            "inflight": dict(controller._inflight),
            "inflight_heap": sorted(controller._inflight_heap),
            "hermes_unclaimed": dict(controller._hermes_unclaimed),
            "banks": [dataclasses.astuple(bank) for bank in controller._banks],
            "channel_busy_until": list(controller._channel_busy_until)}


def core_state(system) -> Dict[str, object]:
    hierarchy = system.hierarchy
    state = {name: None if part is None else fields(part.stats)
             for name, part in (("core", system.core),
                                ("hierarchy", hierarchy),
                                ("prefetcher", hierarchy.prefetcher),
                                ("hermes", system.hermes),
                                ("predictor", system.predictor))}
    state.update(l1d=cache_state(hierarchy.l1d), l2=cache_state(hierarchy.l2),
                 pending_prefetch=dict(hierarchy._pending_prefetch),
                 learned=learned_state(system.predictor))
    return state


def fingerprint(systems) -> Dict[str, object]:
    """Every statistic and the final model state of a run."""
    shared = systems[0]
    return {"cores": [core_state(system) for system in systems],
            "llc": cache_state(shared.hierarchy.llc),
            "controller": controller_state(shared.memory_controller)}


def assert_same(actual, expected, what: str) -> None:
    """Fail with the first place two fingerprints differ (a diff of the
    whole fingerprints would be too large to read)."""
    path = what
    while actual != expected:
        if (isinstance(actual, dict) and isinstance(expected, dict)
                and actual.keys() == expected.keys()):
            key = next(key for key in actual if actual[key] != expected[key])
            actual, expected = actual[key], expected[key]
            path += f"[{key!r}]"
        elif (isinstance(actual, (list, tuple)) and type(actual) is type(expected)
                and len(actual) == len(expected)):
            index = next(index for index, pair in enumerate(zip(actual, expected))
                         if pair[0] != pair[1])
            actual, expected = actual[index], expected[index]
            path += f"[{index}]"
        else:
            raise AssertionError(f"{path}: {reprlib.repr(actual)} != "
                                 f"{reprlib.repr(expected)}")


def simulate(case: Case, traces: List[Trace], reference: Optional[str] = None,
             split: bool = False):
    """Run ``case`` as built or through the ``reference`` call path;
    returns the systems."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator_module, "make_predictor",
                      lambda name: make_predictor(name, **case.options))
        if reference == "hierarchy":
            patch.setattr(simulator_module, "CacheHierarchy",
                          CallPathHierarchy)
            patch.setattr(popet_module, "POPET", CallPathPOPET)
        elif reference == "llc-policy":
            patch.setattr(simulator_module, "Cache", call_path_llc)
        elif reference == "controller":
            patch.setattr(simulator_module, "MemoryController",
                          CallPathController)
        fraction = case.config.warmup_fraction
        return simulate_cores(
            case.config,
            [chunks(trace, splits if split else ())
             for trace, splits in zip(traces, case.splits)],
            [int(len(trace.accesses) * fraction) for trace in traces])


def assert_identities(systems) -> None:
    """The golden fixture's accounting identities, over the cores'
    summed counters and the shared LLC's and controller's.

    The controller's ``hermes_consumed`` is left out: a demand request
    that finds a completed Hermes request not yet drained also counts
    it, and a Hermes request that merged into a demand or prefetch
    request in flight is never claimed, so it need not equal
    ``hermes_waits`` (ROADMAP, "Invariants at runtime").
    """
    def total(part: str, key: str) -> int:
        return sum(getattr(getattr(system, part).stats, key)
                   for system in systems)

    shared = systems[0]
    llc = shared.hierarchy.llc.stats
    assert llc.demand_accesses == sum(
        system.hierarchy.prefetcher.stats.accesses_observed
        for system in systems)
    assert llc.demand_misses == total("hierarchy", "llc_misses")
    if shared.hermes is None:
        return
    tp, fp, tn, fn = (total("predictor", key) for key in (
        "true_positives", "false_positives", "true_negatives",
        "false_negatives"))
    assert tp == total("hermes", "hermes_requests_useful")
    assert tp + fn == total("hierarchy", "offchip_loads")
    assert (total("hermes", "predicted_offchip")
            == total("hermes", "hermes_requests_issued")
            == shared.memory_controller.stats.hermes_requests)
    assert (tp + fp + tn + fn == total("hermes", "loads_seen")
            == total("hierarchy", "loads"))


def corner(prefetcher: str, predictor: Optional[str],
           hierarchy: HierarchyConfig, options: Dict[str, object],
           specs: List[TraceSpec], splits: List[List[int]],
           **fields) -> Case:
    """A case the draws reach too rarely for the derandomized run."""
    config = SystemConfig(
        label="contract", hierarchy=hierarchy, prefetcher=prefetcher,
        offchip_predictor=predictor,
        hermes=HermesConfig() if predictor else HermesConfig.disabled(),
        **fields)
    return Case(config, options, specs, splits)


def one_line(name: str, **fields) -> CacheConfig:
    return CacheConfig(name, size_bytes=64, ways=1, latency=2, **fields)


# Two cores fetch four lines again and again through one-line caches:
# the controller compacts its in-flight heap under the loop, and the
# second core's warmup end replaces the shared statistics mid-span.
@example(case=corner(
    "none", "popet",
    HierarchyConfig(one_line("L1D"), one_line("L2"),
                    one_line("LLC", replacement="ship")),
    {"activation_threshold": -40},
    [TraceSpec("oscillating", 1, 700, 4, 1, 0.0, 0.0, 0.0)] * 2,
    [[350], []], core=CoreConfig(rob_size=4, load_queue_size=1),
    dram=DRAMConfig(read_queue_size=1), warmup_fraction=0.3),
    reference="controller")
# One line offset per page: POPET's weights saturate and its page
# buffer overflows.
@example(case=corner(
    "none", "popet", HierarchyConfig(),
    {"negative_training_threshold": -100, "positive_training_threshold": 100},
    [TraceSpec("static", 3, 700, 1024, 64, 0.0, 0.0, 0.0)], [[]]),
    reference="hierarchy")
# SPP prefetches the very line that missed the LLC, into a set with room
# for it, before the demand request fills it.
@example(case=corner(
    "spp", None,
    HierarchyConfig(CacheConfig("L1D", 256, 2, 3), CacheConfig("L2", 256, 1, 3),
                    CacheConfig("LLC", 16 * 12 * 64, 12, 3,
                                replacement="ship")),
    {}, [TraceSpec("shifting", 409, 700, 1024, 1, 0.1, 0.4, 0.0)], [[]],
    core=CoreConfig(load_queue_size=8),
    dram=DRAMConfig(trcd_ns=1.0, trp_ns=1.0, tcas_ns=1.0, read_queue_size=4),
    warmup_fraction=0.0),
    reference="controller")
# The same, for a load whose Hermes request completed before it reached
# the LLC: it waits for the prefetch instead.
@example(case=corner(
    "spp", "popet",
    HierarchyConfig(CacheConfig("L1D", 256, 2, 5),
                    CacheConfig("L2", 256, 1, 20),
                    CacheConfig("LLC", 16 * 12 * 64, 12, 30,
                                replacement="ship")),
    {"activation_threshold": -40},
    [TraceSpec("shifting", 489, 700, 1024, 1, 0.1, 0.0, 0.0)], [[]],
    core=CoreConfig(load_queue_size=1),
    dram=DRAMConfig(trcd_ns=1.0, trp_ns=1.0, tcas_ns=1.0, read_queue_size=4),
    warmup_fraction=0.0),
    reference="controller")
@CONTRACT
@given(case=cases(), reference=st.sampled_from(REFERENCES))
def test_inline_paths_keep_the_contract(case, reference):
    traces = case.traces()
    built = simulate(case, traces)
    expected = fingerprint(built)
    assert_same(fingerprint(simulate(case, traces, reference)), expected,
                f"{reference} call path")
    assert_same(fingerprint(simulate(case, traces, split=True)), expected,
                "chunk split")
    # The shared counters reset once every core is past its warmup, the
    # private ones at each core's own warmup end.
    if len(traces) == 1 or not case.config.warmup_fraction:
        assert_identities(built)
    if len(traces) == 1:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator_module, "make_predictor",
                          lambda name: make_predictor(name, **case.options))
            single = simulate_trace(case.config, traces[0])
            multi = simulate_multicore(case.config, traces,
                                       dram_config=case.config.dram)
        assert multi.per_core[0].as_dict() == single.core.as_dict()
        assert multi.memory_controller == single.memory_controller
        assert multi.predictor == single.predictor


def test_contract_draws_reach_the_inlined_paths():
    # A strategy that stopped drawing the Table 4 policies (exact LRU L1
    # and L2, a SHiP LLC) would leave the inlined load path untested.
    table4 = []

    @settings(CONTRACT, max_examples=100)
    @given(case=cases())
    def collect(case):
        hierarchy = case.config.hierarchy
        table4.append((hierarchy.l1d.replacement, hierarchy.l2.replacement,
                       hierarchy.llc.replacement) == ("lru", "lru", "ship"))

    collect()
    assert sum(table4) >= 100 // 4
