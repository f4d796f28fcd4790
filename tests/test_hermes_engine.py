"""Unit tests for the Hermes engine (speculative request issue/drop).

The per-load Hermes steps run inside the core loop, so these tests drive
a hand-built core through :meth:`OutOfOrderCore.run_span` and observe
the ``hermes_ready`` cycle the loop hands the cache hierarchy, and check
the loop against the per-load ``predict_and_issue``/``train`` methods.
"""

import pytest

from repro.core.hermes import HermesConfig, HermesEngine
from repro.cpu.core import OutOfOrderCore
from repro.dram.controller import MemoryController
from repro.memory.hierarchy import CacheHierarchy
from repro.offchip.simple import (
    AlwaysOffChipPredictor,
    NeverOffChipPredictor,
    RandomPredictor,
)
from repro.workloads.trace import MemoryAccess


class RecordingHierarchy(CacheHierarchy):
    """Records the (issue cycle, hermes_ready) of every demand load."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.loads_issued = []

    def load(self, address, pc, cycle, hermes_ready=None):
        self.loads_issued.append((cycle, hermes_ready))
        return super().load(address, pc, cycle, hermes_ready)


def make_core(predictor=None, config=None):
    controller = MemoryController()
    hierarchy = RecordingHierarchy(memory_controller=controller)
    engine = HermesEngine(predictor or AlwaysOffChipPredictor(), controller,
                          config or HermesConfig())
    return OutOfOrderCore(hierarchy, hermes=engine), engine, controller


def run_loads(core, addresses, gap=0):
    """Run one load per address; ``gap`` cycles of ALU work precede each."""
    fetch_width = core.config.fetch_width
    accesses = [MemoryAccess(pc=0x400, address=address,
                             nonmem_before=gap * fetch_width - 1 if gap else 0)
                for address in addresses]
    core.begin()
    core.run_span(accesses, 0, len(accesses))
    core.finalize()
    return core.hierarchy.loads_issued


def test_config_variants():
    assert HermesConfig.optimistic().issue_latency == 6
    assert HermesConfig.pessimistic().issue_latency == 18
    assert not HermesConfig.disabled().enabled
    with pytest.raises(ValueError):
        HermesConfig(issue_latency=-1).validate()
    with pytest.raises(ValueError):
        HermesConfig(drain_interval=0).validate()


def test_positive_prediction_issues_hermes_request():
    core, engine, controller = make_core()
    [(cycle, hermes_ready)] = run_loads(core, [0x100000], gap=100)
    assert cycle == 100
    assert hermes_ready is not None
    assert controller.stats.hermes_requests == 1
    assert engine.stats.predicted_offchip == 1
    assert engine.stats.hermes_requests_issued == 1
    # The request entered the controller after the issue + address-generation latency.
    assert hermes_ready > 100 + engine.config.issue_latency


def test_negative_prediction_issues_nothing():
    core, engine, controller = make_core(predictor=NeverOffChipPredictor())
    [(_, hermes_ready)] = run_loads(core, [0x100000], gap=100)
    assert hermes_ready is None
    assert engine.stats.predicted_offchip == 0
    assert controller.stats.hermes_requests == 0


def test_disabled_hermes_never_issues_even_with_positive_prediction():
    core, engine, controller = make_core(config=HermesConfig.disabled())
    [(_, hermes_ready)] = run_loads(core, [0x100000], gap=100)
    assert hermes_ready is None
    assert engine.stats.hermes_requests_issued == 0
    assert controller.stats.hermes_requests == 0


def test_issue_latency_delays_hermes_ready():
    fast_core, _, _ = make_core(config=HermesConfig(issue_latency=0))
    slow_core, _, _ = make_core(config=HermesConfig(issue_latency=24))
    [(_, fast)] = run_loads(fast_core, [0x200000])
    [(_, slow)] = run_loads(slow_core, [0x200000])
    assert slow - fast == 24


def test_training_counts_useful_requests_and_updates_predictor():
    core, engine, _ = make_core()
    # A cold load goes off-chip and consumes its Hermes request; the
    # repeat hits on-chip, so its (predicted off-chip) request is wasted.
    run_loads(core, [0x300000, 0x300000], gap=1000)
    assert engine.stats.hermes_requests_issued == 2
    assert engine.stats.hermes_requests_useful == 1
    assert engine.predictor.stats.true_positives == 1
    assert engine.predictor.stats.false_positives == 1


def test_unclaimed_requests_get_drained_periodically():
    # The second pass over 12 blocks hits on-chip, so its 12 Hermes
    # requests go unclaimed; only a drain drops them.
    addresses = [0x400000 + index * 0x10000 for index in range(12)] * 2
    core, _, controller = make_core(config=HermesConfig(drain_interval=4))
    run_loads(core, addresses, gap=10000)
    assert controller.stats.hermes_dropped > 0
    core, _, controller = make_core(config=HermesConfig(drain_interval=512))
    run_loads(core, addresses, gap=10000)
    assert controller.stats.hermes_dropped == 0


def test_per_load_methods_match_the_core_loop():
    # predict_and_issue/train are the per-load form of the Hermes steps
    # the loop inlines: replaying the loop's loads through them on a twin
    # system must hand the hierarchy the same hermes_ready cycles and
    # count the same events.
    import random
    rng = random.Random(1)
    addresses = [rng.randrange(1 << 10) * 64 for _ in range(600)]
    config = HermesConfig(drain_interval=16)
    core, engine, controller = make_core(predictor=RandomPredictor(), config=config)
    issued = run_loads(core, addresses, gap=3)

    twin = HermesEngine(RandomPredictor(), MemoryController(), config)
    hierarchy = CacheHierarchy(memory_controller=twin.memory_controller)
    for address, (cycle, hermes_ready) in zip(addresses, issued):
        decision = twin.predict_and_issue(0x400, address, cycle)
        assert decision.hermes_ready == hermes_ready
        outcome = hierarchy.load(address, 0x400, cycle, decision.hermes_ready)
        twin.train(decision, outcome.went_offchip,
                   hermes_used=outcome.hermes_used)
    assert twin.stats.as_dict() == engine.stats.as_dict()
    assert twin.predictor.stats.as_dict() == engine.predictor.stats.as_dict()
    assert twin.memory_controller.stats.as_dict() == controller.stats.as_dict()
    assert engine.stats.hermes_requests_useful > 0
    assert controller.stats.hermes_dropped > 0


def test_storage_is_the_predictors_storage():
    _, engine, _ = make_core()
    assert engine.storage_bits() == engine.predictor.storage_bits()
    assert engine.storage_kb == engine.predictor.storage_kb


def test_stats_accounting():
    core, engine, _ = make_core(predictor=NeverOffChipPredictor())
    run_loads(core, [index * 64 for index in range(5)])
    assert engine.stats.loads_seen == 5
    assert engine.stats.predicted_offchip == 0
    assert engine.stats.hermes_requests_issued == 0
