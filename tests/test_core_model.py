"""Unit tests for the out-of-order core timing model."""

import pytest

from repro.cpu.core import CoreConfig, OutOfOrderCore
from repro.memory.hierarchy import CacheHierarchy
from repro.workloads.trace import MemoryAccess, Trace


def make_core(rob_size=512, hermes=None):
    hierarchy = CacheHierarchy()
    core = OutOfOrderCore(hierarchy, hermes=hermes,
                          config=CoreConfig(rob_size=rob_size))
    return core, hierarchy


def make_trace(accesses):
    return Trace(name="unit", category="TEST", accesses=accesses)


def hit_heavy_trace(count=200):
    """All loads to one block: one cold miss then L1 hits."""
    return make_trace([MemoryAccess(pc=0x400, address=0x1000, nonmem_before=5)
                       for _ in range(count)])


def test_config_validation():
    with pytest.raises(ValueError):
        CoreConfig(rob_size=0).validate()
    with pytest.raises(ValueError):
        CoreConfig(fetch_width=0).validate()
    with pytest.raises(ValueError):
        CoreConfig(load_queue_size=0).validate()


def test_instruction_accounting():
    core, _ = make_core()
    stats = core.run(hit_heavy_trace(100))
    assert stats.memory_instructions == 100
    assert stats.loads == 100
    assert stats.instructions == 100 * 6          # 5 ALU ops + the load each
    assert stats.cycles > 0
    assert stats.ipc > 0


def test_step_requires_begin():
    core, _ = make_core()
    accesses = hit_heavy_trace(10).accesses
    with pytest.raises(RuntimeError):
        core.run_span(accesses, 0, 10)
    with pytest.raises(RuntimeError):
        core.open_span(accesses, 0, 10, rank=0)
    core.begin()
    with pytest.raises(RuntimeError):
        core.step(None)  # no span open


def test_bounded_steps_match_one_span():
    # Pausing a span at bounds changes when the loop runs, not what it
    # computes: stepping through it matches one unbounded run_span.
    import random
    rng = random.Random(5)
    trace = make_trace([MemoryAccess(pc=0x800, address=rng.randrange(1 << 20) * 64,
                                     nonmem_before=4)
                        for _ in range(400)])
    expected = make_core()[0].run(trace)
    core, _ = make_core()
    core.begin()
    core.open_span(trace.accesses, 0, len(trace.accesses), rank=1)
    bound = 0.0
    pauses = 0
    while core.step((bound, 0)):
        # Paused at the first access past the bound (rank 1 loses ties).
        assert core.current_cycle >= bound
        bound = core.current_cycle + 50
        pauses += 1
    assert pauses > 10
    assert core.finalize().as_dict() == expected.as_dict()


def test_hit_heavy_trace_reaches_near_fetch_width_ipc():
    core, _ = make_core()
    stats = core.run(hit_heavy_trace(500))
    assert stats.ipc > 0.7 * core.config.fetch_width


def test_offchip_loads_reduce_ipc():
    import random
    rng = random.Random(3)
    cold = make_trace([MemoryAccess(pc=0x800, address=rng.randrange(1 << 24) * 64,
                                    nonmem_before=5)
                       for _ in range(500)])
    hit_core, _ = make_core()
    cold_core, _ = make_core()
    hits = hit_core.run(hit_heavy_trace(500))
    misses = cold_core.run(cold)
    assert misses.ipc < hits.ipc
    assert misses.offchip_loads > 0
    assert misses.offchip_loads == misses.blocking_offchip_loads + \
        misses.nonblocking_offchip_loads


def test_larger_rob_tolerates_more_latency():
    import random

    def cold_trace():
        rng = random.Random(7)
        return make_trace([MemoryAccess(pc=0x800, address=rng.randrange(1 << 24) * 64,
                                        nonmem_before=10)
                           for _ in range(400)])

    small_core, _ = make_core(rob_size=64)
    large_core, _ = make_core(rob_size=1024)
    small = small_core.run(cold_trace())
    large = large_core.run(cold_trace())
    assert large.ipc >= small.ipc


def test_dependent_loads_serialise():
    import random
    rng = random.Random(9)
    independent = make_trace([MemoryAccess(pc=0x800, address=rng.randrange(1 << 24) * 64,
                                           nonmem_before=3)
                              for _ in range(300)])
    rng = random.Random(9)
    dependent = make_trace([MemoryAccess(pc=0x800, address=rng.randrange(1 << 24) * 64,
                                         nonmem_before=3, depends_on_previous_load=True)
                            for _ in range(300)])
    independent_core, _ = make_core()
    dependent_core, _ = make_core()
    free = independent_core.run(independent)
    chained = dependent_core.run(dependent)
    assert chained.ipc < free.ipc


def test_stores_do_not_block_retirement():
    stores = make_trace([MemoryAccess(pc=0x400, address=index * 4096, is_load=False,
                                      nonmem_before=5)
                         for index in range(300)])
    core, _ = make_core()
    stats = core.run(stores)
    assert stats.stores == 300
    assert stats.loads == 0
    assert stats.ipc > 1.0


def test_stall_cycle_attribution_sums():
    import random
    rng = random.Random(11)
    trace = make_trace([MemoryAccess(pc=0x800, address=rng.randrange(1 << 24) * 64,
                                     nonmem_before=2)
                        for _ in range(600)])
    core, _ = make_core(rob_size=128)
    stats = core.run(trace)
    assert stats.stall_cycles_offchip >= stats.stall_cycles_offchip_onchip_portion >= 0
    if stats.blocking_offchip_loads:
        assert stats.average_offchip_stall > 0


def test_as_dict_contains_key_metrics():
    core, _ = make_core()
    stats = core.run(hit_heavy_trace(50))
    data = stats.as_dict()
    for key in ("ipc", "cycles", "instructions", "offchip_loads",
                "blocking_offchip_loads", "stall_cycles_offchip"):
        assert key in data
