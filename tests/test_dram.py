"""Unit tests for the DRAM configuration, timing and controller."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.config import DRAMConfig
from repro.dram.controller import MemoryController, RequestSource
from repro.dram.timing import BankState, DRAMTiming


def test_config_derived_cycles():
    config = DRAMConfig()
    assert config.trcd_cycles == 50       # 12.5 ns at 4 GHz
    assert config.trp_cycles == 50
    assert config.tcas_cycles == 50
    assert config.burst_cycles == 10      # 64 B over DDR4-3200 at 4 GHz
    assert config.total_banks == config.channels * config.ranks_per_channel * config.banks_per_rank


def test_config_scaling_changes_burst_time():
    config = DRAMConfig()
    slower = config.scaled(800)
    assert slower.transfer_rate_mtps == 800
    assert slower.burst_cycles == 4 * config.burst_cycles


def test_config_validation():
    with pytest.raises(ValueError):
        DRAMConfig(channels=0).validate()
    with pytest.raises(ValueError):
        DRAMConfig(transfer_rate_mtps=0).validate()


@pytest.mark.parametrize("field,value", [
    ("bus_width_bits", 0), ("bus_width_bits", 4), ("bus_width_bits", 36),
    ("row_buffer_bytes", 32), ("row_buffer_bytes", -1),
    ("read_queue_size", 0), ("read_queue_size", -3),
    ("write_queue_size", 0),
    ("trcd_ns", -5.0), ("trcd_ns", 1e300), ("trp_ns", -0.5),
    ("trp_ns", 1000.5), ("tcas_ns", float("nan")), ("tcas_ns", 2000.0),
])
def test_config_rejects_values_the_controller_cannot_model(field, value):
    # Each used to build a controller: a zero or sub-byte bus width died
    # dividing by zero, the rest simulated silently.
    with pytest.raises(ValueError, match=field):
        DRAMConfig(**{field: value}).validate()


@pytest.mark.parametrize("field,value", [
    ("bus_width_bits", 8), ("bus_width_bits", 512),
    ("row_buffer_bytes", 64), ("read_queue_size", 1),
    ("write_queue_size", 1), ("trcd_ns", 0.0), ("tcas_ns", 1000.0),
])
def test_config_accepts_its_bounds(field, value):
    MemoryController(DRAMConfig(**{field: value}))


def test_timing_row_hit_miss_conflict():
    config = DRAMConfig()
    timing = DRAMTiming(config)
    bank = BankState()
    latency, kind = timing.access_latency(bank, row=5)
    assert kind == "miss"
    assert latency == config.trcd_cycles + config.tcas_cycles
    latency, kind = timing.access_latency(bank, row=5)
    assert kind == "hit"
    assert latency == config.tcas_cycles
    latency, kind = timing.access_latency(bank, row=9)
    assert kind == "conflict"
    assert latency == config.trp_cycles + config.trcd_cycles + config.tcas_cycles


def test_controller_single_access_latency():
    controller = MemoryController()
    ready = controller.access(0x10000, cycle=100)
    config = controller.config
    expected = 100 + config.trcd_cycles + config.tcas_cycles + config.burst_cycles
    assert ready == expected
    assert controller.stats.demand_requests == 1


def test_controller_row_buffer_hit_is_faster():
    controller = MemoryController()
    first_latency = controller.access(0x10000, cycle=0) - 0
    second_start = first_latency
    second_latency = controller.access(0x10040, cycle=second_start) - second_start
    assert second_latency < first_latency


def test_controller_merges_requests_to_same_block():
    controller = MemoryController()
    first_ready = controller.access(0x20000, cycle=0)
    second_ready = controller.access(0x20000, cycle=10)
    assert second_ready == first_ready
    assert controller.stats.merged_requests == 1


def test_hermes_request_matching_and_claim():
    controller = MemoryController()
    hermes_ready = controller.access(0x30000, cycle=0, source=RequestSource.HERMES)
    assert controller.lookup_inflight(0x30000, cycle=10) == hermes_ready
    assert controller.claim_hermes(0x30000)
    assert controller.stats.hermes_consumed == 1
    # Claiming twice must fail (already consumed).
    assert not controller.claim_hermes(0x30000)


def test_unclaimed_hermes_requests_are_dropped():
    controller = MemoryController()
    ready = controller.access(0x40000, cycle=0, source=RequestSource.HERMES)
    dropped = controller.drain_unclaimed_hermes(cycle=ready + 1)
    assert dropped == 1
    assert controller.stats.hermes_dropped == 1


def test_demand_merging_with_hermes_counts_consumption():
    controller = MemoryController()
    controller.access(0x50000, cycle=0, source=RequestSource.HERMES)
    controller.access(0x50000, cycle=5, source=RequestSource.DEMAND)
    assert controller.stats.hermes_consumed == 1
    assert controller.stats.merged_requests == 1


def test_channel_bandwidth_serialises_bursts():
    config = DRAMConfig(banks_per_rank=16)
    controller = MemoryController(config)
    # Two requests to different banks at the same cycle: the second data
    # transfer must wait for the first to release the channel.
    first_ready = controller.access(0x0, cycle=0)
    second_ready = controller.access(0x100000, cycle=0)
    assert second_ready >= first_ready + config.burst_cycles


def test_row_buffer_hit_rate_metric():
    controller = MemoryController()
    controller.access(0x0, cycle=0)
    controller.access(0x40, cycle=200)
    assert 0.0 < controller.row_buffer_hit_rate() <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1 << 22),
                          st.integers(min_value=0, max_value=5000)),
                min_size=1, max_size=100))
def test_ready_cycle_never_before_arrival(requests):
    controller = MemoryController()
    cycle = 0
    for block, gap in requests:
        cycle += gap
        ready = controller.access(block * 64, cycle=cycle)
        assert ready >= cycle


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=60))
def test_request_accounting_adds_up(blocks):
    controller = MemoryController()
    for index, block in enumerate(blocks):
        source = RequestSource.HERMES if index % 3 == 0 else RequestSource.DEMAND
        controller.access(block * 64, cycle=index * 7, source=source)
    stats = controller.stats
    assert stats.total_requests == stats.demand_requests + stats.prefetch_requests \
        + stats.hermes_requests + stats.writeback_requests
    assert stats.total_requests == len(blocks)
