"""Unit tests for the configuration dataclasses and the simulation drivers."""

import dataclasses

import pytest

from repro.core.hermes import HermesConfig
from repro.offchip.popet import POPET
from repro.perf.golden import (
    GOLDEN_MIX_ACCESSES,
    GOLDEN_MIX_CONFIGS,
    GOLDEN_MIXES,
    golden_config,
)
from repro.sim.config import SystemConfig
from repro.sim.multicore import simulate_multicore
from repro.sim.simulator import (
    build_system,
    simulate_cores,
    simulate_suite,
    simulate_trace,
)
from repro.workloads.suite import make_trace


def test_named_configs_validate():
    for config in (SystemConfig.no_prefetching(), SystemConfig.baseline("pythia"),
                   SystemConfig.with_hermes("popet", prefetcher="pythia"),
                   SystemConfig.with_hermes("hmp", optimistic=False)):
        config.validate()


def test_hermes_requires_predictor():
    config = SystemConfig(offchip_predictor=None, hermes=HermesConfig())
    with pytest.raises(ValueError):
        config.validate()


def test_warmup_fraction_bounds():
    with pytest.raises(ValueError):
        SystemConfig(warmup_fraction=1.0).validate()


def test_sweep_helpers_produce_new_labels():
    base = SystemConfig.baseline("pythia")
    assert base.with_rob_size(256).core.rob_size == 256
    assert base.with_llc_size_mb(6).hierarchy.llc.size_bytes == 6 * 1024 * 1024
    assert base.with_llc_latency(65).hierarchy.llc.latency == 65
    assert base.with_memory_bandwidth(800).dram.transfer_rate_mtps == 800
    hermes = SystemConfig.with_hermes("popet").with_hermes_issue_latency(24)
    assert hermes.hermes.issue_latency == 24
    # Sweeps must not mutate the original configuration.
    assert base.core.rob_size == 512
    assert base.dram.transfer_rate_mtps == 3200


def test_build_system_wiring():
    system = build_system(SystemConfig.with_hermes("popet", prefetcher="pythia"))
    assert system.hermes is not None
    assert system.predictor is not None
    assert system.hierarchy.prefetcher is not None
    assert system.core.hermes is system.hermes
    assert system.hermes.memory_controller is system.memory_controller


def test_build_system_without_hermes():
    system = build_system(SystemConfig.baseline("pythia"))
    assert system.hermes is None
    assert system.predictor is None


def test_build_system_binds_ideal_oracle():
    system = build_system(SystemConfig.with_hermes("ideal"))
    context_free_probe = system.predictor._oracle
    assert context_free_probe is not None


def test_simulate_trace_returns_populated_result(small_irregular_trace):
    result = simulate_trace(SystemConfig.with_hermes("popet", prefetcher="pythia"),
                            small_irregular_trace)
    assert result.workload == small_irregular_trace.name
    assert result.category == small_irregular_trace.category
    assert result.ipc > 0
    assert result.core.loads > 0
    assert result.hierarchy["loads"] > 0
    assert result.memory_controller["hermes_requests"] > 0
    assert 0.0 <= result.predictor_accuracy <= 1.0
    assert 0.0 <= result.predictor_coverage <= 1.0
    row = result.as_dict()
    assert row["workload"] == small_irregular_trace.name


def test_simulate_trace_is_deterministic(small_graph_trace):
    config = SystemConfig.with_hermes("popet", prefetcher="pythia")
    first = simulate_trace(config, small_graph_trace)
    second = simulate_trace(config, small_graph_trace)
    assert first.ipc == pytest.approx(second.ipc)
    assert first.core.offchip_loads == second.core.offchip_loads


def test_simulate_trace_with_injected_predictor(small_irregular_trace):
    predictor = POPET.with_features(["pc_first_access"])
    result = simulate_trace(SystemConfig.with_hermes("popet"), small_irregular_trace,
                            predictor=predictor)
    assert predictor.stats.predictions > 0
    assert result.predictor == predictor.stats.as_dict()


def test_simulate_trace_max_accesses(small_irregular_trace):
    result = simulate_trace(SystemConfig.no_prefetching(), small_irregular_trace,
                            max_accesses=500)
    assert result.core.memory_instructions <= 500


def test_warmup_excludes_statistics(small_irregular_trace):
    cold = simulate_trace(SystemConfig.no_prefetching().with_label("w0"),
                          small_irregular_trace)
    # With warmup disabled the measured region includes the cold-start misses,
    # so the off-chip load count must be at least as high.
    import dataclasses
    no_warmup = dataclasses.replace(SystemConfig.no_prefetching(), warmup_fraction=0.0)
    full = simulate_trace(no_warmup, small_irregular_trace)
    assert full.core.memory_instructions > cold.core.memory_instructions
    assert full.core.offchip_loads >= cold.core.offchip_loads


def test_simulate_suite_runs_every_trace(small_irregular_trace, small_streaming_trace):
    results = simulate_suite(SystemConfig.no_prefetching(),
                             [small_irregular_trace, small_streaming_trace])
    assert [r.workload for r in results] == [small_irregular_trace.name,
                                             small_streaming_trace.name]


# ---------------------------------------------------------------------- #
# One core through the multicore entry point, and chunked spans
# ---------------------------------------------------------------------- #

ONE_CORE_CONFIGS = [
    SystemConfig.no_prefetching(),
    SystemConfig.baseline("spp"),
    SystemConfig.with_hermes("popet", prefetcher="pythia"),
    SystemConfig.with_hermes("ideal"),
]
CONFUSION = ("true_positives", "false_positives", "true_negatives",
             "false_negatives")


@pytest.mark.parametrize("trace_fixture",
                         ["small_irregular_trace", "small_graph_trace"])
@pytest.mark.parametrize("config", ONE_CORE_CONFIGS,
                         ids=[config.label for config in ONE_CORE_CONFIGS])
def test_one_core_multicore_run_matches_single_core(request, config,
                                                    trace_fixture):
    # Both drivers must split warmup from measurement at the same access
    # and count the same events on either side of it.
    trace = request.getfixturevalue(trace_fixture)
    single = simulate_trace(config, trace)
    multi = simulate_multicore(config, [trace], dram_config=config.dram)
    assert multi.per_core[0].as_dict() == single.core.as_dict()
    assert multi.memory_controller == single.memory_controller
    assert ({key: multi.predictor.get(key) for key in CONFUSION}
            == {key: single.predictor.get(key) for key in CONFUSION})


MIX4 = next(workloads for name, workloads, _ in GOLDEN_MIXES if name == "mix4")


def chunked(accesses, size):
    """``accesses`` as the driver's ``(accesses, stop)`` chunks of ``size``."""
    chunks = [accesses[start:start + size]
              for start in range(0, len(accesses), size)]
    return [(chunk, len(chunk)) for chunk in chunks]


@pytest.mark.parametrize("warmup_fraction", [None, 0.0],
                         ids=["default-warmup", "no-warmup"])
@pytest.mark.parametrize("prefetcher,predictor", GOLDEN_MIX_CONFIGS)
def test_multicore_chunk_splits_are_identical(prefetcher, predictor,
                                              warmup_fraction):
    # Every chunk end closes a core's span: the driver re-opens it and
    # re-pushes the core's heap key, which must not change the
    # interleaving over the shared LLC and DRAM.  At 500 accesses the
    # default warmup boundary (a quarter of 2,000) is a chunk end.
    config = golden_config(prefetcher, predictor)
    if warmup_fraction is not None:
        config = dataclasses.replace(config, warmup_fraction=warmup_fraction)
    traces = [make_trace(name, GOLDEN_MIX_ACCESSES) for name in MIX4]
    expected = simulate_multicore(config, traces)
    config = dataclasses.replace(config, dram=SystemConfig.eight_core_dram())
    warmups = [int(len(trace) * config.warmup_fraction) for trace in traces]
    for size in (1, 7, 277, 500):
        systems = simulate_cores(
            config, [chunked(trace.accesses, size) for trace in traces],
            warmups)
        assert ([system.core.stats.as_dict() for system in systems]
                == [stats.as_dict() for stats in expected.per_core]), size
        assert (systems[0].memory_controller.stats.as_dict()
                == expected.memory_controller), size
        assert ({key: sum(getattr(system.predictor.stats, key)
                          for system in systems
                          if system.predictor is not None)
                 for key in CONFUSION}
                == {key: expected.predictor.get(key, 0)
                    for key in CONFUSION}), size
