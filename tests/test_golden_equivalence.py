"""Golden equivalence: the optimized hot path must be bit-identical.

The committed fixture ``tests/golden/golden_stats.json`` was generated by
``python -m repro.perf.golden --write`` *before* the flat-array /
zero-allocation refactor; these tests re-run the same pinned matrix —
{no-prefetch, pythia, spp} x {no-hermes, popet, ideal}, single- and
multi-core — and require every statistic to match exactly.  Any drift
means the perf work changed simulation semantics.

The single-core matrix runs once per legal ``SystemConfig.engine``
value (only ``scalar`` today), and each of its results must also obey
the accounting identities between the layers' counters.  The multicore
mixes pin the order in which the driver interleaves cores over the
shared LLC and DRAM.

If a later PR *intentionally* changes results, regenerate the fixture and
say so in the PR description.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.engine import ENGINES
from repro.perf.golden import (
    GOLDEN_ACCESSES,
    GOLDEN_MIX_ACCESSES,
    GOLDEN_MIX_CONFIGS,
    GOLDEN_MIXES,
    GOLDEN_PREDICTORS,
    GOLDEN_PREFETCHERS,
    GOLDEN_WORKLOADS,
    MULTICORE_ACCESSES,
    MULTICORE_WORKLOADS,
    fingerprint_multicore,
    fingerprint_single,
    golden_config,
    run_golden_mix,
)
from repro.sim.multicore import simulate_multicore
from repro.sim.simulator import simulate_trace
from repro.workloads.suite import make_trace

FIXTURE_PATH = Path(__file__).parent / "golden" / "golden_stats.json"

MATRIX = [(prefetcher, predictor)
          for prefetcher in GOLDEN_PREFETCHERS
          for predictor in GOLDEN_PREDICTORS]


def test_golden_config_matrix_labels_are_unique():
    labels = {golden_config(pf, pd).label
              for pf in GOLDEN_PREFETCHERS for pd in GOLDEN_PREDICTORS}
    assert len(labels) == len(GOLDEN_PREFETCHERS) * len(GOLDEN_PREDICTORS)


@pytest.fixture(scope="module")
def fixture_runs():
    fixture = json.loads(FIXTURE_PATH.read_text())
    assert fixture["single_accesses"] == GOLDEN_ACCESSES
    assert fixture["multicore_accesses"] == MULTICORE_ACCESSES
    assert fixture["mix_accesses"] == GOLDEN_MIX_ACCESSES
    return fixture["runs"]


def _assert_identical(actual, expected, where):
    """Exact comparison with a readable per-stat diff on failure."""
    assert set(actual) == set(expected), f"{where}: stat groups differ"
    for group, stats in expected.items():
        got = actual[group]
        if isinstance(stats, dict):
            diffs = {key: (got.get(key), value)
                     for key, value in stats.items() if got.get(key) != value}
            assert not diffs, f"{where}/{group}: drift {diffs}"
        elif isinstance(stats, list) and stats and isinstance(stats[0], dict):
            for index, entry in enumerate(stats):
                diffs = {key: (got[index].get(key), value)
                         for key, value in entry.items()
                         if got[index].get(key) != value}
                assert not diffs, f"{where}/{group}[{index}]: drift {diffs}"
        else:
            assert got == stats, f"{where}/{group}: {got} != {stats}"


def _assert_accounting_identities(result, where):
    """Identities between the layers' counters.  They must hold on every
    result, also after an intended fixture regeneration, so they guard
    the warmup reset where bit-identity no longer can."""
    hierarchy, controller, llc = (result.hierarchy, result.memory_controller,
                                  result.llc)
    assert llc["demand_accesses"] == result.prefetcher["accesses_observed"], where
    assert llc["demand_misses"] == hierarchy["llc_misses"], where
    assert controller["hermes_consumed"] == hierarchy["hermes_waits"], where
    if not result.hermes:
        return
    hermes = result.hermes
    tp, fp, tn, fn = (result.predictor[key] for key in
                      ("true_positives", "false_positives",
                       "true_negatives", "false_negatives"))
    assert tp == hermes["hermes_requests_useful"] == controller["hermes_consumed"], where
    assert tp + fn == hierarchy["offchip_loads"], where
    assert (hermes["predicted_offchip"] == hermes["hermes_requests_issued"]
            == controller["hermes_requests"]), where
    assert tp + fp + tn + fn == hermes["loads_seen"] == hierarchy["loads"], where


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("prefetcher,predictor", MATRIX)
def test_single_core_matches_golden(fixture_runs, prefetcher, predictor, engine):
    config = dataclasses.replace(golden_config(prefetcher, predictor),
                                 engine=engine)
    for workload in GOLDEN_WORKLOADS:
        trace = make_trace(workload, GOLDEN_ACCESSES)
        result = simulate_trace(config, trace)
        key = f"single/{config.label}/{workload}"
        assert key in fixture_runs, f"fixture missing {key}"
        _assert_identical(fingerprint_single(result), fixture_runs[key], key)
        _assert_accounting_identities(result, key)


@pytest.mark.parametrize("prefetcher,predictor", MATRIX)
def test_multicore_matches_golden(fixture_runs, prefetcher, predictor):
    config = golden_config(prefetcher, predictor)
    traces = [make_trace(name, MULTICORE_ACCESSES) for name in MULTICORE_WORKLOADS]
    result = simulate_multicore(config, traces)
    key = f"multi/{config.label}"
    assert key in fixture_runs, f"fixture missing {key}"
    _assert_identical(fingerprint_multicore(result), fixture_runs[key], key)


@pytest.mark.parametrize("mix", [name for name, _, _ in GOLDEN_MIXES])
@pytest.mark.parametrize("prefetcher,predictor", GOLDEN_MIX_CONFIGS)
def test_multicore_mix_matches_golden(fixture_runs, prefetcher, predictor, mix):
    key, result = run_golden_mix(prefetcher, predictor, mix)
    assert key in fixture_runs, f"fixture missing {key}"
    _assert_identical(fingerprint_multicore(result), fixture_runs[key], key)
