"""Tests for the experiment runners (small sizes; shape checks only)."""

import pytest

from repro.experiments import (
    ExperimentSetup,
    run_fig02_offchip_loads,
    run_fig03_stall_cycles,
    run_fig05_offchip_rate,
    run_fig09_accuracy_coverage,
    run_fig10_feature_ablation,
    run_fig16_multicore,
    run_fig17c_issue_latency_sensitivity,
    run_table3_storage,
    run_table6_storage,
)

#: Deliberately tiny: these tests check structure, not convergence.
TINY = ExperimentSetup(num_accesses=2500, per_category=1, categories=["SPEC06", "Ligra"])


def test_table3_storage_matches_paper():
    table = run_table3_storage()
    assert table["total_kb"] == pytest.approx(4.0, abs=0.25)
    assert set(table) == {"weight_tables_kb", "page_buffer_kb", "lq_metadata_kb",
                          "total_kb"}


def test_table6_popet_is_smallest_learning_mechanism():
    table = run_table6_storage()
    assert table["Hermes (POPET)"] < table["pythia"]
    assert table["Hermes (POPET)"] < table["bingo"]
    assert table["Hermes (POPET)"] < table["TTP"]
    assert table["TTP"] == max(table.values())


def test_fig02_structure():
    table = run_fig02_offchip_loads(TINY)
    assert "AVG" in table
    for row in table.values():
        assert set(row) >= {"noprefetch_blocking", "pythia_blocking", "noprefetch_mpki"}
        # Normalised to the no-prefetching system's off-chip loads.
        assert row["noprefetch_blocking"] + row["noprefetch_nonblocking"] == pytest.approx(
            1.0, abs=1e-6)


def test_fig03_stall_cycles_have_onchip_component():
    table = run_fig03_stall_cycles(TINY)
    avg = table["AVG"]
    assert avg["stall_cycles_per_offchip_load"] > 0
    assert 0.0 < avg["onchip_share"] <= 1.0


def test_fig05_offchip_rate_is_a_minority_of_loads():
    table = run_fig05_offchip_rate(TINY)
    assert 0.0 < table["AVG"]["offchip_load_fraction"] < 0.6
    assert table["AVG"]["llc_mpki"] > 0


def test_fig09_popet_beats_hmp():
    table = run_fig09_accuracy_coverage(TINY, predictors=("hmp", "popet"))
    assert table["popet"]["AVG"]["accuracy"] > table["hmp"]["AVG"]["accuracy"]
    assert table["popet"]["AVG"]["coverage"] > table["hmp"]["AVG"]["coverage"]


def test_fig10_all_features_at_least_match_single_feature_coverage():
    table = run_fig10_feature_ablation(
        ExperimentSetup(num_accesses=2500, per_category=1, categories=["SPEC06"]))
    assert "All (POPET)" in table
    assert all(set(row) == {"accuracy", "coverage"} for row in table.values())


def test_fig16_multicore_hermes_beats_pythia():
    table = run_fig16_multicore(num_cores=2, num_mixes=1, num_accesses=1500,
                                predictors=("popet",))
    assert table["pythia+hermes-popet"] > 0.9 * table["pythia"]


@pytest.mark.parametrize("runner, call", [
    (run_fig05_offchip_rate, lambda fn, setup: fn(setup)),
    (run_fig05_offchip_rate, lambda fn, setup: fn(setup=setup)),
    (run_fig16_multicore, lambda fn, setup: fn(
        num_cores=2, num_mixes=1, num_accesses=500, predictors=("popet",),
        setup=setup)),
], ids=["positional", "keyword", "last"])
def test_derived_runner_runs_its_plan_through_the_given_setup(tmp_path, runner,
                                                              call):
    setup = ExperimentSetup(num_accesses=500, per_category=1,
                            categories=["Ligra"],
                            result_cache_dir=tmp_path / "cache")
    call(runner, setup)
    keys = {job.key() for job in call(runner.plan, setup).jobs}
    assert keys
    assert {path.stem for path in (tmp_path / "cache").glob("*.pkl")} == keys


def test_fig17c_issue_latency_monotonic_tendency():
    table = run_fig17c_issue_latency_sensitivity(TINY, latencies=(0, 24))
    assert table[0]["pythia+hermes"] >= table[24]["pythia+hermes"] - 0.05
