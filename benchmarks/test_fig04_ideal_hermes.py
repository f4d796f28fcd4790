"""Fig. 4: performance potential of Ideal Hermes (alone and with prefetchers)."""

from conftest import run_once

from repro.analysis import format_table
from repro.experiments import run_fig04_ideal_hermes


def test_fig04_ideal_hermes(benchmark, small_setup):
    table = run_once(benchmark, run_fig04_ideal_hermes, small_setup,
                     prefetchers=("pythia", "bingo", "spp"))
    print()
    print(format_table("Fig. 4 - Ideal Hermes speedup over no-prefetching",
                       {k: v for k, v in table.items()}))
    # Ideal Hermes alone improves performance.
    assert table["ideal-hermes-alone"]["speedup"] > 1.0
    # Adding Ideal Hermes on top of each prefetcher never hurts.
    for prefetcher, row in table.items():
        if prefetcher == "ideal-hermes-alone":
            continue
        assert row["prefetcher_plus_ideal_hermes"] >= row["prefetcher_only"] * 0.99
