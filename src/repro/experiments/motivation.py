"""Motivation experiments (Figs. 2, 3 and 5 of the paper).

* Fig. 2 — how many loads go off-chip with and without Pythia, split into
  ROB-blocking and non-blocking, plus LLC MPKI.
* Fig. 3 — stall cycles per blocking off-chip load and the fraction of
  those cycles spent traversing the on-chip hierarchy.
* Fig. 5 — fraction of loads that go off-chip and LLC MPKI in the Pythia
  baseline (the "small positive class" challenge for the predictor).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.analysis.metrics import average
from repro.experiments.common import (
    ExperimentSetup,
    Grouped,
    plan_matrix,
    runner_for,
)
from repro.runner import SweepSpec
from repro.sim.config import SystemConfig


def plan_fig02_offchip_loads(setup: Optional[ExperimentSetup] = None) -> SweepSpec:
    """Off-chip load counts (blocking vs non-blocking) and MPKI, no-prefetch vs Pythia.

    Paper figure: Fig. 2.  Sweep axes: system ∈ {no-prefetching, Pythia}
    × the setup's workload suite.

    Payload: ``{category: {noprefetch_blocking, noprefetch_nonblocking,
    pythia_blocking, pythia_nonblocking, noprefetch_mpki, pythia_mpki}}``
    plus an ``"AVG"`` row — per-category averages, with load counts
    normalised to the no-prefetching system's off-chip total as in the
    paper.
    """
    def reduce(results: Grouped) -> Dict[str, Dict[str, float]]:
        noprefetch, pythia = results["noprefetch"], results["pythia"]
        table: Dict[str, Dict[str, float]] = {}
        grouped: Dict[str, list] = defaultdict(list)
        for base, with_pf in zip(noprefetch, pythia):
            grouped[base.category].append((base, with_pf))
        for category, pairs in grouped.items():
            rows = []
            for base, with_pf in pairs:
                base_total = max(1, base.core.offchip_loads)
                rows.append({
                    "noprefetch_blocking": base.core.blocking_offchip_loads / base_total,
                    "noprefetch_nonblocking": base.core.nonblocking_offchip_loads / base_total,
                    "pythia_blocking": with_pf.core.blocking_offchip_loads / base_total,
                    "pythia_nonblocking": with_pf.core.nonblocking_offchip_loads / base_total,
                    "noprefetch_mpki": base.llc_mpki,
                    "pythia_mpki": with_pf.llc_mpki,
                })
            table[category] = {key: average(row[key] for row in rows)
                               for key in rows[0]}
        table["AVG"] = {key: average(table[cat][key] for cat in table)
                        for key in next(iter(table.values()))}
        return table

    return plan_matrix("fig02", setup or ExperimentSetup(), {
        "noprefetch": SystemConfig.no_prefetching(),
        "pythia": SystemConfig.baseline("pythia"),
    }, reduce)


run_fig02_offchip_loads = runner_for(plan_fig02_offchip_loads)


def plan_fig03_stall_cycles(setup: Optional[ExperimentSetup] = None) -> SweepSpec:
    """Average stall cycles per blocking off-chip load, and the on-chip share.

    Paper figure: Fig. 3.  Sweep axes: the Pythia baseline alone × the
    setup's workload suite.

    Payload: ``{category: {stall_cycles_per_offchip_load, onchip_share}}``
    plus an ``"AVG"`` row.  The paper reports 147.1 stall cycles on
    average, of which 40.1% could be removed by taking the on-chip
    hierarchy off the critical path; the shape to check here is a large
    stall count with a sizeable on-chip share, growing for the irregular
    categories.
    """
    def reduce(results: Grouped) -> Dict[str, Dict[str, float]]:
        table: Dict[str, Dict[str, float]] = {}
        grouped: Dict[str, list] = defaultdict(list)
        for result in results["pythia"]:
            grouped[result.category].append(result)
        for category, rs in grouped.items():
            stalls = [r.core.average_offchip_stall for r in rs
                      if r.core.blocking_offchip_loads > 0]
            shares = [r.core.stall_cycles_offchip_onchip_portion / r.core.stall_cycles_offchip
                      for r in rs if r.core.stall_cycles_offchip > 0]
            table[category] = {
                "stall_cycles_per_offchip_load": average(stalls),
                "onchip_share": average(shares),
            }
        table["AVG"] = {
            "stall_cycles_per_offchip_load": average(
                row["stall_cycles_per_offchip_load"] for row in table.values()),
            "onchip_share": average(row["onchip_share"] for row in table.values()),
        }
        return table

    return plan_matrix("fig03", setup or ExperimentSetup(),
                       {"pythia": SystemConfig.baseline("pythia")}, reduce)


run_fig03_stall_cycles = runner_for(plan_fig03_stall_cycles)


def plan_fig05_offchip_rate(setup: Optional[ExperimentSetup] = None) -> SweepSpec:
    """Fraction of loads that go off-chip and LLC MPKI in the Pythia baseline.

    Paper figure: Fig. 5.  Sweep axes: the Pythia baseline alone × the
    setup's workload suite.

    Payload: ``{category: {offchip_load_fraction, llc_mpki}}`` plus an
    ``"AVG"`` row — the "small positive class" motivation for POPET.
    """
    def reduce(results: Grouped) -> Dict[str, Dict[str, float]]:
        grouped: Dict[str, list] = defaultdict(list)
        for result in results["pythia"]:
            grouped[result.category].append(result)
        table: Dict[str, Dict[str, float]] = {}
        for category, rs in grouped.items():
            table[category] = {
                "offchip_load_fraction": average(r.offchip_load_fraction for r in rs),
                "llc_mpki": average(r.llc_mpki for r in rs),
            }
        table["AVG"] = {
            "offchip_load_fraction": average(row["offchip_load_fraction"]
                                             for row in table.values()),
            "llc_mpki": average(row["llc_mpki"] for row in table.values()),
        }
        return table

    return plan_matrix("fig05", setup or ExperimentSetup(),
                       {"pythia": SystemConfig.baseline("pythia")}, reduce)


run_fig05_offchip_rate = runner_for(plan_fig05_offchip_rate)
