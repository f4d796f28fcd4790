"""Storage-overhead accounting (Tables 3 and 6 of the paper).

Both tables are closed-form: their plans hold no jobs, and the reducer
computes the table from the default structures (no simulation).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import runner_for
from repro.offchip.factory import make_predictor
from repro.offchip.popet import POPET
from repro.prefetchers.factory import make_prefetcher
from repro.runner import SweepSpec


def plan_table3_storage() -> SweepSpec:
    """Hermes storage breakdown in KB (paper Table 3: 4 KB total per core).

    Paper table: Table 3.  No sweep — closed-form accounting over the
    default POPET structures (no jobs, no ``ExperimentSetup``).

    Payload: ``{weight_tables_kb, page_buffer_kb, lq_metadata_kb,
    total_kb}`` (flat, kilobytes).
    """
    return SweepSpec("table3", [], lambda results: POPET().storage_breakdown())


run_table3_storage = runner_for(plan_table3_storage)


def plan_table6_storage() -> SweepSpec:
    """Storage (KB) of every evaluated mechanism (paper Table 6).

    Paper table: Table 6.  No sweep — instantiates each predictor
    (HMP, TTP, POPET) and prefetcher (Pythia, Bingo, SPP, MLOP, SMS)
    and reads its ``storage_kb`` accounting (no jobs).

    Payload: ``{mechanism: storage_kb}`` (flat, kilobytes).
    """
    def reduce(results: List[Any]) -> Dict[str, float]:
        table: Dict[str, float] = {}
        for name in ("hmp", "ttp"):
            table[name.upper()] = make_predictor(name).storage_kb
        for name in ("pythia", "bingo", "spp", "mlop", "sms"):
            table[name] = make_prefetcher(name).storage_kb
        table["Hermes (POPET)"] = POPET().storage_kb
        return table

    return SweepSpec("table6", [], reduce)


run_table6_storage = runner_for(plan_table6_storage)
