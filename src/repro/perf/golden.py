"""Golden equivalence fixture for the hot-path refactor.

The perf refactor (flat-array tag stores, zero-allocation records) must
not change *any* simulated statistic.  This module runs a pinned config
matrix — {no-prefetch, pythia, spp} x {no-hermes, popet, ideal} — on
pinned-seed workloads, single- and multi-core, and fingerprints every
stats dictionary the simulator emits.  ``tests/test_golden_equivalence.py``
compares a fresh run against the committed fixture
(``tests/golden/golden_stats.json``); any numerical drift is a bug unless
a PR intentionally changes simulation semantics (in which case regenerate
with ``python -m repro.perf.golden --write``).
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.sim.config import SystemConfig
from repro.sim.multicore import MultiCoreResult, simulate_multicore
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate_trace
from repro.workloads.suite import make_trace

#: Prefetcher x predictor matrix from the issue's acceptance criteria.
GOLDEN_PREFETCHERS: Tuple[str, ...] = ("none", "pythia", "spp")
GOLDEN_PREDICTORS: Tuple[Optional[str], ...] = (None, "popet", "ideal")

#: Pinned-seed workloads (one irregular, one server-like).
GOLDEN_WORKLOADS: Tuple[str, ...] = ("spec06.mcf_chase", "cvp.server_int")
GOLDEN_ACCESSES = 5000

#: Two-core mix for the multi-core leg of the matrix.
MULTICORE_WORKLOADS: Tuple[str, ...] = ("ligra.bfs", "spec17.lbm_stream")
MULTICORE_ACCESSES = 2500

#: Extra mixes that pin the multi-core interleaving order:
#: (name, workloads, warmup_fraction or None for the config's default).
#: ``self2`` runs one trace on two cores, so both clocks start tied and
#: the core-index tie-break decides the order.
GOLDEN_MIXES: Tuple[Tuple[str, Tuple[str, ...], Optional[float]], ...] = (
    ("mix4", ("ligra.bfs", "spec17.lbm_stream", "spec06.mcf_chase",
              "cvp.server_int"), None),
    ("self2", ("ligra.bfs", "ligra.bfs"), None),
    ("mix3-nowarmup", ("spec06.mcf_chase", "parsec.canneal",
                       "cvp.server_db"), 0.0),
)
#: The (prefetcher, predictor) cells :data:`GOLDEN_MIXES` run under.
GOLDEN_MIX_CONFIGS: Tuple[Tuple[str, Optional[str]], ...] = (
    ("none", None), ("pythia", "popet"), ("spp", "ideal"))
GOLDEN_MIX_ACCESSES = 2000

#: Default fixture location (relative to the repo root).
GOLDEN_PATH = Path("tests") / "golden" / "golden_stats.json"


def golden_config(prefetcher: str, predictor: Optional[str]) -> SystemConfig:
    """Build one cell of the golden config matrix."""
    if predictor is None:
        if prefetcher == "none":
            return SystemConfig.no_prefetching()
        return SystemConfig.baseline(prefetcher)
    return SystemConfig.with_hermes(predictor, prefetcher=prefetcher)


def fingerprint_single(result: SimulationResult) -> Dict[str, object]:
    """Every stats dict from one single-core run, JSON-ready."""
    return {
        "core": result.core.as_dict(),
        "hierarchy": result.hierarchy,
        "memory_controller": result.memory_controller,
        "predictor": result.predictor,
        "hermes": result.hermes,
        "llc": result.llc,
        "prefetcher": result.prefetcher,
    }


def fingerprint_multicore(result: MultiCoreResult) -> Dict[str, object]:
    """Every stats dict from one multi-core run, JSON-ready."""
    return {
        "workloads": result.workloads,
        "per_core": [stats.as_dict() for stats in result.per_core],
        "memory_controller": result.memory_controller,
        "predictor": result.predictor,
    }


def run_golden_mix(prefetcher: str, predictor: Optional[str], mix: str
                   ) -> Tuple[str, MultiCoreResult]:
    """Run one :data:`GOLDEN_MIXES` cell; return its fixture key and result."""
    _, workloads, warmup = next(entry for entry in GOLDEN_MIXES
                                if entry[0] == mix)
    config = golden_config(prefetcher, predictor)
    if warmup is not None:
        config = replace(config, warmup_fraction=warmup)
    traces = [make_trace(name, GOLDEN_MIX_ACCESSES) for name in workloads]
    return f"multi/{config.label}/{mix}", simulate_multicore(config, traces)


def collect_golden() -> Dict[str, object]:
    """Run the full golden matrix and return the fixture dictionary."""
    fixture: Dict[str, object] = {
        "schema": 1,
        "single_accesses": GOLDEN_ACCESSES,
        "multicore_accesses": MULTICORE_ACCESSES,
        "mix_accesses": GOLDEN_MIX_ACCESSES,
        "runs": {},
    }
    runs: Dict[str, object] = fixture["runs"]  # type: ignore[assignment]
    for prefetcher in GOLDEN_PREFETCHERS:
        for predictor in GOLDEN_PREDICTORS:
            config = golden_config(prefetcher, predictor)
            for workload in GOLDEN_WORKLOADS:
                trace = make_trace(workload, GOLDEN_ACCESSES)
                result = simulate_trace(config, trace)
                key = f"single/{config.label}/{workload}"
                runs[key] = fingerprint_single(result)
            mc_traces = [make_trace(name, MULTICORE_ACCESSES)
                         for name in MULTICORE_WORKLOADS]
            mc_result = simulate_multicore(config, mc_traces)
            runs[f"multi/{config.label}"] = fingerprint_multicore(mc_result)
    for prefetcher, predictor in GOLDEN_MIX_CONFIGS:
        for mix, _, _ in GOLDEN_MIXES:
            key, result = run_golden_mix(prefetcher, predictor, mix)
            runs[key] = fingerprint_multicore(result)
    return fixture


def write_golden(path: Union[str, Path] = GOLDEN_PATH) -> Path:
    """Regenerate the committed golden fixture at ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fixture = collect_golden()
    path.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    """Regenerate the golden fixture (pass ``--write``); returns exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.golden",
        description="Regenerate the golden equivalence fixture")
    parser.add_argument("--write", nargs="?", const=str(GOLDEN_PATH),
                        default=None, metavar="PATH",
                        help=f"write the fixture (default path: {GOLDEN_PATH})")
    args = parser.parse_args(argv)
    if args.write is None:
        parser.error("pass --write to regenerate the fixture")
    path = write_golden(args.write)
    print(f"repro.perf.golden: wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
