"""The layers a traced run attributes host time to, and their metrics.

Each layer is named after the package (or module) that implements it,
and begins at the public methods listed in :data:`BOUNDARIES`.  The
wrappers go on the classes, so they must be installed before the
simulator binds methods (``OutOfOrderCore.run_span`` binds
``hierarchy.load`` and ``predictor.predict`` once per span) and removed
after the traced pass.
"""

from __future__ import annotations

import importlib
import math
from pathlib import PurePath
from typing import Any, Dict, Iterable, List, Optional

from tracer import Calibration, Tracer

#: (span name, module, class, methods).  The class and each subclass
#: that defines a method itself are wrapped, so every prefetcher,
#: backend and renderer is covered.  A boundary the code no longer has
#: is skipped (its layer then reports 0 calls).
BOUNDARIES = (
    # The single-core span loop lives in OutOfOrderCore.run_span (the
    # scalar engine only delegates to it); step is the multicore path.
    ("cpu", "repro.cpu.core", "OutOfOrderCore", ("run_span", "step")),
    ("core", "repro.core.hermes", "HermesEngine",
     ("predict_and_issue", "train")),
    ("memory.hierarchy", "repro.memory.hierarchy", "CacheHierarchy",
     ("load", "store")),
    ("memory.cache", "repro.memory.cache", "Cache", ("fill", "record_miss")),
    ("prefetchers", "repro.prefetchers", "Prefetcher", ("on_demand_access",)),
    ("offchip", "repro.offchip.popet", "POPET", ("predict", "train")),
    ("dram", "repro.dram.controller", "MemoryController",
     ("access", "lookup_inflight", "claim_hermes", "drain_unclaimed_hermes")),
    ("runner.exec", "repro.runner.backends", "ExecutionBackend",
     ("run_outcomes",)),
    ("runner.cache_get", "repro.runner.cache", "ResultCache", ("get",)),
    ("runner.cache_put", "repro.runner.cache", "ResultCache", ("put",)),
    ("experiments", "repro.report.figures", "FigureSpec", ("collect",)),
    ("report", "repro.report.renderers", "ReportRenderer", ("render",)),
    ("report", "repro.report.schema", "FigureResult", ("to_json",)),
)

#: Simulator layers: self time, share and calls are reported for each.
MODEL_LAYERS = ("cpu", "core", "memory.hierarchy", "memory.cache",
                "prefetchers", "offchip", "dram")

#: Layers the sampler reports shares for.
SAMPLED_LAYERS = MODEL_LAYERS + ("sim", "workloads")


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _with_subclasses(sub) if c not in found)
    return found


class RunnerCounters:
    """Counts taken from the runner boundaries' arguments and results."""

    def __init__(self) -> None:
        self.jobs = 0
        self.retries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Results the backend handed back to the parent process.
        self.results: List[Any] = []

    def on_outcomes(self, args: tuple, kwargs: dict, outcomes: Any) -> None:
        for outcome in outcomes:
            self.jobs += 1
            self.retries += max(0, outcome.attempts - 1)
            if outcome.ok:
                self.results.append(outcome.result)

    def on_get(self, args: tuple, kwargs: dict, result: Any) -> None:
        if result is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1


def install(tracer: Tracer, counters: RunnerCounters) -> List[str]:
    """Wrap every boundary; return the boundaries that were not found."""
    observers = {"runner.exec": counters.on_outcomes,
                 "runner.cache_get": counters.on_get}
    missing: List[str] = []
    for name, module_name, class_name, methods in BOUNDARIES:
        try:
            base = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{class_name}")
            continue
        classes = _with_subclasses(base)
        for method in methods:
            owners = [cls for cls in classes if method in vars(cls)]
            if not owners:
                missing.append(f"{class_name}.{method}")
            for cls in owners:
                tracer.patch(cls, method, name, observers.get(name))
    return missing


def classify_file(filename: str) -> Optional[str]:
    """The layer a ``repro/<pkg>/<module>.py`` source file belongs to.

    Files of other packages (and shared helpers such as
    ``memory/address.py``) return ``None``, so the sampler charges the
    sample to the caller's layer instead.
    """
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    tail = parts[index + 1:]
    if len(tail) != 2:
        return None
    package, module = tail
    if package == "memory":
        return {"hierarchy.py": "memory.hierarchy", "cache.py": "memory.cache",
                "replacement.py": "memory.cache"}.get(module)
    if package == "engine":
        return "cpu"
    if package in ("cpu", "core", "prefetchers", "offchip", "dram", "sim",
                   "workloads"):
        return package
    return None


def geomean(values: Iterable[float]) -> float:
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def simulated_metrics(results: Iterable[Any]) -> Dict[str, float]:
    """Model statistics (simulated, not host time) of single-core
    ``SimulationResult`` and multicore ``MultiCoreResult`` objects."""
    ipcs: List[float] = []
    true_pos = false_pos = false_neg = consumed = issued = 0
    for result in results:
        cores = getattr(result, "per_core", None) or [result.core]
        ipcs.extend(core.ipc for core in cores)
        predictor = result.predictor
        true_pos += predictor.get("true_positives", 0)
        false_pos += predictor.get("false_positives", 0)
        false_neg += predictor.get("false_negatives", 0)
        consumed += result.memory_controller.get("hermes_consumed", 0)
        issued += result.memory_controller.get("hermes_requests", 0)
    return {
        "sim.ipc_geomean": geomean(ipcs),
        "offchip.accuracy": (true_pos / (true_pos + false_pos)
                             if true_pos + false_pos else 0.0),
        "offchip.coverage": (true_pos / (true_pos + false_neg)
                             if true_pos + false_neg else 0.0),
        "core.hermes_useful_ratio": consumed / issued if issued else 0.0,
    }


def layer_metrics(tracer: Tracer, calibration: Calibration,
                  counters: RunnerCounters) -> Dict[str, float]:
    """Host-time metrics of every layer from one traced pass."""
    self_times = tracer.self_times(calibration)
    traced = sum(self_times.values())

    def stat(name: str, field: str) -> float:
        stats = tracer.stats.get(name)
        return getattr(stats, field) if stats is not None else 0

    metrics: Dict[str, float] = {}
    for layer in MODEL_LAYERS + ("sim",):
        self_s = self_times.get(layer, 0.0)
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / traced if traced else 0.0
        if layer != "sim":
            metrics[f"{layer}.calls"] = stat(layer, "calls")
    lookups = counters.cache_hits + counters.cache_misses
    metrics.update({
        "workloads.gen_s": stat("workloads", "outer"),
        "workloads.calls": stat("workloads", "calls"),
        "runner.exec_s": stat("runner.exec", "outer"),
        "runner.jobs": counters.jobs,
        "runner.retries": counters.retries,
        "runner.cache_get_s": stat("runner.cache_get", "outer"),
        "runner.cache_put_s": stat("runner.cache_put", "outer"),
        "runner.cache_hit_ratio": (counters.cache_hits / lookups
                                   if lookups else 0.0),
        "experiments.self_s": self_times.get("experiments", 0.0),
        "report.render_s": stat("report", "outer"),
        "report.calls": stat("report", "calls"),
    })
    return metrics


def sampled_metrics(shares: Dict[str, float], samples: int) -> Dict[str, float]:
    """The sampler's shares under ``sample.<layer>.share``."""
    metrics = {f"sample.{layer}.share": shares.get(layer, 0.0)
               for layer in SAMPLED_LAYERS}
    metrics["sample.count"] = samples
    return metrics
