"""The stable public API facade.

``repro.api`` is the one import surface user code needs: configuration
types and their serialization, dotted-path overrides, experiment specs,
the two high-level entry points :func:`run` and :func:`sweep`, and the
component registries.  Everything here is re-exported from the
subsystem modules, so the facade adds no behaviour — it pins the names
that are stable across releases::

    from repro import api

    cfg = api.SystemConfig.from_file("system.toml")
    cfg = api.apply_overrides(cfg, {"core.rob_size": 256})
    result = api.run(cfg, workload="ligra.pagerank", accesses=20000)

    spec = api.ExperimentSpec.from_file("examples/specs/rob_sweep.toml")
    table = api.sweep(spec, parallel=True)   # {label: [per-workload]}

The older per-module imports (``repro.sim.config``,
``repro.experiments`` …) keep working — they are the implementation
this facade fronts — but new code and external scripts should prefer
``repro.api`` so internal reorganisations never break them.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, List, Mapping, Optional, Sequence, Union

# Configuration types
from repro.config import (
    CONFIG_SCHEMA_VERSION,
    ConfigError,
    apply_overrides,
    config_field_paths,
    load_config,
    parse_override,
    parse_override_value,
    save_config,
)
from repro.core.hermes import HermesConfig
from repro.cpu.core import CoreConfig
from repro.dram.config import DRAMConfig
from repro.experiments.common import ExperimentSetup
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.offchip.factory import available_predictors, make_predictor
from repro.prefetchers.factory import available_prefetchers, make_prefetcher
from repro.runner import (
    ExperimentSpec,
    FaultPlan,
    JobOutcome,
    JobRunner,
    PredictorSpec,
    ProcessPoolBackend,
    ResultCache,
    RetryPolicy,
    SerialBackend,
    SimJob,
    SpecDelta,
    SweepError,
    SweepReport,
    SweepSpec,
    diff_specs,
    make_backend,
)
from repro.runner.distributed import DistributedBackend, WorkerLoop
from repro.report import (
    REPORT_SCHEMA_VERSION,
    FigureResult,
    figure_ids,
    get_figure,
)
from repro.service import (
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    SimService,
)
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate_stream, simulate_trace
from repro.workloads.suite import make_trace, select_workload_names

__all__ = [
    # configuration
    "SystemConfig", "CoreConfig", "HierarchyConfig", "CacheConfig",
    "DRAMConfig", "HermesConfig",
    "CONFIG_SCHEMA_VERSION", "ConfigError",
    "load_config", "save_config",
    "apply_overrides", "parse_override", "parse_override_value",
    "config_field_paths",
    # specs and jobs
    "ExperimentSpec", "SimJob", "SweepSpec", "PredictorSpec",
    "JobRunner", "SerialBackend", "ProcessPoolBackend", "ResultCache",
    "make_backend",
    # distributed sweeps
    "DistributedBackend", "WorkerLoop",
    # delta sweeps
    "SpecDelta", "diff_specs",
    # resilience
    "RetryPolicy", "JobOutcome", "SweepReport", "SweepError", "FaultPlan",
    "sweep_report",
    # registries
    "available_prefetchers", "available_predictors",
    "make_prefetcher", "make_predictor",
    # workloads
    "make_trace", "select_workload_names",
    # execution
    "run", "sweep",
    "SimulationResult", "simulate_trace", "simulate_stream",
    # reporting
    "REPORT_SCHEMA_VERSION", "FigureResult", "figure_ids", "get_figure",
    "report",
    # simulation as a service
    "SimService", "ServiceDaemon", "ServiceClient", "ServiceError", "serve",
]


def run(config: Optional[SystemConfig] = None, *,
        workload: Optional[str] = None,
        accesses: int = 20000,
        overrides: Optional[Mapping[str, Any]] = None) -> SimulationResult:
    """Run one simulation and return its :class:`SimulationResult`.

    ``config`` defaults to a fresh :class:`SystemConfig`; ``overrides``
    are dotted-path overrides applied on top.  ``workload`` is a
    catalogue name or a trace file path (both resolve through
    :func:`repro.workloads.suite.make_trace`).
    """
    if workload is None:
        raise ValueError("run() needs a workload name or trace file path")
    config = config if config is not None else SystemConfig()
    if overrides:
        config = apply_overrides(config, overrides)
    return simulate_trace(config, make_trace(workload, accesses))


def sweep(spec: Union[ExperimentSpec, SweepSpec, Sequence[SimJob]], *,
          parallel: bool = False,
          max_workers: Optional[int] = None,
          cache_dir: Optional[Union[str, Path]] = None,
          retries: int = 0,
          retry_delay: float = 0.0,
          timeout: Optional[float] = None,
          on_error: str = "raise") -> Any:
    """Run a sweep through the job runner (cache + chosen backend).

    Accepts an :class:`ExperimentSpec` (returns ``{label:
    [per-workload results]}``, the ``run_matrix`` shape), a
    :class:`SweepSpec` (returns its reduced value) or a plain job list
    (returns results in job order).  ``parallel`` fans the whole matrix
    over a process pool; ``cache_dir`` memoises finished jobs on disk
    keyed by config content — each job the moment it completes, so an
    interrupted sweep resumes from its last finished job when re-run
    against the same directory.

    Failure handling: each job gets ``1 + retries`` attempts with
    ``retry_delay``-seconded exponential backoff and an optional
    per-attempt ``timeout`` (seconds).  Jobs that exhaust their budget
    raise :class:`SweepError` (default) or, with ``on_error="skip"``,
    leave ``None`` in their result slots; use :func:`sweep_report` to
    also get the per-job :class:`SweepReport` ledger.
    """
    runner = ExperimentSetup(parallel=parallel, max_workers=max_workers,
                             result_cache_dir=cache_dir, retries=retries,
                             retry_delay=retry_delay, timeout=timeout,
                             on_error=on_error).runner()
    return runner.run_sweep(_as_plan(spec))


def sweep_report(spec: Union[ExperimentSpec, SweepSpec, Sequence[SimJob]], *,
                 parallel: bool = False,
                 max_workers: Optional[int] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 retries: int = 0,
                 retry_delay: float = 0.0,
                 timeout: Optional[float] = None,
                 on_error: str = "skip") -> "tuple[List[Any], SweepReport]":
    """Like :func:`sweep`, but returns ``(results, SweepReport)``.

    Results come back flat in job order (an :class:`ExperimentSpec` is
    expanded via its ``jobs()``; reshape with ``spec.group`` if every
    job succeeded), with ``None`` holes for failed jobs; the report
    accounts for every job's status, attempt count and duration —
    including cache hits.  Defaults to ``on_error="skip"`` because
    callers asking for the ledger want to inspect partial results, not
    catch exceptions.
    """
    runner = ExperimentSetup(parallel=parallel, max_workers=max_workers,
                             result_cache_dir=cache_dir, retries=retries,
                             retry_delay=retry_delay, timeout=timeout,
                             on_error=on_error).runner()
    plan = _as_plan(spec)
    return runner.run_report(plan.jobs, name=plan.name)


def _as_plan(spec: Union[ExperimentSpec, SweepSpec, Sequence[SimJob]]
             ) -> SweepSpec:
    """Any sweep input as one plan; an ExperimentSpec reduces by ``group``."""
    if isinstance(spec, SweepSpec):
        return spec
    if isinstance(spec, ExperimentSpec):
        return SweepSpec(spec.name, spec.jobs(), spec.group)
    return SweepSpec("sweep", list(spec))


def serve(*, host: str = "127.0.0.1", port: int = 0,
          cache_dir: Optional[Union[str, Path]] = None,
          max_workers: Optional[int] = None,
          retries: int = 0,
          retry_delay: float = 0.0,
          timeout: Optional[float] = None) -> ServiceDaemon:
    """Start an in-process simulation daemon (CLI: ``repro serve``).

    Returns the started :class:`ServiceDaemon` — its HTTP server is
    already accepting requests on a background thread; read the bound
    address from ``.url`` (``port=0`` binds an ephemeral port) and stop
    it with ``.shutdown()`` + ``.close()``::

        daemon = api.serve(cache_dir="cache/")
        client = api.ServiceClient(daemon.url)
        ...
        daemon.shutdown(); daemon.close()

    The keywords mirror ``repro serve``: jobs get ``1 + retries``
    attempts with exponential backoff and an optional per-job
    wall-clock ``timeout``; with ``cache_dir`` completed jobs survive
    daemon restarts.
    """
    service = SimService(cache_dir=cache_dir, max_workers=max_workers,
                         retry_policy=RetryPolicy.from_retries(
                             retries, retry_delay, timeout))
    daemon = ServiceDaemon(service, host=host, port=port)
    daemon.start()
    return daemon


def report(figures: Optional[Sequence[str]] = None, *,
           out_dir: Union[str, Path] = "report",
           parallel: bool = False,
           max_workers: Optional[int] = None,
           cache_dir: Optional[Union[str, Path]] = None,
           accesses: Optional[int] = None,
           per_category: Optional[int] = None,
           categories: Optional[Sequence[str]] = None,
           formats: Optional[Sequence[str]] = None) -> Any:
    """Generate a paper-report artifact directory (CLI: ``repro report``).

    ``figures`` is a list of figure ids (``api.figure_ids()`` lists
    them; ``None`` = all, an empty list is an error).  The sizing and
    execution keywords mirror the CLI flags of the same names.
    Returns the :class:`~repro.report.generate.ReportSummary` with
    per-figure artifact paths and the result-cache hit/miss counters.
    """
    from repro.report.generate import generate_report
    setup = ExperimentSetup(parallel=parallel, max_workers=max_workers,
                            result_cache_dir=cache_dir)
    if accesses is not None:
        setup.num_accesses = accesses
    if per_category is not None:
        setup.per_category = per_category
    if categories is not None:
        setup.categories = list(categories)
    return generate_report(figures, out_dir=out_dir, setup=setup,
                           formats=formats)
