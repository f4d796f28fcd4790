"""Shared experiment scaffolding, built on the runner subsystem.

Every paper figure and table is one plan.  Its ``plan_*`` function
declares the sweep as a :class:`~repro.runner.job.SweepSpec`: the
:class:`SimJob` list (mostly via :func:`plan_matrix`; none for the
closed-form tables) and the reducer that turns the jobs' results into
the payload.  Its ``run_*`` runner is derived from the plan by
:func:`runner_for`, and ``repro report`` runs the plans of every
requested figure as one batch.  The :class:`ExperimentSetup` decides
how jobs execute — serially by default, or fanned out over a process
pool with ``parallel=True``, optionally memoised on disk with
``result_cache_dir``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runner import (
    ExecutionBackend,
    JobRunner,
    PredictorSpec,
    ProcessPoolBackend,
    ResultCache,
    RetryPolicy,
    SerialBackend,
    SimJob,
    SweepSpec,
    jobs_for_suite,
)
from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.workloads.suite import CATEGORIES, select_workload_names

#: A matrix entry: a configuration, optionally paired with a predictor
#: recipe for experiments that inject custom-feature POPET variants.
ConfigEntry = Union[SystemConfig, Tuple[SystemConfig, Optional[PredictorSpec]]]


@dataclass
class ExperimentSetup:
    """Sizing and execution knobs shared by every experiment runner.

    The sizing defaults are deliberately small so the full benchmark
    harness runs in minutes; increase ``num_accesses`` and
    ``per_category`` for a fuller sweep (the paper's shapes already
    emerge at the defaults).  ``parallel=True`` runs each sweep's jobs
    over a process pool (``max_workers`` bounds the pool) with results
    bit-identical to the serial default; ``result_cache_dir`` memoises
    finished jobs on disk across runs.
    """

    num_accesses: int = 10000
    per_category: Optional[int] = 2
    categories: Sequence[str] = field(default_factory=lambda: list(CATEGORIES))
    parallel: bool = False
    max_workers: Optional[int] = None
    result_cache_dir: Optional[Union[str, Path]] = None
    #: Resilience knobs, threaded into every runner this setup builds:
    #: ``retries`` extra attempts per job (0 = fail fast), with
    #: ``retry_delay``-seconded exponential backoff and an optional
    #: per-attempt ``timeout``; ``on_error="skip"`` returns None result
    #: slots for exhausted jobs instead of raising SweepError.
    retries: int = 0
    retry_delay: float = 0.0
    timeout: Optional[float] = None
    on_error: str = "raise"

    def workload_names(self) -> List[str]:
        """The evaluation workload names for this setup, in suite order.

        Delegates to :func:`repro.workloads.suite.select_workload_names`
        — the one selection rule shared with :func:`workload_suite` and
        spec files.
        """
        return select_workload_names(categories=self.categories,
                                     per_category=self.per_category)

    def make_backend(self) -> ExecutionBackend:
        if self.parallel:
            return ProcessPoolBackend(max_workers=self.max_workers)
        return SerialBackend()

    def retry_policy(self) -> RetryPolicy:
        """The per-job attempt budget/backoff/timeout for this setup."""
        return RetryPolicy(max_attempts=self.retries + 1,
                           base_delay=self.retry_delay,
                           timeout=self.timeout)

    def runner(self) -> JobRunner:
        """A job runner honouring this setup's current execution knobs.

        Built fresh per call (construction is trivial; pools are created
        per batch), so mutating ``parallel``/``max_workers``/
        ``result_cache_dir`` between sweeps takes effect immediately.
        """
        cache = (ResultCache(self.result_cache_dir)
                 if self.result_cache_dir is not None else None)
        return JobRunner(backend=self.make_backend(), result_cache=cache,
                         retry_policy=self.retry_policy(),
                         on_error=self.on_error)

    def jobs(self, config: SystemConfig,
             predictor_spec: Optional[PredictorSpec] = None) -> List[SimJob]:
        """One single-core job per suite workload under ``config``."""
        return jobs_for_suite(config, self.workload_names(),
                              self.num_accesses, predictor_spec)


#: Results grouped by configuration label (what ``run_matrix`` returns).
Grouped = Dict[str, List[SimulationResult]]

#: A matrix plan's reducer, over its grouped results.
MatrixReducer = Callable[[Grouped], Any]


def plan_matrix(name: str, setup: ExperimentSetup,
                configs: Mapping[str, ConfigEntry],
                reduce: MatrixReducer) -> SweepSpec:
    """Plan several configurations over the setup's suite, keyed by label.

    The plan holds one job per (config x workload), label by label, and
    its reducer hands ``reduce`` the results grouped by label.
    """
    jobs: List[SimJob] = []
    spans: Dict[str, Tuple[int, int]] = {}
    for label, entry in configs.items():
        config, spec = entry if isinstance(entry, tuple) else (entry, None)
        start = len(jobs)
        jobs.extend(setup.jobs(config, spec))
        spans[label] = (start, len(jobs))

    def reducer(results: List[Any]) -> Any:
        return reduce({label: results[start:end]
                       for label, (start, end) in spans.items()})

    return SweepSpec(name=name, jobs=jobs, reducer=reducer)


def run_plan(setup: Optional[ExperimentSetup], plan: SweepSpec) -> Any:
    """Run a plan's jobs through the setup's runner and reduce them."""
    return (setup or ExperimentSetup()).runner().run_sweep(plan)


def runner_for(plan: Callable[..., SweepSpec]) -> Callable[..., Any]:
    """The runner of a ``plan_*`` function: the plan, run and reduced.

    The runner takes exactly the plan's parameters (its
    ``__signature__`` is the plan's), finds ``setup`` wherever the
    caller passed it, returns ``run_plan(setup, plan(...))`` and keeps
    the plan as its ``plan`` attribute::

        run_fig05_offchip_rate = runner_for(plan_fig05_offchip_rate)
    """
    signature = inspect.signature(plan)

    def run(*args: Any, **kwargs: Any) -> Any:
        setup = signature.bind(*args, **kwargs).arguments.get("setup")
        return run_plan(setup, plan(*args, **kwargs))

    run.__name__ = run.__qualname__ = "run_" + plan.__name__[len("plan_"):]
    run.__module__ = plan.__module__
    run.__doc__ = f"The payload of :func:`{plan.__name__}`, run and reduced."
    run.__signature__ = signature.replace(return_annotation=Any)
    run.plan = plan
    return run


def run_matrix(setup: ExperimentSetup,
               configs: Mapping[str, ConfigEntry]) -> Grouped:
    """Run several configurations over the setup's suite, keyed by label.

    All (config x workload) jobs are submitted to the backend as one
    batch, so a process pool parallelises across the whole matrix, not
    just within one configuration.
    """
    return run_plan(setup, plan_matrix("matrix", setup, configs,
                                       lambda grouped: grouped))
