"""Parallel experiment orchestration.

This package turns the paper's figure sweeps into declarative job
lists executed through pluggable backends with two cache layers:

* :class:`~repro.runner.job.SimJob` / :class:`~repro.runner.job.SweepSpec`
  — one job is (SystemConfig, workload name(s), num_accesses, mode); a
  figure is a list of jobs plus a reducer.  A workload "name" may also
  be an external trace file path in any format registered with
  :mod:`repro.workloads.formats`.
* :class:`~repro.runner.backends.SerialBackend` and
  :class:`~repro.runner.backends.ProcessPoolBackend` — bit-identical
  results, the latter fanning jobs out over worker processes.
* :class:`~repro.runner.cache.ResultCache` — optional on-disk result
  memoisation keyed by a stable hash of the job spec, one flat
  ``<dir>/<key>.pkl`` layout for every cache directory (the in-process
  trace cache lives with the workload catalogue in
  :mod:`repro.workloads.suite`).
* :class:`~repro.runner.runner.JobRunner` — ties the above together.
* :class:`~repro.runner.spec.ExperimentSpec` — sweeps declared as
  TOML/JSON documents (base config + override axes + workloads),
  expanded into the same job matrices.
* :mod:`repro.runner.distributed` — multi-process cooperative sweeps
  over a shared directory (the same result cache + a file-based work
  queue);
  resolved lazily through :func:`~repro.runner.backends.make_backend`
  so local runs never import it.
* :mod:`repro.runner.delta` — spec-matrix diffs by content hash, the
  ``repro sweep --since-spec`` incremental-execution machinery.

See DESIGN.md (sections 3 and 15) for the architecture discussion.
"""

from repro.runner.backends import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.runner.cache import ResultCache
from repro.runner.delta import SpecDelta, diff_job_matrices, diff_specs
from repro.runner.execute import execute_job, run_job_attempt
from repro.runner.faults import FaultError, FaultPlan, FaultSpec
from repro.runner.job import (
    JOB_SCHEMA_VERSION,
    PredictorSpec,
    SimJob,
    SweepSpec,
    jobs_for_suite,
)
from repro.runner.runner import JobRunner
from repro.runner.spec import SPEC_VERSION, Axis, AxisPoint, ExperimentSpec
from repro.runner.status import (
    JobOutcome,
    JobTimeoutError,
    RetryPolicy,
    SweepError,
    SweepReport,
)

__all__ = [
    "JOB_SCHEMA_VERSION",
    "SPEC_VERSION",
    "SimJob",
    "SweepSpec",
    "ExperimentSpec",
    "Axis",
    "AxisPoint",
    "PredictorSpec",
    "jobs_for_suite",
    "execute_job",
    "run_job_attempt",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "ResultCache",
    "SpecDelta",
    "diff_specs",
    "diff_job_matrices",
    "JobRunner",
    "JobOutcome",
    "JobTimeoutError",
    "RetryPolicy",
    "SweepError",
    "SweepReport",
    "FaultError",
    "FaultPlan",
    "FaultSpec",
]
