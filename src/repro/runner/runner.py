"""The job runner: caches in front of a pluggable execution backend."""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runner.backends import ExecutionBackend, SerialBackend
from repro.runner.cache import ResultCache
from repro.runner.job import SimJob, SweepSpec, job_keys
from repro.runner.status import JobOutcome, RetryPolicy, SweepError, SweepReport

#: Accepted partial-result policies.
ON_ERROR_MODES = ("raise", "skip")


class JobRunner:
    """Executes job lists, consulting the result cache before the backend.

    Each batch is keyed once (:func:`~repro.runner.job.job_keys`); the
    keys serve the cache lookups, the backend and the outcomes.  Jobs
    that share a key are looked up and executed once: the first index
    holding the key gets the outcome, and every other index is served
    that result as a cached outcome with no attempts.  Cache hits never
    reach the backend; the distinct misses go to the backend as one
    batch (so a process pool sees the whole remaining sweep at once) —
    but each result is **checkpointed to the cache, under its outcome's
    key, the moment its job completes**, not when the batch returns.
    Kill the process mid-sweep and every finished job survives:
    re-running the same sweep executes only the missing jobs.  Results
    always come back in job order.

    ``retry_policy`` sets the per-job attempt budget / backoff / timeout
    the backend enforces; ``on_error`` decides what a sweep with failed
    jobs does — ``"raise"`` (default) raises :class:`SweepError` *after*
    every job has reached a terminal outcome (so the checkpointed work
    is never lost to one bad cell), ``"skip"`` returns ``None`` in the
    failed jobs' result slots and lets the caller consult the
    :class:`SweepReport` for what is missing.
    """

    def __init__(self, backend: Optional[ExecutionBackend] = None,
                 result_cache: Optional[ResultCache] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 on_error: str = "raise") -> None:
        if on_error not in ON_ERROR_MODES:
            raise ValueError(f"on_error must be one of {ON_ERROR_MODES}, "
                             f"got {on_error!r}")
        self.backend = backend or SerialBackend()
        self.result_cache = result_cache
        self.retry_policy = retry_policy
        self.on_error = on_error

    def run(self, jobs: Sequence[SimJob]) -> List[Any]:
        """Results in job order (``None`` holes under ``on_error="skip"``)."""
        return self.run_report(jobs)[0]

    def run_report(self, jobs: Sequence[SimJob],
                   name: str = "sweep") -> Tuple[List[Any], SweepReport]:
        """Run ``jobs`` and return (results, per-job outcome report).

        The report accounts for every job: cache hits appear as ``ok``
        outcomes with ``cached=True`` and zero attempts, executed jobs
        carry their attempt counts and durations.  A job's key captures
        a trace file's identity (size and mtime) at the moment the
        batch is keyed.
        """
        jobs = list(jobs)
        results: List[Any] = [None] * len(jobs)
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        indices_for: Dict[str, List[int]] = {}
        for index, key in enumerate(job_keys(jobs)):
            indices_for.setdefault(key, []).append(index)
        pending_keys: List[str] = []
        for key, indices in indices_for.items():
            cached = (self.result_cache.get(key)
                      if self.result_cache is not None else None)
            if cached is None:
                pending_keys.append(key)
                continue
            for index in indices:
                results[index] = cached
                outcomes[index] = JobOutcome(
                    index=index, key=key, status="ok", attempts=0,
                    cached=True, result=cached)

        if pending_keys:
            def checkpoint(job: SimJob, outcome: JobOutcome) -> None:
                # Fires in the parent the moment one job finishes — the
                # incremental durability point a mid-sweep crash rewinds
                # to, never further.
                if outcome.ok and self.result_cache is not None:
                    self.result_cache.put(outcome.key, outcome.result)

            pending = [jobs[indices_for[key][0]] for key in pending_keys]
            computed = self.backend.run_outcomes(pending, pending_keys,
                                                 self.retry_policy,
                                                 on_complete=checkpoint)
            for key, outcome in zip(pending_keys, computed):
                # The backend indexed the sub-batch; re-index per job.
                first, *repeats = indices_for[key]
                outcomes[first] = dataclasses.replace(outcome, index=first)
                results[first] = outcome.result
                for index in repeats:
                    outcomes[index] = dataclasses.replace(
                        outcome, index=index, attempts=0, duration_s=0.0,
                        cached=outcome.ok)
                    results[index] = outcome.result

        report = SweepReport(name=name, outcomes=list(outcomes))
        if report.failures and self.on_error == "raise":
            raise SweepError(report)
        return results, report

    def run_sweep(self, spec: SweepSpec) -> Any:
        """Execute a sweep's jobs and apply its reducer."""
        return spec.reduce(self.run_report(spec.jobs, spec.name)[0])
