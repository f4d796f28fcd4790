"""Pluggable execution backends with per-job fault isolation.

A backend turns a job list into per-job :class:`~repro.runner.status.JobOutcome`
records (``run_outcomes``).  Both backends are deterministic:
jobs carry seeds, workers rebuild traces from those seeds, so
:class:`SerialBackend` and :class:`ProcessPoolBackend` produce
bit-identical results.

The pool backend submits **one future per job** (never ``pool.map``):
each job fails, times out and retries independently, so one poisoned
cell costs one cell, not the sweep.  Submission is bounded by an
in-flight window (``workers * window_per_worker``) — large enough to
keep every worker fed, small enough that a retry or a pool replacement
requeues a handful of jobs instead of a worker-count-sized chunk
(head-of-line blocking and blast radius both scale with the window,
which is why the old throughput-oriented ``chunksize`` batching is
gone).  A ``BrokenProcessPool`` (worker OOM-killed, ``os._exit``, ...)
replaces the pool and requeues only the jobs that were actually in
flight; queued jobs never notice.  Because the parent cannot tell
*which* in-flight job killed the pool, the requeued jobs are treated as
suspects and re-run one at a time: a break during a solo run
definitively identifies the crasher, which alone is charged attempts —
innocent cohort members are never exhausted by a neighbour's crashes.
"""

from __future__ import annotations

import heapq
import os
import time
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.runner.execute import run_job_attempt
from repro.runner.job import SimJob
from repro.runner.status import JobOutcome, JobTimeoutError, RetryPolicy

#: Callback fired in the parent the moment one job reaches a terminal
#: outcome (in completion order, not job order) — the checkpoint hook.
CompletionFn = Callable[[SimJob, JobOutcome], None]

#: Every backend name ``make_backend`` resolves (the CLI choices list).
BACKEND_NAMES = ("serial", "process-pool", "distributed")


def make_backend(name: str, *, max_workers: Optional[int] = None,
                 shared_dir: Optional[Union[str, Path]] = None,
                 lease_ttl: Optional[float] = None) -> "ExecutionBackend":
    """Resolve a backend by name: the one map from name to backend class.

    ``ExperimentSetup.runner()`` resolves every sweep's backend here.
    ``max_workers`` applies to ``process-pool``; ``shared_dir`` (the
    shared cache directory) and ``lease_ttl`` to ``distributed``.  The
    distributed import stays lazy so ``--help`` and the local backends
    never pay for it.
    """
    if name == "serial":
        return SerialBackend()
    if name == "process-pool":
        return ProcessPoolBackend(max_workers=max_workers)
    if name == "distributed":
        if shared_dir is None:
            raise ValueError("the distributed backend needs a shared cache "
                             "directory (--cache-dir SHARED)")
        from repro.runner.distributed import DistributedBackend
        return DistributedBackend(shared_dir, lease_ttl=lease_ttl)
    raise ValueError(f"unknown backend {name!r}; "
                     f"expected one of {BACKEND_NAMES}")


class ExecutionBackend(ABC):
    """Maps jobs to per-job outcomes."""

    name: str = "abstract"

    @abstractmethod
    def run_outcomes(self, jobs: Sequence[SimJob], keys: Sequence[str],
                     policy: Optional[RetryPolicy] = None,
                     on_complete: Optional[CompletionFn] = None,
                     ) -> List[JobOutcome]:
        """Execute every job, returning one outcome per job in job order.

        ``keys`` are the jobs' keys (:func:`~repro.runner.job.job_keys`),
        which the caller already holds; a backend never keys a job.
        Each job runs in isolation under ``policy`` (a default
        :class:`RetryPolicy` when ``None``) until it reaches a terminal
        outcome; ``on_complete`` fires as each one does.
        """


def _attempt_loop(index: int, key: str, job: SimJob,
                  policy: RetryPolicy) -> JobOutcome:
    """Run one job in-process under ``policy`` until terminal.

    The serial analogue of the pool driver: same retry/backoff/timeout
    semantics, same outcome vocabulary.
    """
    started = time.perf_counter()
    attempt = 0
    while True:
        attempt += 1
        try:
            result = run_job_attempt(job, attempt, policy.timeout)
        except JobTimeoutError as exc:
            kind, error = "timeout", str(exc)
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            kind, error = "failed", f"{type(exc).__name__}: {exc}"
        else:
            return JobOutcome(index=index, key=key, status="ok",
                              attempts=attempt,
                              duration_s=time.perf_counter() - started,
                              result=result)
        if attempt >= policy.max_attempts:
            return JobOutcome(index=index, key=key, status=kind,
                              attempts=attempt,
                              duration_s=time.perf_counter() - started,
                              error=error)
        delay = policy.delay_for(attempt)
        if delay > 0:
            time.sleep(delay)


class SerialBackend(ExecutionBackend):
    """In-process, one-at-a-time execution (the deterministic default)."""

    name = "serial"

    def run_outcomes(self, jobs: Sequence[SimJob], keys: Sequence[str],
                     policy: Optional[RetryPolicy] = None,
                     on_complete: Optional[CompletionFn] = None,
                     ) -> List[JobOutcome]:
        policy = policy or RetryPolicy()
        outcomes: List[JobOutcome] = []
        for index, (key, job) in enumerate(zip(keys, jobs)):
            outcome = _attempt_loop(index, key, job, policy)
            outcomes.append(outcome)
            if on_complete is not None:
                on_complete(job, outcome)
        return outcomes


class ProcessPoolBackend(ExecutionBackend):
    """Fan jobs out over a ``concurrent.futures`` process pool.

    Jobs are pickled to the workers, which rebuild configs, traces and
    predictors locally; ``max_workers=None`` uses every CPU.  Single-job
    batches (and ``max_workers=1``) skip the pool entirely.  See the
    module docstring for the failure model.
    """

    name = "process-pool"

    #: In-flight futures per worker.  >1 keeps workers fed while the
    #: parent harvests; small keeps the requeue set on pool failure.
    window_per_worker = 2

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers

    def run_outcomes(self, jobs: Sequence[SimJob], keys: Sequence[str],
                     policy: Optional[RetryPolicy] = None,
                     on_complete: Optional[CompletionFn] = None,
                     ) -> List[JobOutcome]:
        jobs = list(jobs)
        policy = policy or RetryPolicy()
        if not jobs:
            return []
        workers = min(self.max_workers or os.cpu_count() or 1, len(jobs))
        if workers <= 1 or len(jobs) <= 1:
            return SerialBackend().run_outcomes(jobs, keys, policy,
                                                on_complete)
        driver = _PoolDriver(jobs, list(keys), policy, workers,
                             window=workers * self.window_per_worker,
                             on_complete=on_complete)
        return driver.run()


class _PoolDriver:
    """One ``run_outcomes`` call over a (replaceable) process pool.

    Holds the mutable scheduling state — the ready queue, the backoff
    heap, the in-flight map — so the backend object itself stays
    stateless and reusable.
    """

    #: Seconds past the in-worker deadline before the parent declares a
    #: worker lost and replaces the pool (the backstop for platforms or
    #: payloads where SIGALRM cannot fire).
    GRACE = 5.0

    def __init__(self, jobs: List[SimJob], keys: List[str],
                 policy: RetryPolicy, workers: int, window: int,
                 on_complete: Optional[CompletionFn]) -> None:
        self.jobs = jobs
        self.keys = keys
        self.policy = policy
        self.workers = workers
        self.window = max(window, workers)
        self.on_complete = on_complete
        self.outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        #: (index, attempt) pairs eligible for immediate submission.
        self.ready: deque = deque((i, 1) for i in range(len(jobs)))
        #: Pool-break victims awaiting solo re-runs for attribution:
        #: (index, attempt) — attempt unchanged, they were not charged.
        self.suspects: deque = deque()
        #: Backoff heap of (ready_at, index, attempt).
        self.delayed: List[Tuple[float, int, int]] = []
        #: future -> (index, attempt, lost_deadline, solo) for
        #: submitted work; ``solo`` marks a suspect attribution run.
        self.in_flight: Dict[Future, Tuple[int, int, Optional[float], bool]] = {}
        self.first_started: Dict[int, float] = {}
        self.pool: Optional[ProcessPoolExecutor] = None
        self.pool_broken = False

    # ------------------------------------------------------------------ #
    # Driving loop
    # ------------------------------------------------------------------ #

    def run(self) -> List[JobOutcome]:
        self.pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            while (self.ready or self.suspects or self.delayed
                   or self.in_flight):
                self._promote_delayed()
                self._fill_window()
                if not self.in_flight:
                    # Everything is backing off; sleep until the first
                    # retry matures.
                    pause = max(0.0, self.delayed[0][0] - time.monotonic())
                    time.sleep(min(pause, 0.5) if pause else 0.01)
                    continue
                done, _ = wait(set(self.in_flight), timeout=self._tick(),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    self._harvest(future, *self.in_flight.pop(future))
                self._reap_lost_workers()
        finally:
            self.pool.shutdown(wait=False, cancel_futures=True)
        assert all(outcome is not None for outcome in self.outcomes)
        return list(self.outcomes)  # type: ignore[arg-type]

    def _fill_window(self) -> None:
        if self.suspects:
            # Attribution mode: drain the pool, then run exactly one
            # suspect with nothing else in flight — if the pool breaks
            # now, the culprit is known.
            if self.in_flight:
                return
            self._submit(*self.suspects.popleft(), solo=True)
            return
        while self.ready and len(self.in_flight) < self.window:
            if not self._submit(*self.ready.popleft(), solo=False):
                return

    def _submit(self, index: int, attempt: int, solo: bool) -> bool:
        if self.pool_broken:
            self.pool.shutdown(wait=False, cancel_futures=True)
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
            self.pool_broken = False
        now = time.monotonic()
        self.first_started.setdefault(index, now)
        lost_at = (now + self.policy.timeout + self._grace()
                   if self.policy.timeout is not None else None)
        try:
            future = self.pool.submit(run_job_attempt, self.jobs[index],
                                      attempt, self.policy.timeout)
        except BrokenProcessPool:
            # Pool died between harvest and submit: requeue this job
            # unharmed and let the next pass rebuild the pool.
            target = self.suspects if solo else self.ready
            target.appendleft((index, attempt))
            self.pool_broken = True
            return False
        self.in_flight[future] = (index, attempt, lost_at, solo)
        return True

    def _promote_delayed(self) -> None:
        now = time.monotonic()
        while self.delayed and self.delayed[0][0] <= now:
            _, index, attempt = heapq.heappop(self.delayed)
            self.ready.append((index, attempt))

    def _tick(self) -> Optional[float]:
        """How long ``wait`` may block before scheduling work exists."""
        horizons = []
        if self.delayed:
            horizons.append(self.delayed[0][0])
        if self.policy.timeout is not None:
            horizons.extend(lost_at
                            for _, _, lost_at, _ in self.in_flight.values()
                            if lost_at is not None)
        if not horizons:
            return None
        return max(0.01, min(horizons) - time.monotonic() + 0.01)

    def _grace(self) -> float:
        return max(self.GRACE, self.policy.timeout or 0.0)

    # ------------------------------------------------------------------ #
    # Outcome handling
    # ------------------------------------------------------------------ #

    def _harvest(self, future: Future, index: int, attempt: int,
                 lost_at: Optional[float], solo: bool) -> None:
        try:
            result = future.result()
        except JobTimeoutError as exc:
            self._attempt_failed(index, attempt, "timeout", str(exc))
        except BrokenProcessPool:
            self.pool_broken = True
            if solo:
                # Nothing else was in flight: this job's worker died, so
                # this job is the crasher — charge it, retry it solo.
                self._attempt_failed(
                    index, attempt, "failed",
                    "worker process died mid-job (BrokenProcessPool); "
                    "pool replaced", requeue_solo=True)
            else:
                # Some in-flight sibling killed the pool and poisoned
                # this future too; the culprit is unknowable from here.
                # Requeue uncharged as a suspect — the solo re-runs
                # attribute the crash without exhausting innocents.
                self.suspects.append((index, attempt))
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            self._attempt_failed(index, attempt, "failed",
                                 f"{type(exc).__name__}: {exc}")
        else:
            self._finish(JobOutcome(
                index=index, key=self.keys[index], status="ok",
                attempts=attempt, duration_s=self._elapsed(index),
                result=result))

    def _attempt_failed(self, index: int, attempt: int, kind: str,
                        error: str, requeue_solo: bool = False) -> None:
        if attempt < self.policy.max_attempts:
            delay = self.policy.delay_for(attempt)
            if requeue_solo:
                # A proven crasher re-runs alone: letting it back into
                # the shared window would take innocents down with it
                # on its next crash.
                self.suspects.append((index, attempt + 1))
            elif delay > 0:
                heapq.heappush(self.delayed,
                               (time.monotonic() + delay, index, attempt + 1))
            else:
                self.ready.append((index, attempt + 1))
            return
        self._finish(JobOutcome(
            index=index, key=self.keys[index], status=kind, attempts=attempt,
            duration_s=self._elapsed(index), error=error))

    def _finish(self, outcome: JobOutcome) -> None:
        self.outcomes[outcome.index] = outcome
        if self.on_complete is not None:
            self.on_complete(self.jobs[outcome.index], outcome)

    def _elapsed(self, index: int) -> float:
        return time.monotonic() - self.first_started[index]

    def _reap_lost_workers(self) -> None:
        """Backstop: abandon futures far past their in-worker deadline.

        Normally the SIGALRM inside the worker turns a hang into a
        harvestable :class:`JobTimeoutError` at ``timeout`` seconds; a
        future still running ``GRACE`` seconds later means the worker is
        truly wedged (signal lost, uninterruptible syscall).  The wedged
        job is charged a timeout attempt; its in-flight siblings are
        requeued *without* an attempt charge (the pool replacement, not
        their code, interrupted them); the old pool is abandoned.
        """
        now = time.monotonic()
        breached = [future
                    for future, (_, _, lost_at, _) in self.in_flight.items()
                    if lost_at is not None and now > lost_at]
        if not breached:
            return
        for future in breached:
            index, attempt, _, _ = self.in_flight.pop(future)
            self._attempt_failed(
                index, attempt, "timeout",
                f"worker unresponsive {self._grace():g}s past the "
                f"{self.policy.timeout:g}s timeout; pool replaced")
        for future in list(self.in_flight):
            index, attempt, _, solo = self.in_flight.pop(future)
            if solo:
                self.suspects.appendleft((index, attempt))
            else:
                self.ready.appendleft((index, attempt))
        self.pool_broken = True
