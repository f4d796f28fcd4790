"""The coordinator side: ``ExecutionBackend`` over the shared queue.

:class:`DistributedBackend` implements the standard
:meth:`~repro.runner.backends.ExecutionBackend.run_outcomes` contract,
so :class:`~repro.runner.runner.JobRunner` (and therefore ``repro
sweep``) drives it exactly like the serial and process-pool backends:
cache-first, per-job outcomes in job order, checkpoint callback as each
job lands.  The difference is *who executes*: the coordinator publishes
the pending matrix to the work queue and then harvests terminal
records, while any number of ``repro worker`` processes — started
before, during, or after the sweep — drain it cooperatively.

By default the coordinator also **participates**: between harvest
passes it steps an embedded :class:`~repro.runner.distributed.worker.
WorkerLoop` one key at a time (on the main thread, so the SIGALRM
per-attempt deadline works).  A solo ``--backend distributed`` sweep
therefore completes with no external workers at all, and external
workers only ever make it faster.  ``participate=False`` turns the
coordinator into a pure overseer — the test battery uses that to
exercise worker fleets in isolation.

Harvesting is where results are *verified*: an ``ok`` done record is
only believed once the payload reads back through the checksummed
cache.  A read that fails verification (torn write, bit flip) has the
entry quarantined as a side effect; the coordinator then retracts the
done record and reenqueues the key with a bumped attempt, so the
re-run is a fresh attempt and attempt-gated faults converge.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.runner.backends import CompletionFn, ExecutionBackend
from repro.runner.cache import ResultCache
from repro.runner.distributed.queue import (
    DEFAULT_LEASE_TTL,
    DoneRecord,
    QueueJobRecord,
    WorkQueue,
)
from repro.runner.distributed.worker import WorkerLoop, make_owner_id
from repro.runner.job import SimJob
from repro.runner.status import JobOutcome, RetryPolicy


class DistributedBackend(ExecutionBackend):
    """Publish jobs to a shared queue; harvest verified outcomes.

    ``shared_dir`` is the sweep's shared directory — the flat result
    cache at its root, the same layout every local sweep writes, plus
    the ``queue/`` protocol state.  ``lease_ttl`` seconds of missed
    heartbeats mark a worker dead; the value is fixed in the queue's
    on-disk META by whoever creates it first, so every participant
    ages leases identically.
    """

    name = "distributed"

    def __init__(self, shared_dir: Union[str, Path],
                 lease_ttl: Optional[float] = None,
                 participate: bool = True,
                 poll_interval_s: float = 0.05) -> None:
        self.shared_dir = Path(shared_dir)
        self.lease_ttl = (DEFAULT_LEASE_TTL if lease_ttl is None
                          else float(lease_ttl))
        self.participate = participate
        self.poll_interval_s = poll_interval_s

    def run_outcomes(self, jobs: Sequence[SimJob], keys: Sequence[str],
                     policy: Optional[RetryPolicy] = None,
                     on_complete: Optional[CompletionFn] = None,
                     ) -> List[JobOutcome]:
        jobs = list(jobs)
        policy = policy or RetryPolicy()
        if not jobs:
            return []
        cache = ResultCache(self.shared_dir)
        queue = WorkQueue(self.shared_dir / "queue",
                          lease_ttl=self.lease_ttl)
        # Duplicate jobs in one matrix share a key and therefore one
        # execution; each index still gets its own outcome row.
        indices_for: Dict[str, List[int]] = {}
        job_for: Dict[str, SimJob] = {}
        for index, (key, job) in enumerate(zip(keys, jobs)):
            indices_for.setdefault(key, []).append(index)
            job_for.setdefault(key, job)
        for key, job in job_for.items():
            queue.publish(QueueJobRecord(key=key, attempt=1,
                                         job=job.to_dict()))
        inline = WorkerLoop(self.shared_dir,
                            owner=make_owner_id("coordinator"),
                            policy=policy, lease_ttl=self.lease_ttl,
                            poll_interval_s=self.poll_interval_s)
        outcomes: List[Optional[JobOutcome]] = [None] * len(jobs)
        unresolved = set(job_for)
        try:
            while unresolved:
                self._harvest(queue, cache, indices_for, unresolved, jobs,
                              outcomes, on_complete)
                if not unresolved:
                    break
                worked = inline.step_once() if self.participate else False
                if not worked:
                    # Nothing claimable right now: external workers hold
                    # the remaining leases (or their leases are aging
                    # toward a steal).  Wait for done records.
                    time.sleep(self.poll_interval_s)
        finally:
            # Closing tells idle external workers the sweep is over.  On
            # an abnormal exit (^C) pending keys may remain; workers
            # drain those first — close gates *idle* exit only.
            queue.close()
        assert all(outcome is not None for outcome in outcomes)
        return list(outcomes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # Harvesting
    # ------------------------------------------------------------------ #

    def _harvest(self, queue: WorkQueue, cache: ResultCache,
                 indices_for: Dict[str, List[int]],
                 unresolved: set,
                 jobs: List[SimJob],
                 outcomes: List[Optional[JobOutcome]],
                 on_complete: Optional[CompletionFn]) -> None:
        for key, record in queue.done_records().items():
            if key not in unresolved:
                continue
            if record.status == "ok":
                result = cache.get(key)
                if result is None:
                    # The done record promised a payload the checksummed
                    # read cannot serve — the get() just quarantined the
                    # torn entry.  Retract and re-run as a new attempt.
                    queue.reenqueue(key, max(record.attempts, 1) + 1)
                    continue
            else:
                result = None
            unresolved.discard(key)
            for index in indices_for[key]:
                outcome = self._outcome(index, key, record, result)
                outcomes[index] = outcome
                if on_complete is not None:
                    on_complete(jobs[index], outcome)

    @staticmethod
    def _outcome(index: int, key: str, record: DoneRecord,
                 result: Any) -> JobOutcome:
        return JobOutcome(index=index, key=key, status=record.status,
                          attempts=record.attempts,
                          duration_s=record.duration_s,
                          error=record.error,
                          cached=record.cached,
                          result=result,
                          worker=record.worker)
