"""The worker side of a distributed sweep.

A :class:`WorkerLoop` joins the shared directory, claims pending keys
one at a time under the lease protocol, executes them through the same
:func:`~repro.runner.execute.run_job_attempt` primitive as every other
backend (per-attempt SIGALRM deadline, ``REPRO_FAULTS`` injection) and
publishes results to the shared result cache plus a terminal
:class:`~repro.runner.distributed.queue.DoneRecord`.  ``repro worker
SHARED`` runs one from the shell; the coordinator embeds one (stepped
job-by-job) so a solo ``--backend distributed`` sweep completes with no
external workers at all.  A worker keys each claimed job once and
fails it if that key differs from the coordinator's: a build with
other schema versions must not file results under the coordinator's
key.

Liveness while executing comes from a daemon heartbeat thread touching
the claim's mtime every ``TTL/4``; the job itself stays on the main
thread, where the SIGALRM timeout can actually fire.  A worker killed
hard (``kill -9``, the ``die`` fault) simply stops heartbeating — its
lease ages out and any live worker steals the key with a bumped
attempt.

Two fault kinds from :mod:`repro.runner.faults` are interpreted *here*
rather than inside the attempt, because they target the distributed
protocol itself:

* ``torn-write`` — instead of executing, the worker publishes a
  half-written cache entry (valid magic, wrong checksum) and reports
  the key done: exactly the state a writer crash mid-``write()`` with a
  non-atomic filesystem would leave.  The coordinator's checksummed
  read quarantines the entry and reenqueues the key.  Gated by
  ``succeed_on``: attempts at or past it run normally, so the recovery
  converges.
* ``lease-steal`` — the worker claims the key, then abandons it without
  executing or releasing: a deterministic stand-in for "wedged after
  claim".  The lease ages out and the steal path re-runs the key with
  the attempt bumped past the gate.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.runner.cache import MAGIC, ResultCache
from repro.runner.distributed.queue import (
    DoneRecord,
    QueueJobRecord,
    WorkQueue,
)
from repro.runner.execute import run_job_attempt
from repro.runner.faults import FaultSpec, active_plan
from repro.runner.job import SimJob
from repro.runner.status import JobTimeoutError, RetryPolicy


def make_owner_id(prefix: str = "worker") -> str:
    """A collision-safe owner id: role, pid, and a random suffix.

    The pid alone is not enough — pids recycle, and the kill -9 tests
    deliberately spawn workers in quick succession.
    """
    return f"{prefix}-{os.getpid()}-{uuid.uuid4().hex[:8]}"


@dataclass
class WorkerSummary:
    """What one worker loop did, for the CLI exit line and the tests."""

    owner: str
    executed: int = 0
    cached: int = 0
    failed: int = 0
    abandoned: int = 0
    steals: int = 0
    keys: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {"owner": self.owner,
                "executed": self.executed,
                "cached": self.cached,
                "failed": self.failed,
                "abandoned": self.abandoned,
                "steals": self.steals,
                "keys": list(self.keys)}


class _Heartbeat:
    """A daemon thread refreshing one lease's mtime every ``TTL/4``."""

    def __init__(self, queue: WorkQueue, key: str, owner: str) -> None:
        self.queue = queue
        self.key = key
        self.owner = owner
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        interval = self.queue.lease_ttl / 4.0
        while not self._stop.wait(interval):
            if not self.queue.heartbeat(self.key, self.owner):
                # Lease stolen: stop touching a file that is no longer
                # ours.  The main thread finishes its (byte-identical)
                # work regardless.
                self.lost = True
                return


class WorkerLoop:
    """Claim-execute-complete until the queue closes (or goes idle).

    ``max_idle_s`` bounds how long a worker polls an open-but-empty
    queue before giving up — the safety valve for orphaned workers
    whose coordinator never arrives or never closes.  ``wait_for_queue_s``
    is the analogous bound on the queue directory *appearing* at all,
    so workers may be started before the coordinator.
    """

    def __init__(self, shared_dir: Union[str, Path],
                 owner: Optional[str] = None,
                 policy: Optional[RetryPolicy] = None,
                 lease_ttl: Optional[float] = None,
                 poll_interval_s: float = 0.05,
                 max_idle_s: Optional[float] = None,
                 wait_for_queue_s: float = 30.0) -> None:
        self.shared_dir = Path(shared_dir)
        self.owner = owner or make_owner_id()
        self.policy = policy or RetryPolicy()
        self.lease_ttl = lease_ttl
        self.poll_interval_s = poll_interval_s
        self.max_idle_s = max_idle_s
        self.wait_for_queue_s = wait_for_queue_s
        self.summary = WorkerSummary(owner=self.owner)
        self._queue: Optional[WorkQueue] = None
        self._cache: Optional[ResultCache] = None

    # ------------------------------------------------------------------ #
    # Lazy protocol state (the queue may not exist yet at construction)
    # ------------------------------------------------------------------ #

    @property
    def queue(self) -> WorkQueue:
        if self._queue is None:
            self._queue = WorkQueue(self.shared_dir / "queue",
                                    lease_ttl=self.lease_ttl)
        return self._queue

    @property
    def cache(self) -> ResultCache:
        if self._cache is None:
            self._cache = ResultCache(self.shared_dir)
        return self._cache

    def _queue_exists(self) -> bool:
        return (self.shared_dir / "queue" / "META.json").exists()

    # ------------------------------------------------------------------ #
    # Driving loop
    # ------------------------------------------------------------------ #

    def run(self) -> WorkerSummary:
        """Work the queue until it closes and drains (or idles out)."""
        deadline = time.monotonic() + self.wait_for_queue_s
        while not self._queue_exists():
            if time.monotonic() >= deadline:
                return self.summary  # coordinator never showed up
            time.sleep(self.poll_interval_s)
        idle_since: Optional[float] = None
        while True:
            if self.step_once():
                idle_since = None
                continue
            if self.queue.is_closed() and not self.queue.pending_keys():
                return self.summary
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            elif (self.max_idle_s is not None
                  and now - idle_since >= self.max_idle_s):
                return self.summary
            time.sleep(self.poll_interval_s)

    def step_once(self) -> bool:
        """Claim and finish at most one key; False when nothing claimable.

        Workers rotate the (globally sorted) pending list by their
        owner-id hash so a fleet starting simultaneously fans out over
        the matrix instead of stampeding key 0.
        """
        pending = self.queue.pending_keys()
        if not pending:
            return False
        offset = hash(self.owner) % len(pending)
        for key in pending[offset:] + pending[:offset]:
            record = self.queue.try_claim(key, self.owner)
            if record is None:
                continue
            if record.attempt > 1:
                self.summary.steals += 1
            self._run_claim(record)
            return True
        return False

    # ------------------------------------------------------------------ #
    # One claimed key
    # ------------------------------------------------------------------ #

    def _run_claim(self, record: QueueJobRecord) -> None:
        job = SimJob.from_dict(record.job)
        key = record.key
        mine = job.key()
        if mine != key:
            # This build keys the job differently from the coordinator
            # (another job, config or trace-format schema version, or a
            # trace file rewritten since the sweep was keyed).  Filing
            # its result under either key would alias, so fail the job.
            self.queue.complete(DoneRecord(
                key=key, status="failed", attempts=0, worker=self.owner,
                error=f"key mismatch: this worker keys the job as {mine}"),
                owner=self.owner)
            self.summary.failed += 1
            self.summary.keys.append(key)
            return
        fault = self._protocol_fault(key)
        if (fault is not None and fault.kind == "lease-steal"
                and record.attempt < fault.succeed_on):
            # Wedge-after-claim: walk away without executing or
            # releasing.  The lease ages out; the steal bumps the
            # attempt past the gate.
            self.summary.abandoned += 1
            return
        cached = self.cache.get(key)
        if cached is not None:
            self.queue.complete(DoneRecord(key=key, status="ok", attempts=0,
                                           worker=self.owner, cached=True),
                                owner=self.owner)
            self.summary.cached += 1
            self.summary.keys.append(key)
            return
        # A corrupt entry was just quarantined by the miss above (if one
        # existed); from here the slot is clean and we execute.
        with _Heartbeat(self.queue, key, self.owner):
            if (fault is not None and fault.kind == "torn-write"
                    and record.attempt < fault.succeed_on):
                self._publish_torn(key)
                self.queue.complete(
                    DoneRecord(key=key, status="ok", attempts=record.attempt,
                               worker=self.owner), owner=self.owner)
                self.summary.executed += 1
                self.summary.keys.append(key)
                return
            done = self._execute(job, record)
        self.queue.complete(done, owner=self.owner)
        if done.status == "ok":
            self.summary.executed += 1
        else:
            self.summary.failed += 1
        self.summary.keys.append(key)

    def _execute(self, job: SimJob, record: QueueJobRecord) -> DoneRecord:
        """Run the claimed job under the retry policy until terminal.

        Attempt numbers continue from the queue record (bumped by any
        steals of earlier incarnations), and the per-worker budget is
        ``policy.max_attempts`` — each incarnation gets a full budget;
        the global cap on futile re-runs is the fault/steal gating
        itself.  Every attempt drops a ledger entry first.
        """
        key = record.key
        started = time.perf_counter()
        last = record.attempt + self.policy.max_attempts - 1
        attempt = record.attempt
        while True:
            self.queue.record_execution(key, self.owner, attempt)
            try:
                result = run_job_attempt(job, attempt, self.policy.timeout)
            except JobTimeoutError as exc:
                kind, error = "timeout", str(exc)
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                kind, error = "failed", f"{type(exc).__name__}: {exc}"
            else:
                self.cache.put(key, result)
                return DoneRecord(key=key, status="ok", attempts=attempt,
                                  duration_s=time.perf_counter() - started,
                                  worker=self.owner)
            if attempt >= last:
                return DoneRecord(key=key, status=kind, attempts=attempt,
                                  duration_s=time.perf_counter() - started,
                                  error=error, worker=self.owner)
            delay = self.policy.delay_for(attempt - record.attempt + 1)
            if delay > 0:
                time.sleep(delay)
            attempt += 1

    def _publish_torn(self, key: str) -> None:
        """Leave exactly what a mid-write crash leaves: a bad entry.

        Valid magic, zeroed digest, truncated payload — unservable by
        the checksummed read path, so the next reader quarantines it
        and the key re-runs.
        """
        with open(self.cache.path_for(key), "wb") as handle:
            handle.write(MAGIC + b"\x00" * 32 + b"torn payload")

    @staticmethod
    def _protocol_fault(key: str) -> Optional[FaultSpec]:
        """The active distributed-protocol fault for ``key``, if any.

        Only the two kinds interpreted at this layer surface here; the
        in-attempt kinds (``raise``/``flaky``/``hang``/``die``) keep
        flowing through :func:`~repro.runner.faults.apply_faults`.
        """
        plan = active_plan()
        if plan is None:
            return None
        spec = plan.match(key)
        if spec is not None and spec.kind in ("torn-write", "lease-steal"):
            return spec
        return None
