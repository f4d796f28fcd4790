"""Distributed, resumable, incremental sweeps.

This package lets many independent worker *processes* — on one machine
or on several sharing a filesystem — drain one sweep cooperatively,
joining and leaving (or crashing) mid-run without double-executing
healthy jobs or corrupting results.  Everything coordinates through a
single shared directory; there is no broker and no network protocol.
The directory holds the ordinary flat
:class:`~repro.runner.cache.ResultCache` at its root — opened exactly
as local sweeps open theirs — next to the ``queue/`` state that these
parts share:

* :class:`~repro.runner.distributed.queue.WorkQueue` — a file-based
  work queue with a lease protocol: claims are ``O_EXCL`` files carrying
  the owner id, liveness is the claim file's heartbeat mtime, and a
  lease whose heartbeat is older than the queue's deterministic TTL is
  reclaimed by any live worker.
* :class:`~repro.runner.distributed.worker.WorkerLoop` — the worker
  side: claim, execute under the retry policy, checkpoint to the
  shared result cache, mark done.  ``repro worker SHARED`` runs one
  from the shell.
* :class:`~repro.runner.distributed.backend.DistributedBackend` — the
  coordinator side, implementing the standard
  :class:`~repro.runner.backends.ExecutionBackend` contract so
  ``repro sweep --backend distributed --cache-dir SHARED`` is a drop-in
  for the serial and process-pool backends (and, participating as a
  worker itself, completes solo when no external workers ever join).

See DESIGN.md §15 for the lease protocol and the crash matrix.
"""

from repro.runner.distributed.backend import DistributedBackend
from repro.runner.distributed.queue import (
    DEFAULT_LEASE_TTL,
    LEASE_SCHEMA_VERSION,
    QUEUE_SCHEMA_VERSION,
    DoneRecord,
    LeaseRecord,
    QueueJobRecord,
    WorkQueue,
)
from repro.runner.distributed.worker import (
    WorkerLoop,
    WorkerSummary,
    make_owner_id,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LEASE_SCHEMA_VERSION",
    "QUEUE_SCHEMA_VERSION",
    "DistributedBackend",
    "DoneRecord",
    "LeaseRecord",
    "QueueJobRecord",
    "WorkQueue",
    "WorkerLoop",
    "WorkerSummary",
    "make_owner_id",
]
