"""The simulation daemon: single-flight job table + HTTP front-end.

:class:`SimService` is the heart of the design.  It keeps one
:class:`_JobEntry` per distinct ``SimJob.key()`` ever submitted, so
concurrent clients submitting overlapping sweeps collectively simulate
each unique job **exactly once**:

* the first submission of a key creates the entry and enqueues it on
  the worker pool (or completes it immediately from the shared
  :class:`~repro.runner.cache.ResultCache`);
* every later submission — from any client, in any envelope — merely
  *attaches* to the existing entry (counted in ``attached``) and is
  served the same canonical payload when it completes.

Execution runs on an in-package pool of **daemon** worker threads
rather than :class:`concurrent.futures.ThreadPoolExecutor`: executor
threads are non-daemonic and joined at interpreter exit, so one hung
job would wedge a clean shutdown forever — precisely the failure mode a
long-running daemon must shrug off.  Results are checkpointed to the
result cache *before* the entry is published as done, so a daemon that
is kill -9'd mid-sweep loses at most the in-flight jobs: a restarted
daemon pointed at the same cache directory serves every completed job
without re-simulating (the service-path extension of the sweep
``--resume`` contract).

Failure model per entry: the configured
:class:`~repro.runner.status.RetryPolicy` gives each job
``max_attempts`` executions with exponential backoff; exceptions mark
the entry ``failed`` with the message preserved.  ``timeout`` is
enforced as a per-job wall clock from execution start (worker threads
cannot arm the runner's SIGALRM deadline, which is main-thread-only):
breaches are observed lazily by pollers and at completion by the worker
itself, and a result that arrives after its deadline is discarded, not
cached.

:class:`ServiceDaemon` wraps the service in a stdlib
``ThreadingHTTPServer`` speaking the :mod:`repro.service.protocol`
JSON documents.  Endpoints::

    GET  /v1/health                 liveness + protocol version
    GET  /v1/stats[?detail=1]       dedup / execution / cache counters
    POST /v1/jobs                   submit a submission envelope
    GET  /v1/jobs/<key>[?wait=S]    poll one job (result inline when done)
    GET  /v1/tickets/<id>[?wait=S]  poll a whole submission
    GET  /v1/tickets/<id>/stream    results as JSONL, in completion order
    POST /v1/shutdown               clean shutdown
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.runner.cache import ResultCache
from repro.runner.execute import run_job_attempt
from repro.runner.job import SimJob
from repro.runner.status import RetryPolicy
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_json,
    parse_submission,
    result_to_payload,
)

#: Entry states a job can no longer leave.
TERMINAL_STATES = frozenset({"done", "failed", "timeout"})

#: Poll granularity of long-poll / stream loops (seconds).
_POLL_S = 0.02

_STOP = object()


class _JobEntry:
    """One distinct job key's lifecycle: queued -> running -> terminal.

    ``payload`` is the canonical result dictionary once ``done``;
    ``cached`` marks entries satisfied from the result cache without
    executing.  ``done_event`` fires on any terminal transition.
    """

    __slots__ = ("key", "job", "state", "error", "payload", "attempts",
                 "cached", "started_at", "duration_s", "done_event")

    def __init__(self, key: str, job: SimJob) -> None:
        self.key = key
        self.job = job
        self.state = "queued"
        self.error: Optional[str] = None
        self.payload: Optional[Dict[str, Any]] = None
        self.attempts = 0
        self.cached = False
        self.started_at: Optional[float] = None
        self.duration_s = 0.0
        self.done_event = threading.Event()


class _WorkerPool:
    """A FIFO pool of daemon threads (see the module docstring for why
    :class:`~concurrent.futures.ThreadPoolExecutor` is not used)."""

    def __init__(self, workers: int, target: Callable[[Any], None],
                 name: str = "sim-worker") -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one thread")
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._target = target
        self._threads = [
            threading.Thread(target=self._loop, daemon=True,
                             name=f"{name}-{index}")
            for index in range(workers)]
        for thread in self._threads:
            thread.start()

    def submit(self, item: Any) -> None:
        self._queue.put(item)

    def stop(self) -> None:
        """Ask every worker to exit after its current item."""
        for _ in self._threads:
            self._queue.put(_STOP)

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            self._target(item)


class SimService:
    """The single-flight job table in front of a worker pool + cache.

    ``execute`` is the per-attempt execution function
    ``(job, attempt) -> result`` — :func:`~repro.runner.execute.
    run_job_attempt` by default (so ``REPRO_FAULTS`` injection crosses
    into the service path unchanged); tests substitute gated functions
    to freeze jobs mid-flight deterministically.
    """

    def __init__(self, cache_dir: Optional[Any] = None,
                 max_workers: Optional[int] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 execute: Optional[Callable[[SimJob, int], Any]] = None) -> None:
        self.retry_policy = retry_policy or RetryPolicy()
        self.result_cache = (ResultCache(cache_dir)
                             if cache_dir is not None else None)
        self._execute = execute or (
            lambda job, attempt: run_job_attempt(job, attempt))
        self._lock = threading.Lock()
        self._entries: Dict[str, _JobEntry] = {}
        self._tickets: Dict[str, Dict[str, Any]] = {}
        # Dedup / execution accounting — the counters the concurrency
        # tests assert exactly-once behaviour through.
        self.executed = 0
        self.executed_per_key: Dict[str, int] = {}
        self.attached = 0
        self.cache_hits = 0
        self.submissions = 0
        workers = max_workers if max_workers is not None else 2
        self._pool = _WorkerPool(workers, self._run_entry)

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    def submit(self, jobs: Sequence[SimJob],
               name: str = "jobs") -> Tuple[str, List[str]]:
        """Register ``jobs`` and return ``(ticket, keys)``.

        Single-flight: under one lock acquisition each job either
        attaches to an existing entry, completes instantly from the
        result cache, or creates a new queued entry; only new entries
        ever reach the pool.
        """
        keyed = [(job.key(), job) for job in jobs]
        to_start: List[_JobEntry] = []
        with self._lock:
            self.submissions += 1
            ticket = f"t{self.submissions:06d}"
            keys: List[str] = []
            for key, job in keyed:
                keys.append(key)
                entry = self._entries.get(key)
                if entry is not None:
                    self.attached += 1
                    continue
                entry = _JobEntry(key, job)
                cached = (self.result_cache.get(key)
                          if self.result_cache is not None else None)
                if cached is not None:
                    self.cache_hits += 1
                    entry.payload = result_to_payload(cached)
                    entry.state = "done"
                    entry.cached = True
                    entry.done_event.set()
                else:
                    to_start.append(entry)
                self._entries[key] = entry
            self._tickets[ticket] = {"name": name, "keys": keys}
        for entry in to_start:
            self._pool.submit(entry)
        return ticket, keys

    # ------------------------------------------------------------------ #
    # Execution (worker threads)
    # ------------------------------------------------------------------ #

    def _run_entry(self, entry: _JobEntry) -> None:
        policy = self.retry_policy
        with self._lock:
            entry.state = "running"
            entry.started_at = time.monotonic()
        attempt = 0
        while True:
            attempt += 1
            try:
                result = self._execute(entry.job, attempt)
            except BaseException as exc:  # a worker thread must survive
                with self._lock:
                    entry.attempts = attempt
                    if self._observe_timeout(entry):
                        return
                    if attempt >= policy.max_attempts:
                        self._finish(entry, "failed",
                                     error=f"{type(exc).__name__}: {exc}")
                        return
                time.sleep(policy.delay_for(attempt))
                continue
            break
        payload = result_to_payload(result)
        with self._lock:
            entry.attempts = attempt
            self.executed += 1
            self.executed_per_key[entry.key] = (
                self.executed_per_key.get(entry.key, 0) + 1)
            if self._observe_timeout(entry):
                return  # the deadline passed: the late result is discarded
        # Checkpoint BEFORE publishing: a crash after this line loses
        # nothing, a crash before it re-executes this one job.
        if self.result_cache is not None:
            try:
                self.result_cache.put(entry.key, result)
            except OSError:
                pass  # serving beats checkpointing; the entry stays hot
        with self._lock:
            self._finish(entry, "done", payload=payload)

    def _finish(self, entry: _JobEntry, state: str,
                payload: Optional[Dict[str, Any]] = None,
                error: Optional[str] = None) -> None:
        """Terminal transition; caller holds the lock."""
        entry.state = state
        entry.payload = payload
        entry.error = error
        if entry.started_at is not None:
            entry.duration_s = time.monotonic() - entry.started_at
        entry.done_event.set()

    def _observe_timeout(self, entry: _JobEntry) -> bool:
        """Mark ``entry`` timed out if its deadline passed (lock held).

        Returns True when the entry is (now or already) terminal, i.e.
        the caller's pending update must be discarded.
        """
        if entry.state in TERMINAL_STATES:
            return True
        timeout = self.retry_policy.timeout
        if (timeout is not None and entry.started_at is not None
                and time.monotonic() - entry.started_at > timeout):
            self._finish(entry, "timeout",
                         error=f"job exceeded its {timeout:g}s service "
                               f"timeout")
            return True
        return False

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #

    def job_status(self, key: str,
                   include_result: bool = True) -> Optional[Dict[str, Any]]:
        """The status document of one job key, or None if unknown."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        with self._lock:
            self._observe_timeout(entry)
            doc: Dict[str, Any] = {
                "key": key,
                "status": entry.state,
                "attempts": entry.attempts,
                "cached": entry.cached,
                "duration_s": round(entry.duration_s, 6),
                "error": entry.error,
            }
            if include_result and entry.state == "done":
                doc["result"] = entry.payload
        return doc

    def ticket_status(self, ticket: str,
                      include_results: bool = False) -> Optional[Dict[str, Any]]:
        """Aggregate status of one submission, or None if unknown."""
        record = self._tickets.get(ticket)
        if record is None:
            return None
        jobs = [self.job_status(key, include_result=include_results)
                for key in record["keys"]]
        done = sum(1 for doc in jobs if doc["status"] in TERMINAL_STATES)
        return {
            "ticket": ticket,
            "name": record["name"],
            "total": len(jobs),
            "terminal": done,
            "complete": done == len(jobs),
            "jobs": jobs,
        }

    def ticket_keys(self, ticket: str) -> Optional[List[str]]:
        record = self._tickets.get(ticket)
        return None if record is None else list(record["keys"])

    def wait_for(self, keys: Sequence[str],
                 timeout: Optional[float] = None) -> bool:
        """Block until every known key is terminal (or ``timeout``).

        Polling (not pure event waits) so lazily-enforced job deadlines
        fire even when nothing else observes the entry.  Unknown keys
        count as terminal — the caller surfaces them as not-found.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            pending = False
            for key in keys:
                doc = self.job_status(key, include_result=False)
                if doc is not None and doc["status"] not in TERMINAL_STATES:
                    pending = True
                    break
            if not pending:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(_POLL_S)

    def stats(self, detail: bool = False) -> Dict[str, Any]:
        """The dedup / execution / cache counter document."""
        with self._lock:
            states: Dict[str, int] = {}
            for entry in self._entries.values():
                states[entry.state] = states.get(entry.state, 0) + 1
            doc: Dict[str, Any] = {
                "protocol": PROTOCOL_VERSION,
                "jobs": len(self._entries),
                "states": states,
                "executed": self.executed,
                "attached": self.attached,
                "cache_hits": self.cache_hits,
                "submissions": self.submissions,
            }
            if detail:
                doc["executed_per_key"] = dict(self.executed_per_key)
            if self.result_cache is not None:
                doc["cache"] = {
                    "directory": str(self.result_cache.directory),
                    "hits": self.result_cache.hits,
                    "misses": self.result_cache.misses,
                    "entries": len(self.result_cache),
                }
                from repro.runner.distributed.queue import WorkQueue
                queue_stats = WorkQueue.stats_for(
                    self.result_cache.directory / "queue")
                if queue_stats is not None:
                    # The shared dir doubles as a distributed sweep's
                    # queue: surface its lease/progress counters.
                    doc["distributed"] = queue_stats
        return doc

    def close(self) -> None:
        """Stop accepting work; running attempts finish on their own."""
        self._pool.stop()


# ---------------------------------------------------------------------- #
# HTTP front-end
# ---------------------------------------------------------------------- #

class ServiceDaemon:
    """``ThreadingHTTPServer`` front-end over a :class:`SimService`.

    ``port=0`` binds an ephemeral port (read it back from ``.port``).
    ``serve_forever`` blocks; ``start`` runs it on a daemon thread for
    in-process use.  ``shutdown`` is safe to call from handler threads.
    """

    def __init__(self, service: SimService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        handler = type("_BoundHandler", (_Handler,), {"daemon": self})
        self.httpd = ThreadingHTTPServer((host, port), handler)
        self.httpd.daemon_threads = True
        self.host = self.httpd.server_address[0]
        self.port = self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True,
                                  name="sim-service-http")
        thread.start()
        return thread

    def serve_forever(self) -> None:
        self.httpd.serve_forever(poll_interval=0.05)

    def shutdown(self) -> None:
        # serve_forever unblocks at its next poll; calling from a
        # handler thread cannot deadlock because shutdown() only sets
        # the stop flag and waits for the serve loop (another thread).
        self.httpd.shutdown()

    def close(self) -> None:
        self.httpd.server_close()
        self.service.close()


class _Handler(BaseHTTPRequestHandler):
    """Routes the ``/v1`` endpoints; every response is canonical JSON."""

    daemon: ServiceDaemon  # bound by ServiceDaemon via a subclass attr
    server_version = "repro-sim-service/1"

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def log_message(self, format: str, *args: Any) -> None:
        """Quiet by default: the daemon's stderr is for lifecycle lines."""

    def _send_json(self, code: int, payload: Any) -> None:
        body = (canonical_json(payload) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_json_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ProtocolError("request body must be a JSON document")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}")

    @staticmethod
    def _wait_param(query: Dict[str, List[str]]) -> Optional[float]:
        values = query.get("wait")
        if not values:
            return None
        try:
            wait = float(values[-1])
        except ValueError:
            raise ProtocolError(f"wait must be a number of seconds, "
                                f"got {values[-1]!r}")
        if wait < 0:
            raise ProtocolError("wait must be non-negative")
        return wait

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        try:
            self._route_get()
        except ProtocolError as exc:
            self._send_error_json(400, str(exc))
        except BrokenPipeError:
            pass  # client went away mid-response
        except ConnectionResetError:
            pass

    def do_POST(self) -> None:  # noqa: N802
        try:
            self._route_post()
        except ProtocolError as exc:
            self._send_error_json(400, str(exc))
        except BrokenPipeError:
            pass
        except ConnectionResetError:
            pass

    def _route_get(self) -> None:
        service = self.daemon.service
        split = urlsplit(self.path)
        query = parse_qs(split.query)
        parts = [part for part in split.path.split("/") if part]
        if parts == ["v1", "health"]:
            import repro
            self._send_json(200, {"status": "ok",
                                  "protocol": PROTOCOL_VERSION,
                                  "version": repro.__version__})
            return
        if parts == ["v1", "stats"]:
            detail = query.get("detail", ["0"])[-1] not in ("0", "", "false")
            self._send_json(200, service.stats(detail=detail))
            return
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            key = parts[2]
            wait = self._wait_param(query)
            if wait is not None:
                service.wait_for([key], timeout=wait)
            doc = service.job_status(key)
            if doc is None:
                self._send_error_json(404, f"unknown job key {key!r}")
            else:
                self._send_json(200, doc)
            return
        if len(parts) >= 3 and parts[:2] == ["v1", "tickets"]:
            ticket = parts[2]
            keys = service.ticket_keys(ticket)
            if keys is None:
                self._send_error_json(404, f"unknown ticket {ticket!r}")
                return
            if len(parts) == 4 and parts[3] == "stream":
                self._stream_ticket(keys)
                return
            if len(parts) == 3:
                wait = self._wait_param(query)
                if wait is not None:
                    service.wait_for(keys, timeout=wait)
                include = query.get("results", ["0"])[-1] not in (
                    "0", "", "false")
                self._send_json(200, service.ticket_status(
                    ticket, include_results=include))
                return
        self._send_error_json(404, f"no such endpoint {split.path!r}")

    def _route_post(self) -> None:
        service = self.daemon.service
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        if parts == ["v1", "jobs"]:
            jobs, name = parse_submission(self._read_json_body())
            ticket, keys = service.submit(jobs, name=name)
            statuses = [service.job_status(key, include_result=False)
                        for key in keys]
            self._send_json(200, {"ticket": ticket, "name": name,
                                  "jobs": statuses})
            return
        if parts == ["v1", "shutdown"]:
            self._send_json(200, {"status": "shutting-down"})
            # From a handler thread: respond first, then stop the serve
            # loop; the helper thread outlives this handler.
            threading.Thread(target=self.daemon.shutdown,
                             daemon=True).start()
            return
        self._send_error_json(404, f"no such endpoint {split.path!r}")

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #

    def _stream_ticket(self, keys: List[str]) -> None:
        """JSONL result stream in completion order (close-delimited).

        One line per job the moment it turns terminal — the "stream
        results" client path.  No Content-Length: under HTTP/1.0 the
        connection close delimits the body, so clients just read lines
        to EOF.
        """
        service = self.daemon.service
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        pending = list(dict.fromkeys(keys))  # unique, order-preserving
        while pending:
            progressed = False
            for key in list(pending):
                doc = service.job_status(key)
                if doc is None:
                    doc = {"key": key, "status": "unknown"}
                if doc["status"] in TERMINAL_STATES or doc["status"] == "unknown":
                    self.wfile.write(
                        (canonical_json(doc) + "\n").encode("utf-8"))
                    self.wfile.flush()
                    pending.remove(key)
                    progressed = True
            if pending and not progressed:
                time.sleep(_POLL_S)
