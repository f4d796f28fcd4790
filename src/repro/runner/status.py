"""Per-job execution outcomes and sweep-level accounting.

Fault-tolerant execution needs a richer contract than "a list of
results or an exception": every job gets an independent
:class:`JobOutcome` (did it succeed, on which attempt, how long did it
take, what killed it), and a sweep aggregates them into a
:class:`SweepReport` that accounts for *every* job — including the ones
served from the result cache without executing at all.  The report is
what the CLI prints after ``repro sweep`` and what
``--outcomes FILE`` serialises; :class:`RetryPolicy` is the knob bundle
(attempt budget, exponential backoff, per-attempt timeout) the backends
honour.

Nothing here imports heavy modules: outcomes must pickle cheaply and
the CLI imports this for ``--help``-adjacent paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: The closed set of terminal outcome states.
OUTCOME_STATUSES = ("ok", "failed", "timeout")


class JobTimeoutError(Exception):
    """A job attempt exceeded its :class:`RetryPolicy` timeout.

    Raised *inside* the worker by the SIGALRM deadline (so the worker
    survives and the pool stays healthy) and re-raised in the parent by
    the future; the backends translate it into a ``"timeout"`` outcome
    instead of letting it propagate.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try each job before giving up on it.

    ``max_attempts`` is the *total* attempt budget (1 = no retries);
    the delay before retry ``n`` (i.e. after attempt ``n`` failed) is
    ``base_delay * 2**(n - 1)`` seconds — exponential backoff with no
    jitter, so faulted runs stay deterministic.  ``timeout`` bounds each
    individual attempt in seconds (``None`` = unbounded); a timed-out
    attempt is retriable like any other failure.
    """

    max_attempts: int = 1
    base_delay: float = 0.0
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    @classmethod
    def from_retries(cls, retries: int = 0, retry_delay: float = 0.0,
                     timeout: Optional[float] = None) -> "RetryPolicy":
        """The policy of ``retries`` extra attempts after the first one."""
        return cls(max_attempts=retries + 1, base_delay=retry_delay,
                   timeout=timeout)

    def delay_for(self, failed_attempt: int) -> float:
        """Seconds to back off after ``failed_attempt`` (1-based) failed."""
        if failed_attempt < 1:
            raise ValueError("attempts are 1-based")
        return self.base_delay * (2.0 ** (failed_attempt - 1))


@dataclass
class JobOutcome:
    """What happened to one job across all of its attempts.

    ``status`` is one of :data:`OUTCOME_STATUSES`; ``attempts`` is how
    many times the job actually executed (0 for a cache hit, which also
    sets ``cached``); ``retried`` derives from the attempt count.  The
    ``result`` payload rides along for the runner but is deliberately
    excluded from :meth:`to_dict` — outcome documents describe
    execution, not simulation output.  ``worker`` names the owner id
    that finished the job under the distributed backend; the local
    backends leave it None.
    """

    index: int
    key: str
    status: str
    attempts: int
    duration_s: float = 0.0
    error: Optional[str] = None
    cached: bool = False
    result: Any = None
    worker: Optional[str] = None

    def __post_init__(self) -> None:
        if self.status not in OUTCOME_STATUSES:
            raise ValueError(f"unknown outcome status {self.status!r}; "
                             f"expected one of {OUTCOME_STATUSES}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def retried(self) -> bool:
        """Did this job need more than one attempt?"""
        return self.attempts > 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (no result payload; see class docstring)."""
        doc = {
            "index": self.index,
            "key": self.key,
            "status": self.status,
            "attempts": self.attempts,
            "retried": self.retried,
            "cached": self.cached,
            "duration_s": round(self.duration_s, 6),
            "error": self.error,
        }
        if self.worker is not None:
            # Only distributed outcomes carry an executor identity;
            # omitting the key otherwise keeps existing outcome
            # documents byte-stable.
            doc["worker"] = self.worker
        return doc


@dataclass
class SweepReport:
    """The per-job outcome ledger of one sweep run.

    Accounts for every job exactly once (cache hits included), in job
    order; the aggregate properties drive the CLI summary line and the
    ``--outcomes`` document.
    """

    name: str
    outcomes: List[JobOutcome] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def succeeded(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failures(self) -> List[JobOutcome]:
        """Outcomes that never produced a result (failed or timed out)."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def cached_count(self) -> int:
        return sum(1 for o in self.outcomes if o.cached)

    @property
    def retried_count(self) -> int:
        return sum(1 for o in self.outcomes if o.retried)

    @property
    def executed_attempts(self) -> int:
        """Total attempts actually executed across the sweep."""
        return sum(o.attempts for o in self.outcomes)

    def summary(self) -> str:
        """One human-readable line: ``sweep: 10 job(s): 8 ok (2 cached), ...``."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        parts = [f"{counts.get('ok', 0)} ok ({self.cached_count} cached)"]
        if counts.get("failed"):
            parts.append(f"{counts['failed']} failed")
        if counts.get("timeout"):
            parts.append(f"{counts['timeout']} timed out")
        if self.retried_count:
            parts.append(f"{self.retried_count} retried")
        return f"{self.name}: {self.total} job(s): " + ", ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form: aggregate counters plus every outcome."""
        return {
            "name": self.name,
            "jobs": self.total,
            "ok": len(self.succeeded),
            "failed": sum(1 for o in self.outcomes if o.status == "failed"),
            "timeout": sum(1 for o in self.outcomes if o.status == "timeout"),
            "cached": self.cached_count,
            "retried": self.retried_count,
            "executed_attempts": self.executed_attempts,
            "outcomes": [o.to_dict() for o in self.outcomes],
        }


class SweepError(RuntimeError):
    """A sweep finished with failed jobs under ``on_error="raise"``.

    Carries the full :class:`SweepReport`: everything that *did*
    complete was already checkpointed to the result cache before this
    was raised, so re-running the same sweep resumes from the failures
    instead of starting over.
    """

    def __init__(self, report: SweepReport) -> None:
        self.report = report
        failures = report.failures
        shown = ", ".join(
            f"job[{o.index}] {o.status} after {o.attempts} attempt(s): "
            f"{o.error}" for o in failures[:3])
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        super().__init__(
            f"{report.summary()} — completed jobs are checkpointed; "
            f"re-run to resume. Failures: {shown}{more}")
