"""The service wire format: JSON documents for jobs, submissions, results.

Three document kinds cross the wire:

* **Job documents** — :meth:`repro.runner.job.SimJob.to_dict` forms,
  stamped with the job schema version.  A job round-tripped through the
  wire hashes to the same ``SimJob.key()``, which is the whole basis of
  server-side single-flight dedup: N clients describing the same sweep
  point *by content* land on one in-flight execution / cache entry.
* **Submission envelopes** — either an explicit ``{"jobs": [...]}``
  list or a ``{"spec": {...}}`` experiment-spec document (the same
  TOML/JSON shape ``repro sweep --spec`` reads, expanded server-side),
  plus an optional ``accesses`` sizing override for specs.
* **Result payloads** — :func:`result_to_payload`, the ``summary`` +
  ``detail`` shape ``repro run`` prints, serialized canonically
  (:func:`canonical_json`) so every client of the same job receives
  byte-identical bytes regardless of who triggered the execution.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Tuple

from repro.runner.job import SimJob

#: Version of the HTTP/JSON surface; servers reject other majors.
PROTOCOL_VERSION = 1

#: Keys accepted in a submission envelope.
_SUBMISSION_KEYS = frozenset({"protocol", "jobs", "spec", "accesses"})


class ProtocolError(ValueError):
    """A wire document does not match the service protocol."""


def canonical_json(payload: Any) -> str:
    """``payload`` as canonical (sorted, compact) JSON text.

    The one serializer every service response goes through: equal
    payloads produce byte-equal documents, so "all clients saw the same
    result" is checkable with a string compare.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=str)


def result_to_payload(result: Any) -> Dict[str, Any]:
    """One simulation result as a JSON-ready dictionary.

    ``summary`` is the flat row used by the paper's CSV roll-ups;
    ``detail`` carries every stats section the simulator emits (the same
    shape as the golden-equivalence fingerprints).  Shared by the
    ``repro run`` CLI and the service result endpoints, so a job
    simulated locally and one served remotely serialize identically.
    """
    return {
        "summary": result.as_dict(),
        "detail": {
            "core": result.core.as_dict(),
            "hierarchy": result.hierarchy,
            "memory_controller": result.memory_controller,
            "predictor": result.predictor,
            "hermes": result.hermes,
            "llc": result.llc,
            "prefetcher": result.prefetcher,
        },
    }


def parse_submission(doc: Any) -> Tuple[List[SimJob], str]:
    """Expand a submission envelope into ``(jobs, name)``.

    Strict: unknown envelope keys, protocol mismatches, malformed job
    documents and invalid spec documents all raise
    :class:`ProtocolError` (the server answers 400 with the message).
    ``name`` labels the submission in status documents — the spec's
    name, or ``"jobs"`` for explicit lists.
    """
    if not isinstance(doc, Mapping):
        raise ProtocolError(
            f"submission must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - _SUBMISSION_KEYS)
    if unknown:
        raise ProtocolError(f"unknown submission key(s) {unknown}; "
                            f"accepted: {sorted(_SUBMISSION_KEYS)}")
    protocol = doc.get("protocol", PROTOCOL_VERSION)
    if protocol != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol {protocol!r} "
                            f"(this server speaks {PROTOCOL_VERSION})")
    has_jobs = "jobs" in doc
    has_spec = "spec" in doc
    if has_jobs == has_spec:
        raise ProtocolError(
            "submission needs exactly one of 'jobs' (a job-document list) "
            "or 'spec' (an experiment-spec document)")

    if has_jobs:
        if "accesses" in doc:
            raise ProtocolError(
                "'accesses' only resizes 'spec' submissions; explicit job "
                "documents carry their own num_accesses")
        raw_jobs = doc["jobs"]
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise ProtocolError("'jobs' must be a non-empty array of "
                                "job documents")
        jobs: List[SimJob] = []
        for index, raw in enumerate(raw_jobs):
            try:
                jobs.append(SimJob.from_dict(raw))
            except ValueError as exc:
                raise ProtocolError(f"jobs[{index}]: {exc}") from None
        return jobs, "jobs"

    from repro.config.schema import ConfigError
    from repro.runner.spec import ExperimentSpec
    try:
        spec = ExperimentSpec.from_dict(doc["spec"], where="submission spec")
        accesses = doc.get("accesses")
        if accesses is not None:
            if not isinstance(accesses, int) or accesses <= 0:
                raise ProtocolError("'accesses' must be a positive integer")
            spec.accesses = accesses
        return spec.jobs(), spec.name
    except ProtocolError:
        raise
    except ConfigError as exc:
        raise ProtocolError(str(exc)) from None
