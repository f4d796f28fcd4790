"""Simulation as a service: daemon and client.

The package that turns the single-process sweep engine into a
long-running server (ROADMAP: "Simulation-as-a-service daemon"):

* :mod:`repro.service.protocol` — the JSON wire format: job documents
  (``SimJob.to_dict`` round-trips), submission envelopes (explicit job
  lists or experiment-spec documents) and canonical result payloads.
* :mod:`repro.service.server` — :class:`SimService` (the single-flight
  job table in front of a worker pool and the shared
  :class:`~repro.runner.cache.ResultCache`) and :class:`ServiceDaemon`
  (the stdlib ``ThreadingHTTPServer`` speaking JSON over HTTP).
* :mod:`repro.service.client` — :class:`ServiceClient`, the thin
  ``urllib`` client behind ``repro submit``: submit / poll / stream.

Everything is stdlib-only; see DESIGN.md section 13 for the dedup and
failure model.
"""

from repro.service.client import ServiceClient, ServiceError, Submission
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    canonical_json,
    parse_submission,
    result_to_payload,
)
from repro.service.server import ServiceDaemon, SimService

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "canonical_json",
    "parse_submission",
    "result_to_payload",
    "SimService",
    "ServiceDaemon",
    "ServiceClient",
    "ServiceError",
    "Submission",
]
