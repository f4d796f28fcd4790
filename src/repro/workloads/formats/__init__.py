"""Pluggable trace readers/writers (the trace-ingestion subsystem).

External traces — converted from other simulators, captured on real
hardware, or generated here and archived — enter the system through this
package.  Three formats ship out of the box, discovered through the same
decorator registry machinery (:mod:`repro.registry`) that serves
prefetchers and off-chip predictors:

``csv``
    Human-readable comma-separated interchange (``.csv``, ``.csv.gz``).
``jsonl``
    JSON-lines interchange (``.jsonl``, ``.ndjson``, ``.jsonl.gz``).
``bin``
    Compact 21-byte/record binary (``.bin``, ``.rptr``, gzip-capable).

A third-party format plugs in with::

    from repro.workloads.formats import register_trace_format, TraceFormat

    @register_trace_format("champsim")
    class ChampSimFormat(TraceFormat):
        ...

Use :func:`write_trace` / :func:`read_trace` for whole-trace I/O,
:func:`stream_trace` for a bounded-memory
:class:`~repro.workloads.trace.StreamingTrace` view feeding
:func:`repro.sim.simulator.simulate_stream`, and ``python -m repro trace
generate/convert/inspect`` from the shell.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.registry import Registry
from repro.workloads.formats.base import (
    STDIO_PATH,
    TRACE_FORMAT_VERSION,
    PathLike,
    TraceFormat,
    TraceHeader,
    strip_gzip_suffix,
)
from repro.workloads.formats.binary import BinaryTraceFormat
from repro.workloads.formats.text import CSVTraceFormat, JSONLTraceFormat
from repro.workloads.trace import MemoryAccess, StreamingTrace, Trace

#: The process-wide trace-format registry (name -> TraceFormat subclass).
trace_formats: Registry[TraceFormat] = Registry("trace format")

#: Decorator registering a :class:`TraceFormat` subclass by name.
register_trace_format = trace_formats.register

register_trace_format("csv")(CSVTraceFormat)
register_trace_format("jsonl")(JSONLTraceFormat)
register_trace_format("bin")(BinaryTraceFormat)


def format_names() -> List[str]:
    """All registered trace-format names, sorted."""
    return trace_formats.names()


def make_format(name: str) -> TraceFormat:
    """Instantiate the trace format registered under ``name``."""
    return trace_formats.create(name)


def detect_format(path: PathLike) -> str:
    """Infer a format name from ``path``'s extension (``.gz`` ignored).

    Raises ``ValueError`` for unrecognised extensions (and for ``-``,
    where the caller must say which text format the pipe carries).
    """
    text = strip_gzip_suffix(path)
    if text == STDIO_PATH:
        raise ValueError(
            "cannot infer a trace format for stdio; pass the format name")
    extensions = _format_extensions()
    for name, claimed in extensions.items():
        if text.endswith(claimed):
            return name
    known = [ext for claimed in extensions.values() for ext in claimed]
    raise ValueError(
        f"cannot infer trace format from {path!s}; "
        f"known extensions: {sorted(known)} (optionally + .gz)")


def resolve_format(path: PathLike, fmt: Optional[str] = None) -> TraceFormat:
    """``fmt`` by name if given, else by ``path`` extension."""
    return make_format(fmt if fmt is not None else detect_format(path))


def is_trace_path(name: PathLike) -> bool:
    """Heuristic: does ``name`` look like a trace file path (vs a workload name)?

    Used by :func:`repro.workloads.suite.make_trace` so job specs can
    name external trace files anywhere a catalogue workload name is
    accepted.
    """
    text = str(name)
    if text == STDIO_PATH:
        return True
    if "/" in text or "\\" in text:
        return True
    stripped = strip_gzip_suffix(text)
    return any(stripped.endswith(claimed)
               for claimed in _format_extensions().values())


def _format_extensions() -> Dict[str, Tuple[str, ...]]:
    """Each registered format's extensions, read off its class.

    ``extensions`` is a class attribute, so no format is built to read
    it: :func:`is_trace_path` runs for every workload name a job key
    fingerprints.
    """
    return {name: trace_formats.factory(name).extensions
            for name in trace_formats}


def write_trace(trace: Trace, path: PathLike,
                fmt: Optional[str] = None) -> None:
    """Serialise ``trace`` to ``path`` in ``fmt`` (or by extension)."""
    resolve_format(path, fmt).write(iter(trace), TraceHeader.for_trace(trace),
                                    path)


def write_accesses(accesses: Iterable[MemoryAccess], header: TraceHeader,
                   path: PathLike, fmt: Optional[str] = None) -> None:
    """Serialise an access iterable (e.g. another format's stream) to ``path``."""
    resolve_format(path, fmt).write(accesses, header, path)


def read_trace(path: PathLike, fmt: Optional[str] = None) -> Trace:
    """Materialise the trace at ``path`` as an in-memory :class:`Trace`."""
    return resolve_format(path, fmt).read(path)


def read_header(path: PathLike, fmt: Optional[str] = None) -> TraceHeader:
    """Read only the metadata header of the trace at ``path``."""
    return resolve_format(path, fmt).read_header(path)


def stream_trace(path: PathLike, fmt: Optional[str] = None) -> StreamingTrace:
    """A bounded-memory :class:`StreamingTrace` view of the trace at ``path``.

    The file is re-read on every iteration, so the result can be fed to
    :func:`~repro.sim.simulator.simulate_stream` (or several of them)
    without ever holding more than one read batch in memory.  Streaming
    from stdio is one-shot: the pipe cannot be rewound, so a second
    iteration raises ``ValueError``.
    """
    trace_format = resolve_format(path, fmt)
    if str(path) == STDIO_PATH:
        header, records = trace_format.open_stream(path)
        state = {"records": records}

        def opener():
            pending = state.pop("records", None)
            if pending is None:
                raise ValueError("stdio trace streams are one-shot; "
                                 "write the trace to a file to re-iterate")
            return pending

        return StreamingTrace(name=header.name, category=header.category,
                              opener=opener, length=header.count)
    header = trace_format.read_header(path)
    return StreamingTrace(name=header.name, category=header.category,
                          opener=lambda: trace_format.stream(path),
                          length=header.count)


def convert_trace(source: PathLike, destination: PathLike,
                  in_fmt: Optional[str] = None,
                  out_fmt: Optional[str] = None) -> TraceHeader:
    """Re-encode ``source`` as ``destination``, streaming record by record."""
    reader = resolve_format(source, in_fmt)
    header = reader.read_header(source)
    resolve_format(destination, out_fmt).write(reader.stream(source), header,
                                               destination)
    return header


__all__ = [
    "STDIO_PATH",
    "TRACE_FORMAT_VERSION",
    "TraceFormat",
    "TraceHeader",
    "BinaryTraceFormat",
    "CSVTraceFormat",
    "JSONLTraceFormat",
    "trace_formats",
    "register_trace_format",
    "format_names",
    "make_format",
    "detect_format",
    "resolve_format",
    "is_trace_path",
    "write_trace",
    "write_accesses",
    "read_trace",
    "read_header",
    "stream_trace",
    "convert_trace",
]
