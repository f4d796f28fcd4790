"""Unified command-line interface: ``python -m repro`` (or ``repro``).

Subcommands (each with ``--help``):

``run``
    One simulation — a catalogue workload or an external trace file
    (optionally streamed under bounded memory) — printing a stats JSON.
``sweep``
    A (prefetcher x predictor x workload) job matrix, or any paper
    figure/table runner, through the PR 1 job runner with
    ``--parallel`` / ``--cache-dir``.
``trace``
    Generate, convert, and inspect trace files in the registered
    interchange formats (``csv``, ``jsonl``, ``bin``; gzip-capable).

Every experiment and figure in EXPERIMENTS.md is reproducible from the
shell through these subcommands; the same functionality is available
programmatically via :mod:`repro.experiments` and :mod:`repro.runner`.
Speed is measured by the repository benchmark, ``perfbench/`` (see
``perfbench/README.md``).
"""

from repro.cli.main import main

__all__ = ["main"]
