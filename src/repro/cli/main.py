"""Argument parsing and subcommand implementations for ``python -m repro``.

Kept dependency-free (argparse + json only) and import-light at the top
level; heavyweight modules are imported inside the subcommand handlers
so ``--help`` stays fast.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.config import FORMATS  # stdlib-only import; keeps --help fast
from repro.report.figures import FIGURE_RUNNERS  # stdlib-only spec metadata
from repro.report.renderers import renderer_names  # stdlib-only registry

PROG = "python -m repro"

#: Default trace format when piping through stdio (where the extension
#: cannot tell us).
STDIO_DEFAULT_FORMAT = "jsonl"


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #

def _emit_json(payload: Any, output: str) -> None:
    """Write ``payload`` as pretty JSON to a file or (``-``) stdout."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _build_config(prefetcher: Optional[str], predictor: Optional[str],
                  pessimistic: bool, warmup_fraction: Optional[float]):
    """A SystemConfig from the CLI's prefetcher/predictor flags."""
    from repro.sim.config import SystemConfig
    prefetcher = prefetcher if prefetcher is not None else "pythia"
    if predictor is None or predictor == "none":
        config = SystemConfig.baseline(prefetcher)
    else:
        config = SystemConfig.with_hermes(predictor, prefetcher=prefetcher,
                                          optimistic=not pessimistic)
    if warmup_fraction is not None:
        config.warmup_fraction = warmup_fraction
    return config


def _resolve_config(args: argparse.Namespace):
    """The effective SystemConfig of a run/config command.

    Either ``--config file`` (declarative base; the prefetcher/predictor
    shape flags then make no sense and are rejected) or the classic
    shape flags, with ``--set key=value`` dotted overrides applied on
    top in both cases.
    """
    from repro.config import apply_overrides, parse_override_tokens
    if args.config is not None:
        conflicting = [flag for flag, value in [
            ("--prefetcher", args.prefetcher),
            ("--predictor", args.predictor),
            ("--pessimistic", args.pessimistic or None),
        ] if value is not None]
        if conflicting:
            raise ValueError(
                f"{', '.join(conflicting)} cannot be combined with --config; "
                f"use --set (e.g. --set prefetcher=spp) to override the file")
        from repro.config import load_config
        config = load_config(args.config)
        if args.warmup_fraction is not None:
            config.warmup_fraction = args.warmup_fraction
    else:
        config = _build_config(args.prefetcher, args.predictor,
                               args.pessimistic, args.warmup_fraction)
    overrides = parse_override_tokens(args.set)
    if overrides:
        config = apply_overrides(config, overrides)
    return config


def _result_payload(result) -> Dict[str, Any]:
    """One simulation result as a JSON-ready dictionary.

    Delegates to the service wire format so a job simulated locally by
    ``repro run`` and one served remotely by ``repro serve`` produce
    the same ``summary`` + ``detail`` document.
    """
    from repro.service.protocol import result_to_payload
    return result_to_payload(result)


def _split_list(values: Sequence[str]) -> List[str]:
    """Flatten repeated/comma-separated option values into one list."""
    items: List[str] = []
    for value in values:
        items.extend(part for part in value.split(",") if part)
    return items


# ---------------------------------------------------------------------- #
# repro run
# ---------------------------------------------------------------------- #

def cmd_run(args: argparse.Namespace) -> int:
    """Run one simulation and print its stats JSON."""
    from repro.sim.simulator import simulate_stream, simulate_trace
    config = _resolve_config(args)
    if args.trace is not None:
        fmt = args.format
        if fmt is None and args.trace == "-":
            fmt = STDIO_DEFAULT_FORMAT
        if args.stream or args.trace == "-":
            # Stdio is single-pass, so it always goes through the
            # streaming driver; stats are identical either way as long
            # as the trace declares its length (traces written by this
            # package always do — simulate_stream warns otherwise).
            from repro.workloads.formats import stream_trace
            source = stream_trace(args.trace, fmt)
            result = simulate_stream(config, source,
                                     max_accesses=args.accesses)
        else:
            from repro.workloads.formats import read_trace
            trace = read_trace(args.trace, fmt)
            if args.accesses is not None and len(trace) > args.accesses:
                trace = trace.truncated(args.accesses)
            result = simulate_trace(config, trace)
    else:
        from repro.workloads.suite import make_trace
        accesses = 20000 if args.accesses is None else args.accesses
        trace = make_trace(args.workload, accesses)
        result = simulate_trace(config, trace)
    _emit_json(_result_payload(result), args.output)
    return 0


# ---------------------------------------------------------------------- #
# repro sweep
# ---------------------------------------------------------------------- #

#: The flags that shape an ad-hoc matrix, each with the one other mode
#: that also reads it: ``--set`` overrides a spec's base config, and
#: ``--categories``/``--per-category`` size a figure's suite.
_ADHOC_FLAGS = {"--workloads": None, "--prefetchers": None,
                "--predictors": None, "--pessimistic": None,
                "--warmup-fraction": None, "--set": "--spec",
                "--categories": "--figure", "--per-category": "--figure"}


def _setup(args: argparse.Namespace, **execution: Any):
    """The ExperimentSetup of ``sweep`` and ``report``: sizing and execution."""
    from repro.experiments.common import ExperimentSetup
    setup = ExperimentSetup(parallel=args.parallel,
                            max_workers=args.max_workers,
                            result_cache_dir=args.cache_dir,
                            retries=args.retries,
                            retry_delay=args.retry_delay,
                            timeout=args.timeout,
                            on_error=args.on_error, **execution)
    if args.accesses is not None:
        setup.num_accesses = args.accesses
    if args.per_category is not None:
        setup.per_category = args.per_category
    if args.categories:
        setup.categories = _split_list(args.categories)
    return setup


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a figure's plan, a spec file, or an ad-hoc job matrix.

    Every mode is a job list run through the setup's one runner.
    """
    if args.spec is not None and args.figure is not None:
        raise ValueError("--spec and --figure are mutually exclusive")
    if args.resume and args.cache_dir is None:
        raise ValueError("--resume needs --cache-dir: resume re-runs only "
                         "the jobs missing from the checkpoint cache")
    if args.since_spec is not None and args.spec is None:
        raise ValueError("--since-spec diffs two spec matrices; it "
                         "requires --spec")
    mode = ("--spec" if args.spec is not None
            else "--figure" if args.figure is not None else None)
    ignored = []
    for flag, also in _ADHOC_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        given = value is not None and value is not False
        if given and mode not in (None, also):
            ignored.append(flag)
    if ignored:
        raise ValueError(
            f"{', '.join(ignored)} only apply to ad-hoc matrices; {mode} "
            f"declares its own matrix (drop {mode} to sweep a custom one)")

    setup = _setup(args, backend=args.backend, lease_ttl=args.lease_ttl)
    doc: Dict[str, Any] = {}
    if args.figure is not None:
        from repro.report.figures import get_figure
        plan = get_figure(args.figure).plan(setup)
        name, jobs = plan.name, plan.jobs
    elif args.spec is not None:
        spec = _load_spec(args.spec, args)
        name, jobs = spec.name, spec.jobs()
        doc["spec"] = spec.name
        if args.since_spec is not None:
            delta = spec.delta(_load_spec(args.since_spec, args))
            jobs = delta.changed
            doc["delta"] = delta.to_dict()
            print(delta.summary(), file=sys.stderr)
    else:
        name, jobs = "adhoc", _adhoc_jobs(args, setup)

    runner = setup.runner()
    if args.resume:
        from repro.runner.job import job_keys
        keys = job_keys(jobs)
        missing = {key for key in keys if not runner.result_cache.has(key)}
        print(f"resume: {sum(key not in missing for key in keys)} of "
              f"{len(jobs)} job(s) already checkpointed; executing "
              f"{len(missing)}", file=sys.stderr)
    results, report = _run_reported(runner, jobs, name, args.outcomes)
    print(report.summary(), file=sys.stderr)
    if args.outcomes is not None:
        _emit_json(report.to_dict(), args.outcomes)
    if args.figure is not None:
        # Canonical (string keys, JSON primitives), so this output is
        # byte-identical to the `repro report` payload section.
        from repro.report.schema import canonical_payload
        doc = {"figure": args.figure,
               "result": canonical_payload(plan.reduce(results))}
    else:
        rows = _sweep_rows(jobs, results, report)
        doc.update(jobs=len(rows), rows=rows)
    _emit_json(doc, args.output)
    return 0


def _adhoc_jobs(args: argparse.Namespace, setup) -> List[Any]:
    """Every (prefetcher, predictor) over the workloads, ``--set`` on each."""
    from repro.config import apply_overrides, parse_override_tokens
    from repro.runner import jobs_for_suite
    overrides = parse_override_tokens(args.set)
    workloads = (_split_list(args.workloads) if args.workloads
                 else setup.workload_names())
    jobs: List[Any] = []
    for prefetcher in (_split_list(args.prefetchers) if args.prefetchers
                       else ["pythia"]):
        for predictor in (_split_list(args.predictors) if args.predictors
                          else ["none"]):
            config = _build_config(prefetcher, predictor, args.pessimistic,
                                   args.warmup_fraction)
            if overrides:
                config = apply_overrides(config, overrides)
            jobs.extend(jobs_for_suite(config, workloads,
                                       setup.num_accesses))
    return jobs


def _run_reported(runner, jobs, name: str, outcomes: Optional[str]):
    """``run_report`` that writes the ``--outcomes`` ledger even on failure.

    Under ``--on-error raise`` the SweepError aborts the sweep output,
    but the outcome document is most useful exactly then — it names the
    jobs that exhausted their budget — so it (and the summary line) are
    emitted before the error propagates to the exit-code-3 handler.
    """
    from repro.runner.status import SweepError
    try:
        return runner.run_report(jobs, name=name)
    except SweepError as exc:
        print(exc.report.summary(), file=sys.stderr)
        if outcomes is not None:
            _emit_json(exc.report.to_dict(), outcomes)
        raise


def _sweep_rows(jobs, results, report) -> List[Dict[str, Any]]:
    """One JSON row per job: result stats, or the failure record.

    Successful rows keep their historical shape (the result's
    ``as_dict`` plus ``config``) so resumed and uninterrupted runs
    serialize byte-identically; failed jobs (``--on-error skip``) get a
    stub row naming the workload and what killed it instead of a hole.
    """
    rows: List[Dict[str, Any]] = []
    for job, result, outcome in zip(jobs, results, report.outcomes):
        label = job.config.label
        if result is None:
            rows.append({"config": label,
                         "workload": job.workload,
                         "status": outcome.status,
                         "attempts": outcome.attempts,
                         "error": outcome.error})
            continue
        row = result.as_dict()
        row["config"] = label
        rows.append(row)
    return rows


def _load_spec(path: str, args: argparse.Namespace):
    """Load a spec file with the shared --set/--accesses adjustments.

    Both sides of a ``--since-spec`` diff go through this, so the delta
    reflects differences between the *files*, not between one adjusted
    and one raw matrix.
    """
    from repro.config import apply_overrides, parse_override_tokens
    from repro.runner import ExperimentSpec
    spec = ExperimentSpec.from_file(path)
    overrides = parse_override_tokens(args.set)
    if overrides:
        spec.base = apply_overrides(spec.base, overrides)
    if args.accesses is not None:
        spec.accesses = args.accesses
    return spec


# ---------------------------------------------------------------------- #
# repro worker
# ---------------------------------------------------------------------- #

def cmd_worker(args: argparse.Namespace) -> int:
    """Join a distributed sweep as one standalone worker process.

    Points at the same shared directory as ``repro sweep --backend
    distributed --cache-dir SHARED``; may be started before, during or
    after the coordinator (``--wait-for-queue`` covers the before
    case).  Exits 0 when the queue closes and drains, when the idle
    budget runs out, or when the queue never appears — a worker leaving
    early is always safe, its unfinished lease ages out and is stolen.
    """
    from repro.runner import RetryPolicy
    from repro.runner.distributed import WorkerLoop
    loop = WorkerLoop(args.shared_dir,
                      owner=args.owner,
                      policy=RetryPolicy.from_retries(args.retries,
                                                      args.retry_delay,
                                                      args.timeout),
                      lease_ttl=args.lease_ttl,
                      poll_interval_s=args.poll_interval,
                      max_idle_s=args.max_idle,
                      wait_for_queue_s=args.wait_for_queue)
    summary = loop.run()
    print(f"worker {summary.owner}: {summary.executed} executed, "
          f"{summary.cached} cached, {summary.failed} failed, "
          f"{summary.steals} steal(s)", file=sys.stderr)
    _emit_json(summary.to_dict(), args.output)
    return 0


# ---------------------------------------------------------------------- #
# repro report
# ---------------------------------------------------------------------- #

def cmd_report(args: argparse.Namespace) -> int:
    """Regenerate paper-figure artifacts into a report directory.

    Runs the selected figure runners (or all 24 with ``--all``) through
    the report subsystem and writes one Markdown table, CSV, SVG chart
    and schema-stamped JSON document per figure, plus an ``index.md``
    linking everything.  Execution knobs mirror ``repro sweep``; with
    ``--cache-dir`` a second run is served entirely from the result
    cache (the final summary line prints the hit/miss counts).
    """
    from repro.report.figures import figure_ids, get_figure
    from repro.report.generate import generate_report

    figures = _split_list(args.figure) if args.figure else []
    if args.all:
        if figures:
            raise ValueError("--all and --figure are mutually exclusive")
        figures = figure_ids()
    if not figures:
        raise ValueError("select figures with --figure fig12 --figure table3 "
                         "(repeatable), or pass --all")
    for figure_id in figures:
        get_figure(figure_id)  # fail fast on typos, before any simulation

    formats = _split_list(args.formats) if args.formats else None
    summary = generate_report(figures, out_dir=args.out_dir,
                              setup=_setup(args),
                              formats=formats,
                              log=lambda line: print(line, file=sys.stderr),
                              on_error=args.on_error)
    skipped = (f", {len(summary.failures)} figure(s) skipped"
               if summary.failures else "")
    print(f"wrote {len(summary.artifacts)} figure(s) to "
          f"{summary.out_dir}/index.md in {summary.elapsed_s:.1f}s{skipped}",
          file=sys.stderr)
    return 0


# ---------------------------------------------------------------------- #
# repro config
# ---------------------------------------------------------------------- #

def cmd_config_dump(args: argparse.Namespace) -> int:
    """Resolve a config (file/flags/--set) and write it back out.

    The canonical round-trip tool: ``repro config dump`` with no
    arguments prints the schema-stamped default configuration;
    ``--config file --set k=v`` loads, overrides and re-serializes.
    """
    from repro.config import config_to_text, resolve_format
    config = _resolve_config(args)
    fmt = (args.format if args.format is not None
           else ("toml" if args.output == "-"
                 else resolve_format(args.output)))
    text = config_to_text(config, fmt)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def cmd_config_validate(args: argparse.Namespace) -> int:
    """Load a config file strictly and run full semantic validation."""
    from repro.config import load_config
    config = load_config(args.path)
    config.validate()
    print(f"{args.path}: ok (label {config.label!r}, "
          f"prefetcher {config.prefetcher!r}, "
          f"off-chip predictor {config.offchip_predictor!r})")
    return 0


def cmd_config_paths(args: argparse.Namespace) -> int:
    """List every dotted override path accepted by --set and spec axes."""
    from repro.config import config_field_paths
    from repro.sim.config import SystemConfig
    for path, annotation in config_field_paths(SystemConfig):
        name = getattr(annotation, "__name__", None) or str(annotation)
        print(f"{path:<40} {name}")
    return 0


# ---------------------------------------------------------------------- #
# repro trace
# ---------------------------------------------------------------------- #

def cmd_trace_generate(args: argparse.Namespace) -> int:
    """Generate a catalogue workload and serialise it to a trace file."""
    from repro.workloads.formats import write_trace
    from repro.workloads.suite import make_trace
    fmt = args.format
    if fmt is None and args.out == "-":
        fmt = STDIO_DEFAULT_FORMAT
    trace = make_trace(args.workload, args.accesses)
    write_trace(trace, args.out, fmt)
    if args.out != "-":
        print(f"wrote {len(trace)} accesses to {args.out}", file=sys.stderr)
    return 0


def cmd_trace_convert(args: argparse.Namespace) -> int:
    """Re-encode a trace file into another format, streaming."""
    from repro.workloads.formats import convert_trace
    in_fmt = args.in_format
    if in_fmt is None and args.source == "-":
        in_fmt = STDIO_DEFAULT_FORMAT
    out_fmt = args.out_format
    if out_fmt is None and args.destination == "-":
        out_fmt = STDIO_DEFAULT_FORMAT
    header = convert_trace(args.source, args.destination,
                           in_fmt=in_fmt, out_fmt=out_fmt)
    print(f"converted {args.source} -> {args.destination} "
          f"(workload {header.name!r}, {header.count} accesses)",
          file=sys.stderr)
    return 0


def cmd_trace_inspect(args: argparse.Namespace) -> int:
    """Stream a trace file once and print its summary statistics.

    The per-record pass is O(1) memory; the unique-PC/unique-block
    counters use in-memory sets, so footprint scales with the number of
    *distinct* PCs and cachelines, not with trace length.
    """
    from repro.workloads.formats import resolve_format
    fmt = args.format
    if fmt is None and args.path == "-":
        fmt = STDIO_DEFAULT_FORMAT
    header, records = resolve_format(args.path, fmt).open_stream(args.path)
    count = loads = instructions = 0
    pcs = set()
    blocks = set()
    for access in records:
        count += 1
        loads += access.is_load
        instructions += access.nonmem_before + 1
        pcs.add(access.pc)
        blocks.add(access.address >> 6)
    _emit_json({
        "header": header.to_dict(),
        "memory_instructions": count,
        "total_instructions": instructions,
        "loads": loads,
        "stores": count - loads,
        "unique_pcs": len(pcs),
        "unique_blocks": len(blocks),
        "footprint_mb": len(blocks) * 64 / (1 << 20),
    }, args.output)
    return 0


# ---------------------------------------------------------------------- #
# repro lint
# ---------------------------------------------------------------------- #

def cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis gate (``python -m repro.lint``)."""
    from repro.lint.cli import run_lint
    return run_lint(args)


# ---------------------------------------------------------------------- #
# repro serve / repro submit
# ---------------------------------------------------------------------- #

def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation-as-a-service daemon until interrupted.

    Wraps the runner stack (retry policy + checksummed result cache) in
    a :class:`~repro.service.server.SimService` behind an HTTP JSON
    front-end.  With ``--cache-dir`` a restarted daemon serves every
    previously completed job from the cache without re-simulating.
    """
    from repro.runner import RetryPolicy
    from repro.service.server import ServiceDaemon, SimService

    service = SimService(cache_dir=args.cache_dir,
                         max_workers=args.max_workers,
                         retry_policy=RetryPolicy.from_retries(
                             args.retries, args.retry_delay, args.timeout))
    daemon = ServiceDaemon(service, host=args.host, port=args.port)
    if args.port_file is not None:
        # For scripts booting an ephemeral-port daemon: the port is
        # only knowable after bind, so publish it through a file.
        with open(args.port_file, "w", encoding="utf-8") as handle:
            handle.write(f"{daemon.port}\n")
    print(f"serving on {daemon.url} "
          f"(cache: {args.cache_dir or 'off'}, "
          f"retries: {args.retries}, "
          f"timeout: {args.timeout if args.timeout is not None else 'off'})",
          file=sys.stderr)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    finally:
        daemon.close()
    print("service stopped", file=sys.stderr)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit work to a running daemon and (by default) await results."""
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.server, timeout=args.request_timeout)
    try:
        if args.spec is not None:
            if args.workload is not None:
                raise ValueError(
                    "--spec and --workload are mutually exclusive")
            # Ship the spec *document*: expansion happens server-side,
            # so the daemon's job table sees the same content hashes an
            # on-box `repro sweep --spec` run would.
            from repro.config import load_document
            submission = client.submit(spec=load_document(args.spec),
                                       accesses=args.accesses)
        else:
            if args.workload is None:
                raise ValueError(
                    "submit needs --spec FILE or --workload NAME")
            from repro.runner import SimJob
            config = _build_config(args.prefetcher, args.predictor,
                                   args.pessimistic, None)
            workloads = _split_list([args.workload])
            accesses = 20000 if args.accesses is None else args.accesses
            jobs = [SimJob(config=config, workload=workload,
                           num_accesses=accesses)
                    for workload in workloads]
            submission = client.submit(jobs=jobs)
        print(f"ticket {submission.ticket}: {len(submission.jobs)} job(s) "
              f"submitted", file=sys.stderr)

        if args.no_wait:
            _emit_json({"ticket": submission.ticket,
                        "jobs": submission.jobs}, args.output)
            return 0
        if args.stream:
            # One JSONL line per job in completion order, forwarded as
            # it arrives; summary verdict at the end.
            failed = 0
            for doc in client.stream(submission):
                failed += doc["status"] != "done"
                sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
                sys.stdout.flush()
            return 3 if failed else 0
        doc = client.wait(submission, timeout=args.wait_timeout)
        failed = [job for job in doc["jobs"] if job["status"] != "done"]
        for job in failed:
            print(f"job {job['key'][:12]}…: {job['status']}"
                  + (f" ({job['error']})" if job.get("error") else ""),
                  file=sys.stderr)
        _emit_json(doc, args.output)
        return 3 if failed else 0
    except ServiceError as exc:
        print(f"{PROG}: service error: {exc}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #

def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Hermes reproduction: simulations, sweeps, traces and "
                    "reports from the shell")
    subparsers = parser.add_subparsers(dest="command", required=True)

    # ---- run ---------------------------------------------------------- #
    run = subparsers.add_parser(
        "run", help="run one simulation and print a stats JSON")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", help="catalogue workload name")
    source.add_argument("--trace",
                        help="trace file path (- reads a csv/jsonl pipe "
                             "from stdin)")
    run.add_argument("--format", default=None,
                     help="trace format name (default: by file extension; "
                          f"{STDIO_DEFAULT_FORMAT} for stdio)")
    run.add_argument("--stream", action="store_true",
                     help="stream the trace file in bounded memory instead "
                          "of materialising it (stdio always streams)")
    run.add_argument("--accesses", type=int, default=None,
                     help="memory accesses to simulate (generation length "
                          "for --workload, cap for --trace; default: 20000 "
                          "/ the whole file)")
    _add_config_flags(run)
    run.add_argument("--output", default="-",
                     help="stats JSON destination (default: stdout)")
    run.set_defaults(func=cmd_run)

    # ---- sweep -------------------------------------------------------- #
    sweep = subparsers.add_parser(
        "sweep", help="run a spec file, a figure's plan, or a config x "
                      "workload job matrix")
    sweep.add_argument("--spec", default=None, metavar="FILE",
                       help="run the sweep declared in this TOML/JSON "
                            "experiment-spec file (base config + override "
                            "axes + workloads; see DESIGN.md and "
                            "examples/specs/)")
    sweep.add_argument("--set", action="append", default=None,
                       metavar="KEY=VALUE",
                       help="dotted-path config override (repeatable): "
                            "applied to the spec's base config with "
                            "--spec, or to every matrix cell in ad-hoc "
                            "mode (not valid with --figure)")
    sweep.add_argument("--figure", choices=sorted(FIGURE_RUNNERS),
                       default=None,
                       help="run this paper figure/table's plan (its own "
                            "config matrix) and print its payload; combines "
                            "with the sizing/execution knobs but not with "
                            "--workloads/--prefetchers/--predictors")
    sweep.add_argument("--workloads", action="append", default=None,
                       metavar="NAME[,NAME...]",
                       help="workload names or trace file paths (default: "
                            "the suite selection)")
    sweep.add_argument("--prefetchers", action="append", default=None,
                       metavar="NAME[,NAME...]",
                       help="prefetcher names for the matrix "
                            "(default: pythia)")
    sweep.add_argument("--predictors", action="append", default=None,
                       metavar="NAME[,NAME...]",
                       help="off-chip predictor names; 'none' = no Hermes "
                            "(default: none)")
    sweep.add_argument("--accesses", type=int, default=None,
                       help="accesses per workload (default: setup default)")
    sweep.add_argument("--categories", action="append", default=None,
                       metavar="CAT[,CAT...]",
                       help="restrict the suite selection to these "
                            "categories")
    sweep.add_argument("--per-category", type=int, default=None,
                       help="workloads taken per category (default: 2)")
    sweep.add_argument("--parallel", action="store_true",
                       help="fan jobs out over a process pool")
    sweep.add_argument("--backend",
                       choices=["serial", "process-pool", "distributed"],
                       default=None,
                       help="execution backend (default: serial, or "
                            "process-pool with --parallel); 'distributed' "
                            "coordinates through --cache-dir SHARED, which "
                            "any number of 'repro worker SHARED' processes "
                            "may join or leave mid-sweep")
    sweep.add_argument("--since-spec", default=None, metavar="FILE",
                       help="delta sweep: diff the --spec matrix against "
                            "this older spec file by job content hash and "
                            "execute only the changed/missing jobs "
                            "(--set/--accesses apply to both sides)")
    sweep.add_argument("--lease-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="distributed only: heartbeats older than this "
                            "mark a worker dead and its job reclaimable "
                            "(fixed at queue creation; default: 30)")
    sweep.add_argument("--max-workers", type=int, default=None,
                       help="process-pool size (default: cpu count)")
    sweep.add_argument("--cache-dir", default=None,
                       help="on-disk result cache directory (jobs found "
                            "there are not re-run; every finished job is "
                            "checkpointed there the moment it completes)")
    sweep.add_argument("--resume", action="store_true",
                       help="resume an interrupted sweep: requires "
                            "--cache-dir, reports how many jobs are "
                            "already checkpointed, and executes only the "
                            "missing ones")
    _add_resilience_flags(sweep)
    sweep.add_argument("--outcomes", default=None, metavar="FILE",
                       help="write the per-job outcome report (status/"
                            "attempts/durations) as JSON here")
    sweep.add_argument("--pessimistic", action="store_true",
                       help="use Hermes-P instead of Hermes-O")
    sweep.add_argument("--warmup-fraction", type=float, default=None,
                       help="override the config warmup fraction")
    sweep.add_argument("--output", default="-",
                       help="JSON destination (default: stdout)")
    sweep.set_defaults(func=cmd_sweep)

    # ---- worker ------------------------------------------------------- #
    worker = subparsers.add_parser(
        "worker", help="join a distributed sweep: claim, execute and "
                       "checkpoint jobs from a shared directory until the "
                       "sweep closes")
    worker.add_argument("shared_dir",
                        help="the sweep's shared directory (the "
                             "coordinator's --cache-dir)")
    worker.add_argument("--owner", default=None, metavar="ID",
                        help="lease owner id (default: generated "
                             "pid+random id — unique per process)")
    worker.add_argument("--lease-ttl", type=float, default=None,
                        metavar="SECONDS",
                        help="lease TTL if this worker creates the queue; "
                             "an existing queue's on-disk TTL always wins "
                             "(default: 30)")
    worker.add_argument("--poll-interval", type=float, default=0.05,
                        metavar="SECONDS",
                        help="idle scan interval (default: 0.05)")
    worker.add_argument("--max-idle", type=float, default=None,
                        metavar="SECONDS",
                        help="exit after this long with nothing claimable "
                             "on an open queue (default: wait for close)")
    worker.add_argument("--wait-for-queue", type=float, default=30.0,
                        metavar="SECONDS",
                        help="how long to wait for the coordinator to "
                             "create the queue (default: 30)")
    _add_retry_flags(worker)
    worker.add_argument("--output", default="-",
                        help="worker summary JSON destination "
                             "(default: stdout)")
    worker.set_defaults(func=cmd_worker)

    # ---- report ------------------------------------------------------- #
    report = subparsers.add_parser(
        "report", help="regenerate paper-figure artifacts (Markdown/CSV/"
                       "SVG/JSON per figure + index.md)")
    report.add_argument("--figure", action="append", default=None,
                        metavar="ID[,ID...]",
                        help="figure/table id to include (repeatable; "
                             "e.g. fig12, table3)")
    report.add_argument("--all", action="store_true",
                        help="include every paper figure/table")
    report.add_argument("--out-dir", default="report",
                        help="artifact directory (default: report/)")
    report.add_argument("--formats", action="append", default=None,
                        metavar="NAME[,NAME...]",
                        help="renderer subset (default: "
                             f"{','.join(renderer_names())}; the JSON "
                             "document is always written)")
    report.add_argument("--accesses", type=int, default=None,
                        help="accesses per workload (default: setup default)")
    report.add_argument("--per-category", type=int, default=None,
                        help="workloads taken per category (default: 2)")
    report.add_argument("--categories", action="append", default=None,
                        metavar="CAT[,CAT...]",
                        help="restrict the suite selection to these "
                             "categories")
    report.add_argument("--parallel", action="store_true",
                        help="fan the report's one job batch (every "
                             "figure's jobs) out over a process pool")
    report.add_argument("--max-workers", type=int, default=None,
                        help="process-pool size (default: cpu count)")
    report.add_argument("--cache-dir", default=None,
                        help="on-disk result cache directory shared across "
                             "figures (a warm cache re-runs no simulation)")
    _add_resilience_flags(report)
    report.set_defaults(func=cmd_report)

    # ---- trace -------------------------------------------------------- #
    trace = subparsers.add_parser(
        "trace", help="generate, convert and inspect trace files")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    generate = trace_sub.add_parser(
        "generate", help="serialise a catalogue workload to a trace file")
    generate.add_argument("--workload", required=True,
                          help="catalogue workload name")
    generate.add_argument("--accesses", type=int, default=20000,
                          help="memory accesses to generate (default: 20000)")
    generate.add_argument("--out", default="-",
                          help="destination path (default: stdout pipe)")
    generate.add_argument("--format", default=None,
                          help="trace format (default: by extension; "
                               f"{STDIO_DEFAULT_FORMAT} for stdio)")
    generate.set_defaults(func=cmd_trace_generate)

    convert = trace_sub.add_parser(
        "convert", help="re-encode a trace file into another format")
    convert.add_argument("source", help="input trace path (or -)")
    convert.add_argument("destination", help="output trace path (or -)")
    convert.add_argument("--in-format", default=None,
                         help="input format (default: by extension)")
    convert.add_argument("--out-format", default=None,
                         help="output format (default: by extension)")
    convert.set_defaults(func=cmd_trace_convert)

    inspect = trace_sub.add_parser(
        "inspect", help="stream a trace file and print summary statistics")
    inspect.add_argument("path", help="trace path (or -)")
    inspect.add_argument("--format", default=None,
                         help="trace format (default: by extension)")
    inspect.add_argument("--output", default="-",
                         help="JSON destination (default: stdout)")
    inspect.set_defaults(func=cmd_trace_inspect)

    # ---- config ------------------------------------------------------- #
    config = subparsers.add_parser(
        "config", help="dump, validate and explore config files")
    config_sub = config.add_subparsers(dest="config_command", required=True)

    dump = config_sub.add_parser(
        "dump", help="resolve a configuration (file/flags/--set) and "
                     "serialize it to a schema-stamped TOML/JSON file")
    _add_config_flags(dump)
    dump.add_argument("--format", choices=sorted(FORMATS), default=None,
                      help="output format (default: by --output extension; "
                           "toml for stdout)")
    dump.add_argument("--output", default="-",
                      help="destination path (default: stdout)")
    dump.set_defaults(func=cmd_config_dump)

    validate = config_sub.add_parser(
        "validate", help="strictly load a config file and run full "
                         "semantic validation")
    validate.add_argument("path", help="config file path (.toml/.json)")
    validate.set_defaults(func=cmd_config_validate)

    paths = config_sub.add_parser(
        "paths", help="list every dotted override path accepted by --set "
                      "and spec axes")
    paths.set_defaults(func=cmd_config_paths)

    # ---- serve -------------------------------------------------------- #
    serve = subparsers.add_parser(
        "serve", help="run the simulation-as-a-service daemon (JSON over "
                      "HTTP, single-flight job dedup)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8377,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8377)")
    serve.add_argument("--port-file", default=None, metavar="FILE",
                       help="write the bound port number to this file "
                            "after startup (for scripts using --port 0)")
    serve.add_argument("--cache-dir", default=None,
                       help="shared on-disk result cache: completed jobs "
                            "survive daemon restarts and are never "
                            "re-simulated")
    serve.add_argument("--max-workers", type=int, default=None,
                       help="simulation worker threads (default: 2)")
    serve.add_argument("--retries", type=int, default=0, metavar="N",
                       help="extra attempts per failed job (default: 0)")
    serve.add_argument("--retry-delay", type=float, default=0.0,
                       metavar="SECONDS",
                       help="backoff before retry n: delay * 2^(n-1) "
                            "seconds (default: 0)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock budget from execution "
                            "start (default: unbounded)")
    serve.set_defaults(func=cmd_serve)

    # ---- submit ------------------------------------------------------- #
    submit = subparsers.add_parser(
        "submit", help="submit jobs to a running daemon and await results")
    submit.add_argument("--server", required=True, metavar="URL",
                        help="service base URL, e.g. http://127.0.0.1:8377")
    submit.add_argument("--spec", default=None, metavar="FILE",
                        help="submit this TOML/JSON experiment-spec file "
                             "(expanded server-side)")
    submit.add_argument("--workload", default=None,
                        metavar="NAME[,NAME...]",
                        help="catalogue workload(s) for an ad-hoc "
                             "submission (instead of --spec)")
    submit.add_argument("--prefetcher", default=None,
                        help="ad-hoc submission prefetcher "
                             "(default: pythia)")
    submit.add_argument("--predictor", default=None,
                        help="ad-hoc submission off-chip predictor "
                             "(default: no Hermes)")
    submit.add_argument("--pessimistic", action="store_true",
                        help="use Hermes-P instead of Hermes-O")
    submit.add_argument("--accesses", type=int, default=None,
                        help="accesses per job (ad-hoc default: 20000; "
                             "for --spec: server-side sizing override)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the ticket and return immediately "
                             "instead of awaiting results")
    submit.add_argument("--stream", action="store_true",
                        help="print one JSON line per job in completion "
                             "order instead of one final document")
    submit.add_argument("--wait-timeout", type=float, default=300.0,
                        metavar="SECONDS",
                        help="completion budget when awaiting results "
                             "(default: 300)")
    submit.add_argument("--request-timeout", type=float, default=60.0,
                        metavar="SECONDS",
                        help="HTTP round-trip timeout (default: 60)")
    submit.add_argument("--output", default="-",
                        help="JSON destination (default: stdout)")
    submit.set_defaults(func=cmd_submit)

    # ---- lint --------------------------------------------------------- #
    from repro.lint.cli import add_lint_arguments
    lint = subparsers.add_parser(
        "lint",
        help="static analysis for repo invariants (rules RL001-RL007; "
             "exit 0 clean, 1 findings)")
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    return parser


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs shared by ``sweep`` and ``report``."""
    _add_retry_flags(parser)
    parser.add_argument("--on-error", choices=["raise", "skip"],
                        default="raise",
                        help="after every job reaches a terminal outcome: "
                             "'raise' fails the command (completed jobs "
                             "stay checkpointed), 'skip' degrades to "
                             "partial results with failures reported "
                             "(default: raise)")


def _add_retry_flags(parser: argparse.ArgumentParser) -> None:
    """The per-job attempt budget of ``sweep``, ``report`` and ``worker``."""
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="extra attempts per failed/timed-out job "
                             "(default: 0 — fail fast)")
    parser.add_argument("--retry-delay", type=float, default=0.0,
                        metavar="SECONDS",
                        help="backoff before retry n: delay * 2^(n-1) "
                             "seconds (default: 0)")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-attempt wall-clock budget; a breach is a "
                             "retriable timeout (default: unbounded)")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="load the system configuration from this "
                             "TOML/JSON config file (written by "
                             "'repro config dump' / SystemConfig.to_file); "
                             "excludes --prefetcher/--predictor/--pessimistic")
    parser.add_argument("--prefetcher", default=None,
                        help="prefetcher name, or 'none' (default: pythia)")
    parser.add_argument("--predictor", default=None,
                        help="off-chip predictor name enabling Hermes "
                             "(popet/hmp/ttp/ideal; default: no Hermes)")
    parser.add_argument("--pessimistic", action="store_true",
                        help="use Hermes-P instead of Hermes-O")
    parser.add_argument("--warmup-fraction", type=float, default=None,
                        help="override the config warmup fraction")
    parser.add_argument("--set", action="append", default=None,
                        metavar="KEY=VALUE",
                        help="dotted-path config override, e.g. "
                             "--set core.rob_size=512 or "
                             "--set hermes.enabled=true (repeatable; "
                             "'repro config paths' lists every key)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (console script ``repro`` / ``python -m repro``)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Only these two KeyError subclasses carry user-facing messages
    # (unknown component name / bad override path); any other KeyError
    # is a genuine bug and must keep its traceback.
    from repro.config.overrides import OverridePathError
    from repro.registry import UnknownComponentError
    from repro.runner.status import SweepError
    try:
        return args.func(args)
    except SweepError as exc:
        # Jobs failed after exhausting their attempt budget.  Completed
        # jobs are checkpointed (with --cache-dir), so this exit is
        # resumable; distinct code so wrappers can branch on it.
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 3
    except (UnknownComponentError, OverridePathError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `head`) closed the pipe; not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
