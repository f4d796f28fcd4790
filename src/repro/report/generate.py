"""One-command report generation: figures -> a self-contained artifact dir.

:func:`generate_report` runs any subset of the paper's figures/tables
through their :class:`~repro.report.figures.FigureSpec` adapters and
writes, per figure, one file per renderer (``fig12.md``, ``fig12.csv``,
``fig12.svg``, ...) plus the schema-stamped ``fig12.json`` document,
and finally an ``index.md`` linking every artifact.  Everything in the
output directory is deterministic text — no timestamps, no hostnames —
so two report runs over the same results diff clean.

A report runs in three stages: plan, execute, then reduce and render.
Every requested figure plans its jobs (:meth:`FigureSpec.plan`), and
all of them run as **one** batch through one runner built from the
caller's :class:`~repro.experiments.common.ExperimentSetup`: one
process pool under ``parallel=True``, and one
:class:`~repro.runner.cache.ResultCache` when a ``result_cache_dir``
is set.  The runner keys the batch once and looks up and executes each
distinct key once, so cross-figure duplicate jobs (e.g. the Pythia
baseline suite, which a dozen figures share) run once, and a re-run
against a warm cache directory executes no simulation at all — the
cache hit/miss counters in the returned :class:`ReportSummary` prove
it.  Each figure then reduces, normalizes and renders its slice of the
results.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.common import ExperimentSetup
from repro.report.figures import FigureSpec, figure_ids, get_figure
from repro.report.renderers import ReportRenderer, make_renderer, renderer_names
from repro.report.schema import FigureResult
from repro.runner import SweepError, SweepReport

#: Progress callback: called with one human-readable line per event.
LogFn = Callable[[str], None]


@dataclass
class FigureArtifact:
    """The on-disk artifacts of one rendered figure."""

    figure_id: str
    title: str
    #: Renderer name -> written file path (plus the ``json`` document).
    files: Dict[str, Path]
    #: Seconds to reduce, normalize and render (the jobs run as one
    #: batch before any figure, so no figure's share of them is known).
    elapsed_s: float


@dataclass
class FigureFailure:
    """A figure the report skipped: a job of its plan failed, or its
    reduction did."""

    figure_id: str
    error: str


@dataclass
class ReportSummary:
    """What a report run produced, and how the result cache behaved."""

    out_dir: Path
    artifacts: List[FigureArtifact] = field(default_factory=list)
    #: Figures skipped under ``on_error="skip"`` (always empty under
    #: the default ``"raise"`` — the failure propagates instead).
    failures: List[FigureFailure] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0

    @property
    def index_path(self) -> Path:
        """The report's entry page."""
        return self.out_dir / "index.md"


def _index_markdown(artifacts: Sequence[FigureArtifact],
                    renderers: Sequence[ReportRenderer],
                    failures: Sequence[FigureFailure] = ()) -> str:
    """The ``index.md`` text linking every figure's artifacts."""
    lines: List[str] = []
    lines.append("# Paper report")
    lines.append("")
    lines.append(f"{len(artifacts)} figure/table artifact(s), regenerable "
                 "with `repro report` (see docs/REPRODUCING.md).  Every "
                 "number below links to the same normalized figure-result "
                 "document rendered three ways; the `.json` file is the "
                 "source of truth.")
    lines.append("")
    columns = [renderer.name for renderer in renderers] + ["json"]
    lines.append("| figure | what it shows | " + " | ".join(columns) + " |")
    lines.append("|---|---|" + "---|" * len(columns))
    for artifact in artifacts:
        links = []
        for name in columns:
            path = artifact.files.get(name)
            links.append(f"[{name}]({path.name})" if path is not None else "—")
        lines.append(f"| {artifact.figure_id} | {artifact.title} | "
                     + " | ".join(links) + " |")
    if failures:
        lines.append("")
        lines.append("## Skipped figures")
        lines.append("")
        lines.append("These figures could not complete (run again with "
                     "the same `--cache-dir` to resume from the finished "
                     "cells):")
        lines.append("")
        for failure in failures:
            lines.append(f"- **{failure.figure_id}** — {failure.error}")
    return "\n".join(lines) + "\n"


def generate_report(figures: Optional[Sequence[str]] = None,
                    out_dir: Union[str, Path] = "report",
                    setup: Optional[ExperimentSetup] = None,
                    formats: Optional[Sequence[str]] = None,
                    log: Optional[LogFn] = None,
                    on_error: str = "raise") -> ReportSummary:
    """Run figures and write a self-contained ``report/`` directory.

    ``figures`` is a list of figure ids (``None`` = all 24, in paper
    order; an explicitly empty list is an error, never "everything");
    duplicates collapse to one run, and unknown ids fail fast before
    any simulation runs.  ``formats`` selects renderers by registry
    name (default: all).  ``on_error`` (not the setup's) decides what
    failed jobs do.  Under ``"raise"`` the batch raises
    :class:`~repro.runner.status.SweepError` once every job is
    terminal, before any figure renders.  ``"skip"`` degrades
    gracefully: a figure whose slice of the batch holds a failed job
    (even after the setup's retries), or whose reduction fails, is
    skipped and listed — in the summary's ``failures`` and in a
    "Skipped figures" index section — while the other figures render;
    every job that *did* finish is already checkpointed, so a re-run
    against the same cache resumes from the missing cells.  Returns a
    :class:`ReportSummary` with per-figure artifacts and the
    result-cache counters.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', "
                         f"got {on_error!r}")
    if figures is None:
        requested = figure_ids()
    else:
        requested = list(dict.fromkeys(figures))
        if not requested:
            raise ValueError("generate_report() got an empty figure list; "
                             "pass None to run every figure")
    specs: List[FigureSpec] = [get_figure(figure_id)
                               for figure_id in requested]
    renderers = [make_renderer(name)
                 for name in (formats if formats else renderer_names())]
    setup = setup or ExperimentSetup()
    emit: LogFn = log or (lambda line: None)

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    summary = ReportSummary(out_dir=out_path)
    started = time.perf_counter()
    plans = [spec.plan(setup) for spec in specs]
    jobs = [job for plan in plans for job in plan.jobs]
    emit(f"running {len(jobs)} job(s) of {len(specs)} figure(s) ...")
    runner = dataclasses.replace(setup, on_error=on_error).runner()
    results, report = runner.run_report(jobs, "report")
    end = 0
    for spec, plan in zip(specs, plans):
        start, end = end, end + len(plan.jobs)
        figure_started = time.perf_counter()
        outcomes = report.outcomes[start:end]
        try:
            if any(not outcome.ok for outcome in outcomes):
                raise SweepError(SweepReport(spec.figure_id, outcomes))
            result: FigureResult = spec.collect(plan, results[start:end])
        except Exception as exc:  # noqa: BLE001 — degrade per figure
            if on_error == "raise":
                raise
            error = f"{type(exc).__name__}: {exc}"
            summary.failures.append(FigureFailure(spec.figure_id, error))
            emit(f"{spec.figure_id}: SKIPPED — {error}")
            continue
        files: Dict[str, Path] = {}
        for renderer in renderers:
            path = out_path / f"{spec.figure_id}.{renderer.extension}"
            path.write_text(renderer.render(result), encoding="utf-8")
            files[renderer.name] = path
        json_path = out_path / f"{spec.figure_id}.json"
        json_path.write_text(result.to_json(), encoding="utf-8")
        files["json"] = json_path
        elapsed = time.perf_counter() - figure_started
        summary.artifacts.append(FigureArtifact(
            figure_id=spec.figure_id, title=spec.title, files=files,
            elapsed_s=elapsed))
        emit(f"{spec.figure_id}: {len(files)} artifact(s) in {elapsed:.1f}s")

    summary.index_path.write_text(_index_markdown(summary.artifacts,
                                                  renderers,
                                                  summary.failures),
                                  encoding="utf-8")
    cache = runner.result_cache
    if cache is not None:
        summary.cache_hits = cache.hits
        summary.cache_misses = cache.misses
        emit(f"result cache: {summary.cache_hits} hit(s), "
             f"{summary.cache_misses} miss(es)")
    summary.elapsed_s = time.perf_counter() - started
    return summary
