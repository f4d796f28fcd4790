"""Adapters wrapping every paper-figure runner into the report schema.

One :class:`FigureSpec` per figure/table of the paper: which runner in
:mod:`repro.experiments` produces it, what it shows (the EXPERIMENTS.md
index text), which chart form it takes, and — crucially — the *shape*
of the runner's payload, from which :meth:`FigureSpec.normalize` builds
the long-form :class:`~repro.report.schema.FigureResult` without the
runner changing its return value.  The five payload shapes cover all 24
runners:

``flat``
    ``{x: value}`` — one implicit series (``series_name``).
``xs``
    ``{x: {series: value}}`` — x-major nesting (most figures).
``sx``
    ``{series: {x: value}}`` — series-major nesting (Fig. 12).
``nested_xs``
    ``{x: {a: {b: value}}}`` — series is the compound ``"a.b"``.
``nested_sx``
    ``{a: {x: {b: value}}}`` — series is the compound ``"a.b"``.

This module is intentionally import-light (stdlib + the schema module):
the CLI builds its ``--figure`` choices from :data:`FIGURE_RUNNERS` at
parse time, and ``tools/gen_experiments_index.py`` regenerates the
EXPERIMENTS.md index from these specs, neither of which should pay for
the simulator import chain.  Runner modules load lazily inside
:meth:`FigureSpec.plan`, which returns the runner's plan; both
:meth:`FigureSpec.run` and ``repro report`` run that plan.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional

from repro.registry import UnknownComponentError
from repro.report.schema import Cell, FigureResult, x_label_of

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps imports light
    from repro.experiments.common import ExperimentSetup
    from repro.runner.job import SweepSpec

#: The payload shapes normalize() understands (see module docstring).
SHAPES = ("flat", "xs", "sx", "nested_xs", "nested_sx")


@dataclass(frozen=True)
class FigureSpec:
    """Everything the report subsystem knows about one paper figure."""

    #: CLI/report identifier (``fig02`` ... ``table6``).
    figure_id: str
    #: Runner attribute in :mod:`repro.experiments`.
    runner_name: str
    #: One-line "what it shows" text (EXPERIMENTS.md index column).
    title: str
    #: SVG chart form: ``"bar"`` or ``"line"``.
    chart: str
    #: Payload shape, one of :data:`SHAPES`.
    shape: str
    #: Axis captions.
    x_label: str
    y_label: str
    #: Benchmark file asserting this figure's shape (``benchmarks/``).
    benchmark: str
    #: Series name for ``flat`` payloads.
    series_name: str = "value"
    #: For nested shapes: foreground only compound series with this
    #: final component in the SVG (Fig. 11 has 10 series; charts cap at
    #: the distinguishable-palette size, tables/CSV keep everything).
    chart_metric: Optional[str] = None

    # ------------------------------------------------------------------ #

    def display_name(self) -> str:
        """The paper's name for this artifact (``fig02`` -> ``Fig. 2``)."""
        if self.figure_id.startswith("fig"):
            number = self.figure_id[3:].lstrip("0")
            return f"Fig. {number}"
        return f"Table {self.figure_id[5:]}"

    def run(self, setup: Optional["ExperimentSetup"] = None) -> Any:
        """Run the figure's plan through ``setup``'s runner and reduce it.

        ``repro sweep --figure`` calls this; ``repro report`` batches
        the same plans, so both paths reduce the same jobs.
        """
        from repro.experiments.common import run_plan
        return run_plan(setup, self.plan(setup))

    def plan(self, setup: Optional["ExperimentSetup"] = None) -> "SweepSpec":
        """The figure's jobs and reducer: its runner's ``plan``.

        Imports :mod:`repro.experiments` lazily so spec metadata stays
        cheap to load.  ``setup`` goes to every plan that takes one;
        the closed-form tables' plans take none.
        """
        import repro.experiments as experiments
        runner = getattr(experiments, self.runner_name)
        if "setup" in inspect.signature(runner).parameters:
            return runner.plan(setup=setup)
        return runner.plan()

    def collect(self, plan: "SweepSpec", results: List[Any]) -> FigureResult:
        """Reduce a plan's results and normalize the payload in one step."""
        return self.normalize(plan.reduce(results))

    # ------------------------------------------------------------------ #

    def normalize(self, payload: Any) -> FigureResult:
        """Wrap a runner payload into a :class:`FigureResult`.

        Pure: never mutates or re-runs anything, so it can normalize
        payloads loaded back from ``repro sweep --figure ... --output``
        files just as well as fresh in-process returns.  Series/x
        order follows the payload's own key order — the paper's
        presentation order for fresh runner returns, sorted-key order
        for documents reloaded from JSON (where the original order is
        not recoverable); the cell *data* is identical either way.
        """
        cells = _SHAPE_NORMALIZERS[self.shape](self, payload)
        chart_series = None
        if self.chart_metric is not None:
            suffix = f".{self.chart_metric}"
            names: List[str] = []
            for name, _, _ in cells:
                if name.endswith(suffix) and name not in names:
                    names.append(name)
            chart_series = names
        return FigureResult.build(
            figure_id=self.figure_id, title=self.title, chart=self.chart,
            x_label=self.x_label, y_label=self.y_label, cells=cells,
            payload=payload, chart_series=chart_series)


# ---------------------------------------------------------------------- #
# Shape normalizers (payload -> long-form cells)
# ---------------------------------------------------------------------- #

def _require_mapping(payload: Any, spec: FigureSpec) -> Mapping:
    if not isinstance(payload, Mapping):
        raise TypeError(
            f"{spec.figure_id} payload must be a mapping "
            f"(shape {spec.shape!r}), got {type(payload).__name__}")
    return payload


def _flat_cells(spec: FigureSpec, payload: Any) -> List[Cell]:
    return [(spec.series_name, x_label_of(x), float(value))
            for x, value in _require_mapping(payload, spec).items()]


def _xs_cells(spec: FigureSpec, payload: Any) -> List[Cell]:
    cells: List[Cell] = []
    for x, row in _require_mapping(payload, spec).items():
        for series, value in row.items():
            cells.append((x_label_of(series), x_label_of(x), float(value)))
    return cells


def _sx_cells(spec: FigureSpec, payload: Any) -> List[Cell]:
    cells: List[Cell] = []
    for series, row in _require_mapping(payload, spec).items():
        for x, value in row.items():
            cells.append((x_label_of(series), x_label_of(x), float(value)))
    return cells


def _nested_xs_cells(spec: FigureSpec, payload: Any) -> List[Cell]:
    cells: List[Cell] = []
    for x, outer in _require_mapping(payload, spec).items():
        for first, inner in outer.items():
            for second, value in inner.items():
                cells.append((f"{x_label_of(first)}.{x_label_of(second)}",
                              x_label_of(x), float(value)))
    return cells


def _nested_sx_cells(spec: FigureSpec, payload: Any) -> List[Cell]:
    cells: List[Cell] = []
    for first, outer in _require_mapping(payload, spec).items():
        for x, inner in outer.items():
            for second, value in inner.items():
                cells.append((f"{x_label_of(first)}.{x_label_of(second)}",
                              x_label_of(x), float(value)))
    return cells


_SHAPE_NORMALIZERS = {
    "flat": _flat_cells,
    "xs": _xs_cells,
    "sx": _sx_cells,
    "nested_xs": _nested_xs_cells,
    "nested_sx": _nested_sx_cells,
}


# ---------------------------------------------------------------------- #
# The figure catalogue
# ---------------------------------------------------------------------- #

#: All registered figure specs, in paper order.
_SPECS: Dict[str, FigureSpec] = {}


def register_figure(spec: FigureSpec) -> FigureSpec:
    """Register a figure spec under its id (duplicates are rejected).

    Third-party figures plug in exactly like trace formats and
    prefetchers do: register a spec and it appears in ``repro report``,
    the ``--figure`` choices, and the generated EXPERIMENTS.md index.
    """
    if spec.figure_id in _SPECS:
        raise ValueError(f"duplicate figure id {spec.figure_id!r}")
    if spec.shape not in SHAPES:
        raise ValueError(f"unknown payload shape {spec.shape!r} "
                         f"for {spec.figure_id}; known: {SHAPES}")
    if spec.chart not in ("bar", "line"):
        raise ValueError(f"unknown chart form {spec.chart!r} "
                         f"for {spec.figure_id}")
    _SPECS[spec.figure_id] = spec
    return spec


def figure_ids() -> List[str]:
    """All figure ids, in paper order."""
    return list(_SPECS)


def get_figure(figure_id: str) -> FigureSpec:
    """The spec registered under ``figure_id`` (loud on unknown names)."""
    try:
        return _SPECS[figure_id]
    except KeyError:
        raise UnknownComponentError("figure", figure_id,
                                    figure_ids()) from None


def _add(figure_id: str, runner_name: str, title: str, chart: str,
         shape: str, x_label: str, y_label: str, benchmark: str,
         **kwargs: Any) -> None:
    register_figure(FigureSpec(figure_id=figure_id, runner_name=runner_name,
                               title=title, chart=chart, shape=shape,
                               x_label=x_label, y_label=y_label,
                               benchmark=benchmark, **kwargs))


_add("fig02", "run_fig02_offchip_loads",
     "Off-chip loads (blocking vs non-blocking), no-prefetch vs Pythia",
     "bar", "xs", "category", "off-chip loads (normalized) / LLC MPKI",
     "test_fig02_offchip_loads.py")
_add("fig03", "run_fig03_stall_cycles",
     "Stall cycles per blocking off-chip load; on-chip share",
     "bar", "xs", "category", "stall cycles / on-chip fraction",
     "test_fig03_stall_cycles.py")
_add("fig04", "run_fig04_ideal_hermes",
     "Ideal-Hermes potential, alone and with each prefetcher",
     "bar", "xs", "system", "geomean speedup over no-prefetching",
     "test_fig04_ideal_hermes.py")
_add("fig05", "run_fig05_offchip_rate",
     "Off-chip load fraction and LLC MPKI (Pythia baseline)",
     "bar", "xs", "category", "off-chip load fraction / LLC MPKI",
     "test_fig05_offchip_rate.py")
_add("fig09", "run_fig09_accuracy_coverage",
     "Accuracy/coverage: POPET vs HMP vs TTP",
     "bar", "nested_sx", "category", "accuracy / coverage",
     "test_fig09_accuracy_coverage.py")
_add("fig10", "run_fig10_feature_ablation",
     "POPET feature ablation (individual + stacked)",
     "bar", "xs", "feature set", "accuracy / coverage",
     "test_fig10_feature_ablation.py")
_add("fig11", "run_fig11_feature_variability",
     "Per-workload accuracy/coverage of each feature",
     "bar", "nested_xs", "workload", "accuracy (coverage in table/CSV)",
     "test_fig11_feature_variability.py", chart_metric="accuracy")
_add("fig12", "run_fig12_singlecore_speedup",
     "Single-core speedup of the five systems",
     "bar", "sx", "category", "geomean speedup over no-prefetching",
     "test_fig12_singlecore_speedup.py")
_add("fig13", "run_fig13_per_workload_speedup",
     "Per-workload speedup line graph",
     "line", "xs", "workload", "speedup over no-prefetching",
     "test_fig13_per_workload.py")
_add("fig14", "run_fig14_predictor_comparison",
     "Speedup with HMP/TTP/POPET/Ideal predictors",
     "bar", "flat", "system", "geomean speedup over no-prefetching",
     "test_fig14_predictor_comparison.py", series_name="speedup")
_add("fig15", "run_fig15_stalls_and_overhead",
     "Stall reduction and memory-request overhead",
     "bar", "flat", "metric", "percent",
     "test_fig15_stalls_and_overhead.py", series_name="percent")
_add("fig16", "run_fig16_multicore",
     "Eight-core throughput speedup",
     "bar", "flat", "system", "geomean throughput speedup",
     "test_fig16_multicore.py", series_name="speedup")
_add("fig17a", "run_fig17a_bandwidth_sensitivity",
     "Bandwidth sensitivity (MTPS sweep)",
     "line", "xs", "memory bandwidth (MTPS)",
     "geomean speedup over no-prefetching", "test_fig17a_bandwidth.py")
_add("fig17b", "run_fig17b_prefetcher_sensitivity",
     "Hermes on top of each prefetcher",
     "bar", "xs", "prefetcher", "geomean speedup over no-prefetching",
     "test_fig17b_prefetchers.py")
_add("fig17c", "run_fig17c_issue_latency_sensitivity",
     "Hermes issue-latency sensitivity",
     "line", "xs", "Hermes issue latency (cycles)",
     "geomean speedup over no-prefetching", "test_fig17c_issue_latency.py")
_add("fig17d", "run_fig17d_cache_latency_sensitivity",
     "LLC access-latency sensitivity",
     "line", "xs", "LLC latency (cycles)",
     "geomean speedup over no-prefetching", "test_fig17d_cache_latency.py")
_add("fig17e", "run_fig17e_activation_threshold",
     "POPET activation-threshold sweep",
     "line", "xs", "activation threshold",
     "accuracy / coverage / speedup", "test_fig17e_activation_threshold.py")
_add("fig18", "run_fig18_power",
     "Runtime dynamic power",
     "bar", "flat", "system", "relative dynamic power",
     "test_fig18_power.py", series_name="relative_power")
_add("fig19", "run_fig19_rob_size_sensitivity",
     "ROB-size sensitivity",
     "line", "xs", "ROB size (entries)",
     "geomean speedup over no-prefetching", "test_fig19_rob_size.py")
_add("fig20", "run_fig20_llc_size_sensitivity",
     "LLC-size sensitivity",
     "line", "xs", "LLC size (MB)",
     "geomean speedup over no-prefetching", "test_fig20_llc_size.py")
_add("fig21", "run_fig21_accuracy_by_prefetcher",
     "POPET accuracy/coverage by baseline prefetcher",
     "bar", "xs", "system", "accuracy / coverage",
     "test_fig21_accuracy_by_prefetcher.py")
_add("fig22", "run_fig22_overhead_by_prefetcher",
     "Memory-request overhead by prefetcher",
     "bar", "xs", "prefetcher", "main-memory request overhead (%)",
     "test_fig22_overhead_by_prefetcher.py")
_add("table3", "run_table3_storage",
     "Hermes storage breakdown (4 KB/core)",
     "bar", "flat", "structure", "storage (KB)",
     "test_table3_storage.py", series_name="storage_kb")
_add("table6", "run_table6_storage",
     "Storage of every evaluated mechanism",
     "bar", "flat", "mechanism", "storage (KB)",
     "test_table6_storage_all.py", series_name="storage_kb")


#: Figure id -> runner attribute, for the CLI's ``--figure`` dispatch.
FIGURE_RUNNERS: Dict[str, str] = {
    figure_id: spec.runner_name for figure_id, spec in _SPECS.items()}
