"""Tests of the report subsystem: schema, adapters, renderers, CLI.

Covers the contracts DESIGN.md §10 promises:

* strict ``FigureResult`` round-trips under ``REPORT_SCHEMA_VERSION``;
* the five payload-shape normalizers behind the 24 figure adapters;
* byte-stable renderers (golden SVG files for one bar and one line
  chart — regenerate them with
  ``python tests/test_report.py --write-golden`` after an intentional
  renderer change, and say so in the PR);
* ``repro sweep --figure`` and the report path serializing payloads
  identically (the canonicalization bugfix);
* ``repro report`` end to end, including warm-cache re-runs;
* the generated EXPERIMENTS.md figure index being in sync.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from repro.report import (
    REPORT_SCHEMA_VERSION,
    FigureResult,
    ReportSchemaError,
    canonical_payload,
    figure_ids,
    get_figure,
)
from repro.report.figures import FIGURE_RUNNERS
from repro.report.renderers import make_renderer, renderer_names
from repro.report.schema import x_label_of
from repro.registry import UnknownComponentError

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_cli(*args: str, expect_rc: int = 0) -> subprocess.CompletedProcess:
    """Invoke ``python -m repro`` with src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == expect_rc, (
        f"rc={proc.returncode}, stderr:\n{proc.stderr.decode()}")
    return proc


# ---------------------------------------------------------------------- #
# Deterministic fixture figures (also the golden-SVG sources)
# ---------------------------------------------------------------------- #

def bar_fixture() -> FigureResult:
    """A small grouped-bar figure with a hole (sparse Fig. 4 shape)."""
    return FigureResult.build(
        figure_id="figXX", title="Golden bar fixture", chart="bar",
        x_label="category", y_label="speedup",
        cells=[("pythia", "SPEC06", 1.25), ("pythia", "Ligra", 1.5),
               ("pythia+hermes", "SPEC06", 1.4),
               ("hermes", "Ligra", 1.1)],
        payload={"SPEC06": {"pythia": 1.25, "pythia+hermes": 1.4},
                 "Ligra": {"pythia": 1.5, "hermes": 1.1}})


def line_fixture() -> FigureResult:
    """A two-series line figure over a numeric x axis."""
    return FigureResult.build(
        figure_id="figYY", title="Golden line fixture", chart="line",
        x_label="ROB size", y_label="speedup",
        cells=[("pythia", "256", 1.2), ("pythia", "512", 1.25),
               ("pythia", "1024", 1.27),
               ("pythia+hermes", "256", 1.3), ("pythia+hermes", "512", 1.38),
               ("pythia+hermes", "1024", 1.41)],
        payload={256: {"pythia": 1.2, "pythia+hermes": 1.3},
                 512: {"pythia": 1.25, "pythia+hermes": 1.38},
                 1024: {"pythia": 1.27, "pythia+hermes": 1.41}})


# ---------------------------------------------------------------------- #
# Schema
# ---------------------------------------------------------------------- #

class TestSchema:
    def test_build_orders_and_derives(self):
        result = bar_fixture()
        assert result.series == ["pythia", "pythia+hermes", "hermes"]
        assert result.x_values == ["SPEC06", "Ligra"]
        # Cells re-sorted by (series rank, x rank).
        assert result.cells[0] == ("pythia", "SPEC06", 1.25)
        assert result.derived["pythia.mean"] == pytest.approx(1.375)
        assert result.derived["pythia.geomean"] == pytest.approx(
            (1.25 * 1.5) ** 0.5)

    def test_geomean_absent_for_nonpositive_series(self):
        result = FigureResult.build(
            figure_id="f", title="t", chart="bar", x_label="x", y_label="y",
            cells=[("s", "a", -1.0), ("s", "b", 2.0)], payload={})
        assert "s.mean" in result.derived
        assert "s.geomean" not in result.derived

    def test_round_trip_in_memory_and_through_json(self):
        for result in (bar_fixture(), line_fixture()):
            assert FigureResult.from_dict(result.to_dict()) == result
            reloaded = FigureResult.from_dict(json.loads(result.to_json()))
            assert reloaded == result

    def test_from_dict_rejects_unknown_key(self):
        document = bar_fixture().to_dict()
        document["surprise"] = 1
        with pytest.raises(ReportSchemaError, match="unknown"):
            FigureResult.from_dict(document)

    def test_from_dict_rejects_missing_key(self):
        document = bar_fixture().to_dict()
        del document["cells"]
        with pytest.raises(ReportSchemaError, match="missing"):
            FigureResult.from_dict(document)

    def test_from_dict_rejects_version_mismatch(self):
        document = bar_fixture().to_dict()
        document["schema_version"] = REPORT_SCHEMA_VERSION + 1
        with pytest.raises(ReportSchemaError, match="version"):
            FigureResult.from_dict(document)

    def test_from_dict_rejects_malformed_cell(self):
        document = bar_fixture().to_dict()
        document["cells"] = [["series-only"]]
        with pytest.raises(ReportSchemaError, match="malformed cell"):
            FigureResult.from_dict(document)

    def test_canonical_payload_stringifies_keys_like_json(self):
        payload = {800: {"a": 1.5}, 1600: {"a": 2.0}}
        canonical = canonical_payload(payload)
        assert set(canonical) == {"800", "1600"}
        # Idempotent, and JSON-equal to the raw payload's dump.
        assert canonical_payload(canonical) == canonical
        assert canonical == json.loads(
            json.dumps(payload, sort_keys=True, default=str))
        # The very bug canonicalization fixes: dumping the *raw* payload
        # orders int keys numerically (800 before 1600) while every
        # later dump of the parsed document orders the string keys
        # lexicographically ("1600" before "800") — so the raw dump is
        # not stable under a read-back/re-write cycle, the canonical
        # one is.
        raw_dump = json.dumps(payload, sort_keys=True, default=str)
        canonical_dump = json.dumps(canonical, sort_keys=True, default=str)
        assert raw_dump != canonical_dump
        assert json.dumps(json.loads(canonical_dump), sort_keys=True,
                          default=str) == canonical_dump

    def test_x_label_of_matches_json_key_semantics(self):
        assert x_label_of("a") == "a"
        assert x_label_of(800) == "800"
        assert x_label_of(3.0) == "3.0"
        assert x_label_of(-22) == "-22"
        assert x_label_of(True) == "true"

    def test_sparse_value_lookup(self):
        result = bar_fixture()
        assert result.value("hermes", "SPEC06") is None
        assert result.value("hermes", "Ligra") == pytest.approx(1.1)


# ---------------------------------------------------------------------- #
# Figure catalogue + normalizers
# ---------------------------------------------------------------------- #

class TestFigureCatalogue:
    def test_all_24_figures_registered_in_paper_order(self):
        ids = figure_ids()
        assert len(ids) == 24
        assert ids[0] == "fig02" and ids[-1] == "table6"
        assert FIGURE_RUNNERS == {fid: get_figure(fid).runner_name
                                  for fid in ids}

    def test_runners_exist_and_benchmarks_exist(self):
        import repro.experiments as experiments
        for fid in figure_ids():
            spec = get_figure(fid)
            assert callable(getattr(experiments, spec.runner_name))
            assert (REPO_ROOT / "benchmarks" / spec.benchmark).is_file()

    def test_each_plan_takes_its_runners_parameters(self):
        """Every runner, the closed-form tables' included, is derived
        from its figure's plan: same name stem, same parameters in the
        same order with the same defaults."""
        import inspect

        import repro.experiments as experiments
        for fid in figure_ids():
            spec = get_figure(fid)
            runner = getattr(experiments, spec.runner_name)
            plan = getattr(experiments,
                           "plan_" + spec.runner_name[len("run_"):])
            assert runner.__name__ == spec.runner_name, fid
            assert runner.plan is plan, fid
            assert (inspect.signature(plan).parameters
                    == inspect.signature(runner).parameters), fid

    def test_unknown_figure_is_loud(self):
        with pytest.raises(UnknownComponentError, match="fig99"):
            get_figure("fig99")

    def test_flat_normalizer(self):
        result = get_figure("fig14").normalize(
            {"pythia": 1.2, "pythia+hermes-popet": 1.4})
        assert result.series == ["speedup"]
        assert result.value("speedup", "pythia+hermes-popet") == 1.4

    def test_xs_normalizer_with_int_keys(self):
        result = get_figure("fig17e").normalize(
            {-30: {"accuracy": 0.5, "speedup": 1.1},
             -2: {"accuracy": 0.7, "speedup": 1.2}})
        assert result.x_values == ["-30", "-2"]
        assert result.value("accuracy", "-2") == pytest.approx(0.7)
        # Payload canonicalized: int keys already JSON strings.
        assert set(result.payload) == {"-30", "-2"}
        assert FigureResult.from_dict(
            json.loads(result.to_json())) == result

    def test_sx_normalizer(self):
        result = get_figure("fig12").normalize(
            {"hermes-O": {"SPEC06": 1.1, "GEOMEAN": 1.12},
             "pythia": {"SPEC06": 1.3, "GEOMEAN": 1.28}})
        assert result.series == ["hermes-O", "pythia"]
        assert result.x_values == ["SPEC06", "GEOMEAN"]

    def test_nested_xs_normalizer_foregrounds_chart_metric(self):
        payload = {
            "w1": {"featA": {"accuracy": 0.8, "coverage": 0.5},
                   "featB": {"accuracy": 0.6, "coverage": 0.7}},
            "w2": {"featA": {"accuracy": 0.7, "coverage": 0.4},
                   "featB": {"accuracy": 0.9, "coverage": 0.6}},
        }
        result = get_figure("fig11").normalize(payload)
        assert "featA.accuracy" in result.series
        assert "featA.coverage" in result.series
        assert result.chart_series == ["featA.accuracy", "featB.accuracy"]
        assert result.charted_series() == result.chart_series

    def test_nested_sx_normalizer(self):
        result = get_figure("fig09").normalize(
            {"popet": {"SPEC06": {"accuracy": 0.9, "coverage": 0.8}},
             "hmp": {"SPEC06": {"accuracy": 0.6, "coverage": 0.5}}})
        assert result.series == ["popet.accuracy", "popet.coverage",
                                 "hmp.accuracy", "hmp.coverage"]
        assert result.x_values == ["SPEC06"]


# ---------------------------------------------------------------------- #
# Renderers
# ---------------------------------------------------------------------- #

class TestRenderers:
    def test_registry_has_the_three_builtins(self):
        assert renderer_names() == ["csv", "markdown", "svg"]

    def test_markdown_table_and_hole(self):
        text = make_renderer("markdown").render(bar_fixture())
        assert "# figXX — Golden bar fixture" in text
        assert "| category | pythia | pythia+hermes | hermes |" in text
        assert "—" in text  # the sparse hermes/SPEC06 cell
        assert "## Derived metrics" in text

    def test_csv_parses_and_preserves_holes(self):
        text = make_renderer("csv").render(bar_fixture())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["category", "pythia", "pythia+hermes", "hermes"]
        assert rows[1] == ["SPEC06", "1.25", "1.4", ""]
        assert rows[2] == ["Ligra", "1.5", "", "1.1"]

    def test_svg_is_well_formed_with_expected_marks(self):
        for fixture, mark, count in ((bar_fixture(), "rect", 4),
                                     (line_fixture(), "circle", 6)):
            text = make_renderer("svg").render(fixture)
            root = ET.fromstring(text)
            ns = "{http://www.w3.org/2000/svg}"
            marks = [el for el in root.iter(f"{ns}{mark}")
                     if el.find(f"{ns}title") is not None]
            assert len(marks) == count, fixture.figure_id

    @pytest.mark.parametrize("name,fixture", [
        ("report_bar.svg", bar_fixture),
        ("report_line.svg", line_fixture),
    ])
    def test_golden_svg_byte_identical(self, name, fixture):
        golden = GOLDEN_DIR / name
        rendered = make_renderer("svg").render(fixture())
        assert golden.is_file(), (
            f"golden file {golden} missing; regenerate with "
            f"python tests/test_report.py --write-golden")
        assert rendered == golden.read_text(encoding="utf-8"), (
            f"{name} drifted; if the renderer change is intentional, "
            f"regenerate with python tests/test_report.py --write-golden "
            f"and say so in the PR")

    def test_rendering_is_deterministic(self):
        svg = make_renderer("svg")
        assert svg.render(line_fixture()) == svg.render(line_fixture())


# ---------------------------------------------------------------------- #
# sweep --figure <-> report serialization identity (the PR 5 bugfix)
# ---------------------------------------------------------------------- #

class TestSweepReportSerializationIdentity:
    def test_table3_round_trips_without_loss(self, tmp_path):
        out = tmp_path / "table3.json"
        run_cli("sweep", "--figure", "table3", "--output", str(out))
        sweep_payload = json.loads(out.read_text())["result"]
        from repro.experiments import run_table3_storage
        result = get_figure("table3").normalize(run_table3_storage())
        assert result.payload == sweep_payload
        assert FigureResult.from_dict(
            json.loads(result.to_json())).payload == sweep_payload

    def test_figure_run_reduces_the_plan_the_report_reduces(self, tmp_path):
        from repro.experiments.common import ExperimentSetup
        from repro.report.generate import generate_report
        setup = ExperimentSetup(num_accesses=600, per_category=1,
                                categories=["Ligra"],
                                result_cache_dir=tmp_path / "cache")
        generate_report(["fig05"], out_dir=tmp_path / "report", setup=setup)
        document = json.loads((tmp_path / "report" / "fig05.json").read_text())
        assert (canonical_payload(get_figure("fig05").run(setup))
                == document["payload"])

    def test_int_axis_payloads_serialize_identically(self):
        # The regression: sweep dumped raw int keys (numeric sort) while
        # the report dumped canonical string keys (lexicographic sort),
        # so the same figure serialized differently on the two paths.
        payload = {-30: {"s": 1.0}, -2: {"s": 2.0}, -22: {"s": 3.0}}
        via_report = get_figure("fig17e").normalize(payload).payload
        via_sweep = canonical_payload(payload)  # what cmd_sweep now emits
        dump = lambda p: json.dumps(p, indent=2, sort_keys=True, default=str)
        assert dump(via_report) == dump(via_sweep)
        assert dump(canonical_payload(via_sweep)) == dump(via_sweep)


# ---------------------------------------------------------------------- #
# generate_report + repro report CLI
# ---------------------------------------------------------------------- #

class TestGenerateReport:
    def test_two_figures_end_to_end_then_warm_cache(self, tmp_path):
        from repro.experiments.common import ExperimentSetup
        from repro.report.generate import generate_report
        setup = ExperimentSetup(num_accesses=600, per_category=1,
                                result_cache_dir=tmp_path / "cache")
        out = tmp_path / "report"
        summary = generate_report(["table3", "fig05"], out_dir=out,
                                  setup=setup)
        assert summary.cache_misses > 0 and summary.cache_hits == 0
        for fid in ("table3", "fig05"):
            for ext in ("md", "csv", "svg", "json"):
                assert (out / f"{fid}.{ext}").is_file()
        index = (out / "index.md").read_text()
        assert "(fig05.svg)" in index and "(table3.json)" in index
        document = json.loads((out / "fig05.json").read_text())
        assert FigureResult.from_dict(document).figure_id == "fig05"

        # Second run, same cache dir: no simulation executes.
        out2 = tmp_path / "report2"
        summary2 = generate_report(["table3", "fig05"], out_dir=out2,
                                   setup=setup)
        assert summary2.cache_misses == 0 and summary2.cache_hits > 0
        for artifact in summary.artifacts:
            for name, path in artifact.files.items():
                twin = out2 / path.name
                assert twin.read_bytes() == path.read_bytes(), path.name

    def test_cross_figure_job_sharing(self, tmp_path):
        # fig03 and fig05 both run the Pythia baseline suite; the report
        # runs both plans as one batch, so each distinct job is looked
        # up, executed and cached once.
        from repro.experiments.common import ExperimentSetup
        from repro.report.generate import generate_report
        from repro.runner import ResultCache
        setup = ExperimentSetup(num_accesses=600, per_category=1,
                                result_cache_dir=tmp_path / "cache")
        jobs = [job for fid in ("fig03", "fig05")
                for job in get_figure(fid).plan(setup).jobs]
        distinct = len({job.key() for job in jobs})
        assert distinct < len(jobs)
        cold = generate_report(["fig03", "fig05"],
                               out_dir=tmp_path / "cold", setup=setup)
        assert cold.cache_hits == 0
        assert cold.cache_misses == distinct == len(
            ResultCache(tmp_path / "cache"))
        warm = generate_report(["fig03", "fig05"],
                               out_dir=tmp_path / "warm", setup=setup)
        assert (warm.cache_hits, warm.cache_misses) == (distinct, 0)

    def test_one_backend_batch_for_all_figures(self, tmp_path, monkeypatch):
        from repro.experiments.common import ExperimentSetup
        from repro.report.generate import generate_report
        from repro.runner import SerialBackend
        batches = []
        run_outcomes = SerialBackend.run_outcomes

        def counted(self, jobs, *args, **kwargs):
            batches.append(len(jobs))
            return run_outcomes(self, jobs, *args, **kwargs)

        monkeypatch.setattr(SerialBackend, "run_outcomes", counted)
        setup = ExperimentSetup(num_accesses=600, per_category=1,
                                categories=["Ligra", "SPEC06"])
        figures = ["fig02", "fig03", "fig05", "fig15", "table3"]
        summary = generate_report(figures, out_dir=tmp_path / "report",
                                  setup=setup)
        assert [a.figure_id for a in summary.artifacts] == figures
        distinct = {job.key() for fid in figures
                    for job in get_figure(fid).plan(setup).jobs}
        assert batches == [len(distinct)]

    def test_skip_drops_exactly_the_figures_holding_a_failed_job(
            self, tmp_path, monkeypatch):
        from repro.experiments.common import ExperimentSetup
        from repro.report.generate import generate_report
        from repro.runner import FaultPlan, FaultSpec, SimJob, SweepError
        from repro.runner.faults import FAULTS_ENV
        from repro.sim.config import SystemConfig
        setup = ExperimentSetup(num_accesses=600, per_category=1,
                                categories=["Ligra", "SPEC06"])
        doomed = SimJob(config=SystemConfig.no_prefetching(),
                        workload=setup.workload_names()[0],
                        num_accesses=600).key()
        monkeypatch.setenv(FAULTS_ENV, FaultPlan(
            faults={doomed: FaultSpec(kind="raise")}).to_json())
        figures = ["fig02", "fig03", "fig15", "table3"]
        holding = [fid for fid in figures if doomed in {
            job.key() for job in get_figure(fid).plan(setup).jobs}]
        assert holding == ["fig02", "fig15"]
        # Under "raise" the batch fails before any figure renders.
        with pytest.raises(SweepError):
            generate_report(figures, out_dir=tmp_path / "raised",
                            setup=setup)
        assert not list((tmp_path / "raised").iterdir())
        out = tmp_path / "report"
        summary = generate_report(figures, out_dir=out, setup=setup,
                                  on_error="skip")
        assert [f.figure_id for f in summary.failures] == holding
        assert all("FaultError" in f.error for f in summary.failures)
        assert [a.figure_id for a in summary.artifacts] == ["fig03",
                                                            "table3"]
        assert sorted(path.name for path in out.glob("*.json")) == [
            "fig03.json", "table3.json"]
        assert "## Skipped figures" in (out / "index.md").read_text()

    def test_unknown_figure_fails_before_running(self, tmp_path):
        from repro.report.generate import generate_report
        with pytest.raises(UnknownComponentError):
            generate_report(["nope"], out_dir=tmp_path / "report")
        assert not (tmp_path / "report").exists()

    def test_empty_figure_list_is_an_error_not_everything(self, tmp_path):
        # A programmatically-built list that filtered down to nothing
        # must not silently launch the full 24-figure sweep.
        from repro.report.generate import generate_report
        with pytest.raises(ValueError, match="empty figure list"):
            generate_report([], out_dir=tmp_path / "report")
        assert not (tmp_path / "report").exists()

    def test_duplicate_figures_collapse_to_one_run(self, tmp_path):
        from repro.report.generate import generate_report
        summary = generate_report(["table3", "table3"],
                                  out_dir=tmp_path / "report")
        assert [a.figure_id for a in summary.artifacts] == ["table3"]
        index = (tmp_path / "report" / "index.md").read_text()
        assert index.count("| table3 |") == 1

    def test_api_report_mirrors_cli_knobs(self, tmp_path):
        from repro import api
        summary = api.report(["fig05"], out_dir=tmp_path / "report",
                             accesses=600, per_category=1,
                             categories=["Ligra"])
        document = json.loads(
            (tmp_path / "report" / "fig05.json").read_text())
        result = FigureResult.from_dict(document)
        assert result.x_values == ["Ligra", "AVG"]


class TestReportCLI:
    def test_smoke_two_figures(self, tmp_path):
        out_dir = tmp_path / "report"
        run_cli("report", "--figure", "table3,table6",
                "--out-dir", str(out_dir))
        names = sorted(path.name for path in out_dir.iterdir())
        assert names == ["index.md",
                         "table3.csv", "table3.json", "table3.md",
                         "table3.svg",
                         "table6.csv", "table6.json", "table6.md",
                         "table6.svg"]

    def test_formats_subset(self, tmp_path):
        out_dir = tmp_path / "report"
        run_cli("report", "--figure", "table3", "--formats", "csv",
                "--out-dir", str(out_dir))
        names = sorted(path.name for path in out_dir.iterdir())
        assert names == ["index.md", "table3.csv", "table3.json"]

    def test_unknown_figure_is_a_clean_error(self, tmp_path):
        proc = run_cli("report", "--figure", "fig99",
                       "--out-dir", str(tmp_path / "r"), expect_rc=2)
        stderr = proc.stderr.decode()
        assert "unknown figure" in stderr and "Traceback" not in stderr

    def test_no_selection_is_a_clean_error(self, tmp_path):
        proc = run_cli("report", "--out-dir", str(tmp_path / "r"),
                       expect_rc=2)
        assert "--all" in proc.stderr.decode()


# ---------------------------------------------------------------------- #
# Generated EXPERIMENTS.md index
# ---------------------------------------------------------------------- #

class TestExperimentsIndex:
    def test_committed_index_is_byte_identical_to_generated(self):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            import gen_experiments_index
        finally:
            sys.path.pop(0)
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert gen_experiments_index.regenerate(text) == text, (
            "EXPERIMENTS.md figure index is stale; run "
            "python tools/gen_experiments_index.py")

    def test_check_mode_passes(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" /
                                 "gen_experiments_index.py"), "--check"],
            capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()


def _write_golden() -> None:
    """Regenerate the golden SVG fixtures (intentional renderer changes)."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    svg = make_renderer("svg")
    for name, fixture in (("report_bar.svg", bar_fixture),
                          ("report_line.svg", line_fixture)):
        (GOLDEN_DIR / name).write_text(svg.render(fixture()),
                                       encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}")


if __name__ == "__main__":
    if "--write-golden" in sys.argv:
        _write_golden()
    else:
        raise SystemExit("usage: python tests/test_report.py --write-golden")
