"""Tests for the ``repro lint`` static-analysis framework.

Each rule gets a violating fixture, a clean fixture and (where it makes
sense) a suppressed fixture, all laid out as miniature ``src/repro/...``
trees under ``tmp_path`` so the engine runs exactly as it does against
the real repository.  On top of the per-rule contracts this module pins
the JSON payload round-trip, the CLI exit-code contract, the committed
schema-fingerprint baseline and — the gate the CI job relies on — that
the shipped tree itself lints clean.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    LINT_SCHEMA_VERSION,
    Diagnostic,
    LintEngine,
    all_rule_ids,
    default_root,
    payload_to_diagnostics,
)
from repro.lint.cli import main as lint_main
from repro.lint.rules.schema_versions import collect_fingerprints, strip_internal

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root: Path, files: dict) -> None:
    """Materialise ``{relative path: dedented source}`` under ``root``."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")


def run_rules(root: Path, rules, **kwargs):
    """One engine run over a fixture tree, restricted to ``rules``."""
    kwargs.setdefault("spec_paths", [root / "specs"])
    kwargs.setdefault("fingerprints_path",
                      root / "tools" / "schema_fingerprints.json")
    return LintEngine(root=root, rules=rules, **kwargs).run()


# --------------------------------------------------------------------- #
# RL001 — hot-path allocation
# --------------------------------------------------------------------- #

HOT_VIOLATION = """\
    '''Fixture.'''


    # repro: hot
    def span(items):
        '''doc'''
        total = 0
        for item in items:
            record = {"item": item}
            squares = [value * value for value in record.values()]
            total += len(squares)
        return total
"""


def test_rl001_flags_allocations_in_hot_loops(tmp_path):
    write_tree(tmp_path, {"src/repro/demo/hot.py": HOT_VIOLATION})
    report = run_rules(tmp_path, ["RL001"])
    assert report.exit_code == 1
    labels = [d.message for d in report.diagnostics]
    assert any("dict literal" in m for m in labels)
    assert any("list comprehension" in m for m in labels)
    assert all(d.rule == "RL001" for d in report.diagnostics)
    assert all("span" in d.message for d in report.diagnostics)
    # file:line anchors land on the allocating statements.
    lines = {d.line for d in report.diagnostics}
    assert lines == {9, 10}


def test_rl001_clean_and_exemptions(tmp_path):
    write_tree(tmp_path, {"src/repro/demo/hot.py": """\
        '''Fixture.'''


        # repro: hot
        def span(items):
            '''doc'''
            scratch = {}
            total = 0
            for item in [i for i in items]:
                if item in (1, 2, 3):
                    total += item
                scratch[item] = total
            return total
    """})
    # The outer iterable runs once (comprehension exempt), constant
    # tuples fold to LOAD_CONST, and the dict is hoisted out of the loop.
    assert run_rules(tmp_path, ["RL001"]).exit_code == 0


def test_rl001_inline_suppression(tmp_path):
    suppressed = HOT_VIOLATION.replace(
        'record = {"item": item}',
        'record = {"item": item}  # repro-lint: disable=RL001').replace(
        "squares = [value * value for value in record.values()]",
        "squares = [value * value for value in record.values()]"
        "  # repro-lint: disable=RL001")
    write_tree(tmp_path, {"src/repro/demo/hot.py": suppressed})
    assert run_rules(tmp_path, ["RL001"]).exit_code == 0


def test_rl001_unmarked_functions_are_exempt(tmp_path):
    write_tree(tmp_path, {"src/repro/demo/cold.py": """\
        '''Fixture.'''


        def helper(items):
            '''doc'''
            return [{"item": item} for item in items]
    """})
    assert run_rules(tmp_path, ["RL001"]).exit_code == 0


# --------------------------------------------------------------------- #
# RL002 — schema-version fingerprints
# --------------------------------------------------------------------- #

SCHEMA_V1 = """\
    '''Fixture schema.'''

    from dataclasses import dataclass

    DEMO_SCHEMA_VERSION = 1


    @dataclass
    class DemoRecord:
        '''doc'''

        alpha: int
        beta: str
"""


def test_rl002_lifecycle(tmp_path):
    module = tmp_path / "src/repro/demo/schema.py"
    write_tree(tmp_path, {"src/repro/demo/schema.py": SCHEMA_V1})
    engine = LintEngine(root=tmp_path, rules=["RL002"],
                        spec_paths=[tmp_path / "specs"],
                        fingerprints_path=tmp_path / "tools" / "fp.json")

    # No committed baseline yet: one actionable finding.
    report = engine.run()
    assert report.exit_code == 1
    assert "missing" in report.diagnostics[0].message
    assert "--update-fingerprints" in report.diagnostics[0].message

    # Baseline, then the same tree is clean.
    engine.update_fingerprints()
    assert engine.run().exit_code == 0

    # Editing the serialized field set without a bump fails the lint.
    module.write_text(textwrap.dedent(SCHEMA_V1).replace(
        "beta: str", "beta: str\n    gamma: float = 0.0"),
        encoding="utf-8")
    report = engine.run()
    assert report.exit_code == 1
    message = report.diagnostics[0].message
    assert "gamma" in message and "DEMO_SCHEMA_VERSION" in message
    assert report.diagnostics[0].path == "src/repro/demo/schema.py"

    # Bumping without re-baselining still fails (loudly, at the constant).
    module.write_text(module.read_text(encoding="utf-8").replace(
        "DEMO_SCHEMA_VERSION = 1", "DEMO_SCHEMA_VERSION = 2"),
        encoding="utf-8")
    report = engine.run()
    assert report.exit_code == 1
    assert "re-baseline" in report.diagnostics[0].message

    # Bump + regenerate together: clean again.
    engine.update_fingerprints()
    assert engine.run().exit_code == 0


def test_rl002_committed_fingerprints_are_current():
    """The committed baseline matches what the live tree generates."""
    engine = LintEngine(root=REPO_ROOT)
    payload = strip_internal(collect_fingerprints(engine.project()))
    committed = json.loads(
        (REPO_ROOT / "tools" / "schema_fingerprints.json")
        .read_text(encoding="utf-8"))
    assert payload == committed


# --------------------------------------------------------------------- #
# RL003 — registry name resolution
# --------------------------------------------------------------------- #

def test_rl003_flags_unresolvable_spec_names(tmp_path):
    write_tree(tmp_path, {"specs/demo.toml": """\
        [base]
        prefetcher = "definitely_not_registered"
        offchip_predictor = "none"
        engine = "scalar"
    """})
    report = run_rules(tmp_path, ["RL003"])
    findings = [d for d in report.diagnostics
                if d.path.endswith("demo.toml")]
    assert len(findings) == 1
    assert "definitely_not_registered" in findings[0].message
    assert findings[0].line == 2
    assert "registered:" in findings[0].message


def test_rl003_clean_spec_and_toml_suppression(tmp_path):
    write_tree(tmp_path, {
        "specs/good.toml": """\
            [base]
            prefetcher = "pythia"
            offchip_predictor = "popet"
        """,
        "specs/waived.toml": """\
            [base]
            prefetcher = "future_prefetcher"  # repro-lint: disable=RL003
        """,
    })
    report = run_rules(tmp_path, ["RL003"])
    assert [d for d in report.diagnostics if d.path.endswith(".toml")] == []


# --------------------------------------------------------------------- #
# RL004 — determinism in the simulation core
# --------------------------------------------------------------------- #

def test_rl004_flags_nondeterminism_in_core(tmp_path):
    write_tree(tmp_path, {"src/repro/sim/clock.py": """\
        '''Fixture.'''

        import random
        import time


        def sample(table):
            '''doc'''
            start = time.time()
            jitter = random.random()
            for key in {"a", "b"}:
                table[key] = start + jitter
            return table
    """})
    report = run_rules(tmp_path, ["RL004"])
    messages = [d.message for d in report.diagnostics]
    assert any("wall-clock" in m for m in messages)
    assert any("random.random" in m for m in messages)
    assert any("hash randomization" in m for m in messages)
    assert len(report.diagnostics) == 3


def test_rl004_seeded_rng_and_non_core_paths_exempt(tmp_path):
    core_clean = """\
        '''Fixture.'''

        import random


        def make_rng(seed):
            '''doc'''
            return random.Random(seed)
    """
    outside = """\
        '''Fixture.'''

        import time


        def stamp():
            '''doc'''
            return time.time()
    """
    write_tree(tmp_path, {
        "src/repro/sim/rng.py": core_clean,
        "src/repro/report/timing.py": outside,  # not a core package
    })
    assert run_rules(tmp_path, ["RL004"]).exit_code == 0


# --------------------------------------------------------------------- #
# RL005 — __slots__ completeness
# --------------------------------------------------------------------- #

def test_rl005_flags_undeclared_attribute(tmp_path):
    write_tree(tmp_path, {"src/repro/demo/record.py": """\
        '''Fixture.'''


        class Record:
            '''doc'''

            __slots__ = ("value",)

            def __init__(self):
                self.value = 0
                self.extra = 1
    """})
    report = run_rules(tmp_path, ["RL005"])
    assert report.exit_code == 1
    assert len(report.diagnostics) == 1
    assert "self.extra" in report.diagnostics[0].message
    assert "Record" in report.diagnostics[0].message


def test_rl005_clean_inherited_and_unresolvable_cases(tmp_path):
    write_tree(tmp_path, {"src/repro/demo/records.py": """\
        '''Fixture.'''


        class Base:
            '''doc'''

            __slots__ = ("base_value",)


        class Child(Base):
            '''doc'''

            __slots__ = ("child_value",)

            def __init__(self):
                self.base_value = 0
                self.child_value = 1


        class DictMixin:
            '''A base with no __slots__ contributes __dict__.'''


        class Loose(DictMixin):
            '''doc'''

            __slots__ = ("a",)

            def set(self):
                '''doc'''
                self.anything_goes = 2
    """})
    # Child's writes resolve through Base's slots; Loose is skipped
    # because its unslotted base makes every write legal.
    assert run_rules(tmp_path, ["RL005"]).exit_code == 0


# --------------------------------------------------------------------- #
# RL007 — docstrings (the absorbed tools/check_docstrings.py policy)
# --------------------------------------------------------------------- #

def test_rl007_flags_missing_docstrings(tmp_path):
    write_tree(tmp_path, {"src/repro/demo/bare.py": """\
        def exposed():
            return 1


        class Widget:
            pass
    """})
    report = run_rules(tmp_path, ["RL007"])
    messages = [d.message for d in report.diagnostics]
    assert "module missing docstring" in messages
    assert "exposed() missing docstring" in messages
    assert "class Widget missing docstring" in messages


def test_rl007_report_methods_policy_and_file_suppression(tmp_path):
    renderer = """\
        '''Fixture.'''


        class Renderer:
            '''doc'''

            def render(self):
                return None
    """
    write_tree(tmp_path, {"src/repro/report/widget.py": renderer})
    report = run_rules(tmp_path, ["RL007"])
    assert any("method Renderer.render() missing docstring" in d.message
               for d in report.diagnostics)
    # The same file under a non-report path only needs class/module docs.
    write_tree(tmp_path / "other", {"src/repro/demo/widget.py": renderer})
    assert run_rules(tmp_path / "other", ["RL007"]).exit_code == 0
    # A file-wide waiver silences the whole module.
    write_tree(tmp_path / "waived", {"src/repro/report/widget.py":
               "# repro-lint: disable-file=RL007\n" + textwrap.dedent(renderer)})
    assert run_rules(tmp_path / "waived", ["RL007"]).exit_code == 0


def test_check_docstrings_shim_still_works():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docstrings.py")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


# --------------------------------------------------------------------- #
# Report payloads and diagnostics
# --------------------------------------------------------------------- #

def test_json_payload_round_trip(tmp_path):
    write_tree(tmp_path, {"src/repro/demo/hot.py": HOT_VIOLATION})
    report = run_rules(tmp_path, ["RL001"])
    payload = json.loads(json.dumps(report.to_payload()))
    assert payload["lint_schema_version"] == LINT_SCHEMA_VERSION
    assert payload["counts"] == {"RL001": len(report.diagnostics)}
    assert payload_to_diagnostics(payload) == report.diagnostics


def test_payload_version_is_checked():
    with pytest.raises(ValueError, match="payload version"):
        payload_to_diagnostics({"lint_schema_version": 99, "diagnostics": []})
    with pytest.raises(ValueError, match="unknown diagnostic field"):
        Diagnostic.from_dict({"rule": "RL001", "path": "x", "line": 1,
                              "message": "m", "severity": "high"})


def test_parse_errors_become_diagnostics(tmp_path):
    write_tree(tmp_path, {"src/repro/demo/broken.py": "def broken(:\n"})
    report = run_rules(tmp_path, ["RL007"])
    assert report.exit_code == 1
    assert report.diagnostics[0].rule == "PARSE"
    assert "does not parse" in report.diagnostics[0].message


# --------------------------------------------------------------------- #
# CLI contract (exit codes, formats, the repro verb)
# --------------------------------------------------------------------- #

def test_cli_exit_codes(tmp_path, capsys):
    write_tree(tmp_path, {"src/repro/demo/hot.py": HOT_VIOLATION})
    root = str(tmp_path)
    assert lint_main(["--root", root, "--rules", "RL001"]) == 1
    out = capsys.readouterr().out
    assert "RL001" in out and "hot.py" in out
    assert lint_main(["--root", root, "--rules", "RL007"]) == 0
    capsys.readouterr()
    assert lint_main(["--root", root, "--rules", "RL999"]) == 2
    err = capsys.readouterr().err
    assert "RL999".lower() in err.lower()
    assert lint_main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    for rule_id in all_rule_ids():
        assert rule_id in listed


def test_cli_json_output_file(tmp_path, capsys):
    write_tree(tmp_path, {"src/repro/demo/hot.py": HOT_VIOLATION})
    out_file = tmp_path / "lint-report.json"
    code = lint_main(["--root", str(tmp_path), "--rules", "RL001",
                      "--format", "json", "--output", str(out_file)])
    capsys.readouterr()
    assert code == 1
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    diagnostics = payload_to_diagnostics(payload)
    assert diagnostics and all(d.rule == "RL001" for d in diagnostics)


def test_repro_cli_exposes_lint_verb():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--list-rules"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "RL001" in proc.stdout and "RL007" in proc.stdout


# --------------------------------------------------------------------- #
# The gates CI runs against the real tree
# --------------------------------------------------------------------- #

def test_live_tree_is_clean():
    """`repro lint` must exit 0 on the shipped tree (the CI gate)."""
    report = LintEngine(root=REPO_ROOT).run()
    assert report.exit_code == 0, "\n" + report.render_text()
    assert report.rules == all_rule_ids()
    assert report.files_checked > 0


def test_default_root_is_this_repo():
    assert default_root() == REPO_ROOT


@pytest.mark.skipif(importlib.util.find_spec("mypy") is None,
                    reason="mypy not installed (CI installs it)")
def test_mypy_strict_allowlist_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--strict"],
        cwd=str(REPO_ROOT), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
