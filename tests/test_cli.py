"""Smoke tests of the unified ``python -m repro`` CLI via subprocess."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run_cli(*args: str, stdin_data: bytes = b"",
            expect_rc: int = 0,
            extra_env: dict = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run([sys.executable, "-m", "repro", *args],
                          input=stdin_data, capture_output=True, env=env,
                          timeout=300)
    assert proc.returncode == expect_rc, (
        f"rc={proc.returncode}, stderr:\n{proc.stderr.decode()}")
    return proc


def test_help_screens():
    for args in ([], ["run"], ["sweep"], ["trace"], ["trace", "generate"],
                 ["trace", "convert"], ["trace", "inspect"],
                 ["serve"], ["submit"]):
        proc = run_cli(*args, "--help")
        assert b"usage:" in proc.stdout.lower()


def test_run_workload_emits_stats_json(tmp_path):
    out = tmp_path / "stats.json"
    run_cli("run", "--workload", "ligra.bfs", "--accesses", "1200",
            "--predictor", "popet", "--output", str(out))
    payload = json.loads(out.read_text())
    assert payload["summary"]["workload"] == "ligra.bfs"
    assert payload["summary"]["instructions"] > 0
    assert "core" in payload["detail"]


def test_trace_generate_convert_inspect_run(tmp_path):
    jsonl = tmp_path / "t.jsonl.gz"
    binary = tmp_path / "t.bin"
    run_cli("trace", "generate", "--workload", "spec06.stencil",
            "--accesses", "1000", "--out", str(jsonl))
    run_cli("trace", "convert", str(jsonl), str(binary))

    inspect_out = tmp_path / "inspect.json"
    run_cli("trace", "inspect", str(binary), "--output", str(inspect_out))
    summary = json.loads(inspect_out.read_text())
    assert summary["memory_instructions"] == 1000
    assert summary["header"]["name"] == "spec06.stencil"

    run_out = tmp_path / "run.json"
    run_cli("run", "--trace", str(binary), "--stream",
            "--output", str(run_out))
    payload = json.loads(run_out.read_text())
    assert payload["summary"]["workload"] == "spec06.stencil"


def test_pipe_generate_into_run_matches_api(tmp_path):
    """`trace generate ... | run --trace -` == the in-process API."""
    api_out = tmp_path / "api.json"
    run_cli("run", "--workload", "ligra.bfs", "--accesses", "1000",
            "--predictor", "popet", "--output", str(api_out))

    generated = run_cli("trace", "generate", "--workload", "ligra.bfs",
                        "--accesses", "1000").stdout
    pipe_out = tmp_path / "pipe.json"
    run_cli("run", "--trace", "-", "--predictor", "popet",
            "--output", str(pipe_out), stdin_data=generated)

    assert json.loads(api_out.read_text()) == json.loads(pipe_out.read_text())


def test_sweep_matrix_with_cache(tmp_path):
    out = tmp_path / "sweep.json"
    cache = tmp_path / "cache"
    args = ("sweep", "--workloads", "ligra.bfs,spec06.stencil",
            "--prefetchers", "none,pythia", "--predictors", "none",
            "--accesses", "800", "--cache-dir", str(cache),
            "--output", str(out))
    run_cli(*args)
    payload = json.loads(out.read_text())
    assert payload["jobs"] == 4
    assert {row["config"] for row in payload["rows"]} == {"none", "pythia"}
    cached = len(list(cache.glob("*.pkl")))
    assert cached == 4
    # Re-run is served from the cache and produces the same rows.
    run_cli(*args)
    assert json.loads(out.read_text()) == payload


def test_sweep_figure_runner(tmp_path):
    out = tmp_path / "fig.json"
    run_cli("sweep", "--figure", "table3", "--output", str(out))
    payload = json.loads(out.read_text())
    assert payload["figure"] == "table3"
    assert payload["result"]


def test_sweep_figure_writes_the_outcomes_ledger(tmp_path):
    """``--outcomes`` works in figure mode and leaves the payload as is."""
    from repro.experiments.common import ExperimentSetup
    from repro.report.figures import get_figure
    sizing = ("--accesses", "600", "--per-category", "1",
              "--categories", "SPEC06,Ligra")
    plain = tmp_path / "plain.json"
    ledgered = tmp_path / "ledgered.json"
    outcomes = tmp_path / "outcomes.json"
    run_cli("sweep", "--figure", "fig05", *sizing, "--output", str(plain))
    run_cli("sweep", "--figure", "fig05", *sizing, "--output", str(ledgered),
            "--outcomes", str(outcomes))
    plan = get_figure("fig05").plan(ExperimentSetup(
        num_accesses=600, per_category=1, categories=["SPEC06", "Ligra"]))
    doc = json.loads(outcomes.read_text())
    assert doc["name"] == "fig05"
    assert doc["jobs"] == doc["ok"] == len(plan.jobs) > 0
    assert ledgered.read_bytes() == plain.read_bytes()


def test_sweep_adhoc_distributed_matches_serial_bytes(tmp_path):
    matrix = ("sweep", "--workloads", "ligra.bfs,spec06.stencil",
              "--predictors", "none,popet", "--accesses", "700")
    serial = tmp_path / "serial.json"
    distributed = tmp_path / "distributed.json"
    run_cli(*matrix, "--output", str(serial))
    run_cli(*matrix, "--backend", "distributed",
            "--cache-dir", str(tmp_path / "shared"),
            "--output", str(distributed))
    assert distributed.read_bytes() == serial.read_bytes()
    proc = run_cli(*matrix, "--backend", "distributed", expect_rc=2)
    assert b"--cache-dir" in proc.stderr


def test_unknown_workload_fails_cleanly():
    proc = run_cli("run", "--workload", "no.such.workload", expect_rc=2)
    assert b"unknown workload" in proc.stderr


def test_sweep_figure_rejects_matrix_flags():
    proc = run_cli("sweep", "--figure", "table3", "--predictors", "popet",
                   expect_rc=2)
    assert b"only apply to ad-hoc matrices" in proc.stderr


# --------------------------------------------------------------------- #
# Declarative config & spec-driven sweeps
# --------------------------------------------------------------------- #

def test_config_dump_load_round_trip(tmp_path):
    """`config dump` output reloads (and re-dumps) byte-identically."""
    first = tmp_path / "cfg.toml"
    second = tmp_path / "cfg2.toml"
    run_cli("config", "dump", "--predictor", "popet",
            "--set", "core.rob_size=256", "--output", str(first))
    run_cli("config", "dump", "--config", str(first), "--output", str(second))
    assert first.read_text() == second.read_text()
    proc = run_cli("config", "validate", str(first))
    assert b"ok" in proc.stdout

    json_out = tmp_path / "cfg.json"
    run_cli("config", "dump", "--config", str(first),
            "--output", str(json_out))
    payload = json.loads(json_out.read_text())
    assert payload["system"]["core"]["rob_size"] == 256


def test_run_with_config_file_matches_flags(tmp_path):
    """--config file + --set reproduces the flag-built run exactly."""
    flag_out = tmp_path / "flags.json"
    run_cli("run", "--workload", "ligra.bfs", "--accesses", "900",
            "--predictor", "popet", "--output", str(flag_out))

    cfg = tmp_path / "cfg.toml"
    run_cli("config", "dump", "--predictor", "popet", "--output", str(cfg))
    file_out = tmp_path / "file.json"
    run_cli("run", "--workload", "ligra.bfs", "--accesses", "900",
            "--config", str(cfg), "--output", str(file_out))
    assert json.loads(flag_out.read_text()) == json.loads(file_out.read_text())


def test_run_config_conflicts_with_shape_flags(tmp_path):
    cfg = tmp_path / "cfg.toml"
    run_cli("config", "dump", "--output", str(cfg))
    proc = run_cli("run", "--workload", "ligra.bfs", "--config", str(cfg),
                   "--prefetcher", "spp", expect_rc=2)
    assert b"cannot be combined with --config" in proc.stderr


def test_config_paths_lists_override_keys():
    proc = run_cli("config", "paths")
    assert b"core.rob_size" in proc.stdout
    assert b"hierarchy.llc.size_bytes" in proc.stdout


def test_unknown_prefetcher_lists_available_names():
    proc = run_cli("run", "--workload", "ligra.bfs", "--accesses", "500",
                   "--prefetcher", "warp-drive", expect_rc=2)
    assert b"unknown prefetcher" in proc.stderr
    assert b"pythia" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_bad_override_fails_cleanly():
    proc = run_cli("run", "--workload", "ligra.bfs",
                   "--set", "core.rob_sizes=1", expect_rc=2)
    assert b"unknown config key" in proc.stderr
    assert b"rob_size" in proc.stderr


def test_non_finite_override_fails_cleanly():
    proc = run_cli("run", "--workload", "ligra.bfs", "--accesses", "500",
                   "--set", "dram.trcd_ns=inf", expect_rc=2)
    assert b"dram.trcd_ns" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_unmodellable_dram_override_fails_cleanly():
    proc = run_cli("run", "--workload", "ligra.bfs", "--accesses", "500",
                   "--set", "dram.bus_width_bits=4", expect_rc=2)
    assert b"bus_width_bits" in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_sweep_spec_runs_and_caches(tmp_path):
    spec = tmp_path / "spec.toml"
    spec.write_text("""
spec_version = 1
name = "cli-spec"
accesses = 600
workloads = ["spec06.stencil"]

[base]
prefetcher = "pythia"

[[axes]]
name = "system"
[[axes.points]]
label = "pythia"
[[axes.points]]
label = "pythia+hermes"
[axes.points.set]
offchip_predictor = "popet"
"hermes.enabled" = true
""")
    out = tmp_path / "out.json"
    cache = tmp_path / "cache"
    args = ("sweep", "--spec", str(spec), "--cache-dir", str(cache),
            "--output", str(out))
    run_cli(*args)
    payload = json.loads(out.read_text())
    assert payload["spec"] == "cli-spec"
    assert payload["jobs"] == 2
    assert {row["config"] for row in payload["rows"]} == {
        "pythia", "pythia+hermes"}
    assert len(list(cache.glob("*.pkl"))) == 2
    run_cli(*args)
    assert json.loads(out.read_text()) == payload


# --------------------------------------------------------------------- #
# The --outcomes ledger
# --------------------------------------------------------------------- #

def test_sweep_outcomes_ledger_on_success(tmp_path):
    out = tmp_path / "out.json"
    outcomes = tmp_path / "outcomes.json"
    run_cli("sweep", "--workloads", "ligra.bfs,spec06.stencil",
            "--accesses", "700", "--output", str(out),
            "--outcomes", str(outcomes))
    doc = json.loads(outcomes.read_text())
    assert doc["jobs"] == 2 and doc["ok"] == 2 and doc["failed"] == 0
    assert all(o["status"] == "ok" and o["attempts"] == 1
               for o in doc["outcomes"])
    assert json.loads(out.read_text())["jobs"] == 2


def test_sweep_outcomes_ledger_written_even_on_failure(tmp_path):
    """`--outcomes FILE` lands on disk when the sweep exits 3.

    Under the default --on-error raise the sweep output is aborted, but
    the outcome ledger is most useful exactly then — it names the jobs
    that exhausted their budget — so it must be written before the
    error propagates.
    """
    from repro.runner import FaultPlan, FaultSpec, SimJob
    from repro.runner.faults import FAULTS_ENV
    from repro.sim.config import SystemConfig

    # Reconstruct the job the ad-hoc matrix will build for ligra.bfs so
    # the fault plan can target it by content key.
    doomed = SimJob(config=SystemConfig.baseline("pythia"),
                    workload="ligra.bfs", num_accesses=700)
    plan = FaultPlan(faults={doomed.key(): FaultSpec(kind="raise")})

    out = tmp_path / "out.json"
    outcomes = tmp_path / "outcomes.json"
    proc = run_cli("sweep", "--workloads", "ligra.bfs,spec06.stencil",
                   "--accesses", "700", "--output", str(out),
                   "--outcomes", str(outcomes),
                   extra_env={FAULTS_ENV: plan.to_json()},
                   expect_rc=3)
    assert not out.exists()          # the sweep output was aborted ...
    doc = json.loads(outcomes.read_text())  # ... the ledger was not
    assert doc["jobs"] == 2 and doc["failed"] == 1 and doc["ok"] == 1
    failed = [o for o in doc["outcomes"] if o["status"] == "failed"]
    assert len(failed) == 1 and "FaultError" in failed[0]["error"]
    assert b"1 failed" in proc.stderr


def test_sweep_spec_rejects_matrix_flags(tmp_path):
    spec = tmp_path / "spec.toml"
    spec.write_text("spec_version = 1\nname = \"x\"\n"
                    "workloads = [\"ligra.bfs\"]\n")
    proc = run_cli("sweep", "--spec", str(spec), "--prefetchers", "spp",
                   expect_rc=2)
    assert b"only apply to ad-hoc matrices" in proc.stderr
