"""Tests for :mod:`repro.engine` and the span boundaries of the core loop.

``SystemConfig.engine`` names the one core loop and accepts only
``scalar``; these tests cover that check, the cache-key invariance that
keeps the field out of result identity, a run with NumPy unimportable,
and awkward span boundaries (warmup splits inside a streaming chunk,
tiny chunks, empty traces), which must match one in-memory span.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.engine import ENGINES, check_engine
from repro.perf.golden import fingerprint_single
from repro.registry import UnknownComponentError
from repro.runner.job import SimJob
from repro.sim.config import SystemConfig
from repro.sim.simulator import simulate_stream, simulate_trace
from repro.workloads.suite import make_trace
from repro.workloads.trace import Trace

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


# ---------------------------------------------------------------------- #
# The engine name
# ---------------------------------------------------------------------- #

def test_scalar_engine_is_always_available():
    assert ENGINES == ("scalar",)
    assert SystemConfig().engine == "scalar"
    check_engine("scalar")
    check_engine("Scalar")


def test_unknown_engine_raises_with_known_names():
    for name in ("warp-drive", "vectorized"):
        with pytest.raises(UnknownComponentError) as excinfo:
            check_engine(name)
        message = str(excinfo.value)
        assert name in message
        assert "scalar" in message


def test_config_validate_rejects_unknown_engine():
    for name in ("warp-drive", "vectorized"):
        config = dataclasses.replace(SystemConfig.no_prefetching(),
                                     engine=name)
        with pytest.raises(UnknownComponentError, match="scalar"):
            config.validate()


def test_cli_reports_unknown_engine_with_exit_2(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("warp-drive", "vectorized"):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--workload", "ligra.bfs",
             "--accesses", "400", "--set", f"engine={name}",
             "--output", str(tmp_path / "out.json")],
            capture_output=True, env=env, timeout=300)
        assert proc.returncode == 2
        stderr = proc.stderr.decode()
        assert name in stderr
        assert "scalar" in stderr
        assert "Traceback" not in stderr


# ---------------------------------------------------------------------- #
# Span boundaries: streaming chunks and warmup splits
# ---------------------------------------------------------------------- #

def test_warmup_split_mid_chunk_is_identical():
    # 2000 accesses, warmup_fraction 0.25 -> boundary at 500, inside the
    # first 700-access chunk: the stats reset must split the span exactly
    # where the in-memory run splits it.
    config = SystemConfig.with_hermes("popet", prefetcher="spp")
    trace = make_trace("spec06.mcf_chase", 2000)
    expected = fingerprint_single(simulate_trace(config, trace))
    for chunk_size in (700, 2000):
        streamed = simulate_stream(config, trace, chunk_size=chunk_size)
        assert fingerprint_single(streamed) == expected, f"chunk_size={chunk_size}"


def test_stream_chunks_smaller_than_batch_are_identical():
    # Chunks down to one access: every chunk is its own span.
    config = SystemConfig.baseline("pythia")
    trace = make_trace("ligra.bfs", 600)
    expected = fingerprint_single(simulate_trace(config, trace))
    for chunk_size in (64, 7, 1):
        streamed = simulate_stream(config, trace, chunk_size=chunk_size)
        assert fingerprint_single(streamed) == expected, f"chunk_size={chunk_size}"


def test_empty_trace_is_identical():
    trace = Trace(name="empty", category="synthetic", accesses=[])
    config = SystemConfig.no_prefetching()
    result = simulate_trace(config, trace)
    assert result.core.memory_instructions == 0
    assert (fingerprint_single(simulate_stream(config, trace))
            == fingerprint_single(result))


# ---------------------------------------------------------------------- #
# Cache-key invariance
# ---------------------------------------------------------------------- #

def test_job_key_is_engine_invariant():
    # Configs written while the field had other legal values still load;
    # their job keys must match the scalar config's.
    base = SystemConfig.with_hermes("popet", prefetcher="pythia")
    keys = {SimJob(config=dataclasses.replace(base, engine=name),
                   workload="spec06.mcf_chase", num_accesses=5000).key()
            for name in ("scalar", "vectorized")}
    assert len(keys) == 1


def test_job_keys_unchanged_for_existing_scalar_configs():
    # Pinned pre-engine-field hashes: the engine field must not shift
    # cache identity for any config that already existed, or every
    # cached result on disk silently invalidates.
    job = SimJob(config=SystemConfig.with_hermes("popet", prefetcher="pythia"),
                 workload="spec06.mcf_chase", num_accesses=5000)
    assert job.key() == ("9193234000c299451981f164b764e060"
                        "887f5352a15613c1ec15f228b5d3271b")
    job = SimJob(config=SystemConfig.no_prefetching(),
                 workload="ligra.bfs", num_accesses=2500)
    assert job.key() == ("ba17b32209e34193495658fa0192b0ce"
                        "73788f61b892b45473c104f0f157b90b")


# ---------------------------------------------------------------------- #
# Simulation needs no NumPy
# ---------------------------------------------------------------------- #

def test_scalar_simulation_runs_without_numpy(tmp_path):
    # Shadow numpy with an import-bomb ahead of site-packages that
    # records each attempt: single- and multi-core simulation must run,
    # and never try to import it.
    stub = tmp_path / "numpy.py"
    stub.write_text("import builtins\n"
                    "builtins.numpy_import_attempts += 1\n"
                    "raise ImportError('numpy stubbed out for this test')\n")
    script = textwrap.dedent("""
        import builtins
        builtins.numpy_import_attempts = 0
        from repro.engine import numpy_or_none
        from repro.sim.config import SystemConfig
        from repro.sim.multicore import simulate_multicore
        from repro.sim.simulator import simulate_trace
        from repro.workloads.suite import make_trace

        config = SystemConfig.with_hermes("popet", prefetcher="spp")
        trace = make_trace("cvp.server_int", 400)
        assert simulate_trace(config, trace).core.memory_instructions > 0
        assert simulate_multicore(config, [trace, trace]).per_core
        assert builtins.numpy_import_attempts == 0
        assert numpy_or_none() is None
        assert builtins.numpy_import_attempts == 1
        print("OK")
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), str(SRC)])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert b"OK" in proc.stdout
