"""Fault-injection, crash-resume and cache-hardening tests.

The deterministic fault matrix from the execution layer's failure
model: every injected fault kind (raise / flaky / hang / die), each
followed by a fault-free re-run against the same cache directory that
must produce results byte-identical to a never-faulted baseline, plus
the :class:`ResultCache` corruption and concurrency guarantees those
re-runs rely on.  The ``die``-in-a-pool and kill-9 CLI tests are the
acceptance scenarios from the failure-model design (DESIGN.md §12).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import (
    ExperimentSpec,
    FaultError,
    FaultPlan,
    FaultSpec,
    JobOutcome,
    JobRunner,
    JobTimeoutError,
    ProcessPoolBackend,
    ResultCache,
    RetryPolicy,
    SerialBackend,
    SimJob,
    SweepError,
)
from repro.runner.cache import MAGIC, STALE_TMP_SECONDS
from repro.runner.execute import run_job_attempt
from repro.runner.faults import FAULTS_ENV, active_plan, apply_faults
from repro.runner.status import SweepReport
from repro.sim.config import SystemConfig

from _timeouts import scaled

REPO_ROOT = Path(__file__).resolve().parent.parent


def _jobs(n=4, accesses=400):
    """``n`` distinct small jobs (distinct keys via distinct labels)."""
    return [SimJob(config=SystemConfig(label=f"job{i}"),
                   workload="ligra.pagerank", num_accesses=accesses + i)
            for i in range(n)]


def _results_blob(results):
    """Canonical bytes of a result list, for byte-identity assertions.

    JSON, not pickle: pickle memoisation keys on object *identity*, so
    cache-loaded results (which share interned strings from their own
    unpickling) serialise differently from value-identical fresh ones.
    """
    return json.dumps([r.as_dict() for r in results], sort_keys=True,
                      default=str).encode()


# --------------------------------------------------------------------- #
# RetryPolicy / JobOutcome / SweepReport contracts
# --------------------------------------------------------------------- #

def test_retry_policy_validates_and_backs_off_exponentially():
    policy = RetryPolicy(max_attempts=4, base_delay=0.5, timeout=2.0)
    assert [policy.delay_for(n) for n in (1, 2, 3)] == [0.5, 1.0, 2.0]
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        policy.delay_for(0)


def test_job_outcome_rejects_unknown_status():
    with pytest.raises(ValueError):
        JobOutcome(index=0, key="k", status="exploded", attempts=1)


def test_sweep_report_accounts_for_every_job():
    report = SweepReport(name="demo", outcomes=[
        JobOutcome(index=0, key="a", status="ok", attempts=0, cached=True),
        JobOutcome(index=1, key="b", status="ok", attempts=2),
        JobOutcome(index=2, key="c", status="failed", attempts=3, error="x"),
        JobOutcome(index=3, key="d", status="timeout", attempts=1, error="t"),
    ])
    assert report.total == 4
    assert len(report.succeeded) == 2
    assert [o.index for o in report.failures] == [2, 3]
    assert report.cached_count == 1
    assert report.retried_count == 2
    assert report.executed_attempts == 6
    doc = report.to_dict()
    assert (doc["ok"], doc["failed"], doc["timeout"]) == (2, 1, 1)
    assert len(doc["outcomes"]) == 4
    assert "result" not in doc["outcomes"][0]
    assert "2 retried" in report.summary()
    json.dumps(doc)  # must be JSON-serialisable as-is


# --------------------------------------------------------------------- #
# Fault plans
# --------------------------------------------------------------------- #

def test_fault_plan_round_trips_and_matches_longest_prefix():
    plan = FaultPlan(faults={
        "ab": FaultSpec(kind="raise", message="outer"),
        "abcd": FaultSpec(kind="flaky", succeed_on=3),
    })
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    assert again.match("abcdef").kind == "flaky"   # longest prefix wins
    assert again.match("abzz").kind == "raise"
    assert again.match("zz") is None
    with pytest.raises(ValueError):
        FaultSpec(kind="segfault")
    with pytest.raises(ValueError):
        FaultPlan.from_dict({"version": 2, "faults": {}})


def test_fault_plan_activation_crosses_the_environment(tmp_path):
    plan = FaultPlan(faults={"ff": FaultSpec(kind="raise")})
    assert active_plan() is None
    with plan.activated():
        assert os.environ[FAULTS_ENV].startswith("{")
        assert active_plan() == plan
    assert FAULTS_ENV not in os.environ
    # File form: the env var may also name a JSON file on disk.
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(plan.to_json(), encoding="utf-8")
    os.environ[FAULTS_ENV] = str(plan_file)
    try:
        assert active_plan() == plan
    finally:
        del os.environ[FAULTS_ENV]


def test_apply_faults_is_inert_without_a_plan():
    job = _jobs(1)[0]
    apply_faults(job, attempt=1)  # no plan active: must be a no-op
    result = run_job_attempt(job)
    assert result.workload == "ligra.pagerank"


# --------------------------------------------------------------------- #
# Serial failure paths: isolation, retries, skip, resume
# --------------------------------------------------------------------- #

def test_serial_fault_checkpoints_survivors_then_resume_is_identical(tmp_path):
    jobs = _jobs(4)
    baseline = JobRunner(SerialBackend()).run(jobs)
    plan = FaultPlan(faults={jobs[1].key(): FaultSpec(kind="raise")})

    cache = ResultCache(tmp_path / "cache")
    runner = JobRunner(backend=SerialBackend(), result_cache=cache)
    with plan.activated():
        with pytest.raises(SweepError) as excinfo:
            runner.run(jobs)
    report = excinfo.value.report
    assert [o.status for o in report.outcomes] == ["ok", "failed", "ok", "ok"]
    assert "FaultError" in report.failures[0].error
    # Every finished job was checkpointed before the raise ...
    assert len(cache) == 3
    # ... so the fault-free re-run executes exactly one job and the
    # merged results are byte-identical to a never-faulted run.
    results, resumed = runner.run_report(jobs)
    assert _results_blob(results) == _results_blob(baseline)
    assert resumed.cached_count == 3
    assert resumed.executed_attempts == 1


def test_serial_on_error_skip_leaves_a_hole_and_reports_it():
    jobs = _jobs(3)
    plan = FaultPlan(faults={jobs[2].key(): FaultSpec(kind="raise")})
    runner = JobRunner(backend=SerialBackend(), on_error="skip")
    with plan.activated():
        results, report = runner.run_report(jobs)
    assert results[2] is None and results[0] is not None
    assert [o.ok for o in report.outcomes] == [True, True, False]


def test_flaky_job_succeeds_on_retry_with_identical_result():
    jobs = _jobs(2)
    baseline = JobRunner(SerialBackend()).run(jobs)
    plan = FaultPlan(faults={jobs[0].key(): FaultSpec(kind="flaky",
                                                      succeed_on=2)})
    runner = JobRunner(backend=SerialBackend(),
                       retry_policy=RetryPolicy(max_attempts=3))
    with plan.activated():
        results, report = runner.run_report(jobs)
    assert report.outcomes[0].attempts == 2
    assert report.outcomes[0].retried and report.outcomes[0].ok
    assert report.outcomes[1].attempts == 1
    assert _results_blob(results) == _results_blob(baseline)


def test_hang_is_cut_by_the_attempt_timeout():
    jobs = _jobs(2)
    plan = FaultPlan(faults={jobs[0].key(): FaultSpec(kind="hang",
                                                      hang_s=30.0)})
    attempt_budget = scaled(0.5)
    runner = JobRunner(backend=SerialBackend(),
                       retry_policy=RetryPolicy(max_attempts=1,
                                                timeout=attempt_budget),
                       on_error="skip")
    started = time.monotonic()
    with plan.activated():
        results, report = runner.run_report(jobs)
    # Never slept the full hang (bound scales with the attempt budget).
    assert time.monotonic() - started < scaled(15.0)
    assert report.outcomes[0].status == "timeout"
    assert f"{attempt_budget:g}" in report.outcomes[0].error
    assert report.outcomes[1].ok and results[1] is not None


def test_run_job_attempt_timeout_raises_inside_the_worker():
    job = _jobs(1, accesses=2000)[0]
    plan = FaultPlan(faults={job.key(): FaultSpec(kind="hang", hang_s=30.0)})
    with plan.activated():
        with pytest.raises(JobTimeoutError):
            run_job_attempt(job, attempt=1, timeout=scaled(0.2))
    # The deadline must be disarmed afterwards: a fault-free attempt
    # under a generous timeout completes normally.
    result = run_job_attempt(job, attempt=2, timeout=scaled(60.0))
    assert result.workload == "ligra.pagerank"


# --------------------------------------------------------------------- #
# Process-pool failure paths: BrokenProcessPool survival + attribution
# --------------------------------------------------------------------- #

def test_pool_survives_worker_death_and_resume_matches_baseline(tmp_path):
    jobs = _jobs(6)
    baseline = JobRunner(SerialBackend()).run(jobs)
    cache_dir = tmp_path / "cache"
    cache = ResultCache(cache_dir)
    die_path = cache.path_for(jobs[2].key())  # crash mid-write of its own entry
    plan = FaultPlan(faults={
        jobs[2].key(): FaultSpec(kind="die", corrupt_path=str(die_path)),
        jobs[4].key(): FaultSpec(kind="flaky", succeed_on=2),
    })
    runner = JobRunner(backend=ProcessPoolBackend(max_workers=2),
                       result_cache=cache,
                       retry_policy=RetryPolicy(max_attempts=2),
                       on_error="skip")
    with plan.activated():
        results, report = runner.run_report(jobs)
    by_index = {o.index: o for o in report.outcomes}
    # The crasher alone is charged attempts and fails ...
    assert by_index[2].status == "failed"
    assert by_index[2].attempts == 2
    assert "BrokenProcessPool" in by_index[2].error
    # ... its innocent pool-mates all complete on their first attempt
    # (pool-break victims are re-attributed, never charged) ...
    for index in (0, 1, 3, 5):
        assert by_index[index].ok and by_index[index].attempts == 1
    assert by_index[4].ok and by_index[4].attempts == 2  # genuine flake
    assert results[2] is None

    # ... and the fault-free resume quarantines the partial entry the
    # dying worker left behind, re-runs only the crashed cell, and the
    # merged results are byte-identical to the never-faulted baseline.
    assert die_path.read_bytes().startswith(b"partial")
    resumed_cache = ResultCache(cache_dir)
    resume_runner = JobRunner(backend=ProcessPoolBackend(max_workers=2),
                              result_cache=resumed_cache)
    final, final_report = resume_runner.run_report(jobs)
    assert resumed_cache.quarantined == 1
    assert die_path.with_name(die_path.name + ".corrupt").exists()
    assert _results_blob(final) == _results_blob(baseline)
    assert final_report.cached_count == 5


# --------------------------------------------------------------------- #
# ResultCache hardening
# --------------------------------------------------------------------- #

def test_cache_quarantines_truncated_entry(tmp_path):
    job = _jobs(1)[0]
    cache = ResultCache(tmp_path)
    result = run_job_attempt(job)
    cache.put(job.key(), result)
    path = cache.path_for(job.key())
    whole = path.read_bytes()
    path.write_bytes(whole[:len(whole) // 2])  # writer died mid-flight
    assert cache.get(job.key()) is None
    assert cache.quarantined == 1
    assert not path.exists()
    assert path.with_name(path.name + ".corrupt").exists()
    # The slot heals: a fresh put serves reads again.
    cache.put(job.key(), result)
    assert cache.get(job.key()) == result


def test_cache_quarantines_wrong_checksum(tmp_path):
    job = _jobs(1)[0]
    cache = ResultCache(tmp_path)
    cache.put(job.key(), run_job_attempt(job))
    path = cache.path_for(job.key())
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # flip one payload bit: checksum must catch it
    path.write_bytes(bytes(raw))
    assert cache.get(job.key()) is None
    assert cache.quarantined == 1


def test_cache_quarantines_unpicklable_garbage(tmp_path):
    """Header-less bytes never serve: neither garbage nor a pre-checksum
    bare pickle of a real result."""
    job = _jobs(1)[0]
    cache = ResultCache(tmp_path)
    path = cache.path_for(job.key())
    bare_pickle = pickle.dumps(run_job_attempt(job))
    for count, raw in enumerate([b"partial write interrupted", bare_pickle],
                                start=1):
        path.write_bytes(raw)
        assert cache.get(job.key()) is None
        assert cache.quarantined == count
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").read_bytes() == raw
    assert (cache.hits, cache.misses) == (0, 2)


def _put_from_child(directory, job_blob, result_blob):
    cache = ResultCache(directory)
    cache.put(pickle.loads(job_blob).key(), pickle.loads(result_blob))


def test_cache_concurrent_put_of_same_key_is_safe(tmp_path):
    job = _jobs(1)[0]
    result = run_job_attempt(job)
    args = (str(tmp_path), pickle.dumps(job), pickle.dumps(result))
    workers = [multiprocessing.Process(target=_put_from_child, args=args)
               for _ in range(2)]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(timeout=scaled(60.0))
        assert proc.exitcode == 0
    cache = ResultCache(tmp_path)
    assert cache.get(job.key()) == result      # whole, checksum-valid entry
    assert len(cache) == 1
    assert not list(Path(tmp_path).glob("*.tmp"))  # no staging leftovers


def test_cache_clear_removes_tmp_and_corrupt_files(tmp_path):
    job = _jobs(1)[0]
    cache = ResultCache(tmp_path)
    cache.put(job.key(), run_job_attempt(job))
    (tmp_path / "orphan.tmp").write_bytes(b"x")
    (tmp_path / "dead.pkl.corrupt").write_bytes(b"y")
    cache.clear()
    assert list(tmp_path.iterdir()) == []
    assert (cache.hits, cache.misses, cache.quarantined) == (0, 0, 0)


def test_cache_init_sweeps_only_stale_tmp_files(tmp_path):
    stale = tmp_path / "stale.tmp"
    fresh = tmp_path / "fresh.tmp"
    stale.write_bytes(b"x")
    fresh.write_bytes(b"y")
    old = time.time() - STALE_TMP_SECONDS - 60
    os.utime(stale, (old, old))
    ResultCache(tmp_path)
    assert not stale.exists()   # orphan of a dead writer: swept
    assert fresh.exists()       # live writer's staging file: kept


def test_cache_entry_format_is_checksummed(tmp_path):
    job = _jobs(1)[0]
    cache = ResultCache(tmp_path)
    cache.put(job.key(), run_job_attempt(job))
    assert cache.path_for(job.key()).read_bytes().startswith(MAGIC)


# --------------------------------------------------------------------- #
# Kill -9 crash-resume through the CLI (the acceptance scenario)
# --------------------------------------------------------------------- #

SPEC_TOML = """\
spec_version = 1
name = "resume-demo"
accesses = 1500
workloads = ["spec06.stencil", "ligra.pagerank", "cvp.server_int"]

[base]
prefetcher = "pythia"

[[axes]]
name = "system"

[[axes.points]]
label = "baseline"
"""


def _cli_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop(FAULTS_ENV, None)
    env.update(extra)
    return env


def _sweep_cmd(spec, cache_dir, out, *extra):
    return [sys.executable, "-m", "repro", "sweep", "--spec", str(spec),
            "--cache-dir", str(cache_dir), "--output", str(out), *extra]


def test_cli_sweep_survives_sigkill_and_resumes_byte_identical(tmp_path):
    spec_path = tmp_path / "spec.toml"
    spec_path.write_text(SPEC_TOML, encoding="utf-8")
    jobs = ExperimentSpec.from_file(spec_path).jobs()
    assert len(jobs) == 3

    # Uninterrupted baseline against its own cache.
    base_out = tmp_path / "base.json"
    subprocess.run(_sweep_cmd(spec_path, tmp_path / "cache-base", base_out),
                   check=True, env=_cli_env(), capture_output=True,
                   timeout=scaled(300.0))

    # Faulted run: the LAST job hangs forever, so the first two
    # checkpoint and the process is then kill -9'd mid-sweep.
    plan = FaultPlan(faults={jobs[-1].key(): FaultSpec(kind="hang",
                                                       hang_s=3600.0)})
    crash_cache = tmp_path / "cache-crash"
    proc = subprocess.Popen(
        _sweep_cmd(spec_path, crash_cache, tmp_path / "crash.json"),
        env=_cli_env(**{FAULTS_ENV: plan.to_json()}),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + scaled(240.0)
        while time.monotonic() < deadline:
            if len(list(crash_cache.glob("*.pkl"))) >= 2:
                break
            if proc.poll() is not None:
                pytest.fail("sweep exited before it could be killed")
            time.sleep(0.05)
        else:
            pytest.fail("first two jobs never checkpointed")
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=scaled(60.0))
    assert not (tmp_path / "crash.json").exists()  # died before output

    # Fault-free --resume against the survivor cache: reuses the two
    # checkpoints, runs only the killed job, and the merged output is
    # byte-identical to the uninterrupted baseline.
    resume_out = tmp_path / "resume.json"
    completed = subprocess.run(
        _sweep_cmd(spec_path, crash_cache, resume_out, "--resume"),
        check=True, env=_cli_env(), capture_output=True,
        timeout=scaled(300.0))
    assert b"resume: 2 of 3 job(s) already checkpointed" in completed.stderr
    assert resume_out.read_bytes() == base_out.read_bytes()


def test_cli_sweep_reports_failures_with_exit_code_3(tmp_path):
    spec_path = tmp_path / "spec.toml"
    spec_path.write_text(SPEC_TOML, encoding="utf-8")
    jobs = ExperimentSpec.from_file(spec_path).jobs()
    plan = FaultPlan(faults={jobs[0].key(): FaultSpec(kind="raise")})
    outcomes_path = tmp_path / "outcomes.json"
    completed = subprocess.run(
        _sweep_cmd(spec_path, tmp_path / "cache", tmp_path / "out.json",
                   "--outcomes", str(outcomes_path)),
        env=_cli_env(**{FAULTS_ENV: plan.to_json()}),
        capture_output=True, timeout=scaled(300.0))
    assert completed.returncode == 3
    assert b"checkpointed" in completed.stderr
    # The outcome ledger accounts for every job despite the failure.
    doc = json.loads(outcomes_path.read_text())
    assert doc["jobs"] == 3 and doc["failed"] == 1 and doc["ok"] == 2
    statuses = [o["status"] for o in doc["outcomes"]]
    assert statuses == ["failed", "ok", "ok"]
