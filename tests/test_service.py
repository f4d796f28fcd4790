"""Concurrency tests for the simulation-as-a-service subsystem.

Every claim the service design makes is asserted here, not narrated:

* **exactly-once** — N concurrent clients submitting overlapping job
  sets collectively execute each unique content key exactly once
  (``executed_per_key``), and every client reads byte-identical result
  payloads;
* **crash-restart** — a daemon kill -9'd mid-sweep loses only in-flight
  work: a restart over the same cache directory serves completed jobs
  from checksummed checkpoints and re-executes only the missing ones;
* **timeouts** — hung jobs are marked ``timeout`` by the lazy wall-clock
  deadline and their late results are discarded, never cached.

The in-process tests gate execution with events to freeze jobs
deterministically mid-flight; the HTTP and kill -9 tests run the real
daemon (the latter through ``repro serve`` / ``repro submit``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runner import FaultPlan, FaultSpec, ResultCache, RetryPolicy, SimJob
from repro.runner.execute import run_job_attempt
from repro.runner.faults import FAULTS_ENV
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    SimService,
    canonical_json,
    parse_submission,
)
from repro.service.server import TERMINAL_STATES
from repro.sim.config import SystemConfig

from _timeouts import scaled

REPO_ROOT = Path(__file__).resolve().parent.parent


def _job(label="svc", accesses=400, workload="ligra.pagerank"):
    return SimJob(config=SystemConfig(label=label), workload=workload,
                  num_accesses=accesses)


def _jobs(n, accesses=400):
    return [_job(f"svc{i}", accesses + i) for i in range(n)]


@pytest.fixture(scope="module")
def tiny_result():
    """One real simulation result, reused as a canned execute() value."""
    return run_job_attempt(_job("canned"))


def _spin_until(predicate, budget=10.0, message="condition"):
    deadline = time.monotonic() + scaled(budget)
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"{message} not reached within {scaled(budget):g}s")
        time.sleep(0.005)


# --------------------------------------------------------------------- #
# Wire format
# --------------------------------------------------------------------- #

def test_job_document_round_trips_with_identical_key():
    job = _job("wire", workload="spec06.stencil")
    doc = json.loads(json.dumps(job.to_dict()))  # through real JSON
    again = SimJob.from_dict(doc)
    assert again == job
    assert again.key() == job.key()


def test_job_document_parsing_is_strict():
    doc = _job().to_dict()
    with pytest.raises(ValueError):
        SimJob.from_dict({**doc, "surprise": 1})
    with pytest.raises(ValueError):
        SimJob.from_dict({**doc, "num_accesses": "many"})
    with pytest.raises(ValueError):
        SimJob.from_dict({**doc, "job_schema": 999})
    missing = dict(doc)
    del missing["config"]
    with pytest.raises(ValueError):
        SimJob.from_dict(missing)


def test_parse_submission_rejects_malformed_envelopes():
    good = _job().to_dict()
    for bad in (
        [],                                        # not an object
        {},                                        # neither jobs nor spec
        {"jobs": [good], "spec": {}},              # both
        {"jobs": []},                              # empty
        {"jobs": [good], "accesses": 100},         # accesses without spec
        {"jobs": [good], "protocol": 99},          # wrong protocol
        {"jobs": [good], "shard": 3},              # unknown key
        {"jobs": [{**good, "num_accesses": -1}]},  # bad job doc
    ):
        with pytest.raises(ProtocolError):
            parse_submission(bad)


def test_parse_submission_expands_specs_server_side():
    spec_doc = {
        "spec_version": 1,
        "name": "svc-spec",
        "accesses": 500,
        "workloads": ["ligra.bfs", "spec06.stencil"],
        "base": {"prefetcher": "pythia"},
        "axes": [{"name": "system",
                  "points": [{"label": "baseline"}]}],
    }
    jobs, name = parse_submission({"spec": spec_doc})
    assert name == "svc-spec" and len(jobs) == 2
    assert {j.num_accesses for j in jobs} == {500}
    resized, _ = parse_submission({"spec": spec_doc, "accesses": 250})
    assert {j.num_accesses for j in resized} == {250}
    with pytest.raises(ProtocolError):
        parse_submission({"spec": {"spec_version": 1}})  # invalid spec


def test_canonical_json_is_order_independent():
    assert (canonical_json({"b": 1, "a": [1, 2]})
            == canonical_json({"a": [1, 2], "b": 1})
            == '{"a":[1,2],"b":1}')


# --------------------------------------------------------------------- #
# Single-flight dedup (in-process, gated execution)
# --------------------------------------------------------------------- #

def test_followers_attach_to_inflight_job_and_share_its_payload(tiny_result):
    release = threading.Event()
    executions = []

    def gated(job, attempt):
        executions.append(job.key())
        assert release.wait(scaled(10.0)), "gate never released"
        return tiny_result

    service = SimService(execute=gated)
    try:
        job = _job("flight")
        t1, (key,) = service.submit([job])
        _spin_until(lambda: executions, message="first execution started")
        # Two followers arrive while the job is mid-flight: both attach,
        # neither enqueues a second execution.
        t2, keys2 = service.submit([job])
        t3, keys3 = service.submit([_job("flight")])  # equal by content
        assert keys2 == keys3 == [key]
        assert len({t1, t2, t3}) == 3       # distinct tickets, one entry
        assert service.attached == 2
        assert service.job_status(key)["status"] == "running"
        release.set()
        _spin_until(lambda: service.job_status(key)["status"] == "done",
                    message="job completion")
        assert executions == [job.key()]    # exactly one execution
        docs = [service.job_status(key) for _ in range(3)]
        assert all(canonical_json(d) == canonical_json(docs[0])
                   for d in docs)
    finally:
        release.set()
        service.close()


def test_cache_hit_completes_submission_without_executing(tmp_path,
                                                          tiny_result):
    job = _job("warm")
    ResultCache(tmp_path).put(job.key(), tiny_result)
    service = SimService(cache_dir=tmp_path,
                         execute=lambda j, a: pytest.fail(
                             "cache hit must not execute"))
    try:
        _, (key,) = service.submit([job])
        doc = service.job_status(key)
        assert doc["status"] == "done" and doc["cached"]
        assert doc["result"]["summary"] == tiny_result.as_dict()
        stats = service.stats()
        assert stats["cache_hits"] == 1 and stats["executed"] == 0
    finally:
        service.close()


def test_failed_job_keeps_error_and_attempt_count():
    def explode(job, attempt):
        raise RuntimeError(f"boom on attempt {attempt}")

    service = SimService(execute=explode,
                         retry_policy=RetryPolicy(max_attempts=2))
    try:
        _, (key,) = service.submit([_job("doomed")])
        _spin_until(lambda: service.job_status(key)["status"]
                    in TERMINAL_STATES, message="terminal state")
        doc = service.job_status(key)
        assert doc["status"] == "failed"
        assert doc["attempts"] == 2
        assert "RuntimeError: boom on attempt 2" in doc["error"]
        assert "result" not in doc
    finally:
        service.close()


def test_flaky_job_recovers_on_retry(tiny_result):
    def flaky(job, attempt):
        if attempt == 1:
            raise OSError("transient")
        return tiny_result

    service = SimService(execute=flaky,
                         retry_policy=RetryPolicy(max_attempts=3))
    try:
        _, (key,) = service.submit([_job("flaky")])
        _spin_until(lambda: service.job_status(key)["status"]
                    in TERMINAL_STATES, message="terminal state")
        doc = service.job_status(key)
        assert doc["status"] == "done" and doc["attempts"] == 2
    finally:
        service.close()


def test_hung_job_times_out_and_late_result_is_discarded(tmp_path,
                                                         tiny_result):
    release = threading.Event()

    def hang(job, attempt):
        assert release.wait(scaled(30.0)), "gate never released"
        return tiny_result

    budget = scaled(0.2)
    service = SimService(cache_dir=tmp_path, execute=hang,
                         retry_policy=RetryPolicy(max_attempts=1,
                                                  timeout=budget))
    try:
        job = _job("stuck")
        _, (key,) = service.submit([job])
        # The deadline is enforced lazily: polling observes the breach.
        _spin_until(lambda: service.job_status(key)["status"] == "timeout",
                    budget=30.0, message="timeout observation")
        doc = service.job_status(key)
        assert f"{budget:g}s" in doc["error"]
        # Now un-hang the worker: its late result must be discarded —
        # the entry stays timed out and nothing is checkpointed.
        release.set()
        _spin_until(lambda: service.executed == 1,
                    message="late execution return")
        assert service.job_status(key)["status"] == "timeout"
        assert ResultCache(tmp_path).get(job.key()) is None
        assert service.wait_for([key], timeout=scaled(5.0))
    finally:
        release.set()
        service.close()


def test_wait_for_reports_pending_then_completion(tiny_result):
    release = threading.Event()
    service = SimService(
        execute=lambda j, a: (release.wait(scaled(10.0)), tiny_result)[1])
    try:
        _, keys = service.submit(_jobs(2))
        assert not service.wait_for(keys, timeout=scaled(0.1))
        release.set()
        assert service.wait_for(keys, timeout=scaled(10.0))
        assert service.stats()["states"] == {"done": 2}
    finally:
        release.set()
        service.close()


# --------------------------------------------------------------------- #
# The HTTP daemon
# --------------------------------------------------------------------- #

@pytest.fixture()
def live_daemon(tmp_path):
    service = SimService(cache_dir=tmp_path / "cache", max_workers=2)
    daemon = ServiceDaemon(service)
    thread = daemon.start()
    yield daemon
    daemon.shutdown()
    thread.join(timeout=scaled(10.0))
    daemon.close()


def test_http_health_stats_and_error_paths(live_daemon):
    client = ServiceClient(live_daemon.url, timeout=scaled(30.0))
    health = client.health()
    assert health["status"] == "ok"
    assert client.stats()["jobs"] == 0
    with pytest.raises(ServiceError) as excinfo:
        client.job("no-such-key")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client.ticket("t999999")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/v1/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/jobs", body={"jobs": []})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/v1/jobs/x?wait=never")
    assert excinfo.value.status == 400


def test_http_submit_longpoll_stream_and_ticket(live_daemon):
    client = ServiceClient(live_daemon.url, timeout=scaled(60.0))
    jobs = _jobs(3, accesses=350)
    submission = client.submit(jobs=jobs)
    assert len(submission.keys) == 3

    final = client.wait(submission, timeout=scaled(120.0))
    assert final["complete"] and final["terminal"] == final["total"] == 3
    assert {doc["status"] for doc in final["jobs"]} == {"done"}
    assert all("result" in doc for doc in final["jobs"])

    # Long-polling one job returns it done with the result inline.
    doc = client.job(submission.keys[0], wait=scaled(5.0))
    assert doc["status"] == "done"
    assert doc["result"]["summary"]["workload"] == "ligra.pagerank"

    # The stream replays one terminal JSONL document per job.
    streamed = list(client.stream(submission))
    assert sorted(d["key"] for d in streamed) == sorted(submission.keys)
    assert {d["status"] for d in streamed} == {"done"}

    # A duplicate submission attaches; nothing executes twice.
    again = client.submit(jobs=jobs)
    assert again.keys == submission.keys
    detail = client.stats(detail=True)
    assert detail["executed"] == 3 and detail["attached"] == 3
    assert set(detail["executed_per_key"].values()) == {1}


def test_eight_concurrent_clients_execute_each_key_exactly_once(live_daemon):
    """The headline dedup claim, end to end over real HTTP.

    Eight clients submit overlapping slices of a six-job universe
    concurrently; the service must execute each unique key exactly once
    and serve every client byte-identical payloads.
    """
    universe = _jobs(6, accesses=300)
    slices = [[universe[j] for j in range(len(universe))
               if (i + j) % 2 == 0 or j % 3 == i % 3]
              for i in range(8)]  # every slice overlaps its neighbours
    raw_by_client = [None] * 8
    errors = []

    def one_client(i):
        try:
            client = ServiceClient(live_daemon.url, timeout=scaled(60.0))
            submission = client.submit(jobs=slices[i])
            client.wait(submission, timeout=scaled(120.0))
            raw_by_client[i] = {key: client.job_raw(key)
                                for key in submission.keys}
        except Exception as exc:  # surfaced after the join
            errors.append((i, exc))

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=scaled(180.0))
    assert not errors, f"client failures: {errors}"
    assert all(not t.is_alive() for t in threads)

    client = ServiceClient(live_daemon.url, timeout=scaled(30.0))
    detail = client.stats(detail=True)
    submitted = sum(len(s) for s in slices)
    assert detail["jobs"] == 6
    assert detail["executed"] == 6           # exactly once per unique key
    assert set(detail["executed_per_key"].values()) == {1}
    assert detail["attached"] == submitted - 6

    # Byte-identity: every client that saw a key saw the same bytes.
    reference = {}
    for raw in raw_by_client:
        for key, body in raw.items():
            reference.setdefault(key, body)
            assert body == reference[key]
    assert len(reference) == 6


def test_http_shutdown_endpoint_stops_the_daemon(tmp_path):
    service = SimService(cache_dir=tmp_path)
    daemon = ServiceDaemon(service)
    thread = daemon.start()
    client = ServiceClient(daemon.url, timeout=scaled(30.0))
    assert client.shutdown()["status"] == "shutting-down"
    thread.join(timeout=scaled(10.0))
    assert not thread.is_alive()
    daemon.close()


# --------------------------------------------------------------------- #
# Crash-restart through the CLI (kill -9 the daemon mid-sweep)
# --------------------------------------------------------------------- #

def _cli_env(**extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop(FAULTS_ENV, None)
    env.update(extra)
    return env


def _start_daemon(tmp_path, cache_dir, tag, **extra_env):
    port_file = tmp_path / f"port-{tag}"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--port-file", str(port_file), "--cache-dir", str(cache_dir),
         "--max-workers", "1"],
        env=_cli_env(**extra_env),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + scaled(60.0)
    while not port_file.exists():
        if proc.poll() is not None:
            pytest.fail(f"daemon {tag} died during startup")
        if time.monotonic() > deadline:
            proc.kill()
            pytest.fail(f"daemon {tag} never published its port")
        time.sleep(0.05)
    port = int(port_file.read_text().strip())
    return proc, f"http://127.0.0.1:{port}"


WORKLOADS = "spec06.stencil,ligra.pagerank,cvp.server_int"


def test_daemon_kill9_restart_serves_checkpoints_and_reruns_rest(tmp_path):
    """Satellite 2: kill -9 mid-sweep, restart, resubmit.

    A single-worker daemon executes three jobs in submission order with
    the LAST one hanging forever: the first two checkpoint to the
    shared cache, then the daemon is kill -9'd.  A restarted daemon on
    the same cache directory must serve those two from checksummed
    checkpoints (``cache_hits``) and re-execute only the lost one.
    """
    cache_dir = tmp_path / "cache"
    jobs = [SimJob(config=SystemConfig.baseline("pythia"), workload=name,
                   num_accesses=900)
            for name in WORKLOADS.split(",")]
    plan = FaultPlan(faults={jobs[-1].key(): FaultSpec(kind="hang",
                                                       hang_s=3600.0)})

    proc, url = _start_daemon(tmp_path, cache_dir, "victim",
                              **{FAULTS_ENV: plan.to_json()})
    try:
        submit = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--server", url,
             "--workload", WORKLOADS, "--accesses", "900", "--no-wait"],
            env=_cli_env(), capture_output=True, timeout=scaled(120.0))
        assert submit.returncode == 0, submit.stderr.decode()
        # FIFO single worker: wait until the two pre-hang jobs are
        # checkpointed, then kill -9 while the third hangs.
        deadline = time.monotonic() + scaled(240.0)
        while len(list(cache_dir.glob("*.pkl"))) < 2:
            if proc.poll() is not None:
                pytest.fail("daemon exited before it could be killed")
            if time.monotonic() > deadline:
                pytest.fail("first two jobs never checkpointed")
            time.sleep(0.05)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=scaled(60.0))
    assert len(list(cache_dir.glob("*.pkl"))) == 2

    # Fault-free restart over the same cache: resubmission completes,
    # serving the survivors from the cache and executing only the rest.
    proc, url = _start_daemon(tmp_path, cache_dir, "restarted")
    try:
        out = tmp_path / "resubmit.json"
        resubmit = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "--server", url,
             "--workload", WORKLOADS, "--accesses", "900",
             "--wait-timeout", str(scaled(240.0)), "--output", str(out)],
            env=_cli_env(), capture_output=True, timeout=scaled(300.0))
        assert resubmit.returncode == 0, resubmit.stderr.decode()
        doc = json.loads(out.read_text())
        assert doc["complete"] and doc["total"] == 3
        cached = [j["cached"] for j in doc["jobs"]]
        assert cached == [True, True, False]
        stats = ServiceClient(url, timeout=scaled(30.0)).stats()
        assert stats["cache_hits"] == 2
        assert stats["executed"] == 1       # only the killed job re-ran
        assert len(list(cache_dir.glob("*.pkl"))) == 3
        ServiceClient(url, timeout=scaled(30.0)).shutdown()
        proc.wait(timeout=scaled(60.0))
        assert proc.returncode == 0         # clean shutdown
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=scaled(60.0))
