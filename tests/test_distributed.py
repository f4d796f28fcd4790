"""Distributed-sweep concurrency battery.

The acceptance scenarios from the distributed design (DESIGN.md §15):
a fleet of worker subprocesses draining one shared queue with
exactly-once execution proven by the on-disk ledger, byte-identical
payloads against a never-distributed serial run, a kill -9'd worker
whose lease is stolen and whose job alone re-executes, and torn-write
recovery through the coordinator's checksummed harvest.  Plus the unit
contracts those scenarios rest on: the lease protocol's claim /
heartbeat / steal dance, delta-sweep matrix diffs (including the
randomized partition property), and the pinned job-key hashes that
keep cache *identity* fixed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.config import CONFIG_SCHEMA_VERSION, apply_overrides
from repro.dram.config import DRAMConfig
from repro.experiments.common import ExperimentSetup
from repro.offchip.registry import predictor_registry
from repro.prefetchers.registry import prefetcher_registry
from repro.runner import (
    ExperimentSpec,
    FaultPlan,
    FaultSpec,
    JobOutcome,
    JobRunner,
    ResultCache,
    SerialBackend,
    SimJob,
    diff_job_matrices,
    diff_specs,
    make_backend,
)
from repro.runner.distributed import (
    DEFAULT_LEASE_TTL,
    DistributedBackend,
    DoneRecord,
    LeaseRecord,
    QueueJobRecord,
    WorkerLoop,
    WorkQueue,
    WorkerSummary,
    make_owner_id,
)
from repro.runner.execute import run_job_attempt
from repro.runner.faults import FAULT_KINDS, FAULTS_ENV, apply_faults
from repro.runner.job import PredictorSpec, job_keys
from repro.runner.spec import Axis, AxisPoint
from repro.sim.config import SystemConfig

from _timeouts import scaled

REPO_ROOT = Path(__file__).resolve().parent.parent


def _jobs(n=4, accesses=400):
    """``n`` distinct small jobs (distinct keys via distinct labels)."""
    return [SimJob(config=SystemConfig(label=f"job{i}"),
                   workload="ligra.pagerank", num_accesses=accesses + i)
            for i in range(n)]


def _results_blob(results):
    """Canonical bytes of a result list, for byte-identity assertions."""
    return json.dumps([r.as_dict() for r in results], sort_keys=True,
                      default=str).encode()


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


def _worker_cmd(shared, *extra):
    return [sys.executable, "-m", "repro", "worker", str(shared), *extra]


def _ledger_key_counts(queue):
    """Executions per job key, from the exactly-once evidence files."""
    return Counter(name.split(".", 1)[0] for name in queue.ledger_entries())


# --------------------------------------------------------------------- #
# Job identity is pinned: no refactor may move cache keys
# --------------------------------------------------------------------- #

#: Nested dotted-path overrides of one pinned job (and of the to_dict
#: reference check below).
_NESTED_OVERRIDES = {"core.rob_size": 256,
                     "hierarchy.llc.size_bytes": 6 * 1024 * 1024,
                     "dram.transfer_rate_mtps": 800}


def test_job_keys_are_pinned_across_the_layout_change():
    """The cache files every entry under its job's key, so a key must
    not move when the cache layout or the config canonicalisation
    changes, or every existing cache entry silently misses.  The first
    three digests predate the cache's layout changes; the rest were
    captured before ``to_dict`` gained its per-class fast path."""
    single = SimJob(config=SystemConfig(), workload="ligra.pagerank",
                    num_accesses=1000)
    multi = SimJob(config=SystemConfig(),
                   workload=("ligra.bfs", "spec06.stencil"),
                   num_accesses=500, mode="multicore")
    pred = SimJob(config=SystemConfig.with_hermes("popet"),
                  workload="cvp.server_int", num_accesses=2000,
                  predictor_spec=PredictorSpec(
                      "popet", {"features": ["pc", "cacheline"]}))
    assert single.key() == ("83166c932c52e087f694dd89ef85e48b"
                           "2c4387a258bb440ec8bce4e20a77d315")
    assert multi.key() == ("0d50e887b94a163da86de7b59154e7e9"
                          "5d2580e2b9ca6090d4f42fac70496136")
    assert pred.key() == ("3921e1d187b8ca077fa5d2c174fc7bec"
                          "74b754f252a5c4e4462da403db3ef322")
    dram = SimJob(config=SystemConfig.baseline("spp"),
                  workload="spec06.mcf_chase", num_accesses=1500,
                  dram=DRAMConfig(channels=2, transfer_rate_mtps=1600))
    nested = SimJob(config=apply_overrides(
                        SystemConfig.with_hermes("popet", "pythia"),
                        _NESTED_OVERRIDES),
                    workload="parsec.canneal", num_accesses=1200)
    # Keys never build the predictor: the dict option is there to pin
    # how nested options canonicalise (its keys are out of order).
    options = SimJob(config=SystemConfig.with_hermes("popet"),
                     workload="ligra.bfs", num_accesses=900,
                     predictor_spec=PredictorSpec(
                         "popet", {"features": ["pc_xor_cl_offset",
                                                "pc_first_access"],
                                   "activation_threshold": -10,
                                   "extra": {"z": [3, 2.5], "a": None}}))
    mix = SimJob(config=SystemConfig.with_hermes("popet", "pythia"),
                 workload=("spec17.mcf_chase", "ligra.bfs", "parsec.canneal",
                           "cvp.server_int"),
                 num_accesses=600, mode="multicore",
                 dram=SystemConfig.eight_core_dram())
    assert dram.key() == ("43d70853f9538d26c6f8c66c2c4eee6e"
                          "0496f27e13b99e63b4c8ab5ad314fe46")
    assert nested.key() == ("6cdc66198881ce16065a39118a42312d"
                            "765ec565986d41e73f7a3232a39e1a34")
    assert options.key() == ("da04610d605c41b6c1a69dc286fe227b"
                             "f691f8f385070c380b4690651f18582f")
    assert mix.key() == ("f827a505e211ba4bd0610836794e00aa"
                         "2555811a0c90191e682015c23e8c39ca")


def _fields_walk(value):
    """``to_dict``'s reference: a plain ``dataclasses.fields`` walk."""
    if dataclasses.is_dataclass(value):
        return {field.name: _fields_walk(getattr(value, field.name))
                for field in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_fields_walk(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _fields_walk(item) for key, item in value.items()}
    return value


def test_config_to_dict_matches_a_plain_fields_walk():
    """Every named SystemConfig, and the overridden ones the pinned keys
    use, serialise exactly as a ``dataclasses.fields`` walk: the same
    values, the same types and the same key order."""
    configs = [SystemConfig(), SystemConfig.no_prefetching()]
    configs += [SystemConfig.baseline(name)
                for name in prefetcher_registry.names()]
    configs += [SystemConfig.with_hermes(predictor, prefetcher, optimistic)
                for predictor in predictor_registry.names()
                for prefetcher in ("none", "pythia")
                for optimistic in (True, False)]
    configs += [apply_overrides(SystemConfig.with_hermes("popet", "pythia"),
                                _NESTED_OVERRIDES),
                DRAMConfig(channels=2, transfer_rate_mtps=1600),
                SystemConfig.eight_core_dram()]
    for config in configs:
        # json.dumps keeps insertion order and tells 4 from 4.0 and
        # True from 1, so equal texts mean equal keys, order and types.
        assert (json.dumps(config.to_dict())
                == json.dumps(_fields_walk(config))), config


# --------------------------------------------------------------------- #
# Queue + lease protocol units
# --------------------------------------------------------------------- #

def _queued_job(queue, job, attempt=1):
    record = QueueJobRecord(key=job.key(), attempt=attempt,
                            job=job.to_dict())
    queue.publish(record)
    return record


def test_queue_meta_ttl_is_fixed_by_the_first_creator(tmp_path):
    first = WorkQueue(tmp_path / "q", lease_ttl=2.5)
    assert first.lease_ttl == 2.5
    assert WorkQueue(tmp_path / "q", lease_ttl=99.0).lease_ttl == 2.5
    assert WorkQueue(tmp_path / "q").lease_ttl == 2.5
    with pytest.raises(ValueError, match="positive"):
        WorkQueue(tmp_path / "q2", lease_ttl=0.0)
    assert WorkQueue(tmp_path / "q3").lease_ttl == DEFAULT_LEASE_TTL


def test_queue_rejects_a_future_schema(tmp_path):
    WorkQueue(tmp_path / "q")
    meta = tmp_path / "q" / "META.json"
    doc = json.loads(meta.read_text())
    doc["queue_schema"] = 99
    meta.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="queue_schema"):
        WorkQueue(tmp_path / "q")


def test_publish_is_idempotent_and_done_keys_stay_done(tmp_path):
    job = _jobs(1)[0]
    queue = WorkQueue(tmp_path / "q")
    record = QueueJobRecord(key=job.key(), attempt=1, job=job.to_dict())
    assert queue.publish(record) is True
    assert queue.publish(record) is False       # already published
    assert queue.pending_keys() == [job.key()]
    queue.complete(DoneRecord(key=job.key(), status="ok", attempts=1))
    assert queue.pending_keys() == []
    assert queue.publish(record) is False       # done keys never reopen
    # A resumed coordinator must not clobber a steal-bumped attempt.
    queue2 = WorkQueue(tmp_path / "q2")
    _queued_job(queue2, job, attempt=3)
    assert queue2.publish(record) is False
    assert queue2.job_record(job.key()).attempt == 3


def test_claim_heartbeat_release_cycle(tmp_path):
    job = _jobs(1)[0]
    queue = WorkQueue(tmp_path / "q", lease_ttl=30.0)
    _queued_job(queue, job)
    key = job.key()
    record = queue.try_claim(key, "alice")
    assert record is not None and record.attempt == 1
    assert queue.owns(key, "alice") and not queue.owns(key, "bob")
    assert queue.try_claim(key, "bob") is None  # fresh lease holds
    assert queue.heartbeat(key, "alice") is True
    assert queue.heartbeat(key, "bob") is False
    lease = queue.lease_record(key)
    assert lease == LeaseRecord(key=key, owner="alice", attempt=1)
    queue.release(key, "alice")
    assert queue.lease_record(key) is None
    assert queue.try_claim(key, "bob").attempt == 1  # no false bump
    # A claim on a finished or unknown key never succeeds.
    queue.complete(DoneRecord(key=key, status="ok", attempts=1), owner="bob")
    assert queue.try_claim(key, "alice") is None
    assert queue.try_claim("f" * 64, "alice") is None


def test_stale_lease_is_stolen_with_an_attempt_bump(tmp_path):
    job = _jobs(1)[0]
    queue = WorkQueue(tmp_path / "q", lease_ttl=5.0)
    _queued_job(queue, job)
    key = job.key()
    assert queue.try_claim(key, "dead").attempt == 1
    assert queue.try_claim(key, "live") is None       # still fresh
    assert queue.stale_lease_count() == 0
    claim = tmp_path / "q" / "claims" / f"{key}.json"
    old = time.time() - 6.0
    os.utime(claim, (old, old))                       # heartbeats stopped
    assert queue.stale_lease_count() == 1
    stolen = queue.try_claim(key, "live")
    assert stolen is not None and stolen.attempt == 2
    assert queue.owns(key, "live")
    assert queue.heartbeat(key, "dead") is False      # old owner is out
    assert queue.job_record(key).attempt == 2         # bump persisted


def test_reenqueue_retracts_the_done_record(tmp_path):
    job = _jobs(1)[0]
    queue = WorkQueue(tmp_path / "q")
    _queued_job(queue, job)
    key = job.key()
    queue.complete(DoneRecord(key=key, status="ok", attempts=1))
    assert queue.pending_keys() == []
    queue.reenqueue(key, attempt=2)
    assert queue.pending_keys() == [key]
    assert queue.done_record(key) is None
    assert queue.job_record(key).attempt == 2
    with pytest.raises(ValueError, match="unknown key"):
        queue.reenqueue("f" * 64, attempt=2)


def test_execution_ledger_is_exactly_once_evidence(tmp_path):
    queue = WorkQueue(tmp_path / "q")
    queue.record_execution("aabb", "w1", 1)
    queue.record_execution("aabb", "w1", 1)     # exact re-drop: no dup
    queue.record_execution("aabb", "w2", 2)
    queue.record_execution("ccdd", "w1", 1)
    assert queue.ledger_entries("aabb") == ["aabb.w1.1", "aabb.w2.2"]
    assert len(queue.ledger_entries()) == 3


def test_queue_records_reject_unknown_keys_and_schemas():
    good_job = {"queue_schema": 1, "key": "aa", "attempt": 1, "job": {}}
    assert QueueJobRecord.from_dict(good_job).key == "aa"
    with pytest.raises(ValueError, match="unknown job-record"):
        QueueJobRecord.from_dict({**good_job, "extra": 1})
    with pytest.raises(ValueError, match="queue_schema"):
        QueueJobRecord.from_dict({**good_job, "queue_schema": 99})
    good_lease = {"lease_schema": 1, "key": "aa", "owner": "w", "attempt": 1}
    assert LeaseRecord.from_dict(good_lease).owner == "w"
    with pytest.raises(ValueError, match="unknown lease"):
        LeaseRecord.from_dict({**good_lease, "extra": 1})
    with pytest.raises(ValueError, match="lease_schema"):
        LeaseRecord.from_dict({**good_lease, "lease_schema": 99})
    done = DoneRecord(key="aa", status="ok", attempts=1, worker="w")
    assert DoneRecord.from_dict(done.to_dict()) == done
    with pytest.raises(ValueError, match="unknown done-record"):
        DoneRecord.from_dict({**done.to_dict(), "extra": 1})


def test_queue_stats_count_every_protocol_surface(tmp_path):
    jobs = _jobs(3)
    queue = WorkQueue(tmp_path / "q", lease_ttl=7.0)
    for job in jobs:
        _queued_job(queue, job)
    queue.try_claim(jobs[0].key(), "w1")
    queue.record_execution(jobs[0].key(), "w1", 1)
    queue.complete(DoneRecord(key=jobs[1].key(), status="ok", attempts=1))
    queue.complete(DoneRecord(key=jobs[2].key(), status="failed",
                              attempts=2, error="boom"))
    stats = queue.stats()
    assert stats["lease_ttl"] == 7.0
    assert stats["published"] == 3
    assert stats["pending"] == 1
    assert stats["active_leases"] == 1
    assert stats["stale_leases"] == 0
    assert stats["done"] == 2 and stats["failed"] == 1
    assert stats["ledger_entries"] == 1
    assert stats["closed"] is False
    queue.close()
    assert queue.is_closed()
    assert WorkQueue.stats_for(tmp_path / "q")["closed"] is True
    assert WorkQueue.stats_for(tmp_path / "nowhere") is None


def test_owner_ids_and_worker_summary():
    first, second = make_owner_id(), make_owner_id()
    assert first != second
    assert first.startswith(f"worker-{os.getpid()}-")
    assert make_owner_id("coordinator").startswith("coordinator-")
    summary = WorkerSummary(owner="w", executed=2, cached=1, keys=["a", "b"])
    doc = summary.to_dict()
    assert doc["executed"] == 2 and doc["cached"] == 1
    assert doc["keys"] == ["a", "b"]
    json.dumps(doc)


# --------------------------------------------------------------------- #
# Fault-kind extensions + worker attribution
# --------------------------------------------------------------------- #

def test_protocol_fault_kinds_are_inert_inside_attempts():
    assert "torn-write" in FAULT_KINDS and "lease-steal" in FAULT_KINDS
    job = _jobs(1)[0]
    plan = FaultPlan(faults={
        job.key(): FaultSpec(kind="torn-write", succeed_on=2)})
    assert FaultPlan.from_json(plan.to_json()) == plan  # round-trips
    with plan.activated():
        apply_faults(job, attempt=1)            # no-op, must not raise
        result = run_job_attempt(job)
    assert result.workload == "ligra.pagerank"
    FaultSpec(kind="lease-steal", succeed_on=3)  # valid kind


def test_job_outcome_worker_attribution_is_optional_in_the_doc():
    bare = JobOutcome(index=0, key="k", status="ok", attempts=1)
    assert "worker" not in bare.to_dict()       # pre-existing docs stable
    attributed = JobOutcome(index=0, key="k", status="ok", attempts=1,
                            worker="worker-1-aa")
    assert attributed.to_dict()["worker"] == "worker-1-aa"


def test_make_backend_registry():
    assert isinstance(make_backend("serial"), SerialBackend)
    distributed = make_backend("distributed", shared_dir="/tmp/x",
                               lease_ttl=5.0)
    assert isinstance(distributed, DistributedBackend)
    with pytest.raises(ValueError, match="shared cache directory"):
        make_backend("distributed")
    with pytest.raises(ValueError):
        make_backend("carrier-pigeon")


def test_setup_runner_builds_the_distributed_backend(tmp_path):
    runner = ExperimentSetup(backend="distributed", result_cache_dir=tmp_path,
                             lease_ttl=3.0).runner()
    assert isinstance(runner.backend, DistributedBackend)
    assert runner.backend.shared_dir == tmp_path
    assert runner.backend.lease_ttl == 3.0
    assert runner.result_cache.directory == tmp_path
    with pytest.raises(ValueError, match="shared cache directory"):
        ExperimentSetup(backend="distributed").runner()


# --------------------------------------------------------------------- #
# Solo coordinator: the backend contract, torn-write and steal recovery
# --------------------------------------------------------------------- #

def test_solo_distributed_backend_matches_serial_byte_identical(tmp_path):
    jobs = _jobs(4)
    baseline = JobRunner(SerialBackend()).run(jobs)
    runner = JobRunner(backend=DistributedBackend(tmp_path),
                       result_cache=ResultCache(tmp_path))
    results, report = runner.run_report(jobs)
    assert _results_blob(results) == _results_blob(baseline)
    assert all(o.ok for o in report.outcomes)
    assert all(o.worker and o.worker.startswith("coordinator-")
               for o in report.outcomes)
    queue = WorkQueue(tmp_path / "queue")
    assert queue.is_closed()
    assert _ledger_key_counts(queue) == {job.key(): 1 for job in jobs}
    # A fresh runner against the same shared dir is served from cache.
    rerun, rereport = JobRunner(
        backend=DistributedBackend(tmp_path),
        result_cache=ResultCache(tmp_path)).run_report(jobs)
    assert _results_blob(rerun) == _results_blob(baseline)
    assert rereport.cached_count == 4


def test_duplicate_jobs_share_one_execution(tmp_path):
    job = _jobs(1)[0]
    outcomes = DistributedBackend(tmp_path).run_outcomes(
        [job, job], job_keys([job, job]))
    assert [o.index for o in outcomes] == [0, 1]
    assert all(o.ok for o in outcomes)
    assert outcomes[0].key == outcomes[1].key
    queue = WorkQueue(tmp_path / "queue")
    assert _ledger_key_counts(queue) == {job.key(): 1}


def test_worker_fails_a_job_it_keys_differently(tmp_path, monkeypatch):
    """A worker whose build keys a claimed job differently from the
    coordinator (here: another config schema version) fails the job
    instead of filing a result under the coordinator's key."""
    job = _jobs(1)[0]
    queue = WorkQueue(tmp_path / "queue")
    record = _queued_job(queue, job)
    monkeypatch.setattr("repro.runner.job.CONFIG_SCHEMA_VERSION",
                        CONFIG_SCHEMA_VERSION + 1)
    worker = WorkerLoop(tmp_path, owner=make_owner_id("other-build"))
    assert worker.step_once()
    done = queue.done_record(record.key)
    assert done.status == "failed" and done.attempts == 0
    assert f"keys the job as {job.key()}" in done.error
    assert (worker.summary.failed, worker.summary.executed) == (1, 0)
    assert queue.ledger_entries() == []     # the simulator never ran
    assert len(ResultCache(tmp_path)) == 0  # nothing filed under any key


def test_torn_write_is_quarantined_and_reexecuted(tmp_path):
    """A worker publishes a checksum-failing entry and claims success;
    the coordinator's verified harvest must catch it and re-run."""
    jobs = _jobs(3)
    baseline = JobRunner(SerialBackend()).run(jobs)
    victim = jobs[1].key()
    plan = FaultPlan(faults={victim: FaultSpec(kind="torn-write",
                                               succeed_on=2)})
    with plan.activated():
        outcomes = DistributedBackend(tmp_path).run_outcomes(
            jobs, job_keys(jobs))
    assert all(o.ok for o in outcomes)
    assert outcomes[1].attempts == 2            # re-run was a new attempt
    results = [o.result for o in outcomes]
    assert _results_blob(results) == _results_blob(baseline)
    corrupt = tmp_path / f"{victim}.pkl.corrupt"
    assert corrupt.exists()                     # the torn entry, impounded
    # The torn publish never executed the simulator, so the ledger shows
    # exactly one *real* execution, at the bumped attempt.
    queue = WorkQueue(tmp_path / "queue")
    entries = queue.ledger_entries(victim)
    assert len(entries) == 1 and entries[0].endswith(".2")


def test_abandoned_lease_ages_out_and_is_stolen(tmp_path):
    """A worker that wedges right after claiming (the lease-steal fault)
    stops heartbeating; the key must be reclaimed with a bumped attempt."""
    jobs = _jobs(2)
    baseline = JobRunner(SerialBackend()).run(jobs)
    victim = jobs[0].key()
    plan = FaultPlan(faults={victim: FaultSpec(kind="lease-steal",
                                               succeed_on=2)})
    backend = DistributedBackend(tmp_path, lease_ttl=scaled(0.5))
    started = time.monotonic()
    with plan.activated():
        outcomes = backend.run_outcomes(jobs, job_keys(jobs))
    assert all(o.ok for o in outcomes)
    assert outcomes[0].attempts == 2            # the steal bumped it
    assert time.monotonic() - started >= 0.5    # a TTL actually elapsed
    assert _results_blob([o.result for o in outcomes]) == \
        _results_blob(baseline)
    queue = WorkQueue(tmp_path / "queue")
    assert queue.job_record(victim).attempt == 2


# --------------------------------------------------------------------- #
# Delta sweeps
# --------------------------------------------------------------------- #

def test_delta_partitions_the_new_matrix_exactly():
    old = _jobs(4)
    new = old[:2] + [SimJob(config=SystemConfig(label=f"fresh{i}"),
                            workload="ligra.bfs", num_accesses=500 + i)
                     for i in range(3)]
    delta = diff_job_matrices(new, old)
    assert [job.key() for job in delta.unchanged] == \
        [job.key() for job in old[:2]]
    assert [job.key() for job in delta.changed] == \
        [job.key() for job in new[2:]]
    assert delta.total == len(new)
    assert delta.removed_keys == sorted(job.key() for job in old[2:])
    assert "3 changed of 5" in delta.summary()
    doc = delta.to_dict()
    assert (doc["changed"], doc["unchanged"], doc["removed"]) == (3, 2, 2)
    assert doc["changed_keys"] == [job.key() for job in delta.changed]
    json.dumps(doc)


def _random_spec(rng):
    """A seeded random spec over a small axis/workload pool."""
    pool = ["ligra.pagerank", "ligra.bfs", "spec06.stencil",
            "cvp.server_int"]
    points = [AxisPoint(label=f"p{i}",
                        set={"core.rob_size": rng.choice([128, 256, 384,
                                                          512])})
              for i in range(rng.randint(1, 4))]
    return ExperimentSpec(name="rand",
                          axes=[Axis(name="rob", points=points)],
                          workloads=rng.sample(pool, rng.randint(1, 4)),
                          accesses=rng.choice([500, 1000]))


@pytest.mark.parametrize("seed", range(8))
def test_delta_partition_property_randomized(seed):
    """For any spec pair: changed ∪ unchanged == the new matrix (order
    preserved), the partition is disjoint, unchanged keys all existed
    before, and removed keys are exactly the old keys that vanished."""
    rng = random.Random(seed)
    old, new = _random_spec(rng), _random_spec(rng)
    delta = diff_specs(new, old)
    old_keys = {job.key() for job in old.jobs()}
    new_keys = [job.key() for job in new.jobs()]
    changed = [job.key() for job in delta.changed]
    unchanged = [job.key() for job in delta.unchanged]
    assert set(changed) | set(unchanged) == set(new_keys)
    assert not set(changed) & set(unchanged)
    assert set(unchanged) <= old_keys
    assert not set(changed) & old_keys
    assert delta.removed_keys == sorted(old_keys - set(new_keys))
    # The partition preserves the new matrix's execution order.
    assert changed == [k for k in new_keys if k not in old_keys]
    assert unchanged == [k for k in new_keys if k in old_keys]
    assert delta.total == len(new_keys)
    # The spec-level entry point agrees with the matrix-level one.
    again = new.delta(old)
    assert [j.key() for j in again.changed] == changed


# --------------------------------------------------------------------- #
# CLI: worker lifecycle, the fleet acceptance run, kill -9, --since-spec
# --------------------------------------------------------------------- #

def _axis_spec_toml(name, sizes, workloads, accesses):
    lines = [f'spec_version = 1',
             f'name = "{name}"',
             f'accesses = {accesses}',
             f'workloads = {json.dumps(list(workloads))}',
             '',
             '[base]',
             'prefetcher = "pythia"',
             '',
             '[[axes]]',
             'name = "rob"']
    for size in sizes:
        lines += ['', '[[axes.points]]', f'label = "rob{size}"',
                  '[axes.points.set]', f'"core.rob_size" = {size}']
    return "\n".join(lines) + "\n"


def test_cli_worker_exits_cleanly_when_the_queue_never_appears(tmp_path):
    completed = subprocess.run(
        _worker_cmd(tmp_path / "nowhere", "--wait-for-queue", "0.2"),
        env=_cli_env(), capture_output=True, timeout=scaled(120.0))
    assert completed.returncode == 0
    assert b"0 executed" in completed.stderr
    summary = json.loads(completed.stdout)
    assert summary["executed"] == 0 and summary["keys"] == []


def test_four_workers_drain_a_64_job_sweep_exactly_once(tmp_path):
    """The fleet acceptance run: 4 external workers plus the
    participating coordinator drain a 64-job matrix cooperatively;
    every unique key executes exactly once (ledger-proven) and the
    sweep output is byte-identical to a cold serial run."""
    spec_path = tmp_path / "spec.toml"
    spec_path.write_text(_axis_spec_toml(
        "dist-accept", [64 + 32 * i for i in range(16)],
        ["ligra.pagerank", "ligra.bfs", "spec06.stencil", "cvp.server_int"],
        accesses=300), encoding="utf-8")
    jobs = ExperimentSpec.from_file(spec_path).jobs()
    assert len(jobs) == 64
    assert len({job.key() for job in jobs}) == 64

    base_out = tmp_path / "base.json"
    subprocess.run(_sweep_cmd(spec_path, tmp_path / "cache-serial", base_out),
                   check=True, env=_cli_env(), capture_output=True,
                   timeout=scaled(300.0))

    shared = tmp_path / "shared"
    dist_out = tmp_path / "dist.json"
    workers = [subprocess.Popen(
        _worker_cmd(shared, "--poll-interval", "0.02",
                    "--wait-for-queue", str(scaled(120.0)),
                    "--max-idle", str(scaled(60.0))),
        env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        for _ in range(4)]
    try:
        subprocess.run(
            _sweep_cmd(spec_path, shared, dist_out,
                       "--backend", "distributed"),
            check=True, env=_cli_env(), capture_output=True,
            timeout=scaled(300.0))
        summaries = []
        for proc in workers:
            stdout, _ = proc.communicate(timeout=scaled(120.0))
            assert proc.returncode == 0
            summaries.append(json.loads(stdout))
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()

    assert dist_out.read_bytes() == base_out.read_bytes()
    queue = WorkQueue(shared / "queue")
    counts = _ledger_key_counts(queue)
    assert counts == {job.key(): 1 for job in jobs}   # exactly once, all 64
    owners = {name.split(".")[1] for name in queue.ledger_entries()}
    assert len(owners) >= 2                 # genuinely cooperative drain
    fleet_done = sum(s["executed"] + s["cached"] for s in summaries)
    assert fleet_done == sum(len(s["keys"]) for s in summaries)
    stats = queue.stats()
    assert stats["done"] == 64 and stats["failed"] == 0
    assert stats["pending"] == 0 and stats["closed"] is True


def test_kill9_worker_is_stolen_and_only_its_job_reruns(tmp_path):
    """A worker hard-killed mid-job stops heartbeating; its lease ages
    out, the coordinator steals the key as a fresh attempt, and the
    finished sweep is byte-identical with exactly one double-executed
    key — the one that died in flight."""
    spec_path = tmp_path / "spec.toml"
    spec_path.write_text(_axis_spec_toml(
        "kill9", [128, 256, 512], ["ligra.pagerank", "spec06.stencil"],
        accesses=400), encoding="utf-8")
    jobs = ExperimentSpec.from_file(spec_path).jobs()
    assert len(jobs) == 6
    hang_key = jobs[0].key()

    base_out = tmp_path / "base.json"
    subprocess.run(_sweep_cmd(spec_path, tmp_path / "cache-serial", base_out),
                   check=True, env=_cli_env(), capture_output=True,
                   timeout=scaled(300.0))

    # Pre-publish the matrix so the victim can start before any
    # coordinator exists; its TTL is fixed here, in the queue META.
    shared = tmp_path / "shared"
    ResultCache(shared)
    queue = WorkQueue(shared / "queue", lease_ttl=scaled(2.0))
    for job in jobs:
        queue.publish(QueueJobRecord(key=job.key(), attempt=1,
                                     job=job.to_dict()))

    # The victim alone sees a hang fault on one key: it works normally
    # until it claims that key, then wedges mid-execution (heartbeating)
    # until kill -9 silences it.
    plan = FaultPlan(faults={hang_key: FaultSpec(kind="hang",
                                                 hang_s=3600.0)})
    victim = subprocess.Popen(
        _worker_cmd(shared, "--poll-interval", "0.02"),
        env=_cli_env(**{FAULTS_ENV: plan.to_json()}),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + scaled(240.0)
        while time.monotonic() < deadline:
            if queue.ledger_entries(hang_key):
                break
            if victim.poll() is not None:
                pytest.fail("victim worker exited before it could be killed")
            time.sleep(0.05)
        else:
            pytest.fail("victim never started the faulted job")
        assert queue.done_record(hang_key) is None   # genuinely in flight
    finally:
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=scaled(60.0))

    # Fault-free coordinator: harvests whatever the victim finished,
    # steals the orphaned lease once it ages out, re-runs that key only.
    dist_out = tmp_path / "dist.json"
    subprocess.run(
        _sweep_cmd(spec_path, shared, dist_out, "--backend", "distributed"),
        check=True, env=_cli_env(), capture_output=True,
        timeout=scaled(300.0))
    assert dist_out.read_bytes() == base_out.read_bytes()
    counts = _ledger_key_counts(queue)
    assert counts[hang_key] == 2                # died once, rescued once
    for job in jobs[1:]:
        assert counts[job.key()] == 1           # nobody else re-ran
    done = queue.done_record(hang_key)
    assert done.status == "ok" and done.attempts == 2
    assert done.worker.startswith("coordinator-")


def test_cli_since_spec_executes_precisely_the_delta(tmp_path):
    spec_a = tmp_path / "a.toml"
    spec_b = tmp_path / "b.toml"
    workloads = ["ligra.pagerank", "ligra.bfs"]
    spec_a.write_text(_axis_spec_toml("delta-a", [256, 512], workloads,
                                      accesses=400), encoding="utf-8")
    spec_b.write_text(_axis_spec_toml("delta-b", [512, 1024], workloads,
                                      accesses=400), encoding="utf-8")
    expected = diff_specs(ExperimentSpec.from_file(spec_b),
                          ExperimentSpec.from_file(spec_a))
    assert len(expected.changed) == 2 and len(expected.unchanged) == 2

    out = tmp_path / "out.json"
    outcomes_path = tmp_path / "outcomes.json"
    completed = subprocess.run(
        _sweep_cmd(spec_b, tmp_path / "cache", out,
                   "--since-spec", str(spec_a),
                   "--outcomes", str(outcomes_path)),
        check=True, env=_cli_env(), capture_output=True,
        timeout=scaled(300.0))
    assert b"delta: 2 changed of 4 job(s)" in completed.stderr

    doc = json.loads(out.read_text())
    assert doc["jobs"] == 2                     # only the delta ran
    assert doc["delta"]["changed"] == 2
    assert doc["delta"]["unchanged"] == 2
    assert doc["delta"]["removed"] == 2
    assert doc["delta"]["changed_keys"] == \
        [job.key() for job in expected.changed]
    ledger = json.loads(outcomes_path.read_text())
    assert ledger["jobs"] == 2
    assert sorted(o["key"] for o in ledger["outcomes"]) == \
        sorted(job.key() for job in expected.changed)


# --------------------------------------------------------------------- #
# Stats surfaces
# --------------------------------------------------------------------- #

def test_service_stats_expose_shard_and_lease_counters(tmp_path):
    jobs = _jobs(2)
    outcomes = DistributedBackend(tmp_path).run_outcomes(jobs,
                                                         job_keys(jobs))
    assert all(o.ok for o in outcomes)
    from repro.service import SimService
    service = SimService(cache_dir=tmp_path)
    try:
        doc = service.stats()
        assert doc["cache"]["entries"] == 2
        dist = doc["distributed"]
        assert dist["published"] == 2 and dist["done"] == 2
        assert dist["closed"] is True
        json.dumps(doc)
    finally:
        service.close()
