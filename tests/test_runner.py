"""Tests for the experiment orchestration layer (repro.runner)."""

import dataclasses
import hashlib
import json

import pytest

import repro.runner.job as job_module
import repro.runner.runner as runner_module
from repro.config.schema import CONFIG_SCHEMA_VERSION

from repro.cpu.core import CoreStats
from repro.experiments.common import ExperimentSetup, run_matrix
from repro.offchip.registry import predictor_registry
from repro.prefetchers.registry import prefetcher_registry
from repro.registry import Registry
from repro.runner import (
    ExecutionBackend,
    JobRunner,
    PredictorSpec,
    ProcessPoolBackend,
    ResultCache,
    SerialBackend,
    SimJob,
    SweepSpec,
)
from repro.dram.config import DRAMConfig
from repro.runner.job import JOB_SCHEMA_VERSION
from repro.sim.config import SystemConfig
from repro.workloads.formats import TRACE_FORMAT_VERSION, write_trace
from repro.workloads.suite import make_trace, trace_cache

#: Four workloads spanning regular and irregular behaviour.
WORKLOADS = ["spec06.stencil", "spec06.mcf_chase", "ligra.bfs", "cvp.server_int"]
NUM_ACCESSES = 800


def _sweep_jobs():
    configs = [SystemConfig.no_prefetching(),
               SystemConfig.with_hermes("popet", prefetcher="pythia")]
    return [SimJob(config=config, workload=name, num_accesses=NUM_ACCESSES)
            for config in configs for name in WORKLOADS]


# --------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------- #

def test_process_pool_matches_serial_bit_identical():
    """Acceptance: 2-config x 4-workload sweep, pool == serial."""
    jobs = _sweep_jobs()
    serial = JobRunner(SerialBackend()).run(jobs)
    pooled = JobRunner(ProcessPoolBackend(max_workers=2)).run(jobs)
    assert serial == pooled
    assert [r.workload for r in serial] == WORKLOADS * 2


def test_process_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ProcessPoolBackend(max_workers=0)


def test_setup_runner_resolves_its_backend_by_name():
    assert isinstance(ExperimentSetup().runner().backend, SerialBackend)
    for setup in (ExperimentSetup(parallel=True, max_workers=2),
                  ExperimentSetup(backend="process-pool", max_workers=2),
                  ExperimentSetup(parallel=True, backend="process-pool",
                                  max_workers=2)):
        backend = setup.runner().backend
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.max_workers == 2
    with pytest.raises(ValueError, match="shorthand"):
        ExperimentSetup(parallel=True, backend="serial").runner()
    with pytest.raises(ValueError, match="unknown backend"):
        ExperimentSetup(backend="carrier-pigeon").runner()


def test_run_matrix_parallel_matches_serial():
    serial_setup = ExperimentSetup(num_accesses=NUM_ACCESSES, per_category=1,
                                   categories=["SPEC06", "Ligra"])
    parallel_setup = ExperimentSetup(num_accesses=NUM_ACCESSES, per_category=1,
                                     categories=["SPEC06", "Ligra"],
                                     parallel=True, max_workers=2)
    configs = {"noprefetch": SystemConfig.no_prefetching(),
               "pythia": SystemConfig.baseline("pythia")}
    assert run_matrix(serial_setup, configs) == run_matrix(parallel_setup, configs)


def test_multicore_job_executes():
    job = SimJob(config=SystemConfig.baseline("pythia"),
                 workload=("ligra.bfs", "spec06.stencil"),
                 num_accesses=600, mode="multicore")
    result = JobRunner().run([job])[0]
    assert result.workloads == ["ligra.bfs", "spec06.stencil"]
    assert result.throughput > 0


# --------------------------------------------------------------------- #
# Job model
# --------------------------------------------------------------------- #

def test_job_validation():
    config = SystemConfig.no_prefetching()
    with pytest.raises(ValueError):
        SimJob(config=config, workload="ligra.bfs", num_accesses=100, mode="bogus")
    with pytest.raises(ValueError):
        SimJob(config=config, workload=("a", "b"), num_accesses=100, mode="single")
    with pytest.raises(ValueError):
        SimJob(config=config, workload="ligra.bfs", num_accesses=0)
    with pytest.raises(ValueError, match="single-core only"):
        SimJob(config=config, workload=("ligra.bfs", "spec06.stencil"),
               num_accesses=100, mode="multicore",
               predictor_spec=PredictorSpec("popet"))


def test_job_key_is_stable_and_content_sensitive():
    config = SystemConfig.baseline("pythia")
    job = SimJob(config=config, workload="ligra.bfs", num_accesses=500)
    same = SimJob(config=SystemConfig.baseline("pythia"), workload="ligra.bfs",
                  num_accesses=500)
    assert job.key() == same.key()
    longer = SimJob(config=config, workload="ligra.bfs", num_accesses=501)
    assert job.key() != longer.key()
    with_spec = SimJob(config=config, workload="ligra.bfs", num_accesses=500,
                       predictor_spec=PredictorSpec("popet",
                                                    {"activation_threshold": -10}))
    assert job.key() != with_spec.key()


def test_sweep_spec_reducer():
    jobs = [SimJob(config=SystemConfig.no_prefetching(), workload="ligra.bfs",
                   num_accesses=400)]
    spec = SweepSpec(name="ipc", jobs=jobs,
                     reducer=lambda results: [r.ipc for r in results])
    reduced = JobRunner().run_sweep(spec)
    assert len(reduced) == 1 and reduced[0] > 0


# --------------------------------------------------------------------- #
# Caches
# --------------------------------------------------------------------- #

def test_trace_cache_returns_same_object():
    first = make_trace("ligra.pagerank", num_accesses=700)
    hits_before = trace_cache().hits
    second = make_trace("ligra.pagerank", num_accesses=700)
    assert first is second
    assert trace_cache().hits == hits_before + 1
    assert make_trace("ligra.pagerank", num_accesses=701) is not first


def test_build_suite_hits_trace_cache():
    # A setup's suite is built the way the job executor builds it: one
    # make_trace per job.  Building it again is served from the cache.
    setup = ExperimentSetup(num_accesses=900, per_category=1,
                            categories=["SPEC06", "Ligra"])
    jobs = setup.jobs(SystemConfig.no_prefetching())
    first = [make_trace(job.workload, job.num_accesses) for job in jobs]
    hits_before = trace_cache().hits
    second = [make_trace(job.workload, job.num_accesses) for job in jobs]
    assert all(a is b for a, b in zip(first, second))
    assert trace_cache().hits >= hits_before + len(first)


class _CountingBackend(ExecutionBackend):
    """Counts the jobs handed to a wrapped backend (serial by default)."""

    def __init__(self, inner=None):
        self.inner = inner or SerialBackend()
        self.executed = 0

    def run_outcomes(self, jobs, keys, policy=None, on_complete=None):
        self.executed += len(jobs)
        return self.inner.run_outcomes(jobs, keys, policy, on_complete)


def test_result_cache_short_circuits_backend(tmp_path):
    jobs = [SimJob(config=SystemConfig.no_prefetching(), workload=name,
                   num_accesses=400) for name in WORKLOADS[:2]]
    backend = _CountingBackend()
    runner = JobRunner(backend=backend, result_cache=ResultCache(tmp_path))
    first = runner.run(jobs)
    assert backend.executed == 2
    second = runner.run(jobs)
    assert backend.executed == 2  # all hits, backend untouched
    assert first == second
    assert len(runner.result_cache) == 2

    # A batch that repeats a job executes it once, on either local
    # backend, and every index still gets its result and outcome: the
    # repeat is served the executed result, as a cache hit would be.
    a, b = jobs
    for name, inner in (("serial", SerialBackend()),
                        ("pool", ProcessPoolBackend(max_workers=2))):
        backend = _CountingBackend(inner)
        runner = JobRunner(backend=backend,
                           result_cache=ResultCache(tmp_path / name))
        results, report = runner.run_report([a, b, a])
        assert backend.executed == 2
        assert [result.workload for result in results] == [
            a.workload, b.workload, a.workload]
        assert results == [first[0], first[1], first[0]]
        assert [(o.index, o.key) for o in report.outcomes] == [
            (0, a.key()), (1, b.key()), (2, a.key())]
        assert [(o.attempts, o.cached) for o in report.outcomes] == [
            (1, False), (1, False), (0, True)]
        assert report.executed_attempts == 2
        assert len(runner.result_cache) == 2


def test_warm_run_report_keys_each_job_once(tmp_path, monkeypatch):
    jobs = _sweep_jobs()[:3]
    jobs.append(jobs[0])
    runner = JobRunner(result_cache=ResultCache(tmp_path))
    cold = runner.run(jobs)
    keyed = []
    batch_keys = job_module.job_keys

    def counted_keys(batch):
        keyed.extend(batch)
        return batch_keys(batch)

    # SimJob.key keys through the job module's name, the runner through
    # its own import of it.
    monkeypatch.setattr(job_module, "job_keys", counted_keys)
    monkeypatch.setattr(runner_module, "job_keys", counted_keys)
    results, report = runner.run_report(jobs)
    assert len(keyed) == len(jobs)
    assert all(outcome.cached for outcome in report.outcomes)
    assert results == cold


def _reference_key(job):
    """A job's key as one ``json.dumps`` of its whole payload."""
    payload = {"schema": JOB_SCHEMA_VERSION,
               "config_schema": CONFIG_SCHEMA_VERSION,
               "trace_format": TRACE_FORMAT_VERSION,
               "traces": job_module._workload_fingerprint(job.workload),
               "job": job_module._canonical(job)}
    return hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def test_batch_keys_match_the_whole_payload_digest(tmp_path, monkeypatch):
    """Splicing each config's text into its jobs' payload text keys
    every job as hashing its whole payload does: every job the report
    plans at the benchmark's sizing, plus multicore, predictor-spec,
    DRAM and trace-file jobs.  Each config object is serialised once."""
    from repro.report.figures import figure_ids, get_figure
    setup = ExperimentSetup(num_accesses=500, per_category=1)
    jobs = [job for figure_id in figure_ids()
            for job in get_figure(figure_id).plan(setup).jobs]
    trace = tmp_path / "trace.csv"
    write_trace(make_trace("ligra.bfs", 300), trace)
    pythia = SystemConfig.baseline("pythia")
    jobs += [
        SimJob(config=pythia, workload=str(trace), num_accesses=300),
        SimJob(config=pythia, workload=str(tmp_path / "gone.bin"),
               num_accesses=300),
        SimJob(config=pythia, workload=("ligra.bfs", str(trace)),
               num_accesses=300, mode="multicore",
               dram=SystemConfig.eight_core_dram()),
        SimJob(config=SystemConfig.with_hermes("popet"), workload="ligra.bfs",
               num_accesses=900, predictor_spec=PredictorSpec(
                   "popet", {"features": ["pc_xor_cl_offset"],
                             "extra": {"z": [3, 2.5], "a": None}})),
        SimJob(config=pythia, workload="spec06.mcf_chase", num_accesses=700,
               dram=DRAMConfig(channels=2, transfer_rate_mtps=1600)),
    ]
    serialised = []
    to_dict = SystemConfig.to_dict

    def counted_to_dict(config):
        serialised.append(config)
        return to_dict(config)

    monkeypatch.setattr(SystemConfig, "to_dict", counted_to_dict)
    keys = job_module.job_keys(jobs)
    assert len(serialised) == len({id(job.config) for job in jobs})
    monkeypatch.undo()
    assert len(jobs) > 700
    assert keys == [_reference_key(job) for job in jobs]
    assert keys == [job.key() for job in jobs]


# --------------------------------------------------------------------- #
# Registries
# --------------------------------------------------------------------- #

def test_registry_rejects_duplicate_names():
    registry = Registry("widget")

    @registry.register("w")
    def _make():
        return object()

    with pytest.raises(ValueError, match="duplicate"):
        registry.register("w")(lambda: object())
    # Case-insensitive: "W" collides with "w".
    with pytest.raises(ValueError, match="duplicate"):
        registry.register("W")(lambda: object())


def test_component_registries_reject_redefinition():
    with pytest.raises(ValueError, match="duplicate"):
        predictor_registry.register("popet")(lambda: None)
    with pytest.raises(ValueError, match="duplicate"):
        prefetcher_registry.register("pythia")(lambda: None)


def test_registry_unknown_name():
    """Unknown names raise KeyError listing the registered alternatives."""
    registry = Registry("widget")
    registry.register("gadget")(lambda: None)
    with pytest.raises(KeyError, match="unknown widget 'nope'.*gadget"):
        registry.create("nope")


def test_predictor_spec_builds_through_registry():
    predictor = PredictorSpec("popet", {"features": ("pc_xor_cl_offset",)}).build()
    assert [spec.name for spec in predictor.features] == ["pc_xor_cl_offset"]
    predictor = PredictorSpec("popet", {"activation_threshold": -5}).build()
    assert predictor.config.activation_threshold == -5


# --------------------------------------------------------------------- #
# Satellite regressions
# --------------------------------------------------------------------- #

def test_core_stats_as_dict_field_parity():
    """Every CoreStats field must appear in as_dict (plus derived metrics)."""
    stats = CoreStats()
    field_names = {f.name for f in dataclasses.fields(CoreStats)}
    keys = set(stats.as_dict())
    assert field_names <= keys
    assert {"ipc", "average_offchip_stall"} <= keys


def test_multicore_warmup_resets_stats():
    from dataclasses import replace
    from repro.sim.multicore import simulate_multicore

    traces = [make_trace("ligra.bfs", 1200), make_trace("spec06.mcf_chase", 1200)]
    config = SystemConfig.baseline("pythia")
    warm = simulate_multicore(config, traces)
    cold = simulate_multicore(replace(config, warmup_fraction=0.0), traces)
    # Warmup discards the first quarter of each trace's measured loads.
    for warm_stats, cold_stats in zip(warm.per_core, cold.per_core):
        assert warm_stats.loads < cold_stats.loads
        assert warm_stats.instructions == cold_stats.instructions
