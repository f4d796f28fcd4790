"""Tests for the declarative config & experiment-spec API.

Covers the round-trip contract (``from_dict(to_dict(cfg)) == cfg``) for
every config dataclass, strict unknown-key/bad-type rejection, the
dotted-path override layer, TOML/JSON file I/O (including a TOML
writer round-trip property), spec -> job-matrix expansion, cache-key
stability across a serialize/deserialize cycle, and the acceptance
criterion that a TOML-spec sweep is bit-identical to the equivalent
in-Python ``run_matrix`` call.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    CONFIG_SCHEMA_VERSION,
    ConfigError,
    apply_overrides,
    parse_override,
)
from repro.config.schema import config_field_paths
from repro.config.toml_compat import TOMLError, dumps_toml, loads_toml
from repro.core.hermes import HermesConfig
from repro.cpu.core import CoreConfig
from repro.dram.config import DRAMConfig
from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig
from repro.runner import ExperimentSpec, JobRunner, ResultCache, SimJob
from repro.sim.config import SystemConfig

#: One representative non-default instance per config dataclass.
SAMPLE_CONFIGS = [
    CoreConfig(rob_size=256, fetch_width=4),
    CacheConfig(name="L9", size_bytes=1 << 16, ways=4, latency=9,
                mshrs=8, replacement="srrip"),
    HierarchyConfig(llc=CacheConfig(name="LLC", size_bytes=1 << 21, ways=16,
                                    latency=40, replacement="lru")),
    DRAMConfig(channels=2, transfer_rate_mtps=1600, trcd_ns=15.0),
    HermesConfig(enabled=True, issue_latency=18),
    SystemConfig.with_hermes("popet", prefetcher="spp", optimistic=False),
    SystemConfig.no_prefetching(),
    SystemConfig(),
]


# --------------------------------------------------------------------- #
# Round-trip property
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("config", SAMPLE_CONFIGS,
                         ids=lambda c: type(c).__name__)
def test_dict_round_trip_is_identity(config):
    data = config.to_dict()
    rebuilt = type(config).from_dict(data)
    assert rebuilt == config
    # And the canonical form itself is stable across the cycle.
    assert rebuilt.to_dict() == data


@pytest.mark.parametrize("config", SAMPLE_CONFIGS,
                         ids=lambda c: type(c).__name__)
def test_to_dict_is_json_and_toml_representable(config):
    data = config.to_dict()
    assert json.loads(json.dumps(data)) == data


def test_nested_configs_serialize_as_tables():
    data = SystemConfig().to_dict()
    assert data["core"]["rob_size"] == 512
    assert data["hierarchy"]["llc"]["replacement"] == "ship"
    assert data["hermes"]["enabled"] is False
    assert data["offchip_predictor"] is None


# --------------------------------------------------------------------- #
# Strict rejection
# --------------------------------------------------------------------- #

def test_unknown_key_rejected_with_accepted_names():
    with pytest.raises(ConfigError, match="unknown key.*rob_sizes"):
        CoreConfig.from_dict({"rob_sizes": 128})
    with pytest.raises(ConfigError, match="accepted keys"):
        CoreConfig.from_dict({"rob_sizes": 128})


def test_unknown_nested_key_names_its_dotted_location():
    data = SystemConfig().to_dict()
    data["core"]["robsize"] = 1
    with pytest.raises(ConfigError, match="core.*robsize"):
        SystemConfig.from_dict(data)


def test_bad_types_rejected():
    with pytest.raises(ConfigError, match="expected an int"):
        CoreConfig.from_dict({"rob_size": "big"})
    # bool is a subclass of int but makes no sense for sizes.
    with pytest.raises(ConfigError, match="expected an int"):
        CoreConfig.from_dict({"rob_size": True})
    with pytest.raises(ConfigError, match="expected a string"):
        SystemConfig.from_dict({"prefetcher": 7})
    with pytest.raises(ConfigError, match="expected a bool"):
        HermesConfig.from_dict({"enabled": 1})
    with pytest.raises(ConfigError, match="expected a table"):
        SystemConfig.from_dict({"core": 512})


def test_int_widens_to_float():
    config = SystemConfig.from_dict({"warmup_fraction": 0})
    assert config.warmup_fraction == 0.0
    assert isinstance(config.warmup_fraction, float)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "int-beyond-float"])
def test_non_finite_floats_rejected(bad):
    with pytest.raises(ConfigError, match="dram.trcd_ns"):
        apply_overrides(SystemConfig(), {"dram.trcd_ns": bad})
    document = json.loads(json.dumps({"dram": {"trcd_ns": bad}}))
    with pytest.raises(ConfigError, match="dram.trcd_ns"):
        SystemConfig.from_dict(document)


def test_missing_required_key_rejected():
    with pytest.raises(ConfigError, match="missing required key.*name"):
        CacheConfig.from_dict({"size_bytes": 1 << 16, "ways": 4, "latency": 5})


def test_missing_optional_keys_fall_back_to_defaults():
    config = SystemConfig.from_dict({"prefetcher": "spp"})
    assert config == SystemConfig(label="baseline", prefetcher="spp")


# --------------------------------------------------------------------- #
# Overrides
# --------------------------------------------------------------------- #

def test_apply_overrides_nested_and_functional():
    base = SystemConfig()
    out = apply_overrides(base, {"core.rob_size": 256,
                                 "hierarchy.llc.latency": 40,
                                 "offchip_predictor": "popet",
                                 "hermes.enabled": True})
    assert out.core.rob_size == 256
    assert out.hierarchy.llc.latency == 40
    assert out.hermes.enabled is True
    # The input is never mutated.
    assert base.core.rob_size == 512
    assert base.hermes.enabled is False
    # Untouched siblings are preserved.
    assert out.hierarchy.l1d == base.hierarchy.l1d


def test_apply_overrides_unknown_path_lists_accepted_keys():
    with pytest.raises(KeyError, match="core.rob_sizes.*rob_size"):
        apply_overrides(SystemConfig(), {"core.rob_sizes": 1})
    with pytest.raises(KeyError, match="unknown config key 'cores'"):
        apply_overrides(SystemConfig(), {"cores.rob_size": 1})


def test_apply_overrides_rejects_wrong_shapes():
    # Descending into a scalar field.
    with pytest.raises(KeyError, match="scalar"):
        apply_overrides(SystemConfig(), {"prefetcher.name": "x"})
    # Assigning a scalar to a sub-config.
    with pytest.raises(KeyError, match="sub-config"):
        apply_overrides(SystemConfig(), {"core": 5})
    # Type mismatches go through the same checker as from_dict.
    with pytest.raises(ConfigError, match="core.rob_size"):
        apply_overrides(SystemConfig(), {"core.rob_size": "huge"})


@pytest.mark.parametrize("token,expected", [
    ("core.rob_size=512", ("core.rob_size", 512)),
    ("warmup_fraction=0.5", ("warmup_fraction", 0.5)),
    ("hermes.enabled=true", ("hermes.enabled", True)),
    ("hermes.enabled=false", ("hermes.enabled", False)),
    ("prefetcher=pythia", ("prefetcher", "pythia")),
    ("prefetcher='none'", ("prefetcher", "none")),
    # Bare "none" is the registered no-op prefetcher's *name*;
    # only "null" clears an Optional field.
    ("prefetcher=none", ("prefetcher", "none")),
    ('label="a b"', ("label", "a b")),
    ("offchip_predictor=null", ("offchip_predictor", None)),
    ("dram.trcd_ns=12.5", ("dram.trcd_ns", 12.5)),
])
def test_parse_override_value_grammar(token, expected):
    assert parse_override(token) == expected


def test_parse_override_rejects_malformed_tokens():
    with pytest.raises(ValueError, match="key=value"):
        parse_override("core.rob_size")
    with pytest.raises(ValueError, match="empty key"):
        parse_override("=5")


def test_config_field_paths_cover_the_full_tree():
    paths = dict(config_field_paths(SystemConfig))
    assert paths["core.rob_size"] is int
    assert paths["hierarchy.llc.size_bytes"] is int
    assert paths["hermes.enabled"] is bool
    assert "label" in paths
    # Every listed path is actually settable.
    assert apply_overrides(SystemConfig(),
                           {"dram.banks_per_rank": 8}).dram.banks_per_rank == 8


# --------------------------------------------------------------------- #
# File I/O
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("suffix", ["toml", "json"])
def test_file_round_trip(tmp_path, suffix):
    config = SystemConfig.with_hermes("popet", prefetcher="pythia")
    path = tmp_path / f"system.{suffix}"
    config.to_file(path)
    assert SystemConfig.from_file(path) == config


def test_config_file_carries_schema_version(tmp_path):
    path = tmp_path / "system.toml"
    SystemConfig().to_file(path)
    text = path.read_text()
    assert f"schema_version = {CONFIG_SCHEMA_VERSION}" in text


def test_config_file_missing_version_rejected(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"system": SystemConfig().to_dict()}))
    with pytest.raises(ConfigError, match="schema_version"):
        SystemConfig.from_file(path)


def test_config_file_newer_version_rejected(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"schema_version": CONFIG_SCHEMA_VERSION + 1,
                                "system": SystemConfig().to_dict()}))
    with pytest.raises(ConfigError, match="unsupported schema_version"):
        SystemConfig.from_file(path)


def test_config_file_boolean_version_rejected(tmp_path):
    path = tmp_path / "system.toml"
    path.write_text("schema_version = true\n[system]\n")
    with pytest.raises(ConfigError, match="unsupported schema_version"):
        SystemConfig.from_file(path)


def test_config_file_unknown_toplevel_key_rejected(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"schema_version": CONFIG_SCHEMA_VERSION,
                                "system": SystemConfig().to_dict(),
                                "extra": 1}))
    with pytest.raises(ConfigError, match="unknown top-level"):
        SystemConfig.from_file(path)


def test_unknown_extension_needs_explicit_format(tmp_path):
    with pytest.raises(ConfigError, match="cannot infer"):
        SystemConfig().to_file(tmp_path / "system.cfg")
    SystemConfig().to_file(tmp_path / "system.cfg", fmt="json")
    assert SystemConfig.from_file(tmp_path / "system.cfg",
                                  fmt="json") == SystemConfig()


# --------------------------------------------------------------------- #
# TOML reader and writer
# --------------------------------------------------------------------- #

_TOML_SCALARS = (st.booleans() | st.integers(-2**63, 2**63 - 1)
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text())
_TOML_VALUES = (_TOML_SCALARS | st.lists(_TOML_SCALARS, max_size=3)
                | st.lists(st.dictionaries(st.text(), _TOML_SCALARS,
                                           max_size=3), max_size=3))
_TOML_DOCUMENTS = st.recursive(
    st.dictionaries(st.text(), _TOML_VALUES, max_size=4),
    lambda tables: st.dictionaries(st.text(), _TOML_VALUES | tables,
                                   max_size=4),
    max_leaves=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_TOML_DOCUMENTS)
def test_toml_writer_round_trips_through_reader(doc):
    assert loads_toml(dumps_toml(doc)) == doc


@pytest.mark.parametrize("bad", [
    "key",                      # no value
    'a = "unterminated',
    "a = 1\na = 2",             # duplicate key
    "[t]\na = {x = }",
])
def test_toml_reader_rejects_malformed_documents(bad):
    with pytest.raises(TOMLError):
        loads_toml(bad)


def test_toml_writer_escapes_and_quotes():
    text = dumps_toml({"t": {"core.rob_size": 1, 'quo"te': 'a"b\nc'}})
    assert loads_toml(text)["t"]['quo"te'] == 'a"b\nc'


def test_toml_writer_rejects_none():
    with pytest.raises(TOMLError, match="null"):
        dumps_toml({"a": None})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_toml_writer_rejects_non_finite_floats(bad):
    with pytest.raises(TOMLError, match="non-finite"):
        dumps_toml({"a": [1.0, bad]})


# --------------------------------------------------------------------- #
# Experiment specs
# --------------------------------------------------------------------- #

def _spec_document():
    return {
        "spec_version": 1,
        "name": "demo",
        "accesses": 700,
        "workloads": ["spec06.stencil", "ligra.bfs"],
        "base": {"prefetcher": "pythia"},
        "axes": [
            {"name": "system", "points": [
                {"label": "pythia"},
                {"label": "pythia+hermes",
                 "set": {"offchip_predictor": "popet",
                         "hermes.enabled": True}},
            ]},
            {"name": "rob", "points": [
                {"label": "rob256", "set": {"core.rob_size": 256}},
                {"label": "rob512", "set": {"core.rob_size": 512}},
            ]},
        ],
    }


def test_spec_expands_cross_product():
    spec = ExperimentSpec.from_dict(_spec_document())
    configs = spec.configs()
    assert list(configs) == ["pythia/rob256", "pythia/rob512",
                             "pythia+hermes/rob256", "pythia+hermes/rob512"]
    assert configs["pythia+hermes/rob256"].core.rob_size == 256
    assert configs["pythia+hermes/rob256"].offchip_predictor == "popet"
    assert configs["pythia/rob512"].offchip_predictor is None
    jobs = spec.jobs()
    assert len(jobs) == 4 * 2
    assert all(job.num_accesses == 700 for job in jobs)
    # Labels flow into the configs the jobs carry.
    assert jobs[0].config.label == "pythia/rob256"


def test_spec_group_matches_run_matrix_shape():
    spec = ExperimentSpec.from_dict(_spec_document())
    fake_results = list(range(8))
    grouped = spec.group(fake_results)
    assert grouped["pythia/rob256"] == [0, 1]
    assert grouped["pythia+hermes/rob512"] == [6, 7]
    with pytest.raises(ValueError, match="8 jobs"):
        spec.group(fake_results[:-1])


def test_spec_category_selection_shares_suite_rule():
    from repro.workloads.suite import select_workload_names
    document = _spec_document()
    del document["workloads"]
    document["categories"] = ["SPEC06", "Ligra"]
    document["per_category"] = 1
    spec = ExperimentSpec.from_dict(document)
    assert spec.workload_names() == select_workload_names(
        ["SPEC06", "Ligra"], 1)


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.pop("spec_version"), "missing spec_version"),
    (lambda d: d.update(spec_version=99), "unsupported spec_version"),
    (lambda d: d.update(spec_version=True), "unsupported spec_version True"),
    (lambda d: d.pop("name"), "non-empty string 'name'"),
    (lambda d: d.update(bogus=1), "unknown spec key"),
    (lambda d: d.update(accesses=-5), "positive int"),
    (lambda d: d.update(base={"nope.rob_size": 1}), "unknown config key"),
    (lambda d: d["axes"][0].update(extra=1), "unknown key"),
    (lambda d: d["axes"][0]["points"][0].pop("label"), "string label"),
    (lambda d: d["axes"][0]["points"].append({"label": "pythia"}),
     "repeats label"),
    (lambda d: d.update(categories=["SPEC06"]), "not both"),
    (lambda d: d.update(workloads=[]), "non-empty array"),
])
def test_spec_document_validation(mutate, message):
    document = _spec_document()
    mutate(document)
    with pytest.raises(ConfigError, match=message):
        ExperimentSpec.from_dict(document)


def test_spec_from_toml_file(tmp_path):
    spec_path = tmp_path / "demo.toml"
    spec_path.write_text("""
spec_version = 1
name = "from-file"
accesses = 600
workloads = ["spec06.stencil"]

[base]
prefetcher = "spp"

[[axes]]
name = "rob"
[[axes.points]]
label = "rob128"
[axes.points.set]
"core.rob_size" = 128
""")
    spec = ExperimentSpec.from_file(spec_path)
    assert spec.name == "from-file"
    assert spec.base.prefetcher == "spp"
    configs = spec.configs()
    assert configs["rob128"].core.rob_size == 128


# --------------------------------------------------------------------- #
# Cache-key stability (acceptance)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("suffix", ["toml", "json"])
def test_job_key_stable_across_serialize_deserialize(tmp_path, suffix):
    config = SystemConfig.with_hermes("popet", prefetcher="pythia")
    path = tmp_path / f"cfg.{suffix}"
    config.to_file(path)
    reloaded = SystemConfig.from_file(path)
    original = SimJob(config=config, workload="ligra.bfs", num_accesses=900)
    resubmitted = SimJob(config=reloaded, workload="ligra.bfs",
                         num_accesses=900)
    assert original.key() == resubmitted.key()


def test_reloaded_config_hits_result_cache(tmp_path):
    """A config dumped to disk and reloaded reuses the original's cache."""
    config = SystemConfig.baseline("pythia")
    cache = ResultCache(tmp_path / "cache")
    runner = JobRunner(result_cache=cache)
    job = SimJob(config=config, workload="spec06.stencil", num_accesses=800)
    first = runner.run([job])
    assert cache.misses == 1 and cache.hits == 0

    path = tmp_path / "cfg.toml"
    config.to_file(path)
    reloaded_job = SimJob(config=SystemConfig.from_file(path),
                          workload="spec06.stencil", num_accesses=800)
    second = runner.run([reloaded_job])
    assert cache.hits == 1
    assert second == first


def test_job_key_differs_when_config_content_differs():
    job = SimJob(config=SystemConfig(), workload="ligra.bfs",
                 num_accesses=900)
    tweaked = SimJob(config=apply_overrides(SystemConfig(),
                                            {"core.rob_size": 128}),
                     workload="ligra.bfs", num_accesses=900)
    assert job.key() != tweaked.key()


# --------------------------------------------------------------------- #
# Spec sweep == run_matrix (acceptance)
# --------------------------------------------------------------------- #

def test_spec_sweep_bit_identical_to_run_matrix(tmp_path):
    """A TOML-spec sweep reproduces the in-Python run_matrix stats."""
    from repro import api
    from repro.experiments.common import ExperimentSetup, run_matrix

    spec_path = tmp_path / "sweep.toml"
    spec_path.write_text("""
spec_version = 1
name = "equivalence"
accesses = 800
workloads = ["spec06.stencil", "ligra.bfs"]

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
    spec = ExperimentSpec.from_file(spec_path)
    spec_results = api.sweep(spec)

    setup = ExperimentSetup(num_accesses=800)
    setup.workload_names = lambda: ["spec06.stencil", "ligra.bfs"]
    matrix = {
        "pythia": SystemConfig.baseline("pythia").with_label("pythia"),
        "pythia+hermes": SystemConfig.with_hermes(
            "popet", prefetcher="pythia").with_label("pythia+hermes"),
    }
    matrix_results = run_matrix(setup, matrix)

    assert spec_results == matrix_results


def test_validate_rejects_unknown_component_names_before_running():
    config = apply_overrides(SystemConfig(), {"prefetcher": "warp-drive"})
    with pytest.raises(KeyError, match="available.*pythia"):
        config.validate()
    from repro.sim.simulator import simulate_trace
    from repro.workloads.suite import make_trace
    with pytest.raises(KeyError, match="available"):
        simulate_trace(config, make_trace("ligra.bfs", 400))


# --------------------------------------------------------------------- #
# Error propagation (regression tests)
# --------------------------------------------------------------------- #

def test_unknown_component_error_survives_pickling():
    """Worker-raised registry errors must cross the process boundary."""
    import pickle
    from repro.registry import UnknownComponentError
    error = UnknownComponentError("prefetcher", "warp-drive", ["pythia", "spp"])
    clone = pickle.loads(pickle.dumps(error))
    assert isinstance(clone, UnknownComponentError)
    assert clone.available == ["pythia", "spp"]
    assert "warp-drive" in str(clone)


def test_parallel_backend_reports_unknown_component_cleanly():
    """A bad config in a pooled sweep surfaces the real error — the
    SweepError names the offending component per failed job, never a
    bare BrokenProcessPool."""
    from repro.runner import JobRunner, ProcessPoolBackend, SweepError
    bad = apply_overrides(SystemConfig(), {"prefetcher": "warp-drive"})
    jobs = [SimJob(config=bad, workload=name, num_accesses=400)
            for name in ("ligra.bfs", "spec06.stencil")]
    with pytest.raises(SweepError, match="warp-drive") as excinfo:
        JobRunner(ProcessPoolBackend(max_workers=2)).run(jobs)
    assert "UnknownComponentError" in str(excinfo.value)
    assert "BrokenProcessPool" not in str(excinfo.value)


def test_override_path_error_is_distinct_keyerror():
    from repro.config import OverridePathError
    with pytest.raises(OverridePathError):
        apply_overrides(SystemConfig(), {"core.rob_sizes": 1})
