"""Declarative simulation jobs.

A :class:`SimJob` fully describes one simulation — configuration,
workload name(s), trace length and single-/multi-core mode — without
holding any built component, so it pickles cheaply to worker processes
and hashes stably for the on-disk result cache.  Any paper figure is a
list of jobs plus a reducer (:class:`SweepSpec`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import operator
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config.schema import (
    CONFIG_SCHEMA_VERSION,
    PRIMITIVE_TYPES,
    SerializableConfig,
    field_names,
)
from repro.dram.config import DRAMConfig
from repro.sim.config import SystemConfig
from repro.workloads.formats.base import TRACE_FORMAT_VERSION

#: Bump when the job schema or simulation semantics change incompatibly,
#: so stale on-disk cache entries stop matching.
#: v2: configs hash through their canonical serialized form
#: (SerializableConfig.to_dict) stamped with CONFIG_SCHEMA_VERSION.
JOB_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class PredictorSpec:
    """A by-name recipe for an off-chip predictor.

    Used instead of a predictor *instance* so jobs stay declarative and
    serialization-safe: worker processes rebuild the predictor through
    the registry (``make_predictor(name, **options)``).  The options for
    ``"popet"`` include ``features`` (Figs. 10/11) and any
    :class:`~repro.offchip.popet.POPETConfig` field such as
    ``activation_threshold`` (Fig. 17e).
    """

    name: str
    options: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> Any:
        from repro.offchip.factory import make_predictor
        return make_predictor(self.name, **dict(self.options))


@dataclass(frozen=True)
class SimJob:
    """One unit of simulation work.

    ``mode`` is ``"single"`` (``workload`` is one name) or
    ``"multicore"`` (``workload`` is a tuple of names, one per core,
    sharing an LLC and memory controller).
    """

    config: SystemConfig
    workload: Union[str, Tuple[str, ...]]
    num_accesses: int
    mode: str = "single"
    predictor_spec: Optional[PredictorSpec] = None
    dram: Optional[DRAMConfig] = None

    def __post_init__(self) -> None:
        if self.mode not in ("single", "multicore"):
            raise ValueError(f"unknown job mode {self.mode!r}")
        if self.num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        if self.mode == "single" and not isinstance(self.workload, str):
            raise ValueError("single-core jobs take one workload name")
        if self.mode == "multicore":
            if isinstance(self.workload, str) or not self.workload:
                raise ValueError(
                    "multicore jobs take a non-empty tuple of workload names")
            if self.predictor_spec is not None:
                raise ValueError(
                    "multicore jobs build per-core predictors from the config; "
                    "predictor_spec injection is single-core only")
            # Normalise lists to tuples so equality and hashing are stable.
            object.__setattr__(self, "workload", tuple(self.workload))

    def to_dict(self) -> Dict[str, Any]:
        """This job as a JSON-ready document (the service wire format).

        Stamped with :data:`JOB_SCHEMA_VERSION` so a client built against
        a different job schema is rejected loudly instead of silently
        computing a different cache key.  ``from_dict`` inverts it
        exactly: a job round-tripped through the wire hashes to the same
        :meth:`key`, which is what lets remote submissions deduplicate
        against locally cached results.
        """
        doc: Dict[str, Any] = {
            "job_schema": JOB_SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "workload": (self.workload if isinstance(self.workload, str)
                         else list(self.workload)),
            "num_accesses": self.num_accesses,
            "mode": self.mode,
        }
        if self.predictor_spec is not None:
            doc["predictor"] = {"name": self.predictor_spec.name,
                                "options": dict(self.predictor_spec.options)}
        if self.dram is not None:
            doc["dram"] = self.dram.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc: Any) -> "SimJob":
        """Build a job from its :meth:`to_dict` document (strict).

        Unknown keys and schema mismatches raise :class:`ValueError`;
        the embedded config parses through the strict
        :meth:`~repro.config.schema.SerializableConfig.from_dict`.
        """
        if not isinstance(doc, dict):
            raise ValueError(
                f"job document must be an object, got {type(doc).__name__}")
        accepted = {"job_schema", "config", "workload", "num_accesses",
                    "mode", "predictor", "dram"}
        unknown = sorted(set(doc) - accepted)
        if unknown:
            raise ValueError(f"unknown job key(s) {unknown}; "
                             f"accepted: {sorted(accepted)}")
        schema = doc.get("job_schema")
        if schema != JOB_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported job_schema {schema!r} "
                f"(this build reads {JOB_SCHEMA_VERSION})")
        for required in ("config", "workload", "num_accesses"):
            if required not in doc:
                raise ValueError(f"job document is missing {required!r}")
        accesses = doc["num_accesses"]
        if not isinstance(accesses, int) or isinstance(accesses, bool):
            raise ValueError("job 'num_accesses' must be an integer")
        workload = doc["workload"]
        if isinstance(workload, list):
            workload = tuple(str(name) for name in workload)
        predictor_spec = None
        predictor = doc.get("predictor")
        if predictor is not None:
            if (not isinstance(predictor, dict)
                    or set(predictor) - {"name", "options"}
                    or "name" not in predictor):
                raise ValueError("job 'predictor' must be an object with "
                                 "'name' and optional 'options'")
            predictor_spec = PredictorSpec(
                name=predictor["name"],
                options=dict(predictor.get("options", {})))
        dram = doc.get("dram")
        return cls(config=SystemConfig.from_dict(doc["config"]),
                   workload=workload,
                   num_accesses=doc["num_accesses"],
                   mode=doc.get("mode", "single"),
                   predictor_spec=predictor_spec,
                   dram=(DRAMConfig.from_dict(dram)
                         if dram is not None else None))

    def key(self) -> str:
        """A stable content hash of this job (on-disk cache key).

        Besides the job spec itself the payload carries the job schema
        version and the trace-format version, so results computed from
        traces decoded under an older record layout can never alias a
        newer run: workloads may name converted external trace files
        (see :func:`repro.workloads.suite.make_trace`), and a format
        bump changes what those files decode to.  For file workloads the
        file's identity (size + mtime) is folded in as well, so
        overwriting a trace file invalidates its cached results.  The
        one-job case of :func:`job_keys`.
        """
        return job_keys([self])[0]


#: The fields of a job's key payload besides its config, and a getter
#: of their values as one tuple.
_OTHER_FIELDS = tuple(name for name in field_names(SimJob) if name != "config")
_other_values = operator.attrgetter(*_OTHER_FIELDS)


def _json(value: Any) -> str:
    """Sort-keyed, compact JSON: the text a job key hashes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def job_keys(jobs: Sequence[SimJob]) -> List[str]:
    """The :meth:`SimJob.key` of every job, serialising each config once.

    A key is the sha256 of the sort-keyed JSON text of ``{"schema",
    "config_schema", "trace_format", "traces", "job"}``.  Sort-keyed
    JSON is compositional, and ``config`` sorts first among a job's
    fields, so that text is a fixed head, the config's own text, and a
    tail holding the other fields and the trace fingerprint.  The jobs
    of a batch share objects: a figure runs one config object over its
    whole suite, and one workload name, sizing and predictor recipe
    under many configs.  So a batch serialises each distinct config
    object once and hashes the head and its text once, builds each
    tail once per distinct set of field objects (fingerprinting its
    workload when the batch is keyed), and finishes each job's hash
    from a copy of its config's.
    """
    head = f'{{"config_schema":{_json(CONFIG_SCHEMA_VERSION)},"job":{{"config":'
    versions = (f',"schema":{_json(JOB_SCHEMA_VERSION)}'
                f',"trace_format":{_json(TRACE_FORMAT_VERSION)},"traces":')
    # Hash states and texts by the ids of the objects they serialise;
    # each entry holds those objects, so no id is reused meanwhile.
    configs: Dict[int, Tuple[SystemConfig, Any]] = {}
    tails: Dict[Tuple[int, ...], Tuple[Tuple[Any, ...], bytes]] = {}
    keys: List[str] = []
    for job in jobs:
        config = configs.get(id(job.config))
        if config is None:
            text = head + _json(_canonical(job.config))
            config = configs[id(job.config)] = (
                job.config, hashlib.sha256(text.encode()))
        values = _other_values(job)
        ids = tuple(map(id, values))
        tail = tails.get(ids)
        if tail is None:
            others = _json({name: _canonical(value)
                            for name, value in zip(_OTHER_FIELDS, values)})
            text = ("," + others[1:] + versions
                    + _json(_workload_fingerprint(job.workload)) + "}")
            tail = tails[ids] = (values, text.encode())
        digest = config[1].copy()
        digest.update(tail[1])
        keys.append(digest.hexdigest())
    return keys


def _workload_fingerprint(workload: Union[str, Tuple[str, ...]]) -> List[Any]:
    """File identity (size, mtime) of every trace-file workload name.

    Catalogue workload names contribute nothing (the name in the job
    spec already identifies them); file paths contribute their stat
    identity so a rewritten file cannot be served stale results from
    the on-disk cache.  A missing file contributes a sentinel — the job
    will fail at execution time with a clear error anyway.
    """
    from repro.workloads.formats import is_trace_path
    names = (workload,) if isinstance(workload, str) else workload
    fingerprint: List[Any] = []
    for name in names:
        if not is_trace_path(name):
            continue
        try:
            stat = os.stat(name)
        except OSError:
            fingerprint.append([name, "missing"])
        else:
            fingerprint.append([name, stat.st_size, stat.st_mtime_ns])
    return fingerprint


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-serialisable primitives, deterministically.

    Configuration dataclasses go through their canonical serialized form
    (:meth:`~repro.config.schema.SerializableConfig.to_dict`), so cache
    identity derives from config *content* under the config schema: a
    config serialized to disk and reloaded produces byte-identical keys.
    """
    if type(value) in PRIMITIVE_TYPES:
        return value
    if isinstance(value, SerializableConfig):
        serialized = value.to_dict()
        if isinstance(value, SystemConfig):
            # The engine field names the one core loop and never
            # influenced results, so it stays out of cache identity:
            # keys minted before the field existed keep matching.
            serialized.pop("engine", None)
        return serialized
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: _canonical(getattr(value, name))
                for name in field_names(type(value))}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__!r} for a job key")


@dataclass
class SweepSpec:
    """A named list of jobs plus the reducer that turns results into a figure.

    ``reducer`` receives the results in job order; when omitted the raw
    result list is returned.
    """

    name: str
    jobs: List[SimJob]
    reducer: Optional[Callable[[List[Any]], Any]] = None

    def reduce(self, results: List[Any]) -> Any:
        if self.reducer is None:
            return results
        return self.reducer(results)


def jobs_for_suite(config: SystemConfig, workloads: Sequence[str],
                   num_accesses: int,
                   predictor_spec: Optional[PredictorSpec] = None) -> List[SimJob]:
    """One single-core job per workload name, all under ``config``."""
    return [SimJob(config=config, workload=name, num_accesses=num_accesses,
                   predictor_spec=predictor_spec)
            for name in workloads]
