"""Declarative experiment specifications: sweeps as TOML/JSON documents.

An :class:`ExperimentSpec` declares an entire sweep as data — base
configuration, override axes, workloads and sizing — so a study is a
file on disk instead of a Python function::

    spec_version = 1
    name = "rob-sweep"
    accesses = 4000
    workloads = ["spec06.stencil", "ligra.bfs"]

    [base]                          # dotted overrides on SystemConfig()
    prefetcher = "pythia"

    [[axes]]
    name = "rob"
    [[axes.points]]
    label = "rob256"
    [axes.points.set]
    "core.rob_size" = 256
    [[axes.points]]
    label = "rob512"
    [axes.points.set]
    "core.rob_size" = 512

Axes are cross-producted: every combination of one point per axis
becomes one configuration (labels joined with ``/``, later axes'
overrides winning on conflict), and each configuration runs every
workload — exactly the ``run_matrix`` shape, but serializable, diffable
and hashable into the result cache.  ``repro sweep --spec file.toml``
runs a spec from the shell; :meth:`ExperimentSpec.jobs` feeds the
standard :class:`~repro.runner.runner.JobRunner`.

Workload selection is either an explicit ``workloads`` list (catalogue
names or trace file paths) or ``categories``/``per_category`` suite
selection — the same logic the experiment runners use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.config.io import load_document
from repro.config.overrides import apply_overrides
from repro.config.schema import ConfigError
from repro.runner.job import SimJob
from repro.sim.config import SystemConfig

#: Version of the experiment-spec document layout; bump on breaking
#: changes so old spec files fail loudly instead of misparsing.
SPEC_VERSION = 1

#: Keys accepted at the top level of a spec document.
_SPEC_KEYS = frozenset({
    "spec_version", "name", "base", "axes", "workloads",
    "categories", "per_category", "accesses",
})


@dataclass(frozen=True)
class AxisPoint:
    """One labelled point of a sweep axis: a set of dotted overrides."""

    label: str
    set: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Axis:
    """A named list of points, cross-producted with the other axes."""

    name: str
    points: Sequence[AxisPoint]


@dataclass
class ExperimentSpec:
    """A sweep declared as data; expands to a :class:`SimJob` matrix."""

    name: str
    base: SystemConfig = field(default_factory=SystemConfig)
    axes: Sequence[Axis] = field(default_factory=list)
    workloads: Sequence[str] = field(default_factory=list)
    accesses: int = 10000

    # ------------------------------------------------------------------ #
    # Construction from documents
    # ------------------------------------------------------------------ #

    @classmethod
    def from_file(cls, path, fmt: Optional[str] = None) -> "ExperimentSpec":
        """Load a spec from a TOML/JSON file (strict; see module doc)."""
        return cls.from_dict(load_document(path, fmt), where=str(path))

    @classmethod
    def from_dict(cls, document: Mapping[str, Any],
                  where: str = "spec") -> "ExperimentSpec":
        """Build a spec from its document form, validating every key."""
        if not isinstance(document, Mapping):
            raise ConfigError(f"{where}: spec must be a table/object")
        unknown = sorted(set(document) - _SPEC_KEYS)
        if unknown:
            raise ConfigError(
                f"{where}: unknown spec key(s) {unknown}; "
                f"accepted: {sorted(_SPEC_KEYS)}")
        version = document.get("spec_version")
        if version is None:
            raise ConfigError(
                f"{where}: missing spec_version (current is {SPEC_VERSION})")
        if type(version) is not int or version != SPEC_VERSION:
            raise ConfigError(
                f"{where}: unsupported spec_version {version!r} "
                f"(this build reads {SPEC_VERSION})")
        name = document.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{where}: spec needs a non-empty string 'name'")

        base_overrides = document.get("base", {})
        if not isinstance(base_overrides, Mapping):
            raise ConfigError(f"{where}: [base] must be a table of "
                              f"dotted-path overrides")
        try:
            base = apply_overrides(SystemConfig(), base_overrides)
        except KeyError as exc:
            raise ConfigError(f"{where}: [base]: {exc.args[0]}") from None

        axes = [_parse_axis(axis, index, where)
                for index, axis in enumerate(_expect_list(
                    document.get("axes", []), f"{where}: axes"))]

        workloads = _parse_workloads(document, where)
        accesses = document.get("accesses", 10000)
        if not isinstance(accesses, int) or accesses <= 0:
            raise ConfigError(f"{where}: accesses must be a positive int")
        return cls(name=name, base=base, axes=axes,
                   workloads=workloads, accesses=accesses)

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #

    def configs(self) -> Dict[str, SystemConfig]:
        """The cross-product of axis points: label -> configuration.

        With no axes, the base config runs alone under the spec's name.
        Later axes' overrides win when two axes touch the same path.
        """
        if not self.axes:
            return {self.base.label or self.name: self.base}
        out: Dict[str, SystemConfig] = {}
        for combo in product(*(axis.points for axis in self.axes)):
            label = "/".join(point.label for point in combo)
            merged: Dict[str, Any] = {}
            for point in combo:
                merged.update(point.set)
            try:
                config = apply_overrides(self.base, merged)
            except KeyError as exc:
                raise ConfigError(
                    f"spec {self.name!r}, point {label!r}: "
                    f"{exc.args[0]}") from None
            if label in out:
                raise ConfigError(
                    f"spec {self.name!r}: duplicate point label {label!r}")
            out[label] = replace(config, label=label)
        return out

    def jobs(self) -> List[SimJob]:
        """One single-core job per (configuration x workload)."""
        names = self.workload_names()
        if not names:
            raise ConfigError(
                f"spec {self.name!r} selects no workloads; give "
                f"'workloads' or 'categories'/'per_category'")
        return [SimJob(config=config, workload=workload,
                       num_accesses=self.accesses)
                for config in self.configs().values()
                for workload in names]

    def workload_names(self) -> List[str]:
        return list(self.workloads)

    def delta(self, since: "ExperimentSpec") -> Any:
        """Diff this spec's matrix against ``since``'s by content hash.

        Returns a :class:`~repro.runner.delta.SpecDelta` whose
        ``changed`` jobs are exactly what ``repro sweep --spec A
        --since-spec B`` executes.  Lazy import: :mod:`~repro.runner.
        delta` imports this module for its type hints.
        """
        from repro.runner.delta import diff_specs
        return diff_specs(self, since)

    def group(self, results: Sequence[Any]) -> Dict[str, List[Any]]:
        """Re-shape flat job results into ``{label: [per-workload]}``.

        The inverse of :meth:`jobs`'s iteration order, matching the
        shape :func:`repro.experiments.common.run_matrix` returns.
        """
        names = self.workload_names()
        labels = list(self.configs())
        expected = len(labels) * len(names)
        if len(results) != expected:
            raise ValueError(
                f"spec {self.name!r} expands to {expected} jobs, "
                f"got {len(results)} results")
        per = len(names)
        return {label: list(results[i * per:(i + 1) * per])
                for i, label in enumerate(labels)}


def _expect_list(value: Any, where: str) -> List[Any]:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be an array")
    return value


def _parse_axis(data: Any, index: int, where: str) -> Axis:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{where}: axes[{index}] must be a table")
    unknown = sorted(set(data) - {"name", "points"})
    if unknown:
        raise ConfigError(
            f"{where}: axes[{index}]: unknown key(s) {unknown}; "
            f"accepted: ['name', 'points']")
    name = data.get("name", f"axis{index}")
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}: axes[{index}].name must be a string")
    points_data = _expect_list(data.get("points", []),
                               f"{where}: axes[{index}].points")
    if not points_data:
        raise ConfigError(f"{where}: axis {name!r} has no points")
    points = []
    seen = set()
    for p_index, point in enumerate(points_data):
        if not isinstance(point, Mapping):
            raise ConfigError(
                f"{where}: axes[{index}].points[{p_index}] must be a table")
        unknown = sorted(set(point) - {"label", "set"})
        if unknown:
            raise ConfigError(
                f"{where}: axis {name!r} point {p_index}: unknown key(s) "
                f"{unknown}; accepted: ['label', 'set']")
        label = point.get("label")
        if not isinstance(label, str) or not label:
            raise ConfigError(
                f"{where}: axis {name!r} point {p_index} needs a string label")
        if label in seen:
            raise ConfigError(
                f"{where}: axis {name!r} repeats label {label!r}")
        seen.add(label)
        overrides = point.get("set", {})
        if not isinstance(overrides, Mapping):
            raise ConfigError(
                f"{where}: axis {name!r} point {label!r}: 'set' must be a "
                f"table of dotted-path overrides")
        points.append(AxisPoint(label=label, set=dict(overrides)))
    return Axis(name=name, points=points)


def _parse_workloads(document: Mapping[str, Any], where: str) -> List[str]:
    explicit = document.get("workloads")
    categories = document.get("categories")
    per_category = document.get("per_category")
    if explicit is not None:
        if categories is not None or per_category is not None:
            raise ConfigError(
                f"{where}: give either an explicit 'workloads' list or "
                f"'categories'/'per_category' suite selection, not both")
        names = _expect_list(explicit, f"{where}: workloads")
        if not all(isinstance(n, str) for n in names) or not names:
            raise ConfigError(
                f"{where}: workloads must be a non-empty array of names "
                f"or trace file paths")
        return list(names)
    from repro.workloads.suite import select_workload_names
    if per_category is not None and (
            not isinstance(per_category, int) or per_category <= 0):
        raise ConfigError(f"{where}: per_category must be a positive int")
    if categories is not None:
        categories = _expect_list(categories, f"{where}: categories")
    return select_workload_names(categories=categories,
                                 per_category=per_category)
