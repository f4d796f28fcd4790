"""Full-system configuration (the paper's Table 4 in dataclass form).

A :class:`SystemConfig` names the prefetcher and off-chip predictor and
embeds the core, cache-hierarchy, DRAM and Hermes configurations.  Named
constructors build the specific configurations the paper evaluates
(baseline Pythia, Hermes-O/P on top of any prefetcher, the
no-prefetching system every speedup is normalised to, and so on).

Configurations are first-class *data*: every config dataclass mixes in
:class:`~repro.config.schema.SerializableConfig`, so a SystemConfig
round-trips losslessly through ``to_dict``/``from_dict``, serializes to
TOML/JSON files (:meth:`to_file`/:meth:`from_file`), and accepts
dotted-path overrides (:func:`repro.config.apply_overrides`, the
``--set`` CLI flag, and experiment-spec axes).  The ``with_*`` sweep
helpers below are retained as thin compatibility shims over the
override layer — new code should say
``apply_overrides(cfg, {"core.rob_size": 512})`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.config.io import load_config, save_config
from repro.config.overrides import apply_overrides
from repro.config.schema import SerializableConfig
from repro.core.hermes import HermesConfig
from repro.cpu.core import CoreConfig
from repro.dram.config import DRAMConfig
from repro.memory.hierarchy import HierarchyConfig


@dataclass
class SystemConfig(SerializableConfig):
    """Complete single-core system configuration."""

    label: str = "baseline"
    core: CoreConfig = field(default_factory=CoreConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    prefetcher: str = "pythia"
    offchip_predictor: Optional[str] = None
    hermes: HermesConfig = field(default_factory=HermesConfig.disabled)
    warmup_fraction: float = 0.25
    #: The core loop (see :mod:`repro.engine`); ``scalar`` is the only
    #: legal value.  Excluded from result-cache keys.
    engine: str = "scalar"

    def validate(self) -> None:
        """Reject invalid configurations before any simulation starts.

        Recurses through every embedded config (so ``from_dict``-built
        configurations are fully checked) and resolves the prefetcher
        and off-chip predictor names against the component registries —
        an unknown name raises ``KeyError`` listing what is registered,
        the same error the registries themselves produce.
        """
        self.core.validate()
        self.hierarchy.validate()
        self.dram.validate()
        self.hermes.validate()
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.hermes.enabled and self.offchip_predictor is None:
            raise ValueError("Hermes is enabled but no off-chip predictor is configured")
        # Imported lazily: the factories import every component module.
        from repro.engine import check_engine
        from repro.offchip.factory import predictor_registry
        from repro.prefetchers.factory import prefetcher_registry
        from repro.registry import UnknownComponentError
        check_engine(self.engine)
        if self.prefetcher not in prefetcher_registry:
            raise UnknownComponentError("prefetcher", self.prefetcher,
                                        prefetcher_registry.names())
        if (self.offchip_predictor is not None
                and self.offchip_predictor not in predictor_registry):
            raise UnknownComponentError("off-chip predictor",
                                        self.offchip_predictor,
                                        predictor_registry.names())

    # ------------------------------------------------------------------ #
    # Serialization (see repro.config for the schema machinery)
    # ------------------------------------------------------------------ #

    def to_file(self, path, fmt: Optional[str] = None) -> None:
        """Write this configuration as a TOML/JSON config file."""
        save_config(self, path, fmt)

    @classmethod
    def from_file(cls, path, fmt: Optional[str] = None) -> "SystemConfig":
        """Load a configuration written by :meth:`to_file` (strict)."""
        return load_config(path, fmt)

    def override(self, overrides: Mapping[str, Any],
                 label: Optional[str] = None) -> "SystemConfig":
        """A copy with dotted-path ``overrides`` applied (and a new label)."""
        config = apply_overrides(self, overrides)
        return config if label is None else replace(config, label=label)

    # ------------------------------------------------------------------ #
    # Named configurations used throughout the experiments
    # ------------------------------------------------------------------ #

    @classmethod
    def no_prefetching(cls) -> "SystemConfig":
        """The no-prefetching system all speedups are normalised to."""
        return cls(label="no-prefetching", prefetcher="none")

    @classmethod
    def baseline(cls, prefetcher: str = "pythia") -> "SystemConfig":
        """The baseline system: the chosen prefetcher, no Hermes."""
        return cls(label=prefetcher, prefetcher=prefetcher)

    @classmethod
    def with_hermes(cls, predictor: str = "popet", prefetcher: str = "none",
                    optimistic: bool = True) -> "SystemConfig":
        """Hermes with the given predictor on top of the given prefetcher."""
        hermes_config = (HermesConfig.optimistic() if optimistic
                         else HermesConfig.pessimistic())
        variant = "O" if optimistic else "P"
        prefix = f"{prefetcher}+" if prefetcher != "none" else ""
        return cls(label=f"{prefix}hermes-{variant}({predictor})",
                   prefetcher=prefetcher,
                   offchip_predictor=predictor,
                   hermes=hermes_config)

    # ------------------------------------------------------------------ #
    # Sweep helpers — deprecated shims over the dotted-path override
    # layer; prefer cfg.override({...}) / apply_overrides directly.
    # ------------------------------------------------------------------ #

    def with_label(self, label: str) -> "SystemConfig":
        return replace(self, label=label)

    def with_rob_size(self, rob_size: int) -> "SystemConfig":
        return self.override({"core.rob_size": rob_size},
                             label=f"{self.label}-rob{rob_size}")

    def with_llc_size_mb(self, size_mb: float) -> "SystemConfig":
        return self.override(
            {"hierarchy.llc.size_bytes": int(size_mb * 1024 * 1024)},
            label=f"{self.label}-llc{size_mb}MB")

    def with_llc_latency(self, latency: int) -> "SystemConfig":
        return self.override({"hierarchy.llc.latency": latency},
                             label=f"{self.label}-llclat{latency}")

    def with_memory_bandwidth(self, mtps: int) -> "SystemConfig":
        return self.override({"dram.transfer_rate_mtps": mtps},
                             label=f"{self.label}-{mtps}mtps")

    def with_hermes_issue_latency(self, cycles: int) -> "SystemConfig":
        return self.override({"hermes.issue_latency": cycles},
                             label=f"{self.label}-issue{cycles}")

    @classmethod
    def eight_core_dram(cls) -> DRAMConfig:
        """The paper's eight-core memory configuration (4 channels, 2 ranks)."""
        return DRAMConfig(channels=4, ranks_per_channel=2)
