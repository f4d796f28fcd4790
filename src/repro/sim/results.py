"""Simulation result containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.cpu.core import CoreStats


@dataclass
class SimulationResult:
    """Everything measured from one (configuration, workload) run."""

    workload: str
    category: str
    config_label: str
    core: CoreStats
    hierarchy: Dict[str, float] = field(default_factory=dict)
    memory_controller: Dict[str, float] = field(default_factory=dict)
    predictor: Dict[str, float] = field(default_factory=dict)
    hermes: Dict[str, int] = field(default_factory=dict)
    llc: Dict[str, float] = field(default_factory=dict)
    prefetcher: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Convenience metrics used by the analysis/experiment code
    # ------------------------------------------------------------------ #

    @property
    def ipc(self) -> float:
        return self.core.ipc

    @property
    def llc_mpki(self) -> float:
        """LLC demand misses per kilo instruction."""
        if self.core.instructions == 0:
            return 0.0
        return 1000.0 * self.hierarchy.get("llc_misses", 0) / self.core.instructions

    @property
    def offchip_load_fraction(self) -> float:
        """Fraction of loads that went off-chip (Fig. 5 left axis)."""
        if self.core.loads == 0:
            return 0.0
        return self.core.offchip_loads / self.core.loads

    @property
    def main_memory_requests(self) -> int:
        """Distinct main-memory read requests (demand + prefetch + Hermes, minus merges)."""
        total = (self.memory_controller.get("demand_requests", 0)
                 + self.memory_controller.get("prefetch_requests", 0)
                 + self.memory_controller.get("hermes_requests", 0))
        return int(total - self.memory_controller.get("merged_requests", 0))

    @property
    def predictor_accuracy(self) -> float:
        return self.predictor.get("accuracy", 0.0)

    @property
    def predictor_coverage(self) -> float:
        return self.predictor.get("coverage", 0.0)

    def speedup_over(self, baseline: "SimulationResult") -> float:
        """IPC speedup relative to a baseline run of the same workload."""
        if baseline.workload != self.workload:
            raise ValueError(
                f"speedup compares runs of the same workload; got "
                f"{self.workload!r} vs baseline {baseline.workload!r}")
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary (one row of the paper's rolled-up CSV)."""
        return {
            "workload": self.workload,
            "category": self.category,
            "config": self.config_label,
            "ipc": self.ipc,
            "cycles": self.core.cycles,
            "instructions": self.core.instructions,
            "offchip_loads": self.core.offchip_loads,
            "llc_mpki": self.llc_mpki,
            "offchip_load_fraction": self.offchip_load_fraction,
            "main_memory_requests": self.main_memory_requests,
            "predictor_accuracy": self.predictor_accuracy,
            "predictor_coverage": self.predictor_coverage,
            "stall_cycles_offchip": self.core.stall_cycles_offchip,
            "blocking_offchip_loads": self.core.blocking_offchip_loads,
        }
