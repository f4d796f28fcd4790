"""The Hermes engine (Sections 5 and 6.2 of the paper).

For every demand load the core generates:

1. The off-chip predictor is consulted at load-queue allocation
   (``predict_and_issue``).  If it predicts the load will go off-chip, a
   *Hermes request* is issued directly to the main-memory controller once
   the physical address is available, after the configurable *Hermes
   request issue latency* (6 cycles for Hermes-O, 18 for Hermes-P,
   Table 4).
2. The regular load proceeds through the cache hierarchy.  If it misses
   the LLC it waits for the in-flight Hermes request instead of paying a
   fresh DRAM access — that waiting is implemented by the hierarchy; the
   engine only supplies the ``hermes_ready`` cycle.
3. When the load returns to the core, ``train`` updates the predictor
   with the true outcome and the accuracy/coverage statistics.

Mispredicted Hermes requests are dropped by the memory controller without
filling the cache hierarchy, so no coherence recovery is needed; the
engine periodically asks the controller to drain them so the wasted
requests are visible in the overhead statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.config.schema import SerializableConfig
from repro.dram.controller import MemoryController, RequestSource
from repro.offchip.base import LoadContext, OffChipPredictor, PredictionRecord


@dataclass
class HermesConfig(SerializableConfig):
    """Hermes datapath parameters.

    ``issue_latency`` is the Hermes request issue latency: the cycles
    needed for the speculative request to reach the memory controller
    after the load's physical address is generated.  The paper evaluates
    an optimistic (6-cycle, "Hermes-O") and a pessimistic (18-cycle,
    "Hermes-P") variant and sweeps 0-24 cycles in Fig. 17(c).
    """

    enabled: bool = True
    issue_latency: int = 6
    address_generation_latency: int = 1
    drain_interval: int = 512

    def validate(self) -> None:
        if self.issue_latency < 0 or self.address_generation_latency < 0:
            raise ValueError("latencies must be non-negative")
        if self.drain_interval <= 0:
            raise ValueError("drain_interval must be positive")

    @classmethod
    def optimistic(cls) -> "HermesConfig":
        """Hermes-O (6-cycle issue latency)."""
        return cls(issue_latency=6)

    @classmethod
    def pessimistic(cls) -> "HermesConfig":
        """Hermes-P (18-cycle issue latency)."""
        return cls(issue_latency=18)

    @classmethod
    def disabled(cls) -> "HermesConfig":
        return cls(enabled=False)


@dataclass(slots=True)
class HermesStats:
    """Hermes-request accounting."""

    loads_seen: int = 0
    predicted_offchip: int = 0
    hermes_requests_issued: int = 0
    hermes_requests_useful: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "loads_seen": self.loads_seen,
            "predicted_offchip": self.predicted_offchip,
            "hermes_requests_issued": self.hermes_requests_issued,
            "hermes_requests_useful": self.hermes_requests_useful,
        }


class HermesDecision:
    """The engine's output for one load.

    One instance is owned (and reused) by each :class:`HermesEngine`; its
    fields are valid until the engine's next ``predict_and_issue`` call.
    """

    __slots__ = ("record", "hermes_ready")

    def __init__(self, record: Optional[PredictionRecord] = None,
                 hermes_ready: Optional[int] = None) -> None:
        self.record = record
        self.hermes_ready = hermes_ready

    @property
    def predicted_offchip(self) -> bool:
        return self.record.predicted_offchip


class HermesEngine:
    """Couples an off-chip predictor with the main-memory controller.

    The core loop (:meth:`repro.cpu.core.OutOfOrderCore._span_loop`)
    inlines :meth:`predict_and_issue` and :meth:`train` statement for
    statement.  The methods remain the per-load form of those steps:
    ``tests/test_hermes_engine.py`` checks the loop against them, and
    ``perfbench/layers.py`` names them as the ``core`` layer.
    """

    __slots__ = ("config", "predictor", "memory_controller", "stats",
                 "_loads_since_drain", "_context", "_decision",
                 "_enabled", "_request_delay", "_drain_interval")

    def __init__(self, predictor: OffChipPredictor,
                 memory_controller: MemoryController,
                 config: Optional[HermesConfig] = None) -> None:
        config = config or HermesConfig()
        config.validate()
        self.config = config
        self.predictor = predictor
        self.memory_controller = memory_controller
        self.stats = HermesStats()
        self._loads_since_drain = 0
        # Reused per-load records (zero-allocation hot path): valid until
        # the next predict_and_issue call.
        self._context = LoadContext(pc=0, address=0, cycle=0)
        self._decision = HermesDecision()
        # Hot-loop constants hoisted out of the config dataclass.
        self._enabled = config.enabled
        self._request_delay = (config.address_generation_latency
                               + config.issue_latency)
        self._drain_interval = config.drain_interval

    # ------------------------------------------------------------------ #

    def predict_and_issue(self, pc: int, address: int, cycle: int) -> HermesDecision:
        """Run the predictor for a load and issue a Hermes request if indicated.

        Returns the engine's reused :class:`HermesDecision` whose
        ``hermes_ready`` is the cycle at which the speculative data will
        be available at the memory controller (``None`` when no Hermes
        request was issued).
        """
        stats = self.stats
        stats.loads_seen += 1
        context = self._context
        context.pc = pc
        context.address = address
        context.cycle = cycle
        record = self.predictor.predict(context)
        hermes_ready: Optional[int] = None
        if self._enabled and record.predicted_offchip:
            stats.predicted_offchip += 1
            hermes_ready = self.memory_controller.access(
                address, cycle + self._request_delay, RequestSource.HERMES)
            stats.hermes_requests_issued += 1
        loads_since_drain = self._loads_since_drain + 1
        if loads_since_drain >= self._drain_interval:
            self._loads_since_drain = 0
            self.memory_controller.drain_unclaimed_hermes(cycle)
        else:
            self._loads_since_drain = loads_since_drain
        decision = self._decision
        decision.record = record
        decision.hermes_ready = hermes_ready
        return decision

    def train(self, decision: HermesDecision, went_offchip: bool,
              hermes_used: bool = False) -> None:
        """Train the predictor with the true outcome of the load."""
        if hermes_used:
            self.stats.hermes_requests_useful += 1
        self.predictor.train(decision.record, went_offchip)

    # ------------------------------------------------------------------ #

    def storage_bits(self) -> int:
        """Total Hermes storage: just the predictor's metadata (Table 3)."""
        return self.predictor.storage_bits()

    @property
    def storage_kb(self) -> float:
        return self.storage_bits() / 8 / 1024
