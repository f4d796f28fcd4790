"""Simulation drivers.

Ties the substrates together: build a system from a
:class:`~repro.sim.config.SystemConfig`, run a workload trace through it,
and collect a :class:`~repro.sim.results.SimulationResult`.  One driver
runs N cores over a shared LLC + memory controller; three entry points
feed it: single-core over an in-memory trace
(:func:`~repro.sim.simulator.simulate_trace`), single-core over a
:class:`~repro.workloads.trace.StreamingTrace` in bounded memory
(:func:`~repro.sim.simulator.simulate_stream`, bit-identical stats),
and one trace per core (:func:`~repro.sim.multicore.simulate_multicore`).
"""

from repro.sim.config import SystemConfig
from repro.sim.results import SimulationResult
from repro.sim.simulator import (
    build_system,
    simulate_stream,
    simulate_suite,
    simulate_trace,
)
from repro.sim.multicore import MultiCoreResult, simulate_multicore

__all__ = [
    "SystemConfig",
    "SimulationResult",
    "build_system",
    "simulate_trace",
    "simulate_stream",
    "simulate_suite",
    "MultiCoreResult",
    "simulate_multicore",
]
