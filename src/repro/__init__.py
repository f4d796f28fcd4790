"""Hermes reproduction: perceptron-based off-chip load prediction.

A Python reproduction of *Hermes: Accelerating Long-Latency Load Requests
via Perceptron-Based Off-Chip Load Prediction* (Bera et al., MICRO 2022),
including the full simulation substrate the paper depends on: an
out-of-order core timing model, a three-level cache hierarchy, a DRAM
model, five high-performance prefetchers, the POPET/HMP/TTP/Ideal
off-chip predictors, synthetic workload generators, and experiment
runners that regenerate every table and figure in the paper's evaluation.

Quickstart::

    from repro import SystemConfig, make_trace, simulate_trace

    trace = make_trace("ligra.pagerank", num_accesses=20000)
    baseline = simulate_trace(SystemConfig.baseline("pythia"), trace)
    hermes = simulate_trace(SystemConfig.with_hermes("popet", prefetcher="pythia"), trace)
    print(hermes.ipc / baseline.ipc)

The same system is scriptable from the shell through the unified CLI
(``python -m repro``, console script ``repro``): ``run`` for single
simulations, ``sweep`` for job matrices and paper figures, ``report``
for the paper's figures as artifacts, and ``trace`` for
generating/converting/inspecting trace files in the interchange
formats of :mod:`repro.workloads.formats`.  External traces stream
through :func:`simulate_stream` under bounded memory regardless of
length.  See README.md for a tour, and ``perfbench/README.md`` for the
benchmark that measures speed.
"""

from repro.analysis import geomean, geomean_speedup, speedup_by_category
from repro.config import (
    CONFIG_SCHEMA_VERSION,
    ConfigError,
    apply_overrides,
    load_config,
    save_config,
)
from repro.core import HermesConfig, HermesEngine
from repro.cpu import CoreConfig, OutOfOrderCore
from repro.dram import DRAMConfig, MemoryController
from repro.memory import Cache, CacheConfig, CacheHierarchy, HierarchyConfig
from repro.offchip import POPET, POPETConfig, make_predictor
from repro.prefetchers import make_prefetcher
from repro.runner import (
    ExperimentSpec,
    JobOutcome,
    JobRunner,
    PredictorSpec,
    ProcessPoolBackend,
    ResultCache,
    RetryPolicy,
    SerialBackend,
    SimJob,
    SweepError,
    SweepReport,
    SweepSpec,
)
from repro.sim import (
    MultiCoreResult,
    SimulationResult,
    SystemConfig,
    build_system,
    simulate_multicore,
    simulate_stream,
    simulate_suite,
    simulate_trace,
)
from repro.workloads import (
    StreamingTrace,
    Trace,
    make_trace,
    workload_names,
    workload_suite,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # configuration
    "SystemConfig",
    "CoreConfig",
    "HierarchyConfig",
    "CacheConfig",
    "DRAMConfig",
    "HermesConfig",
    "POPETConfig",
    "CONFIG_SCHEMA_VERSION",
    "ConfigError",
    "apply_overrides",
    "load_config",
    "save_config",
    # components
    "OutOfOrderCore",
    "CacheHierarchy",
    "Cache",
    "MemoryController",
    "HermesEngine",
    "POPET",
    "make_predictor",
    "make_prefetcher",
    # workloads
    "Trace",
    "StreamingTrace",
    "make_trace",
    "workload_names",
    "workload_suite",
    # simulation
    "build_system",
    "simulate_trace",
    "simulate_stream",
    "simulate_suite",
    "simulate_multicore",
    "SimulationResult",
    "MultiCoreResult",
    # orchestration
    "SimJob",
    "SweepSpec",
    "ExperimentSpec",
    "PredictorSpec",
    "JobRunner",
    "SerialBackend",
    "ProcessPoolBackend",
    "ResultCache",
    "RetryPolicy",
    "JobOutcome",
    "SweepReport",
    "SweepError",
    # analysis
    "geomean",
    "geomean_speedup",
    "speedup_by_category",
]
