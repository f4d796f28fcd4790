"""Experiment runners: one function per paper figure/table.

Every function takes an :class:`ExperimentSetup` carrying sizing knobs
(trace length, workloads per category) and execution knobs
(``parallel``/``max_workers``/``result_cache_dir``), so the same code
can run as a quick serial benchmark or as a fuller parallel overnight
sweep, and returns plain dictionaries/lists that the benchmark harness
prints as the rows/series of the corresponding paper figure.  Sweeps
are declared as :class:`~repro.runner.job.SimJob` matrices executed by
the :mod:`repro.runner` subsystem.

See EXPERIMENTS.md for the experiment index mapping figures/tables to
these runners and to the benchmark files that invoke them, and
DESIGN.md for the architecture.
"""

from repro.experiments.common import (
    ExperimentSetup,
    run_matrix,
    run_suite,
)
from repro.experiments.motivation import (
    run_fig02_offchip_loads,
    run_fig03_stall_cycles,
    run_fig05_offchip_rate,
)
from repro.experiments.ideal import run_fig04_ideal_hermes
from repro.experiments.predictor_analysis import (
    run_fig09_accuracy_coverage,
    run_fig10_feature_ablation,
    run_fig11_feature_variability,
    run_fig21_accuracy_by_prefetcher,
)
from repro.experiments.performance import (
    run_fig12_singlecore_speedup,
    run_fig13_per_workload_speedup,
    run_fig14_predictor_comparison,
    run_fig15_stalls_and_overhead,
    run_fig18_power,
    run_fig22_overhead_by_prefetcher,
)
from repro.experiments.multicore import run_fig16_multicore
from repro.experiments.sensitivity import (
    run_fig17a_bandwidth_sensitivity,
    run_fig17b_prefetcher_sensitivity,
    run_fig17c_issue_latency_sensitivity,
    run_fig17d_cache_latency_sensitivity,
    run_fig17e_activation_threshold,
    run_fig19_rob_size_sensitivity,
    run_fig20_llc_size_sensitivity,
)
from repro.experiments.storage import run_table3_storage, run_table6_storage

__all__ = [
    "ExperimentSetup",
    "run_matrix",
    "run_suite",
    "run_fig02_offchip_loads",
    "run_fig03_stall_cycles",
    "run_fig04_ideal_hermes",
    "run_fig05_offchip_rate",
    "run_fig09_accuracy_coverage",
    "run_fig10_feature_ablation",
    "run_fig11_feature_variability",
    "run_fig12_singlecore_speedup",
    "run_fig13_per_workload_speedup",
    "run_fig14_predictor_comparison",
    "run_fig15_stalls_and_overhead",
    "run_fig16_multicore",
    "run_fig17a_bandwidth_sensitivity",
    "run_fig17b_prefetcher_sensitivity",
    "run_fig17c_issue_latency_sensitivity",
    "run_fig17d_cache_latency_sensitivity",
    "run_fig17e_activation_threshold",
    "run_fig18_power",
    "run_fig19_rob_size_sensitivity",
    "run_fig20_llc_size_sensitivity",
    "run_fig21_accuracy_by_prefetcher",
    "run_fig22_overhead_by_prefetcher",
    "run_table3_storage",
    "run_table6_storage",
]
