"""Experiment runners: one function per paper figure/table.

Every figure and table is defined once, as a ``plan_*`` function
returning a :class:`~repro.runner.job.SweepSpec`: a
:class:`~repro.runner.job.SimJob` matrix (empty for the closed-form
Tables 3 and 6) plus the reducer that turns its results into the
payload.  Its ``run_*`` runner is derived from the plan
(:func:`~repro.experiments.common.runner_for`): it takes the same
parameters and runs the plan through the :mod:`repro.runner`
subsystem.  The figure runners take an :class:`ExperimentSetup`
carrying sizing knobs (trace length, workloads per category) and
execution knobs (``parallel``/``max_workers``/``result_cache_dir``),
so the same code can run as a quick serial benchmark or as a fuller
parallel overnight sweep, and return plain dictionaries/lists that the
benchmark harness prints as the rows/series of the corresponding paper
figure.

See EXPERIMENTS.md for the experiment index mapping figures/tables to
these runners and to the benchmark files that invoke them, and
DESIGN.md for the architecture.
"""

from repro.experiments.common import (
    ExperimentSetup,
    plan_matrix,
    run_matrix,
    run_plan,
)
from repro.experiments.motivation import (
    plan_fig02_offchip_loads,
    plan_fig03_stall_cycles,
    plan_fig05_offchip_rate,
    run_fig02_offchip_loads,
    run_fig03_stall_cycles,
    run_fig05_offchip_rate,
)
from repro.experiments.ideal import plan_fig04_ideal_hermes, run_fig04_ideal_hermes
from repro.experiments.predictor_analysis import (
    plan_fig09_accuracy_coverage,
    plan_fig10_feature_ablation,
    plan_fig11_feature_variability,
    plan_fig21_accuracy_by_prefetcher,
    run_fig09_accuracy_coverage,
    run_fig10_feature_ablation,
    run_fig11_feature_variability,
    run_fig21_accuracy_by_prefetcher,
)
from repro.experiments.performance import (
    plan_fig12_singlecore_speedup,
    plan_fig13_per_workload_speedup,
    plan_fig14_predictor_comparison,
    plan_fig15_stalls_and_overhead,
    plan_fig18_power,
    plan_fig22_overhead_by_prefetcher,
    run_fig12_singlecore_speedup,
    run_fig13_per_workload_speedup,
    run_fig14_predictor_comparison,
    run_fig15_stalls_and_overhead,
    run_fig18_power,
    run_fig22_overhead_by_prefetcher,
)
from repro.experiments.multicore import plan_fig16_multicore, run_fig16_multicore
from repro.experiments.sensitivity import (
    plan_fig17a_bandwidth_sensitivity,
    plan_fig17b_prefetcher_sensitivity,
    plan_fig17c_issue_latency_sensitivity,
    plan_fig17d_cache_latency_sensitivity,
    plan_fig17e_activation_threshold,
    plan_fig19_rob_size_sensitivity,
    plan_fig20_llc_size_sensitivity,
    run_fig17a_bandwidth_sensitivity,
    run_fig17b_prefetcher_sensitivity,
    run_fig17c_issue_latency_sensitivity,
    run_fig17d_cache_latency_sensitivity,
    run_fig17e_activation_threshold,
    run_fig19_rob_size_sensitivity,
    run_fig20_llc_size_sensitivity,
)
from repro.experiments.storage import (
    plan_table3_storage,
    plan_table6_storage,
    run_table3_storage,
    run_table6_storage,
)

__all__ = [
    "ExperimentSetup",
    "plan_matrix",
    "run_matrix",
    "run_plan",
    "plan_fig02_offchip_loads",
    "plan_fig03_stall_cycles",
    "plan_fig04_ideal_hermes",
    "plan_fig05_offchip_rate",
    "plan_fig09_accuracy_coverage",
    "plan_fig10_feature_ablation",
    "plan_fig11_feature_variability",
    "plan_fig12_singlecore_speedup",
    "plan_fig13_per_workload_speedup",
    "plan_fig14_predictor_comparison",
    "plan_fig15_stalls_and_overhead",
    "plan_fig16_multicore",
    "plan_fig17a_bandwidth_sensitivity",
    "plan_fig17b_prefetcher_sensitivity",
    "plan_fig17c_issue_latency_sensitivity",
    "plan_fig17d_cache_latency_sensitivity",
    "plan_fig17e_activation_threshold",
    "plan_fig18_power",
    "plan_fig19_rob_size_sensitivity",
    "plan_fig20_llc_size_sensitivity",
    "plan_fig21_accuracy_by_prefetcher",
    "plan_fig22_overhead_by_prefetcher",
    "plan_table3_storage",
    "plan_table6_storage",
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
