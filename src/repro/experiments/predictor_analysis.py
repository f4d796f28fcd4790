"""Off-chip predictor analysis experiments (Figs. 9, 10, 11 and 21).

* Fig. 9 — accuracy and coverage of POPET vs HMP vs TTP.
* Fig. 10 — accuracy/coverage of each POPET feature individually and of
  stacked feature combinations.
* Fig. 11 — per-workload accuracy/coverage of each individual feature
  (shows no single feature wins everywhere).
* Fig. 21 — POPET accuracy/coverage as the baseline prefetcher changes
  (including no prefetcher at all).

The feature-ablation sweeps describe their POPET variants declaratively
(:class:`~repro.runner.job.PredictorSpec`), so worker processes rebuild
the custom-feature predictors through the registry.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import average
from repro.experiments.common import (
    ConfigEntry,
    ExperimentSetup,
    Grouped,
    PredictorSpec,
    plan_matrix,
    runner_for,
)
from repro.offchip.features import SELECTED_FEATURES
from repro.runner import SweepSpec
from repro.sim.config import SystemConfig

#: Short display names for the five selected features (Fig. 10/11 legend order).
FEATURE_LABELS = {
    "pc_xor_cl_offset": "PC ^ cacheline offset",
    "last_4_load_pcs": "Last-4 load PCs",
    "pc_xor_byte_offset": "PC ^ byte offset",
    "pc_first_access": "PC + first access",
    "cl_offset_first_access": "Cacheline offset + first access",
}


def plan_fig09_accuracy_coverage(setup: Optional[ExperimentSetup] = None,
                                 predictors: Sequence[str] = ("hmp", "ttp", "popet"),
                                 prefetcher: str = "pythia",
                                 ) -> SweepSpec:
    """Accuracy and coverage of each predictor, per category and on average.

    Paper figure: Fig. 9.  Sweep axes: off-chip predictor ∈
    ``predictors`` (on top of ``prefetcher``) × the setup's workload
    suite.

    Payload: ``{predictor: {category: {accuracy, coverage}}}`` with an
    ``"AVG"`` category per predictor.
    """
    def reduce(by_predictor: Grouped) -> Dict[str, Dict[str, Dict[str, float]]]:
        table: Dict[str, Dict[str, Dict[str, float]]] = {}
        for predictor, results in by_predictor.items():
            grouped: Dict[str, list] = defaultdict(list)
            for result in results:
                grouped[result.category].append(result)
            per_category = {
                category: {
                    "accuracy": average(r.predictor_accuracy for r in rs),
                    "coverage": average(r.predictor_coverage for r in rs),
                }
                for category, rs in grouped.items()
            }
            per_category["AVG"] = {
                "accuracy": average(r.predictor_accuracy for r in results),
                "coverage": average(r.predictor_coverage for r in results),
            }
            table[predictor] = per_category
        return table

    return plan_matrix("fig09", setup or ExperimentSetup(), {
        predictor: SystemConfig.with_hermes(predictor, prefetcher=prefetcher)
        for predictor in predictors
    }, reduce)


run_fig09_accuracy_coverage = runner_for(plan_fig09_accuracy_coverage)


def _suite_averages(by_label: Grouped) -> Dict[str, Dict[str, float]]:
    """Suite-average predictor accuracy and coverage per matrix label."""
    return {
        label: {
            "accuracy": average(r.predictor_accuracy for r in results),
            "coverage": average(r.predictor_coverage for r in results),
        }
        for label, results in by_label.items()
    }


def _popet_spec(features: Sequence[str]) -> PredictorSpec:
    return PredictorSpec("popet", {"features": tuple(features)})


def plan_fig10_feature_ablation(setup: Optional[ExperimentSetup] = None,
                                prefetcher: str = "pythia") -> SweepSpec:
    """Accuracy/coverage of POPET with individual features and stacked combinations.

    Paper figure: Fig. 10.  Sweep axes: POPET feature set ∈ {each of
    the five selected features alone, cumulative top-k stacks, all
    five} × the setup's workload suite, declared as
    :class:`~repro.runner.job.PredictorSpec` variants.

    Payload: ``{feature_set_label: {accuracy, coverage}}`` — suite
    averages, in the paper's presentation order.
    """
    # Individual features first, then cumulative combinations, then full POPET
    # — the same presentation as Fig. 10.
    variants: Dict[str, List[str]] = {}
    for feature in SELECTED_FEATURES:
        variants[FEATURE_LABELS.get(feature, feature)] = [feature]
    for index, feature in enumerate(SELECTED_FEATURES[:-1], start=1):
        variants[f"top-{index + 1} combined"] = list(SELECTED_FEATURES[:index + 1])
    variants["All (POPET)"] = list(SELECTED_FEATURES)

    config = SystemConfig.with_hermes("popet", prefetcher=prefetcher)
    matrix: Dict[str, ConfigEntry] = {
        label: (config, _popet_spec(features))
        for label, features in variants.items()
    }
    return plan_matrix("fig10", setup or ExperimentSetup(), matrix,
                       _suite_averages)


run_fig10_feature_ablation = runner_for(plan_fig10_feature_ablation)


def plan_fig11_feature_variability(setup: Optional[ExperimentSetup] = None,
                                   prefetcher: str = "pythia") -> SweepSpec:
    """Per-workload accuracy/coverage of each individual feature.

    Paper figure: Fig. 11.  Sweep axes: POPET feature ∈ the five
    selected features (one-feature variants) × the setup's workload
    suite.

    Payload: ``{workload: {feature: {accuracy, coverage}}}`` — the data
    behind the claim that no single feature is best everywhere.
    """
    setup = setup or ExperimentSetup()
    workloads = setup.workload_names()
    config = SystemConfig.with_hermes("popet", prefetcher=prefetcher)
    matrix: Dict[str, ConfigEntry] = {
        FEATURE_LABELS.get(feature, feature): (config, _popet_spec([feature]))
        for feature in SELECTED_FEATURES
    }

    def reduce(by_feature: Grouped) -> Dict[str, Dict[str, Dict[str, float]]]:
        table: Dict[str, Dict[str, Dict[str, float]]] = {
            name: {} for name in workloads}
        for feature_label, results in by_feature.items():
            for result in results:
                table[result.workload][feature_label] = {
                    "accuracy": result.predictor_accuracy,
                    "coverage": result.predictor_coverage,
                }
        return table

    return plan_matrix("fig11", setup, matrix, reduce)


run_fig11_feature_variability = runner_for(plan_fig11_feature_variability)


def plan_fig21_accuracy_by_prefetcher(setup: Optional[ExperimentSetup] = None,
                                      prefetchers: Sequence[str] = ("pythia", "bingo",
                                                                    "spp", "mlop",
                                                                    "sms", "none"),
                                      ) -> SweepSpec:
    """POPET accuracy/coverage when combined with different baseline prefetchers.

    Paper figure: Fig. 21.  Sweep axes: baseline prefetcher ∈
    ``prefetchers`` (including "none" = Hermes alone) × the setup's
    workload suite.

    Payload: ``{"<prefetcher>+hermes" | "hermes alone": {accuracy,
    coverage}}`` — suite averages.
    """
    labels = {
        prefetcher: (f"{prefetcher}+hermes" if prefetcher != "none"
                     else "hermes alone")
        for prefetcher in prefetchers
    }
    return plan_matrix("fig21", setup or ExperimentSetup(), {
        labels[prefetcher]: SystemConfig.with_hermes("popet", prefetcher=prefetcher)
        for prefetcher in prefetchers
    }, _suite_averages)


run_fig21_accuracy_by_prefetcher = runner_for(plan_fig21_accuracy_by_prefetcher)
