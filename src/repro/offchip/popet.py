"""POPET: the Perceptron-based Off-chip Predictor (Section 6.1).

POPET is a hashed-perceptron predictor.  Each program feature owns a small
table of 5-bit saturating signed weights.  To predict, the feature values
of the current load are hashed into their tables, the retrieved weights
are summed, and the load is predicted to go off-chip when the sum crosses
the activation threshold.  Training (invoked when the load returns to the
core) nudges each indexed weight toward the true outcome, gated by the
positive/negative training thresholds so saturated predictions stop
training and the predictor can adapt quickly to phase changes.

Default configuration reproduces Table 2 / Table 3:

* features: PC^cacheline offset, PC^byte offset, PC+first access,
  cacheline offset+first access, last-4 load PCs;
* activation threshold -18, negative/positive training thresholds -35/+40;
* 5-bit weights; 1024-entry tables (128 for cacheline offset+first access);
* a 64-entry page buffer supplying the first-access hint.

:meth:`POPET.predict` and :meth:`POPET.train` run the generic pipeline
for any feature set.  For the default set the core loop
(:meth:`repro.cpu.core.OutOfOrderCore._span_loop`) runs both inline,
reading the weight tables, page buffer, PC history and the memoised
table indices of :meth:`POPET._memo_index` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.memory.address import BLOCK_BITS
from repro.offchip.base import (
    LoadContext,
    OffChipPredictor,
    PredictionRecord,
)
from repro.offchip.registry import register_predictor
from repro.offchip.features import (
    FeatureExtractor,
    FeatureSpec,
    SELECTED_FEATURES,
    _mix,
    get_feature,
)

WEIGHT_MIN = -16
WEIGHT_MAX = 15
WEIGHT_BITS = 5


@dataclass
class POPETConfig:
    """Tunable POPET parameters (paper Table 2 defaults)."""

    feature_names: Sequence[str] = field(default_factory=lambda: list(SELECTED_FEATURES))
    activation_threshold: int = -18
    negative_training_threshold: int = -35
    positive_training_threshold: int = 40
    page_buffer_entries: int = 64
    pc_history_depth: int = 4
    load_queue_entries: int = 128

    def validate(self) -> None:
        if not self.feature_names:
            raise ValueError("POPET requires at least one feature")
        if self.negative_training_threshold > self.positive_training_threshold:
            raise ValueError("negative training threshold must not exceed positive")
        for name in self.feature_names:
            get_feature(name)


class _PredictionMetadata:
    """Metadata stored in the LQ entry for training (Table 3, "LQ Metadata").

    One instance (with one index buffer) is reused by each POPET — the
    simulator always trains a prediction before making the next one.
    """

    __slots__ = ("feature_indices", "perceptron_sum", "first_access")

    def __init__(self, feature_indices, perceptron_sum: int = 0,
                 first_access: bool = False) -> None:
        self.feature_indices = feature_indices
        self.perceptron_sum = perceptron_sum
        self.first_access = first_access


_MASK64 = 0xFFFFFFFFFFFFFFFF
_BYTE_OFFSET_MASK = (1 << BLOCK_BITS) - 1


class POPET(OffChipPredictor):
    """Perceptron-based off-chip load predictor."""

    name = "popet"

    def __init__(self, config: Optional[POPETConfig] = None) -> None:
        super().__init__()
        self.config = config or POPETConfig()
        self.config.validate()
        self.features: List[FeatureSpec] = [get_feature(name)
                                            for name in self.config.feature_names]
        self.weights: List[List[int]] = [[0] * spec.table_size for spec in self.features]
        self.extractor = FeatureExtractor(
            page_buffer_entries=self.config.page_buffer_entries,
            pc_history_depth=self.config.pc_history_depth)
        self.training_events = 0
        self.training_skipped_saturated = 0
        # Per-feature pipeline: (compute, fold shifts, index mask,
        # weight table).  The folded-XOR hash is inlined in _predict so
        # one load costs one Python call per feature instead of four.
        self._pipeline: List[Tuple[Any, Tuple[int, ...], int, List[int]]] = []
        for spec, table in zip(self.features, self.weights):
            bits = spec.table_size.bit_length() - 1
            shifts = tuple(range(bits, 64, bits)) if bits else ()
            self._pipeline.append((spec.compute, shifts, spec.table_size - 1, table))
        self._indices: List[int] = [0] * len(self.features)
        self._metadata = _PredictionMetadata(self._indices)
        # The paper's default feature set (with the default 4-deep PC
        # history) is the one the core loop inlines.
        self._use_fused = (list(self.config.feature_names) == SELECTED_FEATURES
                           and self.config.pc_history_depth == 4)
        # Reuse one PredictionRecord per POPET (see OffChipPredictor.predict).
        self._record = PredictionRecord(context=None, predicted_offchip=False)
        # Memoised table indices for the inlined path (see _memo_index).
        # Each maps a key (a pure function of pc, offsets, first-access
        # bit or PC history) to its folded-XOR table index, so
        # steady-state loads replace ~6 big-int operations per feature
        # with one dict probe.
        self._ix0_cache: Dict[int, int] = {}
        self._ix1_cache: Dict[int, int] = {}
        self._ix2_cache: Dict[int, int] = {}
        self._ix4_cache: Dict[int, int] = {}
        self._memos = (self._ix0_cache, self._ix1_cache, self._ix2_cache,
                       None, self._ix4_cache)

    # ------------------------------------------------------------------ #
    # Prediction (Fig. 8 pipeline: extract -> index -> sum -> threshold)
    # ------------------------------------------------------------------ #

    # repro: hot
    def predict(self, context: LoadContext) -> PredictionRecord:
        """Predict one load through the generic feature pipeline.

        For the default feature set (``_use_fused``) the core loop,
        :meth:`repro.cpu.core.OutOfOrderCore._span_loop`, inlines this
        and :meth:`train` statement for statement; these methods are the
        reference it is tested against and the path every other caller
        takes.
        """
        return OffChipPredictor.predict(self, context)

    def _predict(self, context: LoadContext) -> Tuple[bool, Any]:
        pc = context.pc
        address = context.address
        extractor = self.extractor
        first_access = extractor.page_buffer.first_access(address)
        extractor.pc_history.push(pc)
        indices = self._indices
        total = 0
        position = 0
        for compute, shifts, mask, table in self._pipeline:
            value = compute(extractor, pc, address, first_access) & _MASK64
            folded = value
            for shift in shifts:
                chunk = value >> shift
                if not chunk:
                    break
                folded ^= chunk
            index = folded & mask if mask else 0
            indices[position] = index
            position += 1
            total += table[index]
        metadata = self._metadata
        metadata.perceptron_sum = total
        metadata.first_access = first_access
        return total >= self.config.activation_threshold, metadata

    def _memo_index(self, feature: int, key: int) -> int:
        """Hash one memo key of the default feature set to its table index.

        The core loop memoises the 1024-entry tables' indices by key:
        feature 0 by ``pc << 6 | cacheline offset``, feature 1 by
        ``pc << 6 | byte offset``, feature 2 by ``pc << 1 | first access``
        and feature 4 by the PC history's shifted XOR.  On a miss it
        calls this, which computes the index exactly as :meth:`_predict`
        does and records it.
        """
        if feature <= 1:
            value = _mix(key >> BLOCK_BITS, key & _BYTE_OFFSET_MASK)
        else:
            value = key & _MASK64
        index = (value ^ (value >> 10) ^ (value >> 20) ^ (value >> 30)
                 ^ (value >> 40) ^ (value >> 50) ^ (value >> 60)) & 1023
        memo = self._memos[feature]
        if len(memo) > 131072:  # safety bound for huge PC sets
            memo.clear()
        memo[key] = index
        return index

    # ------------------------------------------------------------------ #
    # Training (Section 6.1.2)
    # ------------------------------------------------------------------ #

    # repro: hot
    def train(self, record: PredictionRecord, went_offchip: bool) -> None:
        """Confusion-matrix accounting (inlined) + the weight update."""
        stats = self.stats
        if record.predicted_offchip:
            if went_offchip:
                stats.true_positives += 1
            else:
                stats.false_positives += 1
        elif went_offchip:
            stats.false_negatives += 1
        else:
            stats.true_negatives += 1
        self._train(record, went_offchip)

    # repro: hot
    def _train(self, record: PredictionRecord, went_offchip: bool) -> None:
        metadata: _PredictionMetadata = record.metadata
        total = metadata.perceptron_sum
        mispredicted = record.predicted_offchip != went_offchip
        config = self.config
        if not mispredicted and not (config.negative_training_threshold
                                     <= total
                                     <= config.positive_training_threshold):
            # Saturated and correct: skip training so weights do not
            # over-saturate (helps adapting to phase changes).
            self.training_skipped_saturated += 1
            return
        self.training_events += 1
        delta = 1 if went_offchip else -1
        indices = metadata.feature_indices
        position = 0
        for table in self.weights:
            index = indices[position]
            position += 1
            value = table[index] + delta
            if value > WEIGHT_MAX:
                value = WEIGHT_MAX
            elif value < WEIGHT_MIN:
                value = WEIGHT_MIN
            table[index] = value

    # ------------------------------------------------------------------ #
    # Storage accounting (Table 3)
    # ------------------------------------------------------------------ #

    def weight_table_bits(self) -> int:
        return sum(spec.table_size * WEIGHT_BITS for spec in self.features)

    def page_buffer_bits(self) -> int:
        return self.extractor.page_buffer.storage_bits

    def lq_metadata_bits(self) -> int:
        """Per-LQ-entry metadata POPET keeps for training (Table 3)."""
        entries = self.config.load_queue_entries
        # Hashed PC (32b) + last-4 PC hash (10b) + first access (1b)
        # + perceptron weight (5b) + prediction (1b) per entry.
        return entries * (32 + 10 + 1 + 5 + 1)

    def storage_bits(self) -> int:
        return self.weight_table_bits() + self.page_buffer_bits() + self.lq_metadata_bits()

    def storage_breakdown(self) -> Dict[str, float]:
        """Storage in KB per structure, mirroring Table 3."""
        return {
            "weight_tables_kb": self.weight_table_bits() / 8 / 1024,
            "page_buffer_kb": self.page_buffer_bits() / 8 / 1024,
            "lq_metadata_kb": self.lq_metadata_bits() / 8 / 1024,
            "total_kb": self.storage_bits() / 8 / 1024,
        }

    # ------------------------------------------------------------------ #
    # Introspection used by tests and the feature-ablation experiments
    # ------------------------------------------------------------------ #

    def weight_summary(self) -> Dict[str, Tuple[int, int]]:
        """Return (min, max) weight per feature table (for tests/diagnostics)."""
        return {spec.name: (min(table), max(table))
                for spec, table in zip(self.features, self.weights)}

    @classmethod
    def with_features(cls, feature_names: Sequence[str], **kwargs: Any) -> "POPET":
        """Build a POPET variant with a custom feature subset (Figs. 10, 11)."""
        config = POPETConfig(feature_names=list(feature_names), **kwargs)
        return cls(config)


@register_predictor("popet")
def _build_popet(features: Optional[Sequence[str]] = None,
                 **config_options: Any) -> POPET:
    """Build POPET from registry options.

    ``features`` selects a feature subset (Figs. 10/11); any other
    keyword is forwarded to :class:`POPETConfig` (e.g.
    ``activation_threshold`` for the Fig. 17e sweep).
    """
    if features is not None:
        return POPET.with_features(list(features), **config_options)
    if config_options:
        return POPET(POPETConfig(**config_options))
    return POPET()
