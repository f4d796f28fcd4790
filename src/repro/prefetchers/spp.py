"""Signature Path Prefetcher (SPP) with a perceptron prefetch filter.

Follows the structure of Kim et al. [MICRO'16] with the perceptron filter
of Bhatia et al. [ISCA'19] ("PPF"), simplified for a Python timing model:

* A *signature table* tracks, per 4 KB page, a compressed signature of the
  recent delta history and the last block offset accessed.
* A *pattern table*, indexed by signature, stores candidate deltas with
  2-bit-style confidence counters.
* Lookahead: after predicting a delta the signature is advanced and the
  pattern table consulted again, multiplying path confidence, until the
  confidence falls below a threshold.
* A small perceptron filter accepts or rejects each candidate using simple
  features (PC, signature, delta), trained on whether issued prefetches
  were eventually useful (approximated here by whether the predicted line
  is demanded while tracked).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.memory.address import LINES_PER_PAGE, page_number
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.registry import register_prefetcher

_SIG_BITS = 12
_SIG_MASK = (1 << _SIG_BITS) - 1


def _advance_signature(signature: int, delta: int) -> int:
    """SPP signature update: shift and fold the (signed) delta in."""
    folded = delta & 0x7F
    return ((signature << 3) ^ folded) & _SIG_MASK


@dataclass
class _PageEntry:
    signature: int = 0
    last_offset: int = -1


@dataclass
class _PatternEntry:
    deltas: Dict[int, int] = field(default_factory=dict)  # delta -> counter
    total: int = 0


class _PerceptronFilter:
    """Tiny hashed-perceptron prefetch filter (PPF-style)."""

    def __init__(self, table_size: int = 1024, threshold: int = 0) -> None:
        self.table_size = table_size
        self.threshold = threshold
        self._pc_weights = [0] * table_size
        self._sig_weights = [0] * table_size
        self._delta_weights = [0] * table_size
        # Recently issued prefetches awaiting a usefulness verdict:
        # block -> (pc index, sig index, delta index)
        self._pending: "OrderedDict[int, Tuple[int, int, int]]" = OrderedDict()

    def _indices(self, pc: int, signature: int, delta: int) -> Tuple[int, int, int]:
        mask = self.table_size - 1
        return (pc ^ (pc >> 10)) & mask, signature & mask, (delta * 0x9E37) & mask

    def accept(self, pc: int, signature: int, delta: int, block: int) -> bool:
        pc_i, sig_i, delta_i = self._indices(pc, signature, delta)
        total = (self._pc_weights[pc_i] + self._sig_weights[sig_i]
                 + self._delta_weights[delta_i])
        accepted = total >= self.threshold
        if accepted:
            if len(self._pending) >= 512:
                # The oldest pending prefetch was never demanded: train down.
                _, stale = self._pending.popitem(last=False)
                self._train(stale, useful=False)
            self._pending[block] = (pc_i, sig_i, delta_i)
        return accepted

    def observe_demand(self, block: int) -> None:
        indices = self._pending.pop(block, None)
        if indices is not None:
            self._train(indices, useful=True)

    def _train(self, indices: Tuple[int, int, int], useful: bool) -> None:
        delta = 1 if useful else -1
        pc_i, sig_i, delta_i = indices
        for table, index in ((self._pc_weights, pc_i), (self._sig_weights, sig_i),
                             (self._delta_weights, delta_i)):
            table[index] = max(-32, min(31, table[index] + delta))

    def storage_bits(self) -> int:
        return 3 * self.table_size * 6


@register_prefetcher("spp")
class SPPPrefetcher(Prefetcher):
    """Signature Path Prefetcher with perceptron filtering."""

    name = "spp"

    def __init__(self, signature_table_size: int = 256,
                 pattern_table_size: int = 2048,
                 max_degree: int = 4,
                 confidence_threshold: float = 0.25) -> None:
        super().__init__()
        self.signature_table_size = signature_table_size
        self.pattern_table_size = pattern_table_size
        self.max_degree = max_degree
        self.confidence_threshold = confidence_threshold
        self._pages: "OrderedDict[int, _PageEntry]" = OrderedDict()
        self._patterns: Dict[int, _PatternEntry] = {}
        self._filter = _PerceptronFilter()

    # ------------------------------------------------------------------ #

    def _generate(self, address: int, pc: int, cycle: int, hit: bool) -> List[int]:
        page = page_number(address)
        offset = (address >> 6) & (LINES_PER_PAGE - 1)
        block = address >> 6
        self._filter.observe_demand(block)

        entry = self._pages.get(page)
        if entry is None:
            entry = _PageEntry()
            if len(self._pages) >= self.signature_table_size:
                self._pages.popitem(last=False)
            self._pages[page] = entry
        else:
            self._pages.move_to_end(page)

        candidates: List[int] = []
        if entry.last_offset >= 0:
            delta = offset - entry.last_offset
            if delta != 0:
                self._update_pattern(entry.signature, delta)
                entry.signature = _advance_signature(entry.signature, delta)
        entry.last_offset = offset

        # Lookahead prediction along the signature path.
        signature = entry.signature
        confidence = 1.0
        current_offset = offset
        for _ in range(self.max_degree):
            prediction = self._best_delta(signature)
            if prediction is None:
                break
            delta, path_confidence = prediction
            confidence *= path_confidence
            if confidence < self.confidence_threshold:
                break
            current_offset += delta
            if current_offset < 0 or current_offset >= LINES_PER_PAGE:
                break
            candidate = (page << 12) | (current_offset << 6)
            candidate_block = candidate >> 6
            if self._filter.accept(pc, signature, delta, candidate_block):
                candidates.append(candidate)
            signature = _advance_signature(signature, delta)
        return candidates

    # ------------------------------------------------------------------ #

    def _pattern_index(self, signature: int) -> int:
        return signature & (self.pattern_table_size - 1)

    def _update_pattern(self, signature: int, delta: int) -> None:
        index = self._pattern_index(signature)
        entry = self._patterns.get(index)
        if entry is None:
            entry = _PatternEntry()
            self._patterns[index] = entry
        entry.deltas[delta] = entry.deltas.get(delta, 0) + 1
        entry.total += 1
        if entry.total > 64:
            # Periodically age the counters so the table adapts to phase changes.
            entry.deltas = {d: max(1, c // 2) for d, c in entry.deltas.items()}
            entry.total = sum(entry.deltas.values())

    def _best_delta(self, signature: int) -> Tuple[int, float] | None:
        entry = self._patterns.get(self._pattern_index(signature))
        if entry is None or entry.total == 0 or not entry.deltas:
            return None
        # Manual arg-max (first maximum wins, like max(..., key=...)).
        best_delta = None
        best_count = 0
        for delta, count in entry.deltas.items():
            if count > best_count:
                best_count = count
                best_delta = delta
        return best_delta, best_count / entry.total

    def storage_bits(self) -> int:
        # Paper Table 6: SPP + perceptron filter = 39.3 KB.
        return int(39.3 * 1024 * 8)
