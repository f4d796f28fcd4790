"""Multi-Lookahead Offset Prefetcher (MLOP) [Shakerinava+, DPC3 2019].

MLOP generalises best-offset prefetching: it scores every candidate offset
at multiple lookahead levels using a small *access map* of recently
demanded lines, and selects, per lookahead level, the offset with the best
score.  This implementation keeps an access-map history per 4 KB page and
periodically (every evaluation round) recomputes the winning offsets.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List

from repro.memory.address import LINES_PER_PAGE, page_number
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.registry import register_prefetcher


@register_prefetcher("mlop")
class MLOPPrefetcher(Prefetcher):
    """Multi-lookahead offset prefetcher."""

    name = "mlop"

    #: Offsets considered (positive and negative, in cachelines).
    CANDIDATE_OFFSETS = [1, 2, 3, 4, 5, 6, 8, 10, 12, 16, -1, -2, -3, -4, -8]

    def __init__(self, num_lookaheads: int = 3, round_length: int = 256,
                 map_size: int = 64) -> None:
        super().__init__()
        if num_lookaheads <= 0:
            raise ValueError("num_lookaheads must be positive")
        self.num_lookaheads = num_lookaheads
        self.round_length = round_length
        self.map_size = map_size
        # Per-page access maps (bitmap of touched lines).
        self._access_maps: "OrderedDict[int, int]" = OrderedDict()
        # Recent accesses used for scoring: (page, offset) pairs.
        self._history: Deque[tuple[int, int]] = deque(maxlen=round_length)
        # Scores per offset per lookahead level.
        self._scores: List[Dict[int, int]] = [dict.fromkeys(self.CANDIDATE_OFFSETS, 0)
                                              for _ in range(num_lookaheads)]
        self._accesses_in_round = 0
        # The currently selected offset per lookahead level (None = no prefetch).
        self._selected: List[int | None] = [1] + [None] * (num_lookaheads - 1)

    def _generate(self, address: int, pc: int, cycle: int, hit: bool) -> List[int]:
        page = page_number(address)
        offset = (address >> 6) & (LINES_PER_PAGE - 1)

        self._score_access(page, offset)
        self._record_access(page, offset)
        self._accesses_in_round += 1
        if self._accesses_in_round >= self.round_length:
            self._end_round()

        candidates: List[int] = []
        for selected in self._selected:
            if selected is None:
                continue
            target = offset + selected
            if 0 <= target < LINES_PER_PAGE:
                candidates.append((page << 12) | (target << 6))
        return candidates

    # ------------------------------------------------------------------ #

    def _record_access(self, page: int, offset: int) -> None:
        bitmap = self._access_maps.get(page, 0)
        self._access_maps[page] = bitmap | (1 << offset)
        self._access_maps.move_to_end(page)
        if len(self._access_maps) > self.map_size:
            self._access_maps.popitem(last=False)
        self._history.append((page, offset))

    def _score_access(self, page: int, offset: int) -> None:
        """Score each candidate offset: would prefetching line-offset have covered this access?"""
        bitmap = self._access_maps.get(page)
        if bitmap is None:
            return
        for level in range(self.num_lookaheads):
            scores = self._scores[level]
            for candidate in self.CANDIDATE_OFFSETS:
                source = offset - candidate * (level + 1)
                if 0 <= source < LINES_PER_PAGE and bitmap & (1 << source):
                    scores[candidate] += 1

    def _end_round(self) -> None:
        self._accesses_in_round = 0
        threshold = max(4, self.round_length // 16)
        for level in range(self.num_lookaheads):
            scores = self._scores[level]
            best_offset = max(scores, key=scores.get)
            self._selected[level] = best_offset if scores[best_offset] >= threshold else None
            self._scores[level] = dict.fromkeys(self.CANDIDATE_OFFSETS, 0)

    def storage_bits(self) -> int:
        # Paper Table 6: MLOP = 8 KB.
        return 8 * 1024 * 8
