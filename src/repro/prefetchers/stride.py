"""Per-PC stride prefetcher and region streamer.

These are not headline prefetchers in the paper, but they are the
classical building blocks (Baer/Chen-style stride detection, Jouppi-style
stream buffers) that the unit tests and ablation benchmarks use, and they
give the workload generators a second class of "easy" pattern coverage to
validate against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from repro.memory.address import BLOCK_SIZE, block_address, block_number, page_number
from repro.prefetchers.base import Prefetcher, _NO_CANDIDATES
from repro.prefetchers.registry import register_prefetcher


@dataclass
class _StrideEntry:
    last_block: int
    stride: int = 0
    confidence: int = 0


@register_prefetcher("stride")
class StridePrefetcher(Prefetcher):
    """Classic per-PC stride prefetcher with 2-bit confidence."""

    name = "stride"

    def __init__(self, table_size: int = 256, degree: int = 4,
                 confidence_threshold: int = 2) -> None:
        super().__init__()
        self.table_size = table_size
        self.degree = degree
        self.confidence_threshold = confidence_threshold
        self._table: "OrderedDict[int, _StrideEntry]" = OrderedDict()

    def _generate(self, address: int, pc: int, cycle: int, hit: bool) -> List[int]:
        block = block_number(address)
        entry = self._table.get(pc)
        candidates: List[int] = []
        if entry is None:
            self._insert(pc, _StrideEntry(last_block=block))
            return candidates
        stride = block - entry.last_block
        if stride == entry.stride and stride != 0:
            entry.confidence = min(entry.confidence + 1, 3)
        else:
            entry.confidence = max(entry.confidence - 1, 0)
            if entry.confidence == 0:
                entry.stride = stride
        entry.last_block = block
        self._table.move_to_end(pc)
        if entry.confidence >= self.confidence_threshold and entry.stride != 0:
            for i in range(1, self.degree + 1):
                candidate = (block + i * entry.stride) * BLOCK_SIZE
                if candidate >= 0 and page_number(candidate) == page_number(address):
                    candidates.append(candidate)
        return candidates

    def _insert(self, pc: int, entry: _StrideEntry) -> None:
        if len(self._table) >= self.table_size:
            self._table.popitem(last=False)
        self._table[pc] = entry

    def storage_bits(self) -> int:
        # tag(16) + last block(32) + stride(12) + confidence(2) per entry
        return self.table_size * (16 + 32 + 12 + 2)


@register_prefetcher("streamer")
class StreamerPrefetcher(Prefetcher):
    """Region-based streamer: detects ascending/descending streams per 4 KB page."""

    name = "streamer"

    def __init__(self, table_size: int = 64, degree: int = 4) -> None:
        super().__init__()
        self.table_size = table_size
        self.degree = degree
        # page -> (last offset, direction, confidence)
        self._regions: "OrderedDict[int, List[int]]" = OrderedDict()

    def _generate(self, address: int, pc: int, cycle: int, hit: bool) -> List[int]:
        page = page_number(address)
        offset = (address >> 6) & 0x3F
        entry = self._regions.get(page)
        if entry is None:
            if len(self._regions) >= self.table_size:
                self._regions.popitem(last=False)
            self._regions[page] = [offset, 0, 0]
            return _NO_CANDIDATES
        last_offset, direction, confidence = entry
        new_direction = 1 if offset > last_offset else (-1 if offset < last_offset else 0)
        if new_direction != 0 and new_direction == direction:
            confidence = min(confidence + 1, 3)
        elif new_direction != 0:
            direction = new_direction
            confidence = 1
        entry[0], entry[1], entry[2] = offset, direction, confidence
        self._regions.move_to_end(page)
        if confidence < 2 or direction == 0:
            return _NO_CANDIDATES
        base = block_address(address)
        candidates = [base + direction * i * BLOCK_SIZE for i in range(1, self.degree + 1)]
        return self._clamp_to_page(address, candidates)

    def storage_bits(self) -> int:
        # page tag(36) + offset(6) + direction(2) + confidence(2)
        return self.table_size * (36 + 6 + 2 + 2)
