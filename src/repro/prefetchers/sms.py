"""Spatial Memory Streaming (SMS) prefetcher [Somogyi+, ISCA'06].

SMS learns, per (PC, spatial-region offset) trigger, the *footprint* of
cachelines a program touches within a spatial region (here, a 4 KB page).
When the same trigger recurs in a new region, SMS prefetches the recorded
footprint.

The implementation uses the classic two-table organisation:

* an *active generation table* (AGT) accumulating the footprint of regions
  currently being accessed, and
* a *pattern history table* (PHT) storing completed footprints keyed by
  the trigger signature.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List

from repro.memory.address import LINES_PER_PAGE, page_number
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.registry import register_prefetcher


@dataclass
class _ActiveRegion:
    trigger_signature: int
    footprint: int = 0  # bitmap over the 64 lines in the region
    accesses: int = 0


@register_prefetcher("sms")
class SMSPrefetcher(Prefetcher):
    """Spatial Memory Streaming prefetcher."""

    name = "sms"

    def __init__(self, active_regions: int = 64, pht_size: int = 2048,
                 max_prefetches: int = 8) -> None:
        super().__init__()
        self.active_regions = active_regions
        self.pht_size = pht_size
        self.max_prefetches = max_prefetches
        self._agt: "OrderedDict[int, _ActiveRegion]" = OrderedDict()
        self._pht: "OrderedDict[int, int]" = OrderedDict()

    @staticmethod
    def _signature(pc: int, offset: int) -> int:
        return ((pc << 6) | offset) & 0xFFFFFFFF

    def _generate(self, address: int, pc: int, cycle: int, hit: bool) -> List[int]:
        page = page_number(address)
        offset = (address >> 6) & (LINES_PER_PAGE - 1)
        region = self._agt.get(page)
        candidates: List[int] = []

        if region is None:
            # A new spatial generation begins: evict the oldest active region
            # into the PHT and look up the predicted footprint for this trigger.
            signature = self._signature(pc, offset)
            if len(self._agt) >= self.active_regions:
                old_page, old_region = self._agt.popitem(last=False)
                self._store_footprint(old_region)
            region = _ActiveRegion(trigger_signature=signature)
            self._agt[page] = region
            predicted = self._pht.get(signature)
            if predicted:
                self._pht.move_to_end(signature)
                candidates = self._footprint_to_addresses(page, predicted, offset)
        else:
            self._agt.move_to_end(page)

        region.footprint |= (1 << offset)
        region.accesses += 1
        return candidates

    def _store_footprint(self, region: _ActiveRegion) -> None:
        if region.accesses < 2:
            return
        if len(self._pht) >= self.pht_size:
            self._pht.popitem(last=False)
        self._pht[region.trigger_signature] = region.footprint

    def _footprint_to_addresses(self, page: int, footprint: int,
                                trigger_offset: int) -> List[int]:
        addresses: List[int] = []
        for line in range(LINES_PER_PAGE):
            if line == trigger_offset:
                continue
            if footprint & (1 << line):
                addresses.append((page << 12) | (line << 6))
                if len(addresses) >= self.max_prefetches:
                    break
        return addresses

    def storage_bits(self) -> int:
        # Paper Table 6: SMS = 20 KB.
        return 20 * 1024 * 8
