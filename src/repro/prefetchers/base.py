"""Prefetcher base class and trivial prefetchers.

A prefetcher observes every demand access reaching the LLC (the paper
places its prefetchers at the LLC, Table 4) and returns a list of byte
addresses to prefetch.  The cache hierarchy decides whether each candidate
actually generates a main-memory request (it may already be cached or in
flight).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List

from repro.memory.address import BLOCK_SIZE, block_address, page_number
from repro.prefetchers.registry import register_prefetcher

#: Shared empty candidate list — hot paths return it instead of allocating
#: a fresh empty list per access (callers never mutate candidate lists).
_NO_CANDIDATES: List[int] = []


@dataclass(slots=True)
class PrefetcherStats:
    """Issue-side statistics; usefulness is tracked by the caches."""

    accesses_observed: int = 0
    candidates_issued: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "accesses_observed": self.accesses_observed,
            "candidates_issued": self.candidates_issued,
        }


class Prefetcher(ABC):
    """Abstract LLC prefetcher."""

    #: Human-readable identifier used by the factory and experiment tables.
    name: str = "base"

    def __init__(self) -> None:
        self.stats = PrefetcherStats()

    def on_demand_access(self, address: int, pc: int, cycle: int,
                         hit: bool) -> List[int]:
        """Observe a demand access and return prefetch candidate addresses."""
        self.stats.accesses_observed += 1
        candidates = self._generate(address, pc, cycle, hit)
        self.stats.candidates_issued += len(candidates)
        return candidates

    @abstractmethod
    def _generate(self, address: int, pc: int, cycle: int, hit: bool) -> List[int]:
        """Produce prefetch candidates for this access."""

    def storage_bits(self) -> int:
        """Metadata storage required by this prefetcher, in bits.

        Used to reproduce Table 6.  Subclasses report the figure from the
        paper's Table 6 when the paper specifies one.
        """
        return 0

    @property
    def storage_kb(self) -> float:
        return self.storage_bits() / 8 / 1024

    @staticmethod
    def _clamp_to_page(base_address: int, candidates: List[int]) -> List[int]:
        return [c for c in candidates
                if c >= 0 and page_number(base_address) == page_number(c)]


@register_prefetcher("none")
class NoPrefetcher(Prefetcher):
    """The no-prefetching baseline every speedup in the paper is normalised to."""

    name = "none"

    def _generate(self, address: int, pc: int, cycle: int, hit: bool) -> List[int]:
        return _NO_CANDIDATES


@register_prefetcher("next_line")
class NextLinePrefetcher(Prefetcher):
    """Prefetch the next ``degree`` sequential cachelines on every access."""

    name = "next_line"

    def __init__(self, degree: int = 1) -> None:
        super().__init__()
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.degree = degree

    def _generate(self, address: int, pc: int, cycle: int, hit: bool) -> List[int]:
        base = block_address(address)
        candidates = [base + (i + 1) * BLOCK_SIZE for i in range(self.degree)]
        return self._clamp_to_page(address, candidates)

    def storage_bits(self) -> int:
        return 0
