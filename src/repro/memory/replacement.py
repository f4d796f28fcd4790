"""Cache replacement policies.

The paper's LLC uses SHiP [Wu+, MICRO'11]; L1/L2 use LRU (Table 4).  We
implement LRU, SRRIP, SHiP and Random behind a common interface so any
cache level can be configured with any policy, and so the ablation
benchmarks can swap the LLC policy.

A policy instance manages *one cache* (all of its sets).  The cache calls
``on_fill``, ``on_hit`` and ``victim`` with (set_index, way, pc, address)
so policies that learn from program behaviour (SHiP) have what they need.

All per-way policy state lives in flat preallocated lists indexed by
``set_index * ways + way`` (matching the cache's flat tag store), so the
per-access update paths are single-index operations with no nested-list
chasing and no allocation.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence


class ReplacementPolicy(ABC):
    """Abstract replacement policy for a set-associative cache."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        if num_sets <= 0 or num_ways <= 0:
            raise ValueError("num_sets and num_ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self._all_valid = (True,) * num_ways

    @abstractmethod
    def victim(self, set_index: int, valid: Sequence[bool]) -> int:
        """Return the way to evict in ``set_index``.

        ``valid`` is the per-way valid sequence; policies should prefer an
        invalid way when one exists.
        """

    def victim_full(self, set_index: int) -> int:
        """Victim selection for a set known to be full (hot path).

        The cache resolves invalid ways itself, so on the fill path this
        is called instead of :meth:`victim` and subclasses override it to
        skip the invalid-way scan.  The default delegates to ``victim``.
        """
        return self.victim(set_index, self._all_valid)

    def evict_fill_full(self, set_index: int, pc: int,
                        is_prefetch: bool) -> int:
        """Fused victim + on_eviction + on_fill for a full set (hot path).

        One policy call instead of three on the steady-state fill path.
        Only valid for the built-in policies (which never read the
        evicted block's address); :class:`~repro.memory.cache.Cache`
        falls back to the three-call sequence for anything else.  The
        sequencing (victim chosen, eviction accounted, fill accounted)
        matches the cache's unfused order exactly — policy state never
        depends on the interleaved cache-state updates.
        """
        raise NotImplementedError

    @abstractmethod
    def on_fill(self, set_index: int, way: int, pc: int, address: int,
                is_prefetch: bool = False) -> None:
        """Notify that ``way`` of ``set_index`` was filled."""

    @abstractmethod
    def on_hit(self, set_index: int, way: int, pc: int, address: int) -> None:
        """Notify of a demand hit on ``way`` of ``set_index``."""

    def on_eviction(self, set_index: int, way: int, address: int,
                    was_reused: bool) -> None:
        """Notify that ``way`` of ``set_index`` was evicted (optional hook)."""

    def _first_invalid(self, valid: Sequence[bool]) -> Optional[int]:
        for way, is_valid in enumerate(valid):
            if not is_valid:
                return way
        return None


class LRUPolicy(ReplacementPolicy):
    """Classic least-recently-used replacement."""

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        # Higher value == more recently used; flat, indexed set*ways+way.
        self._age: List[int] = [0] * (num_sets * num_ways)
        self._clock: List[int] = [0] * num_sets

    def victim(self, set_index: int, valid: Sequence[bool]) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self.victim_full(set_index)

    def victim_full(self, set_index: int) -> int:
        ages = self._age
        base = set_index * self.num_ways
        end = base + self.num_ways
        # C-level scan: min() + index() return the first minimum, exactly
        # like an explicit first-minimum loop.
        return ages.index(min(ages[base:end]), base, end) - base

    def evict_fill_full(self, set_index: int, pc: int,
                        is_prefetch: bool) -> int:
        ages = self._age
        base = set_index * self.num_ways
        end = base + self.num_ways
        slot = ages.index(min(ages[base:end]), base, end)
        clock = self._clock[set_index] + 1
        self._clock[set_index] = clock
        ages[slot] = clock
        return slot - base

    def on_fill(self, set_index: int, way: int, pc: int, address: int,
                is_prefetch: bool = False) -> None:
        clock = self._clock[set_index] + 1
        self._clock[set_index] = clock
        self._age[set_index * self.num_ways + way] = clock

    def on_hit(self, set_index: int, way: int, pc: int, address: int) -> None:
        clock = self._clock[set_index] + 1
        self._clock[set_index] = clock
        self._age[set_index * self.num_ways + way] = clock


class RandomPolicy(ReplacementPolicy):
    """Random replacement (useful as a lower bound and in property tests)."""

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0) -> None:
        super().__init__(num_sets, num_ways)
        self._rng = random.Random(seed)

    def victim(self, set_index: int, valid: Sequence[bool]) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self.victim_full(set_index)

    def victim_full(self, set_index: int) -> int:
        return self._rng.randrange(self.num_ways)

    def evict_fill_full(self, set_index: int, pc: int,
                        is_prefetch: bool) -> int:
        return self._rng.randrange(self.num_ways)

    def on_fill(self, set_index: int, way: int, pc: int, address: int,
                is_prefetch: bool = False) -> None:
        return None

    def on_hit(self, set_index: int, way: int, pc: int, address: int) -> None:
        return None


class SRRIPPolicy(ReplacementPolicy):
    """Static re-reference interval prediction (SRRIP) [Jaleel+, ISCA'10]."""

    MAX_RRPV = 3

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        self._rrpv: List[int] = [self.MAX_RRPV] * (num_sets * num_ways)

    def victim(self, set_index: int, valid: Sequence[bool]) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self.victim_full(set_index)

    def victim_full(self, set_index: int) -> int:
        rrpvs = self._rrpv
        base = set_index * self.num_ways
        while True:
            for way in range(self.num_ways):
                if rrpvs[base + way] >= self.MAX_RRPV:
                    return way
            for way in range(self.num_ways):
                rrpvs[base + way] += 1

    def evict_fill_full(self, set_index: int, pc: int,
                        is_prefetch: bool) -> int:
        way = self.victim_full(set_index)
        self._rrpv[set_index * self.num_ways + way] = (
            self.MAX_RRPV - 1 if not is_prefetch else self.MAX_RRPV)
        return way

    def on_fill(self, set_index: int, way: int, pc: int, address: int,
                is_prefetch: bool = False) -> None:
        # Long re-reference interval on insertion; prefetches inserted with
        # distant RRPV so inaccurate prefetches are evicted first.
        self._rrpv[set_index * self.num_ways + way] = (
            self.MAX_RRPV - 1 if not is_prefetch else self.MAX_RRPV)

    def on_hit(self, set_index: int, way: int, pc: int, address: int) -> None:
        self._rrpv[set_index * self.num_ways + way] = 0


class SHiPPolicy(ReplacementPolicy):
    """Signature-based hit predictor (SHiP) replacement [Wu+, MICRO'11].

    SHiP keeps a table of 2-bit counters indexed by a hash of the filling
    PC ("signature").  Lines filled by PCs whose past fills were never
    reused are inserted with a distant re-reference prediction so they are
    evicted quickly; lines from reused signatures are inserted closer.
    This is the paper's baseline LLC policy (Table 4).
    """

    MAX_RRPV = 3
    SHCT_SIZE = 16384
    SHCT_MAX = 3

    def __init__(self, num_sets: int, num_ways: int) -> None:
        super().__init__(num_sets, num_ways)
        capacity = num_sets * num_ways
        self._rrpv: List[int] = [self.MAX_RRPV] * capacity
        self._signature: List[int] = [0] * capacity
        self._reused = bytearray(capacity)
        self._shct: List[int] = [1] * self.SHCT_SIZE

    def victim(self, set_index: int, valid: Sequence[bool]) -> int:
        invalid = self._first_invalid(valid)
        if invalid is not None:
            return invalid
        return self.victim_full(set_index)

    def victim_full(self, set_index: int) -> int:
        rrpvs = self._rrpv
        base = set_index * self.num_ways
        while True:
            for way in range(self.num_ways):
                if rrpvs[base + way] >= self.MAX_RRPV:
                    return way
            for way in range(self.num_ways):
                rrpvs[base + way] += 1

    def evict_fill_full(self, set_index: int, pc: int,
                        is_prefetch: bool) -> int:
        # Fused victim + on_eviction + on_fill (SHiP never reads the
        # evicted block's address, only its own per-way state).
        num_ways = self.num_ways
        rrpvs = self._rrpv
        base = set_index * num_ways
        max_rrpv = self.MAX_RRPV
        while True:
            way = 0
            found = -1
            for way in range(num_ways):
                if rrpvs[base + way] >= max_rrpv:
                    found = way
                    break
            if found >= 0:
                break
            for way in range(num_ways):
                rrpvs[base + way] += 1
        slot = base + found
        shct = self._shct
        reused = self._reused
        if not reused[slot]:
            old_sig = self._signature[slot]
            if shct[old_sig] > 0:
                shct[old_sig] -= 1
        sig = (pc ^ (pc >> 14)) & (self.SHCT_SIZE - 1)
        self._signature[slot] = sig
        reused[slot] = 0
        rrpvs[slot] = max_rrpv if shct[sig] == 0 else max_rrpv - 1
        return found

    def on_fill(self, set_index: int, way: int, pc: int, address: int,
                is_prefetch: bool = False) -> None:
        slot = set_index * self.num_ways + way
        sig = (pc ^ (pc >> 14)) & (self.SHCT_SIZE - 1)
        self._signature[slot] = sig
        self._reused[slot] = 0
        if self._shct[sig] == 0:
            self._rrpv[slot] = self.MAX_RRPV
        else:
            self._rrpv[slot] = self.MAX_RRPV - 1

    def on_hit(self, set_index: int, way: int, pc: int, address: int) -> None:
        slot = set_index * self.num_ways + way
        self._rrpv[slot] = 0
        if not self._reused[slot]:
            self._reused[slot] = 1
            sig = self._signature[slot]
            if self._shct[sig] < self.SHCT_MAX:
                self._shct[sig] += 1

    def on_eviction(self, set_index: int, way: int, address: int,
                    was_reused: bool) -> None:
        slot = set_index * self.num_ways + way
        if not self._reused[slot]:
            sig = self._signature[slot]
            if self._shct[sig] > 0:
                self._shct[sig] -= 1


_POLICIES = {
    "lru": LRUPolicy,
    "random": RandomPolicy,
    "srrip": SRRIPPolicy,
    "ship": SHiPPolicy,
}


def make_replacement_policy(name: str, num_sets: int, num_ways: int) -> ReplacementPolicy:
    """Create a replacement policy by name (``lru``/``random``/``srrip``/``ship``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError as exc:
        raise ValueError(
            f"unknown replacement policy {name!r}; expected one of {sorted(_POLICIES)}"
        ) from exc
    return cls(num_sets, num_ways)
