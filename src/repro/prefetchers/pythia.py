"""Pythia-like reinforcement-learning prefetcher [Bera+, MICRO'21].

Pythia formulates prefetching as a reinforcement-learning problem: the
*state* is a program feature vector (the open-sourced configuration uses
"PC + delta" and "cacheline delta sequence"), the *actions* are prefetch
offsets, and the *reward* encodes prefetch usefulness (accurate & timely,
accurate-late, inaccurate, no-prefetch) with extra penalties under memory
bandwidth pressure.  Q-values are stored in hashed "QVStores" — one table
per feature — and the action with the highest aggregated Q-value is taken.

This implementation keeps the same structure (two feature tables, an
offset action space, SARSA-style updates driven by delayed usefulness
feedback through an evaluation queue) while simplifying the bandwidth-
aware reward to a fixed penalty schedule.  That is sufficient for this
reproduction because the paper only relies on Pythia being a strong but
imperfect covering prefetcher: it covers regular delta patterns quickly
and leaves irregular off-chip loads uncovered, which is precisely the
residual population Hermes targets.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Tuple

from repro.memory.address import LINES_PER_PAGE, page_number
from repro.prefetchers.base import Prefetcher
from repro.prefetchers.registry import register_prefetcher

#: Prefetch offset action space (in cachelines); 0 means "do not prefetch".
ACTIONS: Tuple[int, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16, 32, -1, -2, -4, -8)

_REWARD_ACCURATE_TIMELY = 20
_REWARD_ACCURATE_LATE = 12
_REWARD_INACCURATE = -22
_REWARD_NO_PREFETCH = -2


@dataclass
class _PendingAction:
    """A prefetch decision awaiting its usefulness reward."""

    feature_pc_delta: int
    feature_delta_path: int
    action_index: int
    target_block: int
    issue_cycle: int


class _QVStore:
    """Hashed Q-value table for one program feature."""

    def __init__(self, table_size: int, num_actions: int,
                 learning_rate: float = 0.15) -> None:
        self.table_size = table_size
        self.num_actions = num_actions
        self.learning_rate = learning_rate
        self._table: List[List[float]] = [[0.0] * num_actions for _ in range(table_size)]

    def _index(self, feature: int) -> int:
        return (feature ^ (feature >> 11) ^ (feature >> 23)) & (self.table_size - 1)

    def q_values(self, feature: int) -> List[float]:
        return self._table[self._index(feature)]

    def update(self, feature: int, action_index: int, reward: float) -> None:
        row = self._table[self._index(feature)]
        row[action_index] += self.learning_rate * (reward - row[action_index])


@register_prefetcher("pythia")
class PythiaPrefetcher(Prefetcher):
    """Feature-driven RL prefetcher in the spirit of Pythia."""

    name = "pythia"

    def __init__(self, table_size: int = 1024, epsilon: float = 0.02,
                 evaluation_queue_size: int = 256, degree: int = 2,
                 issue_threshold: float = 1.0, seed: int = 12345) -> None:
        super().__init__()
        self.epsilon = epsilon
        self.degree = degree
        self.issue_threshold = issue_threshold
        self.evaluation_queue_size = evaluation_queue_size
        self._qv_pc_delta = _QVStore(table_size, len(ACTIONS))
        self._qv_delta_path = _QVStore(table_size, len(ACTIONS))
        # Per-page last offset and recent delta history (for the features).
        self._page_state: "OrderedDict[int, Tuple[int, int]]" = OrderedDict()
        # Evaluation queue: issued actions awaiting usefulness feedback.
        self._pending: Deque[_PendingAction] = deque()
        self._pending_blocks: Dict[int, _PendingAction] = {}
        self._rng_state = seed & 0x7FFFFFFF

    # ------------------------------------------------------------------ #
    # Tiny deterministic LCG so runs are reproducible without `random`.
    # ------------------------------------------------------------------ #

    def _rand(self) -> float:
        self._rng_state = (1103515245 * self._rng_state + 12345) & 0x7FFFFFFF
        return self._rng_state / 0x7FFFFFFF

    # ------------------------------------------------------------------ #

    def _features(self, pc: int, page: int, offset: int) -> Tuple[int, int, int]:
        state = self._page_state.get(page)
        if state is None:
            last_offset, delta_history = offset, 0
            delta = 0
        else:
            last_offset, delta_history = state
            delta = offset - last_offset
        new_history = ((delta_history << 7) ^ (delta & 0x7F)) & 0xFFFFF
        self._page_state[page] = (offset, new_history)
        self._page_state.move_to_end(page)
        if len(self._page_state) > 256:
            self._page_state.popitem(last=False)
        feature_pc_delta = ((pc & 0xFFFFF) << 7) ^ (delta & 0x7F)
        feature_delta_path = new_history
        return feature_pc_delta, feature_delta_path, delta

    def _select_action(self, feature_pc_delta: int, feature_delta_path: int) -> int:
        if self._rand() < self.epsilon:
            return int(self._rand() * len(ACTIONS)) % len(ACTIONS)
        q_pc = self._qv_pc_delta.q_values(feature_pc_delta)
        q_path = self._qv_delta_path.q_values(feature_delta_path)
        best_index = 0
        best_value = float("-inf")
        for index in range(len(ACTIONS)):
            value = q_pc[index] + q_path[index]
            if value > best_value:
                best_value = value
                best_index = index
        # Only issue a prefetch when there is positive evidence for the
        # action; otherwise fall back to no-prefetch.  This mirrors Pythia's
        # bandwidth-aware reward shaping, which suppresses prefetching for
        # contexts that never produce accurate prefetches.
        if best_index != 0 and best_value < self.issue_threshold:
            return 0
        return best_index

    # ------------------------------------------------------------------ #

    def _generate(self, address: int, pc: int, cycle: int, hit: bool) -> List[int]:
        page = page_number(address)
        offset = (address >> 6) & (LINES_PER_PAGE - 1)
        block = address >> 6

        # Reward any pending action whose predicted block is now demanded.
        pending = self._pending_blocks.pop(block, None)
        if pending is not None:
            late = (cycle - pending.issue_cycle) < 60
            reward = _REWARD_ACCURATE_LATE if late else _REWARD_ACCURATE_TIMELY
            self._reward(pending, reward)

        feature_pc_delta, feature_delta_path, _ = self._features(pc, page, offset)
        action_index = self._select_action(feature_pc_delta, feature_delta_path)
        action_offset = ACTIONS[action_index]

        self._expire_old_pending(cycle)

        candidates: List[int] = []
        if action_offset == 0:
            # Mild negative reward keeps the no-prefetch action from being sticky.
            self._qv_pc_delta.update(feature_pc_delta, action_index, _REWARD_NO_PREFETCH)
            self._qv_delta_path.update(feature_delta_path, action_index, _REWARD_NO_PREFETCH)
            return candidates

        for step in range(1, self.degree + 1):
            target_offset = offset + action_offset * step
            if target_offset < 0 or target_offset >= LINES_PER_PAGE:
                break
            target_address = (page << 12) | (target_offset << 6)
            target_block = target_address >> 6
            candidates.append(target_address)
            action = _PendingAction(feature_pc_delta, feature_delta_path,
                                    action_index, target_block, cycle)
            if len(self._pending) >= self.evaluation_queue_size:
                # The oldest pending action leaves the evaluation queue
                # without having been demanded: treat it as inaccurate.
                self._discard_oldest_pending()
            self._pending.append(action)
            self._pending_blocks[target_block] = action
        return candidates

    def _discard_oldest_pending(self) -> None:
        stale = self._pending.popleft()
        if self._pending_blocks.get(stale.target_block) is stale:
            del self._pending_blocks[stale.target_block]
            self._reward(stale, _REWARD_INACCURATE)

    def _expire_old_pending(self, cycle: int) -> None:
        # Actions that have waited too long without being demanded were
        # inaccurate prefetches: penalise them.
        while self._pending and (cycle - self._pending[0].issue_cycle) > 4096:
            stale = self._pending.popleft()
            if self._pending_blocks.get(stale.target_block) is stale:
                del self._pending_blocks[stale.target_block]
                self._reward(stale, _REWARD_INACCURATE)

    def _reward(self, action: _PendingAction, reward: float) -> None:
        self._qv_pc_delta.update(action.feature_pc_delta, action.action_index, reward)
        self._qv_delta_path.update(action.feature_delta_path, action.action_index, reward)

    def storage_bits(self) -> int:
        # Paper Table 6: Pythia = 25.5 KB.
        return int(25.5 * 1024 * 8)
