"""The Branch Trace Unit (Section 5 of the paper).

The BTU holds, per resident static branch, one Pattern Table entry, one Trace
Cache entry, and one Checkpoint Table entry.  During the crypto fetch flow it
supplies the next target for a crypto branch by replaying the branch's
compressed trace; on a miss the trace is loaded from its data page (charged
as :attr:`~repro.uarch.config.BtuConfig.miss_latency` cycles) and on long
traces the upcoming elements are prefetched as the head elements commit.

The timing model drives the BTU only along the architecturally correct path
(the trace-driven design never fetches wrong-path instructions), so the
checkpointed commit state is used for eviction/flush recovery rather than for
squash rollback; squash recovery is exercised separately by the formal model
in :mod:`repro.formal.hardware`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.hints import HintTable
from repro.analysis.representation import HardwareTrace
from repro.uarch.config import BtuConfig


@dataclass
class BtuStats:
    """Activity counters for the Branch Trace Unit."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefetches: int = 0
    flushes: int = 0
    replay_wraps: int = 0


@dataclass
class BtuLookup:
    """Result of a crypto-branch lookup in the BTU."""

    target: int
    hit: bool
    extra_latency: int = 0
    prefetched: bool = False


@dataclass
class _ReplayState:
    """Replay progress of one branch, persistent across evictions (the CPT
    backing store in data pages)."""

    targets: List[int]
    element_ids: List[int]
    position: int = 0
    committed_position: int = 0

    def current(self) -> Tuple[int, int]:
        index = self.position % len(self.targets)
        return self.targets[index], self.element_ids[index]

    def advance(self) -> bool:
        """Move to the next target; returns True when the trace wrapped."""
        self.position += 1
        return self.position % len(self.targets) == 0


class BranchTraceUnit:
    """Replay engine for pre-computed sequential branch traces."""

    def __init__(
        self,
        config: BtuConfig,
        traces: Dict[int, HardwareTrace],
        hint_table: Optional[HintTable] = None,
    ) -> None:
        self.config = config
        self.hint_table = hint_table
        self.stats = BtuStats()
        self._states: Dict[int, _ReplayState] = {}
        self._resident: List[int] = []  # LRU order, most recent last
        for branch_pc, trace in traces.items():
            targets = trace.replay()
            if not targets:
                continue
            element_ids = self._element_ids(trace)
            self._states[branch_pc] = _ReplayState(targets=targets, element_ids=element_ids)
        self._long_trace: Dict[int, bool] = {
            pc: not trace.is_short_trace for pc, trace in traces.items()
        }

    @staticmethod
    def _element_ids(trace: HardwareTrace) -> List[int]:
        """Map each replayed target to the trace-element index that produced it."""
        ids: List[int] = []
        for element_index, element in enumerate(trace.trace_elements):
            if element.end_of_trace:
                continue
            window = trace.pattern_window(element)
            per_iteration = sum(p.repetitions for p in window)
            ids.extend([element_index] * (per_iteration * element.trace_counter))
        return ids

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def has_trace(self, branch_pc: int) -> bool:
        return branch_pc in self._states

    # ------------------------------------------------------------------ #
    # Crypto fetch flow
    # ------------------------------------------------------------------ #
    def lookup(self, branch_pc: int) -> BtuLookup:
        """Return the next enforced target for ``branch_pc``.

        Raises ``KeyError`` when the branch has no recorded trace (the caller
        must fall back to a fetch stall, per Section 4.3).
        """
        state = self._states[branch_pc]
        self.stats.lookups += 1

        extra_latency = 0
        hit = branch_pc in self._resident
        if hit:
            self.stats.hits += 1
            self._resident.remove(branch_pc)
            self._resident.append(branch_pc)
        else:
            self.stats.misses += 1
            extra_latency += self.config.miss_latency
            self._install(branch_pc)

        target, element_id = state.current()
        prefetched = False
        # Long traces shift/prefetch once the replay advances past the
        # elements resident in the single Trace Cache entry.
        if self._long_trace.get(branch_pc, False) and element_id >= self.config.elements_per_entry:
            if element_id % self.config.elements_per_entry == 0:
                prefetched = True
                self.stats.prefetches += 1
                extra_latency += self.config.prefetch_latency
        if state.advance():
            self.stats.replay_wraps += 1
        return BtuLookup(target=target, hit=hit, extra_latency=extra_latency, prefetched=prefetched)

    def commit(self, branch_pc: int) -> None:
        """Record committed progress in the Checkpoint Table."""
        state = self._states.get(branch_pc)
        if state is not None:
            state.committed_position = state.position

    def squash(self, branch_pc: int) -> None:
        """Undo fetch-flow progress back to the committed checkpoint."""
        state = self._states.get(branch_pc)
        if state is not None:
            state.position = state.committed_position

    # ------------------------------------------------------------------ #
    # Residency management
    # ------------------------------------------------------------------ #
    def _install(self, branch_pc: int) -> None:
        if len(self._resident) >= self.config.entries:
            evicted = self._resident.pop(0)
            self.stats.evictions += 1
            # The evicted branch's checkpoint is written back to memory; its
            # replay position is preserved in ``_states``.
            self.commit(evicted)
        self._resident.append(branch_pc)

    def flush(self) -> None:
        """Flush residency (context switch between crypto applications, Q4)."""
        self.stats.flushes += 1
        for branch_pc in self._resident:
            self.commit(branch_pc)
        self._resident.clear()

    # ------------------------------------------------------------------ #
    # Warm-state snapshot / restore (shared warm-up across policies)
    # ------------------------------------------------------------------ #
    def replay_data(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]], Dict[int, bool]]:
        """The immutable replay payload the generated kernels share.

        Returns ``(targets, element_ids, long_trace)`` keyed by branch PC —
        exactly the per-branch data this unit decompressed in its
        constructor.  The lists are the unit's own (they are never mutated
        after construction), so extracting them once per workload lets every
        simulation point reuse the expensive
        :meth:`~BranchTraceUnit._element_ids` walk instead of re-running it
        per point.
        """
        return (
            {pc: state.targets for pc, state in self._states.items()},
            {pc: state.element_ids for pc, state in self._states.items()},
            dict(self._long_trace),
        )

    def snapshot_state(self) -> Tuple[Dict[int, Tuple[int, int]], List[int]]:
        """Replay positions + residency; the (immutable) targets are shared."""
        positions = {
            pc: (state.position, state.committed_position)
            for pc, state in self._states.items()
        }
        return positions, list(self._resident)

    def restore_state(self, snapshot: Tuple[Dict[int, Tuple[int, int]], List[int]]) -> None:
        positions, resident = snapshot
        for pc, (position, committed) in positions.items():
            state = self._states[pc]
            state.position = position
            state.committed_position = committed
        self._resident = list(resident)

    def reset_stats(self) -> None:
        self.stats = BtuStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def occupancy(self) -> int:
        return len(self._resident)

    def reset_replay(self) -> None:
        """Reset all replay positions (start of a fresh program run)."""
        for state in self._states.values():
            state.position = 0
            state.committed_position = 0
        self._resident.clear()
