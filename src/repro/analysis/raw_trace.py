"""Raw branch trace collection (step 1 of the paper's Figure 1).

A *raw trace* of a static branch is the sequence of target PCs observed each
time the branch executes, in execution order; for not-taken conditional
branches the fall-through PC (branch PC + 1) is logged, exactly as the paper
does with Intel Pin.  Here the role of Pin is played by the sequential
executor, which already records one ``next_pc`` per dynamic branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.executor import ExecutionResult, SequentialExecutor
from repro.isa.program import Program


@dataclass(frozen=True)
class RawTrace:
    """The raw outcome trace of one static branch."""

    branch_pc: int
    targets: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def unique_targets(self) -> tuple[int, ...]:
        """Distinct target PCs, in first-appearance order."""
        seen: Dict[int, None] = {}
        for target in self.targets:
            seen.setdefault(target, None)
        return tuple(seen.keys())

    @property
    def is_single_target(self) -> bool:
        """True when the branch always resolves to the same target."""
        return len(self.unique_targets) <= 1


def collect_raw_traces(
    program: Program,
    result: Optional[ExecutionResult] = None,
    memory_overrides: Optional[Dict[int, int]] = None,
    crypto_only: bool = True,
    executor: Optional[SequentialExecutor] = None,
) -> Dict[int, RawTrace]:
    """Collect raw traces for every static branch that executed.

    Parameters
    ----------
    program:
        The program to analyse.
    result:
        A pre-computed sequential run; when omitted the program is executed
        here (optionally with ``memory_overrides`` applied).
    crypto_only:
        When True (the default, matching the paper) only branches inside
        crypto PC ranges are returned.
    """
    if result is None:
        executor = executor or SequentialExecutor()
        result = executor.run(program, memory_overrides=memory_overrides)

    traces: Dict[int, RawTrace] = {}
    for branch_pc, targets in result.branch_outcomes.items():
        if crypto_only and not program.is_crypto_pc(branch_pc):
            continue
        traces[branch_pc] = RawTrace(branch_pc=branch_pc, targets=tuple(targets))
    return traces
