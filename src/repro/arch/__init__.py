"""Architectural (functional) execution and contract observations.

This package implements the sequential execution model of the ISA: the
architectural state, a functional executor that produces both the dynamic
instruction stream (per-branch outcomes for the branch analysis and the
lowered trace the timing model replays) and the contract-level observation
trace of the paper's ⟦·⟧ct^seq leakage model (program counter, call/return,
and memory-address observations).
"""

from repro.arch.state import ArchState
from repro.arch.observations import Observation, ObservationKind
from repro.arch.executor import DynamicInstruction, ExecutionResult, SequentialExecutor

__all__ = [
    "ArchState",
    "Observation",
    "ObservationKind",
    "DynamicInstruction",
    "ExecutionResult",
    "SequentialExecutor",
]
