"""Speculative hardware semantics with an attacker-controlled predictor.

This is the execution-driven counterpart of the timing model: it really
executes wrong-path instructions (on a copy of the architectural state) and
records their attacker-visible observations, which is what the security
analysis needs.  Two semantics are provided:

* ``unsafe`` — any branch may be steered by the attacker to an arbitrary
  transient target (modelling full control over the PHT/BTB/RSB, as in the
  Pathfinder-style attacks the paper cites);
* ``cassandra`` — crypto branches follow the sequential contract trace (the
  BTU replay), so they can never be steered, and non-crypto branches whose
  steered target lies inside a crypto PC range are blocked by the integrity
  check (Section 5.3); everything else may still speculate.

The attacker observes the ⟦·⟧ct leakage of both committed and transient
execution: program counters, memory addresses, and explicit ``leak``
transmitter values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Tuple

from repro.arch.executor import ExecutionError, SequentialExecutor
from repro.arch.observations import Observation, ObservationKind
from repro.arch.state import ArchState
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program

MemoryInput = Mapping[int, int]

#: An attacker strategy maps (branch PC, instruction, correct next PC) to a
#: transient target to steer fetch to, or None to leave the branch alone.
AttackerStrategy = Callable[[int, Instruction, int], Optional[int]]


@dataclass(frozen=True)
class HardwareObservation:
    """One attacker-visible event of a speculative run."""

    kind: ObservationKind
    value: int
    transient: bool
    crypto: bool
    pc: int

    def key(self) -> Tuple[str, int, bool]:
        return (self.kind.value, self.value, self.transient)


@dataclass
class SpeculativeRun:
    """The result of running a program on the speculative machine."""

    observations: List[HardwareObservation] = field(default_factory=list)
    squashes: int = 0
    transient_instructions: int = 0
    state: Optional[ArchState] = None

    def attacker_view(self) -> List[Tuple[str, int, bool]]:
        """The trace an attacker compares across runs.

        Committed (non-transient) ``leak`` observations are the program's
        intended, declassified outputs — constant-time indistinguishability
        is defined up to declassified outputs, so they are excluded from the
        comparison.  Every transient observation and every committed
        control-flow / memory-address observation is included.
        """
        return [
            obs.key()
            for obs in self.observations
            if obs.transient or obs.kind is not ObservationKind.LEAK
        ]


class SpeculativeMachine:
    """Execution-driven machine with attacker-directed misspeculation."""

    def __init__(
        self,
        mode: str = "unsafe",
        speculation_window: int = 48,
        max_steps: int = 500_000,
    ) -> None:
        if mode not in ("unsafe", "cassandra"):
            raise ValueError("mode must be 'unsafe' or 'cassandra'")
        self.mode = mode
        self.speculation_window = speculation_window
        self.max_steps = max_steps
        self._executor = SequentialExecutor(max_steps=max_steps, record_dynamic=False)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(
        self,
        program: Program,
        memory_overrides: Optional[MemoryInput] = None,
        attacker: Optional[AttackerStrategy] = None,
    ) -> SpeculativeRun:
        state = ArchState(pc=program.entry)
        state.memory.update(program.initial_memory)
        if memory_overrides:
            state.memory.update(memory_overrides)
        state.mark_secret_addresses(program.secret_addresses)

        run = SpeculativeRun()
        steps = 0
        while not state.halted:
            if steps >= self.max_steps:
                raise ExecutionError("speculative machine exceeded its step budget")
            pc = state.pc
            instruction = program.fetch(pc)

            if instruction.is_branch and attacker is not None:
                self._maybe_speculate(program, state, instruction, pc, attacker, run)

            observations: List[Observation] = []
            self._executor._step(program, state, instruction, pc, steps, observations)
            for obs in observations:
                run.observations.append(
                    HardwareObservation(
                        kind=obs.kind,
                        value=obs.value,
                        transient=False,
                        crypto=obs.crypto,
                        pc=obs.pc,
                    )
                )
            steps += 1
        run.state = state
        return run

    # ------------------------------------------------------------------ #
    # Speculation
    # ------------------------------------------------------------------ #
    def _maybe_speculate(
        self,
        program: Program,
        state: ArchState,
        instruction: Instruction,
        pc: int,
        attacker: AttackerStrategy,
        run: SpeculativeRun,
    ) -> None:
        correct_next = self._correct_next_pc(program, state, instruction, pc)
        is_crypto_branch = instruction.crypto or program.is_crypto_pc(pc)

        if self.mode == "cassandra" and is_crypto_branch:
            # Crypto fetch flow: the BTU enforces the contract trace, so the
            # attacker cannot induce any transient path here.
            return

        steered = attacker(pc, instruction, correct_next)
        if steered is None or steered == correct_next:
            return
        if not program.is_valid_pc(steered):
            return
        if self.mode == "cassandra" and program.is_crypto_pc(steered):
            # Non-crypto fetch flow integrity check: speculative redirection
            # into the crypto PC range is forbidden (fetch stalls instead).
            return

        # Transient execution on a copy of the architectural state.
        shadow = state.copy()
        shadow.pc = steered
        shadow.halted = False
        for depth in range(self.speculation_window):
            if shadow.halted or not program.is_valid_pc(shadow.pc):
                break
            shadow_pc = shadow.pc
            shadow_instruction = program.fetch(shadow_pc)
            observations: List[Observation] = []
            self._executor._step(
                program, shadow, shadow_instruction, shadow_pc, depth, observations
            )
            run.transient_instructions += 1
            for obs in observations:
                run.observations.append(
                    HardwareObservation(
                        kind=obs.kind,
                        value=obs.value,
                        transient=True,
                        crypto=obs.crypto,
                        pc=obs.pc,
                    )
                )
        run.squashes += 1

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _correct_next_pc(
        program: Program, state: ArchState, instruction: Instruction, pc: int
    ) -> int:
        """Architecturally correct successor of a branch (without side effects)."""
        opcode = instruction.opcode
        if opcode in (Opcode.BEQZ, Opcode.BNEZ):
            cond = state.read_reg(instruction.srcs[0])
            taken = (cond == 0) if opcode is Opcode.BEQZ else (cond != 0)
            return int(instruction.imm) if taken else pc + 1
        if opcode in (Opcode.JMP, Opcode.CALL):
            return int(instruction.imm)
        if opcode in (Opcode.JMPI, Opcode.CALLI):
            return state.read_reg(instruction.srcs[0])
        if opcode is Opcode.RET:
            return state.call_stack[-1] if state.call_stack else pc
        return pc + 1


def hardware_trace(
    program: Program,
    memory_input: Optional[MemoryInput] = None,
    mode: str = "unsafe",
    attacker: Optional[AttackerStrategy] = None,
    speculation_window: int = 48,
) -> List[Tuple[str, int, bool]]:
    """Convenience wrapper returning the attacker-visible trace of one run."""
    machine = SpeculativeMachine(mode=mode, speculation_window=speculation_window)
    return machine.run(program, memory_overrides=memory_input, attacker=attacker).attacker_view()
