"""Sequential (architectural) executor.

The :class:`SequentialExecutor` implements the paper's sequential execution
model ⟦·⟧seq.  It runs a :class:`~repro.isa.program.Program` to completion
and produces three artefacts that the rest of the system consumes:

* the final :class:`~repro.arch.state.ArchState`;
* the *contract observation trace* (⟦·⟧ct leakage: pc/call/ret + load/store
  addresses, plus ``leak`` observations for the ⟦·⟧arch model), used by the
  formal model and the security experiments;
* the *dynamic instruction stream*: the per-branch outcomes the branch
  analysis reads (raw per-branch traces) and, when the run records it, the
  columnar :class:`~repro.engine.lowering.LoweredTrace` the out-of-order
  timing model replays.

Because constant-time programs have input-independent control flow, the
dynamic instruction stream doubles as the "recorded" sequential control flow
that Cassandra replays.

:meth:`SequentialExecutor.run` decodes each program once into a per-PC table
(:func:`decode_program`) and interprets that table in one loop over local
bindings of the register, memory and taint dictionaries.  A recording run
keeps only what varies per step (PC, memory address, secret and taken
flags) and lowers those columns when it halts; it builds no
:class:`DynamicInstruction`.  :meth:`SequentialExecutor.run_reference` is
the straightforward instruction-at-a-time loop over
:meth:`SequentialExecutor._step`; it is the oracle the fast loop is tested
against, and the only producer of :class:`DynamicInstruction` records (a
fast run's :attr:`ExecutionResult.dynamic` replays it on first access).
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.observations import Observation, ObservationKind
from repro.arch.state import WORD_MASK, ArchState
from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program

MASK32 = 0xFFFFFFFF


class ExecutionError(RuntimeError):
    """Raised when a program misbehaves (bad PC, step limit exceeded, ...)."""


@dataclass(frozen=True)
class DynamicInstruction:
    """One dynamically executed instruction.

    The record carries everything the timing model needs to rebuild data
    dependencies and memory behaviour without re-executing the program:
    source/destination registers, the effective memory address (if any), the
    architecturally correct next PC, and secrecy/crypto metadata.
    """

    seq: int
    pc: int
    opcode: Opcode
    dst: Optional[str]
    srcs: Tuple[str, ...]
    next_pc: int
    mem_address: Optional[int] = None
    is_branch: bool = False
    taken: Optional[bool] = None
    crypto: bool = False
    secret_operand: bool = False

    @property
    def is_load(self) -> bool:
        return self.opcode is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self.opcode is Opcode.STORE

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    @property
    def is_conditional(self) -> bool:
        return self.opcode in (Opcode.BEQZ, Opcode.BNEZ)

    @property
    def is_call(self) -> bool:
        return self.opcode in (Opcode.CALL, Opcode.CALLI)

    @property
    def is_return(self) -> bool:
        return self.opcode is Opcode.RET

    @property
    def is_indirect(self) -> bool:
        return self.opcode in (Opcode.JMPI, Opcode.CALLI, Opcode.RET)


@dataclass
class ExecutionResult:
    """The complete outcome of a sequential run.

    A run made with ``record_dynamic=False`` is *record-free*: ``dynamic``
    is empty while ``instruction_count`` still counts every step, and the
    final state, observations and branch outcomes are complete.  Algorithm 2
    reads only branch outcomes, and the timing engine reads the lowered
    trace, so record-free results are what the artifact cache persists and
    what preparation workers ship (see :attr:`has_records`).

    A recording :meth:`SequentialExecutor.run` carries its lowered trace
    instead; :attr:`dynamic` replays the oracle loop for the records.
    """

    program: Program
    state: ArchState
    observations: List[Observation]
    instruction_count: int
    branch_outcomes: Dict[int, List[int]] = field(default_factory=dict)
    #: Host wall-clock seconds :meth:`SequentialExecutor.run` took (0.0 for
    #: other producers); excluded from equality.
    seconds: float = field(default=0.0, compare=False)
    #: The records :meth:`SequentialExecutor.run_reference` made, or that
    #: :attr:`dynamic` built.
    _records: List[DynamicInstruction] = field(default_factory=list, compare=False, repr=False)
    #: ``(max_steps, initial_registers, memory_overrides)`` of a run whose
    #: records :attr:`dynamic` still owes; ``None`` once built or never owed.
    _replay: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def dynamic(self) -> List[DynamicInstruction]:
        """One :class:`DynamicInstruction` per step (``[]`` when record-free).

        Owed records come from the oracle, once, after it reproduced this run.
        """
        if self._replay is not None:
            max_steps, initial_registers, memory_overrides = self._replay
            reference = SequentialExecutor(max_steps=max_steps).run_reference(
                self.program, initial_registers, memory_overrides
            )
            if reference != self:
                raise ExecutionError(
                    f"program {self.program.name!r}: the reference loop does not "
                    "reproduce this run"
                )
            self._records, self._replay = reference._records, None
        return self._records

    @property
    def has_records(self) -> bool:
        """Whether :attr:`dynamic` holds, or builds on access, one record per
        executed instruction."""
        return self._replay is not None or len(self._records) == self.instruction_count

    def without_records(self) -> "ExecutionResult":
        """A record-free copy sharing everything but the records (and the
        lowered trace memoized on this result)."""
        return replace(self, _records=[], _replay=None)

    def register(self, name: str) -> int:
        """Convenience accessor for a final register value."""
        return self.state.read_reg(name)

    def memory_words(self, base: int, count: int) -> List[int]:
        """Read ``count`` consecutive words starting at ``base``."""
        return [self.state.read_mem(base + i) for i in range(count)]


class SequentialExecutor:
    """Functional, in-order executor for the reproduction ISA."""

    def __init__(self, max_steps: int = 5_000_000, record_dynamic: bool = True) -> None:
        self.max_steps = max_steps
        self.record_dynamic = record_dynamic

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        program: Program,
        initial_registers: Optional[Dict[str, int]] = None,
        memory_overrides: Optional[Dict[int, int]] = None,
    ) -> ExecutionResult:
        """Execute ``program`` to completion under the sequential model.

        ``memory_overrides`` lets callers substitute different inputs (for
        example the two-input diff of the trace generation procedure) without
        rebuilding the program.

        The result equals :meth:`run_reference`'s; the loop interprets the
        program's decoded table (:func:`decode_program`) instead of
        re-inspecting each :class:`Instruction` per step.  A recording run
        keeps each step's PC, address, secret and taken flags, and carries
        their :func:`~repro.engine.lowering.lower_steps` trace.
        """
        start = time.perf_counter()
        state = self._initial_state(program, initial_registers, memory_overrides)
        table = decode_program(program)
        n_pcs = len(table)
        max_steps = self.max_steps
        record = self.record_dynamic
        step = self._step

        regs = state.registers
        reg = regs.get
        mem = state.memory
        load = mem.get
        rtaint = state.register_taint
        secret = rtaint.get
        mtaint = state.memory_taint
        mem_secret = mtaint.get
        stack = state.call_stack
        observations: List[Observation] = []
        observe = observations.append
        branch_outcomes: Dict[int, List[int]] = {}
        outcomes = branch_outcomes.get
        # The per-step columns of a recording run (see lower_steps).
        pcs: List[int] = []
        mems: List[int] = []
        secrets: List[bool] = []
        takens: List[Optional[bool]] = []
        pcs_append = pcs.append
        mems_append = mems.append
        secrets_append = secrets.append
        takens_append = takens.append
        Obs = Observation
        O_PC, O_CALL, O_RET = ObservationKind.PC, ObservationKind.CALL, ObservationKind.RET
        O_LOAD, O_STORE, O_LEAK = ObservationKind.LOAD, ObservationKind.STORE, ObservationKind.LEAK

        pc = state.pc
        steps = 0
        halted = False
        while not halted:
            if steps >= max_steps:
                raise ExecutionError(
                    f"program {program.name!r} exceeded {max_steps} steps"
                )
            if pc < 0 or pc >= n_pcs:
                raise ExecutionError(f"program {program.name!r} jumped to invalid PC {pc}")
            kind, fn, s0, s1, s2, imm, dst, crypto, is_branch = table[pc]
            next_pc = pc + 1
            mem_address = -1
            taken = None

            if kind == _K_ALU_RR:
                sec = secret(s0, False) or secret(s1, False)
                regs[dst] = fn(reg(s0, 0), reg(s1, 0)) & WORD_MASK
                rtaint[dst] = sec
            elif kind == _K_ALU_RI:
                sec = secret(s0, False)
                regs[dst] = fn(reg(s0, 0), imm) & WORD_MASK
                rtaint[dst] = sec
            elif kind == _K_LOAD:
                sec = secret(s0, False)
                mem_address = (reg(s0, 0) + imm) & WORD_MASK
                regs[dst] = load(mem_address, 0) & WORD_MASK
                rtaint[dst] = mem_secret(mem_address, False)
                sec = sec or mem_secret(mem_address, False)
                observe(Obs(O_LOAD, mem_address, crypto, pc))
            elif kind == _K_MOVI:
                sec = False
                regs[dst] = imm & WORD_MASK
                rtaint[dst] = False
            elif kind == _K_STORE:
                sec = secret(s0, False) or secret(s1, False)
                mem_address = (reg(s1, 0) + imm) & WORD_MASK
                mem[mem_address] = reg(s0, 0) & WORD_MASK
                mtaint[mem_address] = secret(s0, False)
                observe(Obs(O_STORE, mem_address, crypto, pc))
            elif kind == _K_MOV:
                sec = secret(s0, False)
                regs[dst] = reg(s0, 0) & WORD_MASK
                rtaint[dst] = sec
            elif kind == _K_BNEZ:
                sec = secret(s0, False)
                taken = reg(s0, 0) != 0
                if taken:
                    next_pc = imm
                observe(Obs(O_PC, next_pc, crypto, pc))
            elif kind == _K_BEQZ:
                sec = secret(s0, False)
                taken = reg(s0, 0) == 0
                if taken:
                    next_pc = imm
                observe(Obs(O_PC, next_pc, crypto, pc))
            elif kind == _K_CSEL:
                sec = secret(s0, False) or secret(s1, False) or secret(s2, False)
                regs[dst] = (reg(s1, 0) if reg(s0, 0) != 0 else reg(s2, 0)) & WORD_MASK
                rtaint[dst] = sec
            elif kind == _K_CALL:
                sec = False
                next_pc = imm
                stack.append(pc + 1)
                taken = True
                observe(Obs(O_CALL, next_pc, crypto, pc))
            elif kind == _K_RET:
                sec = False
                if stack:
                    next_pc = stack.pop()
                else:
                    halted = True
                    next_pc = pc
                taken = True
                observe(Obs(O_RET, next_pc, crypto, pc))
            elif kind == _K_JMP:
                sec = False
                next_pc = imm
                taken = True
                observe(Obs(O_PC, next_pc, crypto, pc))
            elif kind == _K_NOP:
                sec = False
            elif kind == _K_JMPI:
                sec = secret(s0, False)
                next_pc = reg(s0, 0)
                taken = True
                observe(Obs(O_PC, next_pc, crypto, pc))
            elif kind == _K_CALLI:
                sec = secret(s0, False)
                next_pc = reg(s0, 0)
                stack.append(pc + 1)
                taken = True
                observe(Obs(O_CALL, next_pc, crypto, pc))
            elif kind == _K_HALT:
                sec = False
                halted = True
                next_pc = pc
            elif kind == _K_DECLASSIFY:
                sec = secret(s0, False)
                rtaint[s0] = False
            elif kind == _K_LEAK:
                sec = secret(s0, False)
                observe(Obs(O_LEAK, reg(s0, 0), crypto, pc))
            else:
                # An instruction outside the fast shapes: the reference step.
                rec = step(program, state, fn, pc, steps, observations)
                next_pc, halted = rec.next_pc, state.halted
                if rec.mem_address is not None:
                    mem_address = rec.mem_address
                sec, taken = rec.secret_operand, rec.taken

            if record:
                pcs_append(pc)
                mems_append(mem_address)
                secrets_append(sec)
                takens_append(taken)
            if is_branch:
                outcomes_pc = outcomes(pc)
                if outcomes_pc is None:
                    branch_outcomes[pc] = [next_pc]
                else:
                    outcomes_pc.append(next_pc)
            steps += 1
            pc = next_pc

        state.pc = pc
        state.halted = True
        result = ExecutionResult(
            program=program,
            state=state,
            observations=observations,
            instruction_count=steps,
            branch_outcomes=branch_outcomes,
        )
        if record:
            from repro.engine.lowering import lower_steps  # lazy: engine imports arch

            result._lowered_trace = lower_steps(  # type: ignore[attr-defined]
                program, pcs, pc, mems, secrets, takens
            )
            result._replay = (
                max_steps, dict(initial_registers or {}), dict(memory_overrides or {})
            )
        result.seconds = time.perf_counter() - start
        return result

    def run_reference(
        self,
        program: Program,
        initial_registers: Optional[Dict[str, int]] = None,
        memory_overrides: Optional[Dict[int, int]] = None,
    ) -> ExecutionResult:
        """The instruction-at-a-time loop over :meth:`_step`: the oracle
        :meth:`run` is tested against."""
        state = self._initial_state(program, initial_registers, memory_overrides)

        observations: List[Observation] = []
        records: List[DynamicInstruction] = []
        branch_outcomes: Dict[int, List[int]] = {}
        steps = 0

        while not state.halted:
            if steps >= self.max_steps:
                raise ExecutionError(
                    f"program {program.name!r} exceeded {self.max_steps} steps"
                )
            pc = state.pc
            if not program.is_valid_pc(pc):
                raise ExecutionError(f"program {program.name!r} jumped to invalid PC {pc}")
            instruction = program.fetch(pc)
            record = self._step(program, state, instruction, pc, steps, observations)
            steps += 1
            if record is not None:
                if self.record_dynamic:
                    records.append(record)
                if record.is_branch:
                    branch_outcomes.setdefault(pc, []).append(record.next_pc)

        return ExecutionResult(
            program=program,
            state=state,
            observations=observations,
            instruction_count=steps,
            branch_outcomes=branch_outcomes,
            _records=records,
        )

    @staticmethod
    def _initial_state(
        program: Program,
        initial_registers: Optional[Dict[str, int]],
        memory_overrides: Optional[Dict[int, int]],
    ) -> ArchState:
        state = ArchState(pc=program.entry)
        state.memory.update(program.initial_memory)
        if memory_overrides:
            state.memory.update(
                {addr: value & WORD_MASK for addr, value in memory_overrides.items()}
            )
        if initial_registers:
            for name, value in initial_registers.items():
                state.write_reg(name, value)
        state.mark_secret_addresses(program.secret_addresses)
        return state

    # ------------------------------------------------------------------ #
    # Single-step semantics
    # ------------------------------------------------------------------ #
    def _step(
        self,
        program: Program,
        state: ArchState,
        instruction: Instruction,
        pc: int,
        seq: int,
        observations: List[Observation],
    ) -> Optional[DynamicInstruction]:
        opcode = instruction.opcode
        crypto = instruction.crypto or program.is_crypto_pc(pc)
        next_pc = pc + 1
        mem_address: Optional[int] = None
        taken: Optional[bool] = None
        result_value: Optional[int] = None
        secret_operand = any(state.reg_is_secret(src) for src in instruction.srcs)

        def observe(kind: ObservationKind, value: int) -> None:
            observations.append(Observation(kind=kind, value=value, crypto=crypto, pc=pc))

        if opcode in _ALU_OPS:
            result_value = self._alu(state, instruction)
            state.write_reg(instruction.dst, result_value)  # type: ignore[arg-type]
            state.set_reg_taint(instruction.dst, secret_operand)  # type: ignore[arg-type]
        elif opcode is Opcode.MOV:
            result_value = state.read_reg(instruction.srcs[0])
            state.write_reg(instruction.dst, result_value)  # type: ignore[arg-type]
            state.set_reg_taint(instruction.dst, secret_operand)  # type: ignore[arg-type]
        elif opcode is Opcode.MOVI:
            result_value = int(instruction.imm or 0)
            state.write_reg(instruction.dst, result_value)  # type: ignore[arg-type]
            state.set_reg_taint(instruction.dst, False)  # type: ignore[arg-type]
        elif opcode is Opcode.CSEL:
            cond, a, b = instruction.srcs
            result_value = state.read_reg(a) if state.read_reg(cond) != 0 else state.read_reg(b)
            state.write_reg(instruction.dst, result_value)  # type: ignore[arg-type]
            state.set_reg_taint(instruction.dst, secret_operand)  # type: ignore[arg-type]
        elif opcode is Opcode.LOAD:
            mem_address = (state.read_reg(instruction.srcs[0]) + (instruction.imm or 0)) & WORD_MASK
            result_value = state.read_mem(mem_address)
            state.write_reg(instruction.dst, result_value)  # type: ignore[arg-type]
            state.set_reg_taint(instruction.dst, state.mem_is_secret(mem_address))  # type: ignore[arg-type]
            secret_operand = secret_operand or state.mem_is_secret(mem_address)
            observe(ObservationKind.LOAD, mem_address)
        elif opcode is Opcode.STORE:
            src, addr_reg = instruction.srcs
            mem_address = (state.read_reg(addr_reg) + (instruction.imm or 0)) & WORD_MASK
            value = state.read_reg(src)
            state.write_mem(mem_address, value)
            state.set_mem_taint(mem_address, state.reg_is_secret(src))
            observe(ObservationKind.STORE, mem_address)
        elif opcode is Opcode.BEQZ or opcode is Opcode.BNEZ:
            cond = state.read_reg(instruction.srcs[0])
            take_if_zero = opcode is Opcode.BEQZ
            taken = (cond == 0) if take_if_zero else (cond != 0)
            next_pc = int(instruction.imm) if taken else pc + 1  # type: ignore[arg-type]
            observe(ObservationKind.PC, next_pc)
        elif opcode is Opcode.JMP:
            next_pc = int(instruction.imm)  # type: ignore[arg-type]
            taken = True
            observe(ObservationKind.PC, next_pc)
        elif opcode is Opcode.JMPI:
            next_pc = state.read_reg(instruction.srcs[0])
            taken = True
            observe(ObservationKind.PC, next_pc)
        elif opcode is Opcode.CALL:
            next_pc = int(instruction.imm)  # type: ignore[arg-type]
            state.call_stack.append(pc + 1)
            taken = True
            observe(ObservationKind.CALL, next_pc)
        elif opcode is Opcode.CALLI:
            next_pc = state.read_reg(instruction.srcs[0])
            state.call_stack.append(pc + 1)
            taken = True
            observe(ObservationKind.CALL, next_pc)
        elif opcode is Opcode.RET:
            if state.call_stack:
                next_pc = state.call_stack.pop()
            else:
                state.halted = True
                next_pc = pc
            taken = True
            observe(ObservationKind.RET, next_pc)
        elif opcode is Opcode.HALT:
            state.halted = True
            next_pc = pc
        elif opcode is Opcode.DECLASSIFY:
            state.set_reg_taint(instruction.srcs[0], False)
        elif opcode is Opcode.LEAK:
            result_value = state.read_reg(instruction.srcs[0])
            observe(ObservationKind.LEAK, result_value)
        elif opcode in (Opcode.NOP, Opcode.FENCE, Opcode.HINT):
            pass
        else:  # pragma: no cover - defensive
            raise ExecutionError(f"unsupported opcode {opcode!r} at PC {pc}")

        state.pc = next_pc

        return DynamicInstruction(
            seq=seq,
            pc=pc,
            opcode=opcode,
            dst=instruction.dst if instruction.writes_register else None,
            srcs=instruction.srcs,
            next_pc=next_pc,
            mem_address=mem_address,
            is_branch=instruction.is_branch,
            taken=taken,
            crypto=crypto,
            secret_operand=secret_operand,
        )

    # ------------------------------------------------------------------ #
    # ALU semantics
    # ------------------------------------------------------------------ #
    @staticmethod
    def _operands(state: ArchState, instruction: Instruction) -> Tuple[int, int]:
        a = state.read_reg(instruction.srcs[0])
        if len(instruction.srcs) > 1:
            b = state.read_reg(instruction.srcs[1])
        else:
            b = int(instruction.imm or 0)
        return a, b

    def _alu(self, state: ArchState, instruction: Instruction) -> int:
        opcode = instruction.opcode
        if opcode is Opcode.NOT:
            return (~state.read_reg(instruction.srcs[0])) & WORD_MASK
        a, b = self._operands(state, instruction)
        if opcode is Opcode.ADD:
            return (a + b) & WORD_MASK
        if opcode is Opcode.SUB:
            return (a - b) & WORD_MASK
        if opcode is Opcode.MUL:
            return (a * b) & WORD_MASK
        if opcode is Opcode.DIV:
            return (a // b) & WORD_MASK if b else 0
        if opcode is Opcode.MOD:
            return (a % b) & WORD_MASK if b else 0
        if opcode is Opcode.AND:
            return a & b
        if opcode is Opcode.OR:
            return a | b
        if opcode is Opcode.XOR:
            return a ^ b
        if opcode is Opcode.SHL:
            return (a << b) & WORD_MASK if b < 64 else 0
        if opcode is Opcode.SHR:
            return (a >> b) & WORD_MASK if b < 64 else 0
        if opcode is Opcode.ROTL:
            amount = b % 32
            a32 = a & MASK32
            return ((a32 << amount) | (a32 >> (32 - amount))) & MASK32 if amount else a32
        if opcode is Opcode.ROTR:
            amount = b % 32
            a32 = a & MASK32
            return ((a32 >> amount) | (a32 << (32 - amount))) & MASK32 if amount else a32
        if opcode is Opcode.ROTL64:
            amount = b % 64
            return ((a << amount) | (a >> (64 - amount))) & WORD_MASK if amount else a
        if opcode is Opcode.ROTR64:
            amount = b % 64
            return ((a >> amount) | (a << (64 - amount))) & WORD_MASK if amount else a
        if opcode is Opcode.CMPEQ:
            return int(a == b)
        if opcode is Opcode.CMPNE:
            return int(a != b)
        if opcode is Opcode.CMPLT:
            return int(a < b)
        if opcode is Opcode.CMPLE:
            return int(a <= b)
        if opcode is Opcode.CMPGT:
            return int(a > b)
        if opcode is Opcode.CMPGE:
            return int(a >= b)
        raise ExecutionError(f"not an ALU opcode: {opcode!r}")  # pragma: no cover


_ALU_OPS = frozenset(
    {
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.DIV,
        Opcode.MOD,
        Opcode.AND,
        Opcode.OR,
        Opcode.XOR,
        Opcode.NOT,
        Opcode.SHL,
        Opcode.SHR,
        Opcode.ROTL,
        Opcode.ROTR,
        Opcode.ROTL64,
        Opcode.ROTR64,
        Opcode.CMPEQ,
        Opcode.CMPNE,
        Opcode.CMPLT,
        Opcode.CMPLE,
        Opcode.CMPGT,
        Opcode.CMPGE,
    }
)


# --------------------------------------------------------------------------- #
# The decoded program table of the fast loop
# --------------------------------------------------------------------------- #
# Operation kinds, numbered roughly by dynamic frequency in the crypto kernels
# (the loop tests them in this order).  ``_K_STEP`` covers every instruction
# whose operand shape the fast kinds do not expect: the loop runs it through
# the reference ``_step``, so odd hand-built programs keep exact semantics.
(
    _K_ALU_RR,
    _K_ALU_RI,
    _K_LOAD,
    _K_MOVI,
    _K_STORE,
    _K_MOV,
    _K_BNEZ,
    _K_BEQZ,
    _K_CSEL,
    _K_CALL,
    _K_RET,
    _K_JMP,
    _K_NOP,
    _K_JMPI,
    _K_CALLI,
    _K_HALT,
    _K_DECLASSIFY,
    _K_LEAK,
    _K_STEP,
) = range(19)

#: One decoded instruction: ``(kind, fn, s0, s1, s2, imm, dst, crypto,
#: is_branch)``.  ``fn`` is the ALU function (the :class:`Instruction`
#: itself for ``_K_STEP``), ``s0``–``s2`` the source registers, ``imm`` the
#: resolved immediate and ``crypto`` the resolved crypto flag.
DecodedInstruction = Tuple[
    int, object, Optional[str], Optional[str], Optional[str], object,
    Optional[str], bool, bool,
]


def _rotl32(a: int, b: int) -> int:
    amount = b % 32
    a32 = a & MASK32
    return ((a32 << amount) | (a32 >> (32 - amount))) & MASK32 if amount else a32


def _rotr32(a: int, b: int) -> int:
    amount = b % 32
    a32 = a & MASK32
    return ((a32 >> amount) | (a32 << (32 - amount))) & MASK32 if amount else a32


def _rotl64(a: int, b: int) -> int:
    amount = b % 64
    return ((a << amount) | (a >> (64 - amount))) & WORD_MASK if amount else a


def _rotr64(a: int, b: int) -> int:
    amount = b % 64
    return ((a >> amount) | (a << (64 - amount))) & WORD_MASK if amount else a


#: ALU semantics by opcode, mirroring :meth:`SequentialExecutor._alu` (the
#: second operand is a register or the integer immediate; NOT ignores it).
_ALU_FUNCTIONS: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: lambda a, b: (a + b) & WORD_MASK,
    Opcode.SUB: lambda a, b: (a - b) & WORD_MASK,
    Opcode.MUL: lambda a, b: (a * b) & WORD_MASK,
    Opcode.DIV: lambda a, b: (a // b) & WORD_MASK if b else 0,
    Opcode.MOD: lambda a, b: (a % b) & WORD_MASK if b else 0,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.NOT: lambda a, b: (~a) & WORD_MASK,
    Opcode.SHL: lambda a, b: (a << b) & WORD_MASK if b < 64 else 0,
    Opcode.SHR: lambda a, b: (a >> b) & WORD_MASK if b < 64 else 0,
    Opcode.ROTL: _rotl32,
    Opcode.ROTR: _rotr32,
    Opcode.ROTL64: _rotl64,
    Opcode.ROTR64: _rotr64,
    Opcode.CMPEQ: lambda a, b: int(a == b),
    Opcode.CMPNE: lambda a, b: int(a != b),
    Opcode.CMPLT: lambda a, b: int(a < b),
    Opcode.CMPLE: lambda a, b: int(a <= b),
    Opcode.CMPGT: lambda a, b: int(a > b),
    Opcode.CMPGE: lambda a, b: int(a >= b),
}

#: Opcodes with a fixed fast kind: (kind, number of source registers,
#: immediate form).  The immediate forms are ``"none"``, ``"int"``
#: (``int(imm or 0)``), ``"offset"`` (``imm or 0``) and ``"target"``
#: (``int(imm)``, required).
_FIXED_KINDS: Dict[Opcode, Tuple[int, int, str]] = {
    Opcode.MOVI: (_K_MOVI, 0, "int"),
    Opcode.LOAD: (_K_LOAD, 1, "offset"),
    Opcode.STORE: (_K_STORE, 2, "offset"),
    Opcode.MOV: (_K_MOV, 1, "none"),
    Opcode.CSEL: (_K_CSEL, 3, "none"),
    Opcode.BNEZ: (_K_BNEZ, 1, "target"),
    Opcode.BEQZ: (_K_BEQZ, 1, "target"),
    Opcode.CALL: (_K_CALL, 0, "target"),
    Opcode.RET: (_K_RET, 0, "none"),
    Opcode.JMP: (_K_JMP, 0, "target"),
    Opcode.JMPI: (_K_JMPI, 1, "none"),
    Opcode.CALLI: (_K_CALLI, 1, "none"),
    Opcode.HALT: (_K_HALT, 0, "none"),
    Opcode.DECLASSIFY: (_K_DECLASSIFY, 1, "none"),
    Opcode.LEAK: (_K_LEAK, 1, "none"),
    Opcode.NOP: (_K_NOP, 0, "none"),
    Opcode.FENCE: (_K_NOP, 0, "none"),
    Opcode.HINT: (_K_NOP, 0, "none"),
}


def _decode(program: Program, pc: int, instruction: Instruction) -> DecodedInstruction:
    opcode = instruction.opcode
    srcs = instruction.srcs
    crypto = instruction.crypto or program.is_crypto_pc(pc)
    tail = (instruction.dst, crypto, instruction.is_branch)
    step = (_K_STEP, instruction, None, None, None, None) + tail

    fn: Optional[Callable[[int, int], int]] = _ALU_FUNCTIONS.get(opcode)
    if fn is not None:
        if len(srcs) == 2:
            kind, arity, form = _K_ALU_RR, 2, "none"
        elif len(srcs) == 1:
            kind, arity, form = _K_ALU_RI, 1, "int"
        else:
            return step
    elif opcode in _FIXED_KINDS:
        kind, arity, form = _FIXED_KINDS[opcode]
    else:
        return step
    if len(srcs) != arity:
        return step
    imm = instruction.imm
    try:
        if form == "int":
            imm = int(imm or 0)
        elif form == "offset":
            imm = imm or 0
        elif form == "target":
            imm = int(imm)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return step
    padded = tuple(srcs) + (None,) * (3 - arity)
    return (kind, fn) + padded + (imm,) + tail


#: Decoded tables by program (programs are immutable once built); each
#: entry remembers the crypto regions it resolved the crypto flags against.
_DECODED: "weakref.WeakKeyDictionary[Program, tuple]" = weakref.WeakKeyDictionary()


def decode_program(program: Program) -> Tuple[DecodedInstruction, ...]:
    """The per-PC table :meth:`SequentialExecutor.run` interprets (memoized)."""
    cached = _DECODED.get(program)
    if cached is not None and cached[0] is program.crypto_regions:
        return cached[1]
    table = tuple(_decode(program, pc, inst) for pc, inst in enumerate(program))
    _DECODED[program] = (program.crypto_regions, table)
    return table
