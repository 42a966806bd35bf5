"""Program builder: a small embedded DSL for writing ISA kernels.

The crypto workloads in this reproduction are written against this builder
rather than as raw instruction lists.  The important property is that control
flow constructs (``for_range``, ``while_loop``, ``if_then``) emit *real*
branch instructions with symbolic labels — they are not unrolled — so the
resulting programs have the same loop/call control-flow structure as the
C implementations the paper analyses.

Typical use::

    b = ProgramBuilder("toy")
    with b.crypto():
        i = b.reg("i")
        acc = b.reg("acc")
        b.movi(acc, 0)
        with b.for_range(i, 0, 10):
            b.add(acc, acc, 3, imm=True)
    b.halt()
    program = b.build()
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import CryptoRegion, Program

Operand = Union[str, int]


@dataclass
class Label:
    """A symbolic code location, resolved to a PC when the program is built."""

    name: str
    pc: Optional[int] = None

    @property
    def placed(self) -> bool:
        return self.pc is not None


@dataclass
class _PendingInstruction:
    """Instruction whose immediate may still reference an unresolved label."""

    instruction: Instruction
    target: Optional[Label] = None
    crypto: bool = False


class BuilderError(ValueError):
    """Raised for malformed programs (unplaced labels, missing halt, ...)."""


class ProgramBuilder:
    """Incrementally build a :class:`~repro.isa.program.Program`.

    The builder keeps a data segment (``alloc``/``alloc_secret``) starting at
    :attr:`data_base`, tracks crypto regions via the :meth:`crypto` context
    manager, and resolves symbolic labels at :meth:`build` time.
    """

    def __init__(self, name: str = "program", data_base: int = 0x1000) -> None:
        self.name = name
        self.data_base = data_base
        self._pending: List[_PendingInstruction] = []
        self._labels: Dict[str, Label] = {}
        self._label_counter = 0
        self._reg_counter = 0
        self._reg_names: Dict[str, str] = {}
        self._memory: Dict[int, int] = {}
        self._secret_addresses: set[int] = set()
        self._data_cursor = data_base
        self._crypto_depth = 0
        self._symbols: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # Registers and data
    # ------------------------------------------------------------------ #
    def reg(self, hint: str = "t") -> str:
        """Allocate a fresh architectural register with a readable name."""
        name = f"r{self._reg_counter}_{hint}"
        self._reg_counter += 1
        return name

    def regs(self, *hints: str) -> Tuple[str, ...]:
        """Allocate several registers at once."""
        return tuple(self.reg(hint) for hint in hints)

    def alloc(
        self,
        symbol: str,
        values: Sequence[int] | int,
        secret: bool = False,
    ) -> int:
        """Reserve words in the data segment and return the base address.

        ``values`` is either an iterable of initial word values or an integer
        word count (zero-initialised).  When ``secret`` is set, the addresses
        are recorded as confidential for the leakage analysis and ProSpeCT.
        """
        if isinstance(values, int):
            values = [0] * values
        base = self._data_cursor
        for offset, value in enumerate(values):
            address = base + offset
            self._memory[address] = int(value)
            if secret:
                self._secret_addresses.add(address)
        self._data_cursor = base + max(len(values), 1)
        self._symbols[symbol] = base
        return base

    def alloc_secret(self, symbol: str, values: Sequence[int] | int) -> int:
        """Shorthand for :meth:`alloc` with ``secret=True``."""
        return self.alloc(symbol, values, secret=True)

    def symbol(self, name: str) -> int:
        """Return the base address previously allocated for ``name``."""
        return self._symbols[name]

    # ------------------------------------------------------------------ #
    # Labels and crypto regions
    # ------------------------------------------------------------------ #
    def label(self, hint: str = "L") -> Label:
        """Create (but do not place) a new unique label."""
        name = f"{hint}_{self._label_counter}"
        self._label_counter += 1
        label = Label(name)
        self._labels[name] = label
        return label

    def place(self, label: Label) -> None:
        """Bind ``label`` to the next emitted instruction's PC."""
        if label.placed:
            raise BuilderError(f"label {label.name} placed twice")
        label.pc = len(self._pending)

    @contextlib.contextmanager
    def crypto(self) -> Iterator[None]:
        """Mark all instructions emitted inside the block as crypto code."""
        self._crypto_depth += 1
        try:
            yield
        finally:
            self._crypto_depth -= 1

    @property
    def in_crypto(self) -> bool:
        return self._crypto_depth > 0

    # ------------------------------------------------------------------ #
    # Raw emission
    # ------------------------------------------------------------------ #
    def emit(
        self,
        opcode: Opcode,
        dst: Optional[str] = None,
        srcs: Sequence[str] = (),
        imm: Optional[int] = None,
        target: Optional[Label] = None,
        comment: str = "",
    ) -> int:
        """Emit one instruction; returns its PC within the program."""
        instruction = Instruction(
            opcode=opcode,
            dst=dst,
            srcs=tuple(srcs),
            imm=imm,
            crypto=self.in_crypto,
            comment=comment,
        )
        self._pending.append(
            _PendingInstruction(instruction, target=target, crypto=self.in_crypto)
        )
        return len(self._pending) - 1

    # ------------------------------------------------------------------ #
    # Arithmetic / data movement helpers
    # ------------------------------------------------------------------ #
    def _binary(self, opcode: Opcode, dst: str, a: str, b: Operand) -> int:
        if isinstance(b, int):
            return self.emit(opcode, dst=dst, srcs=(a,), imm=b)
        return self.emit(opcode, dst=dst, srcs=(a, b))

    def add(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.ADD, dst, a, b)

    def sub(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.SUB, dst, a, b)

    def mul(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.MUL, dst, a, b)

    def div(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.DIV, dst, a, b)

    def mod(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.MOD, dst, a, b)

    def and_(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.AND, dst, a, b)

    def or_(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.OR, dst, a, b)

    def xor(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.XOR, dst, a, b)

    def not_(self, dst: str, a: str) -> int:
        return self.emit(Opcode.NOT, dst=dst, srcs=(a,))

    def shl(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.SHL, dst, a, b)

    def shr(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.SHR, dst, a, b)

    def rotl(self, dst: str, a: str, b: Operand) -> int:
        """32-bit rotate left (crypto kernels mostly operate on 32-bit words)."""
        return self._binary(Opcode.ROTL, dst, a, b)

    def rotr(self, dst: str, a: str, b: Operand) -> int:
        """32-bit rotate right."""
        return self._binary(Opcode.ROTR, dst, a, b)

    def rotl64(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.ROTL64, dst, a, b)

    def rotr64(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.ROTR64, dst, a, b)

    def mask32(self, dst: str, src: Optional[str] = None) -> int:
        """Truncate ``src`` (default ``dst``) to 32 bits."""
        return self.and_(dst, src if src is not None else dst, 0xFFFFFFFF)

    def cmpeq(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.CMPEQ, dst, a, b)

    def cmpne(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.CMPNE, dst, a, b)

    def cmplt(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.CMPLT, dst, a, b)

    def cmple(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.CMPLE, dst, a, b)

    def cmpgt(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.CMPGT, dst, a, b)

    def cmpge(self, dst: str, a: str, b: Operand) -> int:
        return self._binary(Opcode.CMPGE, dst, a, b)

    def csel(self, dst: str, cond: str, a: str, b: str) -> int:
        """Constant-time select: ``dst = a if cond != 0 else b``."""
        return self.emit(Opcode.CSEL, dst=dst, srcs=(cond, a, b))

    def mov(self, dst: str, src: str) -> int:
        return self.emit(Opcode.MOV, dst=dst, srcs=(src,))

    def movi(self, dst: str, value: int) -> int:
        return self.emit(Opcode.MOVI, dst=dst, imm=value)

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #
    def load(self, dst: str, addr: str, offset: int = 0) -> int:
        """``dst = memory[addr + offset]``."""
        return self.emit(Opcode.LOAD, dst=dst, srcs=(addr,), imm=offset)

    def store(self, src: str, addr: str, offset: int = 0) -> int:
        """``memory[addr + offset] = src``."""
        return self.emit(Opcode.STORE, srcs=(src, addr), imm=offset)

    # ------------------------------------------------------------------ #
    # Control flow
    # ------------------------------------------------------------------ #
    def beqz(self, cond: str, target: Label) -> int:
        return self.emit(Opcode.BEQZ, srcs=(cond,), target=target)

    def bnez(self, cond: str, target: Label) -> int:
        return self.emit(Opcode.BNEZ, srcs=(cond,), target=target)

    def jmp(self, target: Label) -> int:
        return self.emit(Opcode.JMP, target=target)

    def jmpi(self, reg: str) -> int:
        return self.emit(Opcode.JMPI, srcs=(reg,))

    def call(self, target: Label) -> int:
        return self.emit(Opcode.CALL, target=target)

    def calli(self, reg: str) -> int:
        return self.emit(Opcode.CALLI, srcs=(reg,))

    def ret(self) -> int:
        return self.emit(Opcode.RET)

    def nop(self) -> int:
        return self.emit(Opcode.NOP)

    def halt(self) -> int:
        return self.emit(Opcode.HALT)

    def fence(self) -> int:
        return self.emit(Opcode.FENCE)

    def declassify(self, reg: str) -> int:
        return self.emit(Opcode.DECLASSIFY, srcs=(reg,))

    def leak(self, reg: str) -> int:
        """Model an attacker-visible transmitter of ``reg`` (secret-dependent access)."""
        return self.emit(Opcode.LEAK, srcs=(reg,))

    # ------------------------------------------------------------------ #
    # Structured control flow
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def for_range(
        self,
        counter: str,
        start: Operand,
        stop: Operand,
        step: int = 1,
    ) -> Iterator[Label]:
        """Counted loop: ``for counter in range(start, stop, step)``.

        Emits a loop-head conditional branch whose dynamic trace has the
        classic ``taken^n . not-taken`` shape the paper's analysis exploits.
        Yields the loop-exit label (useful for early exits).
        """
        if step == 0:
            raise BuilderError("for_range step must be non-zero")
        head = self.label("loop_head")
        exit_label = self.label("loop_exit")
        cond = self.reg("loopcond")
        if isinstance(start, int):
            self.movi(counter, start)
        else:
            self.mov(counter, start)
        self.place(head)
        if step > 0:
            self.cmplt(cond, counter, stop)
        else:
            self.cmpgt(cond, counter, stop)
        self.beqz(cond, exit_label)
        try:
            yield exit_label
        finally:
            self.add(counter, counter, step)
            self.jmp(head)
            self.place(exit_label)

    @contextlib.contextmanager
    def while_loop(self, cond: str) -> Iterator[Tuple[Label, Label]]:
        """``while cond != 0`` loop.

        The caller must update ``cond`` inside the body.  The condition is
        tested at the head; yields ``(head, exit)`` labels.
        """
        head = self.label("while_head")
        exit_label = self.label("while_exit")
        self.place(head)
        self.beqz(cond, exit_label)
        try:
            yield head, exit_label
        finally:
            self.jmp(head)
            self.place(exit_label)

    @contextlib.contextmanager
    def if_then(self, cond: str) -> Iterator[Label]:
        """Execute the body only when ``cond != 0``; yields the skip label."""
        skip = self.label("if_skip")
        self.beqz(cond, skip)
        try:
            yield skip
        finally:
            self.place(skip)

    @contextlib.contextmanager
    def function(self, name: str) -> Iterator[Label]:
        """Define a callable function body; a ``ret`` is appended automatically.

        The function is skipped over in straight-line execution via a jump
        emitted before the body, so functions can be defined inline at any
        point of the program.
        """
        skip = self.label(f"skip_{name}")
        entry = self.label(f"fn_{name}")
        self.jmp(skip)
        self.place(entry)
        try:
            yield entry
        finally:
            self.ret()
            self.place(skip)

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    def build(self, name: Optional[str] = None) -> Program:
        """Resolve labels and produce the final immutable :class:`Program`."""
        if not self._pending:
            raise BuilderError("cannot build an empty program")
        if self._pending[-1].instruction.opcode is not Opcode.HALT:
            # A trailing halt keeps the executor from running off the end.
            self.halt()

        labels: Dict[str, int] = {}
        for label in self._labels.values():
            if label.placed:
                labels[label.name] = label.pc  # type: ignore[assignment]

        instructions: List[Instruction] = []
        for pending in self._pending:
            instruction = pending.instruction
            if pending.target is not None:
                if not pending.target.placed:
                    raise BuilderError(
                        f"branch at PC {len(instructions)} targets unplaced "
                        f"label {pending.target.name}"
                    )
                instruction = instruction.with_imm(pending.target.pc)  # type: ignore[arg-type]
            instructions.append(instruction)

        crypto_regions = _crypto_regions_from_tags(instructions)
        return Program(
            instructions,
            initial_memory=dict(self._memory),
            labels=labels,
            crypto_regions=crypto_regions,
            name=name or self.name,
            secret_addresses=frozenset(self._secret_addresses),
        )


def _crypto_regions_from_tags(instructions: Sequence[Instruction]) -> List[CryptoRegion]:
    """Compute maximal crypto PC ranges from per-instruction tags."""
    regions: List[CryptoRegion] = []
    start: Optional[int] = None
    for pc, instruction in enumerate(instructions):
        if instruction.crypto and start is None:
            start = pc
        elif not instruction.crypto and start is not None:
            regions.append(CryptoRegion(start, pc))
            start = None
    if start is not None:
        regions.append(CryptoRegion(start, len(instructions)))
    return regions
