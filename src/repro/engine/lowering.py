"""Lowering: from a sequential run to a columnar timing trace.

The timing model replays a :class:`LoweredTrace`: parallel lists of plain
integers (opcode latency class, renamed register indices, memory word
address, branch class, and a flag bitmask) that the generated kernels
(:mod:`repro.engine.kernels`, :mod:`repro.engine.native`) iterate with no
per-instruction dispatch.  It has two producers:

* :func:`lower_steps`, which a recording
  :meth:`~repro.arch.executor.SequentialExecutor.run` calls when it halts.
  The loop keeps only what varies per step (PC, memory address, secret and
  taken flags); every other column is a fact of the instruction at that PC,
  computed once per executed PC.  This is how preparation lowers.
* :func:`lower_dynamic`, which walks a list of
  :class:`~repro.arch.executor.DynamicInstruction` records from the oracle
  loop (:meth:`~repro.arch.executor.SequentialExecutor.run_reference`).  The
  two must agree byte for byte (``tests/arch/test_executor_parity.py``).

The lowering contract (see also the package docstring):

* **Policy- and config-independent.**  A lowered trace encodes only what the
  sequential execution determined: nothing in it depends on a
  ``DefensePolicy`` or a ``CoreConfig``, so one lowering serves every point
  of a sweep.  Latencies are stored as *classes* (``LAT_*``) and resolved
  against a concrete config when the engine runs.
* **Complete.**  Every field of ``DynamicInstruction`` the timing model
  reads has a column or a flag bit here; the engine never touches records
  (only the object-loop fallback for policies without an engine spec does).
* **Rename-stable.**  Architectural register names are mapped to dense
  indices in first-appearance order, so two lowerings of the same execution
  are identical and ``reg_ready`` tracking becomes a flat list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.executor import DynamicInstruction, ExecutionResult
from repro.isa.instructions import Opcode
from repro.isa.program import Program

#: Bump when the columnar layout changes incompatibly (cache-key material).
LOWERING_FORMAT_VERSION = 1

# Flag bits (the ``flags`` column).
F_LOAD = 1 << 0
F_STORE = 1 << 1
F_BRANCH = 1 << 2
F_CRYPTO = 1 << 3
F_SECRET = 1 << 4
F_LEAK = 1 << 5
F_TAKEN = 1 << 6

# Latency classes (the ``lat_class`` column), resolved against a CoreConfig
# by the engine: [alu, mul, div, store, branch_resolve].
LAT_ALU = 0
LAT_MUL = 1
LAT_DIV = 2
LAT_STORE = 3
LAT_BRANCH = 4

# Branch classes (the ``bclass`` column) consumed by the BPU's index-based
# predict/update protocol.
B_NONE = 0
B_COND = 1
B_JMP = 2
B_CALL = 3
B_CALLI = 4
B_JMPI = 5
B_RET = 6

_BCLASS_OF_OPCODE: Dict[Opcode, int] = {
    Opcode.BEQZ: B_COND,
    Opcode.BNEZ: B_COND,
    Opcode.JMP: B_JMP,
    Opcode.CALL: B_CALL,
    Opcode.CALLI: B_CALLI,
    Opcode.JMPI: B_JMPI,
    Opcode.RET: B_RET,
}


def bclass_of(opcode: Opcode) -> int:
    """The branch class the BPU protocol uses for ``opcode`` (B_NONE if none)."""
    return _BCLASS_OF_OPCODE.get(opcode, B_NONE)


#: Latency classes fixed by the opcode alone; every other opcode is
#: ``LAT_ALU``, or ``LAT_BRANCH`` when the instruction is a branch.
_STATIC_LAT = {
    Opcode.MUL: LAT_MUL, Opcode.DIV: LAT_DIV, Opcode.MOD: LAT_DIV, Opcode.STORE: LAT_STORE,
}

#: Per-opcode facts: ``(is_load, is_store, is_leak, static latency, bclass)``.
_OPINFO: Dict[Opcode, Tuple[bool, bool, bool, int, int]] = {
    op: (
        op is Opcode.LOAD,
        op is Opcode.STORE,
        op is Opcode.LEAK,
        _STATIC_LAT.get(op, LAT_ALU),
        _BCLASS_OF_OPCODE.get(op, B_NONE),
    )
    for op in Opcode
}


@dataclass
class LoweredTrace:
    """The columnar, policy-independent timing trace of one execution.

    All columns have length :attr:`n`; ``-1`` encodes "absent" for register
    indices and memory addresses.  Columns are plain Python lists of ints —
    the fastest random-access sequence available without native extensions.
    """

    program_name: str
    n: int
    #: Dense register index -> architectural register name.
    reg_names: List[str]
    pcs: List[int]
    next_pcs: List[int]
    dst: List[int]
    src0: List[int]
    src1: List[int]
    src2: List[int]
    mem: List[int]
    flags: List[int]
    lat_class: List[int]
    bclass: List[int]
    #: Largest PC observed in ``pcs``/``next_pcs`` (sizing per-PC tables).
    max_pc: int = 0
    format_version: int = LOWERING_FORMAT_VERSION

    @property
    def num_regs(self) -> int:
        return len(self.reg_names)

    def columns(self) -> Tuple[List[int], ...]:
        """Every column as one tuple, in lowering order."""
        return (
            self.pcs,
            self.next_pcs,
            self.dst,
            self.src0,
            self.src1,
            self.src2,
            self.mem,
            self.flags,
            self.lat_class,
            self.bclass,
        )

    def to_bytes(self) -> bytes:
        """Serialize the columns to a compact byte payload.

        Preparation workers ship their run's trace to the parent this way,
        and the shard backend ships the same payload to its worker
        subprocesses; the receiver materializes the columns with one C-level
        unpickle.
        """
        import pickle

        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_bytes(payload: bytes) -> "LoweredTrace":
        """Rebuild a trace serialized by :meth:`to_bytes` (version-checked)."""
        import pickle

        trace = pickle.loads(payload)
        if not isinstance(trace, LoweredTrace):
            raise TypeError(f"payload does not hold a LoweredTrace: {type(trace)!r}")
        if trace.format_version != LOWERING_FORMAT_VERSION:
            raise ValueError(
                f"lowered-trace payload has format {trace.format_version}, "
                f"this build expects {LOWERING_FORMAT_VERSION}"
            )
        return trace



def lower_dynamic(
    dynamic: Sequence[DynamicInstruction], program_name: str = "program"
) -> LoweredTrace:
    """Lower a dynamic instruction stream into its columnar form.

    The oracle lowering: one straightforward walk over the records of
    :meth:`~repro.arch.executor.SequentialExecutor.run_reference`, against
    which :func:`lower_steps` is tested.
    """
    reg_index: Dict[str, int] = {}

    def rename(reg: str) -> int:
        return reg_index.setdefault(reg, len(reg_index))

    columns: Tuple[List[int], ...] = tuple([] for _ in range(10))
    pcs, next_pcs, dst, src0, src1, src2, mem, flags_col, lat_col, bclass_col = columns
    for dyn in dynamic:
        is_load, is_store, is_leak, lat, bclass = _OPINFO[dyn.opcode]
        flags = 0
        if dyn.mem_address is not None:
            flags = F_LOAD if is_load else F_STORE if is_store else 0
        if dyn.is_branch:
            flags |= F_BRANCH
            if lat == LAT_ALU:
                lat = LAT_BRANCH
        for bit, present in (
            (F_CRYPTO, dyn.crypto), (F_SECRET, dyn.secret_operand),
            (F_LEAK, is_leak), (F_TAKEN, dyn.taken),
        ):
            if present:
                flags |= bit
        pcs.append(dyn.pc)
        next_pcs.append(dyn.next_pc)
        dst.append(-1 if dyn.dst is None else rename(dyn.dst))
        srcs = [rename(reg) for reg in dyn.srcs[:3]] + [-1, -1, -1]
        src0.append(srcs[0])
        src1.append(srcs[1])
        src2.append(srcs[2])
        mem.append(-1 if dyn.mem_address is None else dyn.mem_address)
        flags_col.append(flags)
        lat_col.append(lat)
        bclass_col.append(bclass)

    return LoweredTrace(
        program_name=program_name,
        n=len(pcs),
        reg_names=list(reg_index),
        pcs=pcs,
        next_pcs=next_pcs,
        dst=dst,
        src0=src0,
        src1=src1,
        src2=src2,
        mem=mem,
        flags=flags_col,
        lat_class=lat_col,
        bclass=bclass_col,
        max_pc=max(max(pcs, default=0), max(next_pcs, default=0)),
    )


def lower_steps(
    program: Program,
    pcs: List[int],
    last_next_pc: int,
    mem: List[int],
    secret: Sequence[bool],
    taken: Sequence[Optional[bool]],
) -> LoweredTrace:
    """Lower the per-step columns of a recording fast run.

    ``pcs``, ``mem`` (``-1`` where the step had no address), ``secret`` and
    ``taken`` hold one entry per step; each step's next PC is the following
    step's PC, and ``last_next_pc`` the final one.  Every other column is a
    fact of the instruction at the step's PC, computed once per executed PC.
    Renaming registers while walking the PCs in first-execution order gives
    the same dense indices as renaming them at their first appearance in
    the stream.
    """
    facts: List[Tuple[int, ...]] = [()] * (max(pcs) + 1)
    reg_index: Dict[str, int] = {}
    for pc in dict.fromkeys(pcs):
        instruction = program[pc]
        is_load, is_store, is_leak, lat, bclass = _OPINFO[instruction.opcode]
        flags = F_LOAD if is_load else F_STORE if is_store else 0
        if instruction.is_branch:
            flags |= F_BRANCH
            if lat == LAT_ALU:
                lat = LAT_BRANCH
        if instruction.crypto or program.is_crypto_pc(pc):
            flags |= F_CRYPTO
        if is_leak:
            flags |= F_LEAK
        # Destination before sources: the order lower_dynamic renames in.
        regs = [instruction.dst if instruction.writes_register else None]
        regs += instruction.srcs[:3]
        regs += [None] * (4 - len(regs))
        renamed = [-1 if reg is None else reg_index.setdefault(reg, len(reg_index)) for reg in regs]
        facts[pc] = (*renamed, flags, lat, bclass)

    dst, src0, src1, src2, static_flags, lat_class, bclass_col = (
        list(column) for column in zip(*map(facts.__getitem__, pcs))
    )
    next_pcs = pcs[1:]
    next_pcs.append(last_next_pc)
    return LoweredTrace(
        program_name=program.name,
        n=len(pcs),
        reg_names=list(reg_index),
        pcs=pcs,
        next_pcs=next_pcs,
        dst=dst,
        src0=src0,
        src1=src1,
        src2=src2,
        mem=mem,
        flags=[
            static | (F_SECRET if sec else 0) | (F_TAKEN if tak else 0)
            for static, sec, tak in zip(static_flags, secret, taken)
        ],
        lat_class=lat_class,
        bclass=bclass_col,
        max_pc=max(len(facts) - 1, last_next_pc),
    )


def lower_execution(result: ExecutionResult) -> LoweredTrace:
    """The timing trace of ``result``, memoized on the result.

    A recording :meth:`~repro.arch.executor.SequentialExecutor.run` already
    carries its trace (:func:`lower_steps`), so this returns it; a result
    from the oracle loop, or one whose memo was dropped, is lowered from
    ``result.dynamic`` once.  The memo lives on the
    :class:`ExecutionResult` instance itself, so every policy / config /
    flush point that shares the execution also shares the lowering —
    including the legacy per-point :func:`repro.uarch.core.simulate` path.

    Raises
    ------
    ValueError
        If ``result`` is record-free (see
        :attr:`~repro.arch.executor.ExecutionResult.has_records`) and carries
        no memoized lowering: its empty ``dynamic`` would lower to an empty
        trace that simulates to zero cycles.
    """
    cached = getattr(result, "_lowered_trace", None)
    if cached is not None and cached.n == result.instruction_count:
        return cached
    if not result.has_records:
        raise ValueError(
            f"cannot lower a record-free run of {result.program.name!r}: "
            "re-execute it with record_dynamic=True"
        )
    trace = lower_dynamic(result.dynamic, program_name=result.program.name)
    result._lowered_trace = trace  # type: ignore[attr-defined]
    return trace
