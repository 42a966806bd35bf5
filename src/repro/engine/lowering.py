"""Lowering: from the object dynamic stream to a columnar timing trace.

The sequential executor produces a list of
:class:`~repro.arch.executor.DynamicInstruction` dataclasses.  Walking that
list is what the timing model spends almost all of its time on — every
instruction costs a dozen attribute lookups and property calls before any
cycle arithmetic happens.  :func:`lower_execution` pays that object cost
exactly once per workload, producing a :class:`LoweredTrace`: parallel lists
of plain integers (opcode latency class, renamed register indices, memory
word address, branch class, and a flag bitmask) that the generated
kernels (:mod:`repro.engine.kernels`, :mod:`repro.engine.native`) iterate
with no per-instruction dispatch.

The lowering contract (see also the package docstring):

* **Policy- and config-independent.**  A lowered trace encodes only what the
  sequential execution determined: nothing in it depends on a
  ``DefensePolicy`` or a ``CoreConfig``, so one lowering serves every point
  of a sweep.  Latencies are stored as *classes* (``LAT_*``) and resolved
  against a concrete config when the engine runs.
* **Complete.**  Every field of ``DynamicInstruction`` the timing model
  reads has a column or a flag bit here; the engine never touches the
  original objects.
* **Rename-stable.**  Architectural register names are mapped to dense
  indices in first-appearance order, so two lowerings of the same execution
  are identical and ``reg_ready`` tracking becomes a flat list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.arch.executor import DynamicInstruction, ExecutionResult
from repro.isa.instructions import Opcode

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


def _build_opinfo() -> Dict[int, Tuple[bool, bool, bool, int, int]]:
    """Predecode per-opcode facts, keyed by ``id(member)``.

    Enum members are process-lifetime singletons, and ``Enum.__hash__`` is a
    Python-level call — hashing members per dynamic instruction made the
    opcode lookups one of the lowering's dominant costs.  An ``id``-keyed
    dict turns each lookup into a C-level int hash.  Values:
    ``(is_load, is_store, is_leak, static_lat, bclass)`` where
    ``static_lat`` is the latency class fixed by the opcode alone (0 for
    "ALU unless the instruction is a branch").
    """
    info: Dict[int, Tuple[bool, bool, bool, int, int]] = {}
    for op in Opcode:
        if op is Opcode.MUL:
            lat = LAT_MUL
        elif op is Opcode.DIV or op is Opcode.MOD:
            lat = LAT_DIV
        elif op is Opcode.STORE:
            lat = LAT_STORE
        else:
            lat = LAT_ALU
        info[id(op)] = (
            op is Opcode.LOAD,
            op is Opcode.STORE,
            op is Opcode.LEAK,
            lat,
            _BCLASS_OF_OPCODE.get(op, B_NONE),
        )
    return info


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

        Used by the fork fan-out: the parent lowers once and ships the
        preserialized payload, so each worker materializes the columns with
        one C-level unpickle instead of re-walking the object stream (or
        re-pickling ``DynamicInstruction`` objects); the shard backend ships
        the same payload to its worker subprocesses.
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


_OPINFO = _build_opinfo()


def lower_dynamic(
    dynamic: Sequence[DynamicInstruction], program_name: str = "program"
) -> LoweredTrace:
    """Lower a dynamic instruction stream into its columnar form.

    This is the hot path of cold workload preparation (one walk over every
    dynamic instruction), so the loop is tuned: opcode facts come from the
    ``id``-keyed :func:`_build_opinfo` table, the register rename is inlined,
    and the column appends are pre-bound.  The produced trace is
    bit-identical to the straightforward formulation (the engine parity
    tests would catch any drift).
    """
    n = len(dynamic)
    reg_index: Dict[str, int] = {}
    reg_names: List[str] = []
    rename_get = reg_index.get

    pcs: List[int] = []
    next_pcs: List[int] = []
    dst_col: List[int] = []
    src0: List[int] = []
    src1: List[int] = []
    src2: List[int] = []
    mem: List[int] = []
    flags_col: List[int] = []
    lat_col: List[int] = []
    bclass_col: List[int] = []
    pcs_append = pcs.append
    next_pcs_append = next_pcs.append
    dst_append = dst_col.append
    src0_append = src0.append
    src1_append = src1.append
    src2_append = src2.append
    mem_append = mem.append
    flags_append = flags_col.append
    lat_append = lat_col.append
    bclass_append = bclass_col.append
    opinfo = _OPINFO

    for dyn in dynamic:
        is_load, is_store, is_leak, lat, bclass = opinfo[id(dyn.opcode)]
        mem_address = dyn.mem_address
        is_branch = dyn.is_branch
        flags = 0
        if mem_address is None:
            mem_address = -1
        elif is_load:
            flags = F_LOAD
        elif is_store:
            flags = F_STORE
        if is_branch:
            flags |= F_BRANCH
            if lat == LAT_ALU:
                lat = LAT_BRANCH
        if dyn.crypto:
            flags |= F_CRYPTO
        if dyn.secret_operand:
            flags |= F_SECRET
        if is_leak:
            flags |= F_LEAK
        if dyn.taken:
            flags |= F_TAKEN

        dst = dyn.dst
        if dst is None:
            dst_i = -1
        else:
            dst_i = rename_get(dst)
            if dst_i is None:
                dst_i = len(reg_names)
                reg_index[dst] = dst_i
                reg_names.append(dst)
        srcs = dyn.srcs
        s0 = s1 = s2 = -1
        n_srcs = len(srcs)
        if n_srcs:
            reg = srcs[0]
            s0 = rename_get(reg)
            if s0 is None:
                s0 = len(reg_names)
                reg_index[reg] = s0
                reg_names.append(reg)
            if n_srcs > 1:
                reg = srcs[1]
                s1 = rename_get(reg)
                if s1 is None:
                    s1 = len(reg_names)
                    reg_index[reg] = s1
                    reg_names.append(reg)
                if n_srcs > 2:
                    reg = srcs[2]
                    s2 = rename_get(reg)
                    if s2 is None:
                        s2 = len(reg_names)
                        reg_index[reg] = s2
                        reg_names.append(reg)

        pcs_append(dyn.pc)
        next_pcs_append(dyn.next_pc)
        dst_append(dst_i)
        src0_append(s0)
        src1_append(s1)
        src2_append(s2)
        mem_append(mem_address)
        flags_append(flags)
        lat_append(lat)
        bclass_append(bclass)

    max_pc = max(max(pcs, default=0), max(next_pcs, default=0))
    return LoweredTrace(
        program_name=program_name,
        n=n,
        reg_names=reg_names,
        pcs=pcs,
        next_pcs=next_pcs,
        dst=dst_col,
        src0=src0,
        src1=src1,
        src2=src2,
        mem=mem,
        flags=flags_col,
        lat_class=lat_col,
        bclass=bclass_col,
        max_pc=max_pc,
    )


def lower_execution(result: ExecutionResult) -> LoweredTrace:
    """Lower ``result.dynamic`` once, memoizing the trace on the result.

    The memo lives on the :class:`ExecutionResult` instance itself, so every
    policy / config / flush point that shares the execution also shares the
    lowering — including the legacy per-point :func:`repro.uarch.core.simulate`
    path.

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
