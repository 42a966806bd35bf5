"""Differential tests: the decoded fast loop against the reference loop.

``SequentialExecutor.run`` interprets a per-PC decoded table and lowers its
own timing trace; ``SequentialExecutor.run_reference`` steps each
:class:`Instruction` through ``_step`` and records a
:class:`DynamicInstruction` per step.  Every field of the
:class:`ExecutionResult` must agree, the fast run's trace must be the
oracle's ``lower_dynamic`` lowering of the reference records byte for byte,
and both loops must raise the same :class:`ExecutionError` messages.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.executor import ExecutionError, SequentialExecutor, decode_program
from repro.crypto.synthetic import build_synthetic, mix_labels
from repro.crypto.workloads import get_workload, workload_names
from repro.engine.lowering import lower_dynamic, lower_execution
from repro.isa.builder import ProgramBuilder
from repro.isa.instructions import Opcode


def assert_same_result(fast, reference):
    assert fast.program is reference.program
    assert fast.state == reference.state
    assert fast.observations == reference.observations
    assert fast.branch_outcomes == reference.branch_outcomes
    assert fast.instruction_count == reference.instruction_count
    assert fast.has_records == reference.has_records
    if reference.has_records:
        oracle = lower_dynamic(reference.dynamic, reference.program.name)
        assert lower_execution(fast).to_bytes() == oracle.to_bytes()
        assert fast._replay is not None  # the run's own trace: no record was built
    else:
        assert fast.dynamic == reference.dynamic == []
        with pytest.raises(ValueError, match="record-free"):
            lower_execution(fast)


def run_both(program, record_dynamic=True, max_steps=5_000_000, **kwargs):
    """Both loops' outcome: the result, or the exception type and message."""
    outcomes = []
    for loop in ("run", "run_reference"):
        executor = SequentialExecutor(max_steps=max_steps, record_dynamic=record_dynamic)
        try:
            outcomes.append(getattr(executor, loop)(program, **kwargs))
        except Exception as exc:  # noqa: BLE001 - compared across the loops
            outcomes.append((type(exc), str(exc)))
    return outcomes


def assert_loops_agree(program, **kwargs):
    fast, reference = run_both(program, **kwargs)
    if isinstance(reference, tuple):
        assert fast == reference
    else:
        assert_same_result(fast, reference)


# --------------------------------------------------------------------------- #
# Real kernels
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", workload_names())
def test_fast_loop_matches_reference_on_every_workload_input(name):
    kernel = get_workload(name).kernel()
    for overrides in kernel.inputs:
        assert_loops_agree(kernel.program, memory_overrides=overrides)


@pytest.mark.parametrize("primitive", ["chacha20", "curve25519"])
def test_fast_loop_matches_reference_on_synthetic_mixes(primitive):
    for mix in mix_labels():
        kernel = build_synthetic(primitive, mix)
        for overrides in kernel.inputs:
            assert_loops_agree(kernel.program, memory_overrides=overrides)


@pytest.mark.parametrize("name", ["ChaCha20_ct", "Poly1305_ctmul", "ModPow_i31"])
def test_fast_loop_matches_reference_without_dynamic_records(name):
    kernel = get_workload(name).kernel()
    fast, reference = run_both(
        kernel.program, record_dynamic=False, memory_overrides=kernel.inputs[0]
    )
    assert fast.dynamic == reference.dynamic == []
    assert_same_result(fast, reference)


def test_fast_run_records_its_seconds_outside_equality(toy_program):
    fast = SequentialExecutor().run(toy_program)
    reference = SequentialExecutor().run_reference(toy_program)
    assert fast.seconds > 0.0
    assert fast == reference


def test_program_is_decoded_once(toy_program):
    assert decode_program(toy_program) is decode_program(toy_program)


# --------------------------------------------------------------------------- #
# Records on demand
# --------------------------------------------------------------------------- #
@pytest.fixture()
def reference_runs(monkeypatch):
    """Count every ``SequentialExecutor.run_reference`` call."""
    calls = []
    original = SequentialExecutor.run_reference

    def run_reference(self, program, *args, **kwargs):
        calls.append(program.name)
        return original(self, program, *args, **kwargs)

    monkeypatch.setattr(SequentialExecutor, "run_reference", run_reference)
    return calls


def test_fresh_records_come_from_the_oracle_once(reference_runs):
    kernel = get_workload("Poly1305_ctmul").kernel()
    fast = kernel.run(0)
    assert reference_runs == []
    assert fast.has_records
    records = fast.dynamic
    assert fast.dynamic is records
    assert reference_runs == [kernel.program.name]
    reference = SequentialExecutor().run_reference(
        kernel.program, memory_overrides=kernel.inputs[0]
    )
    assert records == reference.dynamic
    assert len(records) == fast.instruction_count
    assert lower_dynamic(records, kernel.program.name).to_bytes() == lower_execution(
        fast
    ).to_bytes()


def test_owed_records_must_reproduce_the_run(reference_runs):
    kernel = get_workload("ChaCha20_ct").kernel()
    fast = kernel.run(0)
    fast.state.registers["tampered"] = 1
    with pytest.raises(ExecutionError, match="does not reproduce"):
        fast.dynamic
    assert reference_runs == [kernel.program.name]


def test_record_free_results_refuse_to_lower():
    kernel = get_workload("ChaCha20_ct").kernel()
    free = SequentialExecutor(record_dynamic=False).run(
        kernel.program, memory_overrides=kernel.inputs[0]
    )
    fresh = kernel.run(0)
    stripped = pickle.loads(pickle.dumps(fresh.without_records()))
    for result in (free, stripped):
        assert not result.has_records
        assert result.dynamic == []
        assert not hasattr(result, "_lowered_trace")
        with pytest.raises(ValueError, match="record-free"):
            lower_execution(result)
    assert stripped.state == fresh.state
    assert stripped.instruction_count == fresh.instruction_count
    assert fresh.has_records  # the copy leaves the run intact


# --------------------------------------------------------------------------- #
# Error paths
# --------------------------------------------------------------------------- #
def test_step_limit_message_matches():
    b = ProgramBuilder("spin")
    loop = b.label("forever")
    b.place(loop)
    b.jmp(loop)
    fast, reference = run_both(b.build(), max_steps=100)
    assert fast == reference == (ExecutionError, "program 'spin' exceeded 100 steps")


def test_invalid_pc_message_matches():
    b = ProgramBuilder("wild")
    b.movi("t", 1000)
    b.jmpi("t")
    b.halt()
    fast, reference = run_both(b.build())
    assert fast == reference == (ExecutionError, "program 'wild' jumped to invalid PC 1000")


def test_malformed_instruction_fails_identically():
    b = ProgramBuilder("malformed")
    b.movi("a", 1)
    b.emit(Opcode.XOR, dst="a")
    fast, reference = run_both(b.build())
    assert fast == reference
    assert fast[0] is IndexError


# --------------------------------------------------------------------------- #
# Generated programs
# --------------------------------------------------------------------------- #
REGS = ("a", "b", "c", "d")
WORDS = 8
#: Immediates that hit the ALU's edge cases: zero divisors, shifts of 64 or
#: more, rotates by 0/32/64, negative and over-wide values.
EDGE_IMMS = (0, 1, 2, 31, 32, 33, 63, 64, 65, 100, -1, -7, (1 << 64) - 1, 1 << 70)
ALU_OPS = (
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD, Opcode.AND,
    Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.ROTL, Opcode.ROTR,
    Opcode.ROTL64, Opcode.ROTR64, Opcode.CMPEQ, Opcode.CMPNE, Opcode.CMPLT,
    Opcode.CMPLE, Opcode.CMPGT, Opcode.CMPGE,
)

regs = st.sampled_from(REGS)
values = st.one_of(st.sampled_from(EDGE_IMMS), st.integers(-(1 << 66), 1 << 66))
operands = st.one_of(regs, values)

leaf_ops = st.one_of(
    st.tuples(st.just("alu"), st.sampled_from(ALU_OPS), regs, regs, operands),
    st.tuples(st.just("not"), regs, regs),
    st.tuples(st.just("movi"), regs, values),
    st.tuples(st.just("mov"), regs, regs),
    st.tuples(st.just("csel"), regs, regs, regs, regs),
    st.tuples(st.just("load"), regs, st.booleans(), st.integers(0, WORDS - 1)),
    st.tuples(st.just("load_at"), regs, regs, st.booleans()),
    st.tuples(st.just("store"), regs, st.booleans(), st.integers(0, WORDS - 1)),
    st.tuples(st.just("store_at"), regs, regs, st.booleans()),
    st.tuples(st.just("declassify"), regs),
    st.tuples(st.just("leak"), regs),
    st.tuples(st.just("nop"), st.sampled_from(["nop", "fence", "hint"])),
    st.tuples(st.just("odd"), st.sampled_from(["alu3", "nop_src", "load2", "branch2"]), regs),
    st.just(("ret",)),
)


def _blocks(children):
    return st.one_of(
        st.tuples(st.just("if"), regs, st.booleans(), children),
        st.tuples(st.just("loop"), st.integers(0, 3), children),
        st.tuples(st.just("call"), children),
        st.tuples(st.just("crypto"), children),
    )


ops = st.recursive(
    leaf_ops,
    lambda children: _blocks(st.lists(children, max_size=5)),
    max_leaves=24,
)


class _Emitter:
    """Turn an op tree into ProgramBuilder calls."""

    def __init__(self) -> None:
        self.b = ProgramBuilder("generated")
        self.public = self.b.alloc("public", [(i * 0x9E3779B9) for i in range(WORDS)])
        self.secret = self.b.alloc_secret("secret", [-(i + 1) << 62 for i in range(WORDS)])
        self.depth = 0
        self.functions = 0

    def base(self, secret: bool) -> int:
        return self.secret if secret else self.public

    def emit_all(self, tree) -> None:
        for op in tree:
            self.emit(op)

    def emit(self, op) -> None:
        b = self.b
        kind = op[0]
        if kind == "alu":
            _, opcode, dst, a, operand = op
            if isinstance(operand, int):
                b.emit(opcode, dst=dst, srcs=(a,), imm=operand)
            else:
                b.emit(opcode, dst=dst, srcs=(a, operand))
        elif kind == "not":
            b.not_(op[1], op[2])
        elif kind == "movi":
            b.movi(op[1], op[2])
        elif kind == "mov":
            b.mov(op[1], op[2])
        elif kind == "csel":
            b.csel(*op[1:])
        elif kind == "load":
            _, dst, secret, offset = op
            b.movi("addr", self.base(secret))
            b.load(dst, "addr", offset)
        elif kind == "load_at":
            # A data-dependent (possibly secret) address within the buffer.
            _, dst, index, secret = op
            b.and_("addr", index, WORDS - 1)
            b.add("addr", "addr", self.base(secret))
            b.load(dst, "addr")
        elif kind == "store":
            _, src, secret, offset = op
            b.movi("addr", self.base(secret))
            b.store(src, "addr", offset)
        elif kind == "store_at":
            _, src, index, secret = op
            b.and_("addr", index, WORDS - 1)
            b.add("addr", "addr", self.base(secret))
            b.store(src, "addr")
        elif kind == "declassify":
            b.declassify(op[1])
        elif kind == "leak":
            b.leak(op[1])
        elif kind == "nop":
            b.emit(Opcode[op[1].upper()], imm=5 if op[1] == "hint" else None)
        elif kind == "odd":
            # Operand shapes outside the decoded fast kinds.
            _, shape, reg = op
            if shape == "alu3":
                b.emit(Opcode.ADD, dst=reg, srcs=(reg, "b", "c"))
            elif shape == "load2":
                b.emit(Opcode.LOAD, dst=reg, srcs=(reg, "b"))
            elif shape == "branch2":
                # Taken or not, the next PC is the same: only the taken
                # flag tells the two apart.
                skip = b.label("skip")
                b.emit(Opcode.BNEZ, srcs=(reg, "b"), target=skip)
                b.place(skip)
            else:
                b.emit(Opcode.NOP, srcs=(reg,))
        elif kind == "ret":
            # Inside a function this returns early; at top level the call
            # stack is empty and the program halts.
            b.ret()
        elif kind == "if":
            _, cond, negate, body = op
            if negate:
                b.cmpeq("cond", cond, 0)
                cond = "cond"
            with b.if_then(cond):
                self.emit_all(body)
        elif kind == "loop":
            _, count, body = op
            counter = f"i{self.depth}"
            self.depth += 1
            with b.for_range(counter, 0, count):
                self.emit_all(body)
            self.depth -= 1
        elif kind == "call":
            self.functions += 1
            with b.function(f"f{self.functions}") as entry:
                self.emit_all(op[1])
            b.call(entry)
        elif kind == "crypto":
            with b.crypto():
                self.emit_all(op[1])
        else:  # pragma: no cover - strategy and emitter out of sync
            raise AssertionError(kind)


@st.composite
def generated_runs(draw):
    emitter = _Emitter()
    # Start with one secret and one public register, so taint reaches
    # addresses, stored values and branch conditions early.
    emitter.emit_all([("load", "c", True, 0), ("load", "d", False, 1), ("movi", "a", 0)])
    emitter.emit_all(draw(st.lists(ops, min_size=1, max_size=8)))
    program = emitter.b.build()
    overrides = draw(
        st.dictionaries(st.integers(0, WORDS - 1), values, max_size=3)
    )
    initial = draw(st.dictionaries(regs, values, max_size=2))
    return (
        program,
        {emitter.secret + offset: value for offset, value in overrides.items()},
        initial,
    )


@settings(max_examples=150, deadline=None)
@given(generated_runs(), st.booleans())
def test_fast_loop_matches_reference_on_generated_programs(run, record_dynamic):
    program, overrides, initial = run
    assert_loops_agree(
        program,
        record_dynamic=record_dynamic,
        max_steps=20_000,
        memory_overrides=overrides,
        initial_registers=initial,
    )


def test_alu_edge_cases_match_reference():
    """Every ALU opcode against every edge immediate, as an immediate and as
    a register, on narrow, 32-bit-straddling, wide and secret operands."""
    b = ProgramBuilder("alu-edges")
    secret = b.alloc_secret("s", [0xDEADBEEFCAFEF00D])
    b.movi("addr", secret)
    b.load("s", "addr")
    for value in (0, 1, 0x80000001, 0xDEADBEEFCAFEF00D, (1 << 64) - 1):
        b.movi("a", value)
        for opcode in ALU_OPS + (Opcode.NOT,):
            for imm in EDGE_IMMS:
                if imm < 0 and opcode in (Opcode.SHL, Opcode.SHR):
                    continue  # a negative shift count raises in both loops
                b.emit(opcode, dst="x", srcs=("a",), imm=imm)
                b.emit(opcode, dst="y", srcs=("s",), imm=imm)
                b.movi("b", imm)
                b.emit(opcode, dst="z", srcs=("a", "b"))
                b.emit(opcode, dst="w", srcs=("b", "s"))
    assert_loops_agree(b.build())


def test_generated_programs_reach_every_fast_kind():
    """The hypothesis menu above covers every opcode the decoder knows."""
    emitter = _Emitter()
    emitter.emit_all(
        [("alu", opcode, "a", "b", "c") for opcode in ALU_OPS]
        + [("alu", opcode, "a", "b", 64) for opcode in ALU_OPS]
        + [
            ("not", "a", "b"), ("movi", "a", 3), ("mov", "a", "b"),
            ("csel", "a", "b", "c", "d"), ("load", "a", True, 1),
            ("store", "a", False, 2), ("declassify", "a"), ("leak", "a"),
            ("nop", "fence"), ("nop", "hint"), ("odd", "alu3", "a"),
            ("odd", "load2", "a"), ("odd", "branch2", "a"),
            ("movi", "a", 0), ("if", "a", True, [("call", [("call", [("ret",)])])]),
            ("loop", 2, [("nop", "nop")]), ("ret",),
        ]
    )
    program = emitter.b.build()
    executed = {record.opcode for record in SequentialExecutor().run(program).dynamic}
    assert set(ALU_OPS) | {
        Opcode.NOT, Opcode.MOVI, Opcode.MOV, Opcode.CSEL, Opcode.LOAD, Opcode.STORE,
        Opcode.DECLASSIFY, Opcode.LEAK, Opcode.FENCE, Opcode.HINT, Opcode.BEQZ,
        Opcode.BNEZ, Opcode.JMP, Opcode.CALL, Opcode.RET,
    } <= executed
    assert_loops_agree(program)
