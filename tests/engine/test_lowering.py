"""Invariants of the columnar lowering."""

import pytest

from repro.engine.lowering import (
    F_BRANCH,
    F_CRYPTO,
    F_LOAD,
    F_SECRET,
    F_STORE,
    F_TAKEN,
    LAT_ALU,
    LAT_BRANCH,
    LAT_DIV,
    LAT_MUL,
    LAT_STORE,
    B_NONE,
    bclass_of,
    lower_dynamic,
    lower_execution,
)
from repro.experiments.runner import prepare_workload
from repro.isa.instructions import Opcode


@pytest.fixture(scope="module")
def artifact():
    return prepare_workload("ChaCha20_ct")


def test_lowering_matches_dynamic_stream(artifact):
    dynamic = artifact.result.dynamic
    trace = lower_dynamic(dynamic, program_name="x")
    assert trace.n == len(dynamic)
    for column in trace.columns():
        assert len(column) == trace.n

    rename = {name: index for index, name in enumerate(trace.reg_names)}
    for i, dyn in enumerate(dynamic):
        assert trace.pcs[i] == dyn.pc
        assert trace.next_pcs[i] == dyn.next_pc
        fl = trace.flags[i]
        assert bool(fl & F_LOAD) == (dyn.is_load and dyn.mem_address is not None)
        assert bool(fl & F_STORE) == (dyn.is_store and dyn.mem_address is not None)
        assert bool(fl & F_BRANCH) == dyn.is_branch
        assert bool(fl & F_CRYPTO) == dyn.crypto
        assert bool(fl & F_SECRET) == dyn.secret_operand
        assert bool(fl & F_TAKEN) == bool(dyn.taken)
        if dyn.mem_address is not None:
            assert trace.mem[i] == dyn.mem_address
        else:
            assert trace.mem[i] == -1
        if dyn.dst is not None:
            assert trace.reg_names[trace.dst[i]] == dyn.dst
        else:
            assert trace.dst[i] == -1
        lowered_srcs = [
            s for s in (trace.src0[i], trace.src1[i], trace.src2[i]) if s >= 0
        ]
        assert tuple(trace.reg_names[s] for s in lowered_srcs) == dyn.srcs
        assert all(rename[name] == s for name, s in zip(dyn.srcs, lowered_srcs))
        assert trace.bclass[i] == bclass_of(dyn.opcode)
        if dyn.opcode is Opcode.MUL:
            assert trace.lat_class[i] == LAT_MUL
        elif dyn.opcode in (Opcode.DIV, Opcode.MOD):
            assert trace.lat_class[i] == LAT_DIV
        elif dyn.opcode is Opcode.STORE:
            assert trace.lat_class[i] == LAT_STORE
        elif dyn.is_branch:
            assert trace.lat_class[i] == LAT_BRANCH
        else:
            assert trace.lat_class[i] == LAT_ALU
    assert trace.max_pc == max(
        max(trace.pcs, default=0), max(trace.next_pcs, default=0)
    )


def test_lowering_is_deterministic(artifact):
    a = lower_dynamic(artifact.result.dynamic, "x")
    b = lower_dynamic(artifact.result.dynamic, "x")
    assert a.columns() == b.columns()
    assert a.reg_names == b.reg_names


def test_lower_execution_memoizes_on_result(artifact):
    result = artifact.result
    if hasattr(result, "_lowered_trace"):
        del result._lowered_trace
    first = lower_execution(result)
    assert lower_execution(result) is first


def test_non_branches_have_no_branch_class(artifact):
    trace = lower_execution(artifact.result)
    for fl, bc in zip(trace.flags, trace.bclass):
        if not fl & F_BRANCH:
            assert bc == B_NONE


# --------------------------------------------------------------------------- #
# Record-free results
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def poly_record_free():
    """Poly1305_ctmul prepared in process, plus a record-free run of the same input."""
    from repro.arch.executor import SequentialExecutor

    recorded = prepare_workload("Poly1305_ctmul")
    kernel = recorded.kernel
    free = SequentialExecutor(record_dynamic=False).run(
        kernel.program, memory_overrides=kernel.inputs[0]
    )
    return recorded, free


def test_record_free_result_reports_no_records(poly_record_free):
    recorded, free = poly_record_free
    assert recorded.result.has_records
    assert not free.has_records
    assert free.dynamic == [] and free.instruction_count == recorded.result.instruction_count
    stripped = recorded.result.without_records()
    assert not stripped.has_records
    assert stripped.state is recorded.result.state
    assert recorded.result.has_records  # the copy leaves the original intact


def test_record_free_result_refuses_to_simulate(poly_record_free):
    """A record-free run used to lower to an empty trace: 0 cycles, not 401."""
    from repro.engine.batch import PointSpec, simulate_batch
    from repro.experiments.runner import DESIGN_BUILDERS

    recorded, free = poly_record_free
    point = PointSpec(policy=DESIGN_BUILDERS["cassandra"](recorded.bundle))
    with pytest.raises(ValueError, match="record-free"):
        lower_execution(free)
    with pytest.raises(ValueError, match="record-free"):
        simulate_batch(free, recorded.bundle, [point])
    assert recorded.simulate("cassandra").cycles == 401


def test_record_free_result_with_memoized_lowering_simulates(poly_record_free):
    from repro.arch.executor import SequentialExecutor
    from repro.engine.batch import PointSpec, simulate_batch
    from repro.experiments.runner import DESIGN_BUILDERS

    recorded, _ = poly_record_free
    kernel = recorded.kernel
    free = SequentialExecutor(record_dynamic=False).run(
        kernel.program, memory_overrides=kernel.inputs[0]
    )
    trace = lower_execution(recorded.result)
    free._lowered_trace = trace
    assert lower_execution(free) is trace  # memo keyed on instruction_count
    point = PointSpec(policy=DESIGN_BUILDERS["cassandra"](recorded.bundle))
    [simulation] = simulate_batch(free, recorded.bundle, [point])
    assert simulation.cycles == recorded.simulate("cassandra").cycles


def test_object_loop_fallback_refuses_a_record_free_result(poly_record_free):
    from repro.engine.batch import PointSpec, simulate_batch
    from repro.uarch.defenses.unsafe import UnsafeBaseline

    class CustomBaseline(UnsafeBaseline):
        """Not the exact type, so it has no engine spec."""

    recorded, free = poly_record_free
    trace = lower_execution(recorded.result)
    with pytest.raises(ValueError, match="object-loop fallback"):
        simulate_batch(free, recorded.bundle, [PointSpec(policy=CustomBaseline())], trace=trace)
