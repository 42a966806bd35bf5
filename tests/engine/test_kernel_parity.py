"""Randomized-program fuzz parity: kernels ≡ run_reference.

The quick-suite parity tests pin the kernels to the golden models on real
crypto workloads; this suite generates small *synthetic* programs from a
seeded RNG — random arithmetic chains, masked loads and stores, public
data-dependent branches, calls/returns, and crypto regions mixing
key-independent loops (BTU-traceable), single-target calls, and
secret-dependent branches (fetch-stall) — and asserts that for every seed
the generated kernels agree with the reference loop bit-for-bit across all
seven designs, BTU-flush intervals, and warm-up counts.

The generator deliberately produces programs unlike the curated workloads:
odd loop trip counts, branch-dense regions, stores feeding loads (to
exercise forwarding and the store queue), and traces small enough that the
full design × flush × warm-up cross product stays cheap.
"""

import random

import pytest

from repro.analysis.tracegen import generate_trace_bundle
from repro.arch.executor import SequentialExecutor
from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.kernels import TIER_ENV
from repro.experiments.runner import DESIGN_BUILDERS
from repro.isa.builder import ProgramBuilder
from repro.uarch.config import GOLDEN_COVE_LIKE
from repro.uarch.core import CoreModel

ALL_DESIGNS = tuple(DESIGN_BUILDERS)
SEEDS = (2024, 7, 9000)


def build_fuzz_program(seed: int):
    """One random program plus two confidential-input variants."""
    rng = random.Random(seed)
    b = ProgramBuilder(f"fuzz-{seed}")

    data_len = 16
    data = [rng.randrange(1, 255) for _ in range(data_len)]
    key_len = 8
    key_a = [rng.randrange(1, 1 << 30) for _ in range(key_len)]
    key_b = [rng.randrange(1, 1 << 30) for _ in range(key_len)]
    data_addr = b.alloc("data", data)
    key_addr = b.alloc_secret("key", key_a)
    out_addr = b.alloc("out", 8)

    pool = [b.reg(f"v{i}") for i in range(6)]
    addr, idx, cond = b.regs("addr", "idx", "cond")
    for i, reg in enumerate(pool):
        b.movi(reg, rng.randrange(1, 1000) + i)

    def rand_reg():
        return rng.choice(pool)

    def arith_run(n):
        for _ in range(n):
            op = rng.choice(("add", "sub", "mul", "xor", "and_", "shl", "div"))
            dst, a = rand_reg(), rand_reg()
            if op in ("shl",):
                getattr(b, op)(dst, a, rng.randrange(1, 5))
            elif op == "div":
                b.div(dst, a, rng.randrange(2, 9))
            elif rng.random() < 0.4:
                getattr(b, op)(dst, a, rng.randrange(1, 64))
            else:
                getattr(b, op)(dst, a, rand_reg())

    def memory_op(base, length, secret=False):
        b.and_(idx, rand_reg(), length - 1)
        b.movi(addr, base)
        b.add(addr, addr, idx)
        if secret or rng.random() < 0.7:
            b.load(rand_reg(), addr)
        else:
            b.store(rand_reg(), addr)

    # A helper function exercising CALL/RET and the RSB.
    with b.function("helper") as helper:
        arith_run(3)

    segments = rng.randrange(4, 8)
    for _ in range(segments):
        kind = rng.random()
        if kind < 0.3:
            arith_run(rng.randrange(2, 8))
        elif kind < 0.5:
            memory_op(data_addr, data_len)
        elif kind < 0.6:
            b.call(helper)
        elif kind < 0.75:
            # Public data-dependent branch (BPU territory).
            b.and_(cond, rand_reg(), 1)
            with b.if_then(cond):
                arith_run(2)
                memory_op(data_addr, data_len)
        else:
            # A crypto region: a constant-trip loop (key-independent →
            # traceable), sometimes with a secret-dependent branch inside
            # (input-dependent → fetch stall under Cassandra).
            with b.crypto():
                i = b.reg("ci")
                trips = rng.randrange(2, 7)
                with b.for_range(i, 0, trips):
                    arith_run(rng.randrange(1, 4))
                    if rng.random() < 0.5:
                        memory_op(key_addr, key_len, secret=True)
                    if rng.random() < 0.4:
                        b.and_(cond, rand_reg(), 1)
                        with b.if_then(cond):
                            arith_run(1)
                if rng.random() < 0.5:
                    b.declassify(pool[0])
                b.movi(addr, out_addr)
                b.store(pool[0], addr)
    b.halt()
    program = b.build()

    def overrides(values):
        mapping = {data_addr + i: v for i, v in enumerate(data)}
        mapping.update({key_addr + i: v for i, v in enumerate(values)})
        return mapping

    return program, [overrides(key_a), overrides(key_b)]


def reference_simulate(result, bundle, design, flush=None, warmups=1, config=None):
    core = CoreModel(
        config=config or GOLDEN_COVE_LIKE,
        policy=DESIGN_BUILDERS[design](bundle),
        bundle=bundle,
        btu_flush_interval=flush,
    )
    for _ in range(warmups):
        core.run_reference(result.dynamic)
        core.reset_stats()
    return core.run_reference(result.dynamic)


@pytest.fixture(scope="module", params=SEEDS)
def fuzz_case(request):
    program, inputs = build_fuzz_program(request.param)
    result = SequentialExecutor().run(program, memory_overrides=inputs[0])
    bundle = generate_trace_bundle(program, inputs)
    return request.param, result, bundle


def _assert_matches_reference(result, bundle, points, monkeypatch, label):
    monkeypatch.setenv(TIER_ENV, "python")
    kernel_stats = BatchStats()
    with_kernels = simulate_batch(result, bundle, points, batch_stats=kernel_stats)
    assert kernel_stats.fallback_points == 0
    assert kernel_stats.kernel_points == len(points)
    for point, kernel_sim in zip(points, with_kernels):
        reference = reference_simulate(
            result,
            bundle,
            _design_of(point, bundle),
            flush=point.btu_flush_interval,
            warmups=point.warmup_passes,
        )
        ref = reference.stats.as_dict()
        got = kernel_sim.stats.as_dict()
        diffs = {key: (ref[key], got[key]) for key in ref if got[key] != ref[key]}
        assert not diffs, f"{label}/{kernel_sim.policy_name}: kernel vs reference {diffs}"


def _design_of(point, bundle):
    for design in ALL_DESIGNS:
        if DESIGN_BUILDERS[design](bundle).name == point.policy.name:
            return design
    raise AssertionError(point.policy.name)


def test_all_designs_agree(fuzz_case, monkeypatch):
    seed, result, bundle = fuzz_case
    points = [
        PointSpec(policy=DESIGN_BUILDERS[design](bundle)) for design in ALL_DESIGNS
    ]
    _assert_matches_reference(result, bundle, points, monkeypatch, f"seed={seed}")


@pytest.mark.parametrize("flush", [100, 1500])
def test_flush_intervals_agree(fuzz_case, monkeypatch, flush):
    seed, result, bundle = fuzz_case
    points = [
        PointSpec(policy=DESIGN_BUILDERS[design](bundle), btu_flush_interval=flush)
        for design in ALL_DESIGNS
    ]
    _assert_matches_reference(result, bundle, points, monkeypatch, f"seed={seed}/flush={flush}")


@pytest.mark.parametrize("warmups", [0, 2])
def test_warmup_counts_agree(fuzz_case, monkeypatch, warmups):
    seed, result, bundle = fuzz_case
    points = [
        PointSpec(policy=DESIGN_BUILDERS[design](bundle), warmup_passes=warmups)
        for design in ALL_DESIGNS
    ]
    _assert_matches_reference(result, bundle, points, monkeypatch, f"seed={seed}/w={warmups}")
