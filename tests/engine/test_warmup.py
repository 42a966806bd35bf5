"""Warm-up sharing: once per (workload × config), not once per policy.

These tests pin the batch layer's sharing machinery (component walks,
snapshot round-trips, the forwarding exactness guard) on the python tier.
Its residency proofs skip the cache component walks for programs that fit
the L1s, so every walk count that depends on those proofs is taken under
:data:`NON_RESIDENT`, a geometry where both proofs fail.  The proofs'
own skipping is asserted in ``tests/engine/test_engine_kernels.py``.
"""

import pytest

from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.kernels import TIER_ENV
from repro.engine.warmup import WarmStateBuilder
from repro.experiments.runner import DESIGN_BUILDERS, prepare_workload
from repro.uarch.bpu import BranchPredictionUnit
from repro.uarch.caches import Cache, CacheHierarchy
from repro.uarch.config import GOLDEN_COVE_LIKE, CacheConfig, CoreConfig


@pytest.fixture(autouse=True)
def _python_tier(monkeypatch):
    monkeypatch.setenv(TIER_ENV, "python")


ALL_DESIGNS = tuple(DESIGN_BUILDERS)

#: A workload whose memory-access pattern makes the shared d-cache replay
#: provably exact under store forwarding (``forwarding_shareable() is
#: True``), so every policy shares every warm component.
SHAREABLE_WORKLOAD = "ModPow_i31"

#: One-line L1I and a two-line, one-word-per-line L1D: ModPow's code and
#: data overflow both, so neither residency proof holds and the batch warms
#: every cache component.  The d-cache replay stays forwarding-exact.
NON_RESIDENT = CoreConfig(
    l1i=CacheConfig(64, 64, 1, 5, name="L1I"),
    l1d=CacheConfig(16, 8, 1, 5, name="L1D"),
)


@pytest.fixture(scope="module")
def artifact():
    art = prepare_workload(SHAREABLE_WORKLOAD)
    return art


def _lowered(artifact):
    from repro.engine.lowering import lower_execution

    return lower_execution(artifact.result)


def _fresh_batch(artifact, **point_kwargs):
    if hasattr(artifact.result, "_lowered_trace"):
        del artifact.result._lowered_trace
    point_kwargs.setdefault("config", NON_RESIDENT)
    specs = [
        PointSpec(policy=DESIGN_BUILDERS[design](artifact.bundle), **point_kwargs)
        for design in ALL_DESIGNS
    ]
    batch_stats = BatchStats()
    simulate_batch(artifact.result, artifact.bundle, specs, batch_stats=batch_stats)
    return batch_stats


def test_warmup_runs_once_per_workload_and_config(artifact):
    """Seven policies, zero full warm-up passes, one walk per component class.

    The legacy path pays 7 full warm-up simulations (one per policy).  The
    batch warms each component once per (workload, config): one icache walk,
    one d-cache walk, one BPU walk per branch-subsequence class ("all" for
    the BPU policies, "noncrypto" for the Cassandra family), and one BTU
    replay walk — five trace walks total, shared by all seven measured
    passes.
    """
    builder = WarmStateBuilder(_lowered(artifact), NON_RESIDENT)
    assert not builder.icache_resident() and not builder.dcache_resident()
    assert builder.forwarding_shareable()
    stats = _fresh_batch(artifact)
    assert stats.points == len(ALL_DESIGNS)
    assert stats.measured_passes == len(ALL_DESIGNS)
    assert stats.full_warmup_passes == 0
    assert stats.forwarding_private_points == 0
    assert stats.warmup_component_walks == 5
    assert stats.lowerings == 1  # the trace was lowered exactly once


def test_warmup_zero_passes_builds_no_state(artifact):
    stats = _fresh_batch(artifact, warmup_passes=0)
    assert stats.full_warmup_passes == 0
    assert stats.warmup_component_walks == 0


def test_flush_interval_points_warm_privately(artifact):
    """Cycle-triggered BTU flushes make warm-up policy-private — but only
    for the policies that actually replay the BTU (cassandra, +stl,
    +prospect); everyone else still shares components."""
    stats = _fresh_batch(artifact, btu_flush_interval=500)
    assert stats.full_warmup_passes == 3
    # bpu-kind policies + lite still share: icache, dcache, bpu(all),
    # bpu(noncrypto) — no BTU replay walk is needed by any of them.
    assert stats.warmup_component_walks == 4


def test_second_batch_reuses_lowering(artifact):
    _fresh_batch(artifact)
    specs = [PointSpec(policy=DESIGN_BUILDERS["spt"](artifact.bundle))]
    stats = BatchStats()
    simulate_batch(artifact.result, artifact.bundle, specs, batch_stats=stats)
    assert stats.lowerings == 0  # memoized on the ExecutionResult


def test_component_walks_scale_with_warmup_passes(artifact):
    stats = _fresh_batch(artifact, warmup_passes=2)
    assert stats.full_warmup_passes == 0
    assert stats.warmup_component_walks == 10  # 5 classes x 2 passes


# --------------------------------------------------------------------------- #
# Snapshot / restore round-trips
# --------------------------------------------------------------------------- #
def test_cache_snapshot_roundtrip():
    cache = Cache(GOLDEN_COVE_LIKE.l1d)
    for address in (0, 64, 128, 4096, 64):
        cache.access(address)
    snap = cache.snapshot_state()
    probe_addresses = (0, 64, 128, 4096, 8192)
    expected = [cache.probe(a) for a in probe_addresses]

    other = Cache(GOLDEN_COVE_LIKE.l1d)
    other.restore_state(snap)
    assert [other.probe(a) for a in probe_addresses] == expected
    # The snapshot is a copy: mutating the restored cache must not leak back.
    other.access(8192)
    assert not cache.probe(8192)


def test_bpu_snapshot_roundtrip():
    from repro.engine.lowering import B_COND

    bpu = BranchPredictionUnit(GOLDEN_COVE_LIKE)
    for taken in (True, True, False, True):
        predicted = bpu.predict_class(B_COND, 10, 20 if taken else 11)
        bpu.update_class(B_COND, 10, 20 if taken else 11, taken, predicted)
    snap = bpu.snapshot_state()

    other = BranchPredictionUnit(GOLDEN_COVE_LIKE)
    other.restore_state(snap)
    assert other.predict_class(B_COND, 10, 20) == bpu.predict_class(B_COND, 10, 20)
    assert other._pht == bpu._pht
    assert other._history == bpu._history


def test_hierarchy_snapshot_covers_all_levels():
    config = CoreConfig()
    hierarchy = CacheHierarchy(config)
    hierarchy.load_latency(12345)  # misses all the way to memory
    snap = hierarchy.snapshot_state()
    other = CacheHierarchy(config)
    other.restore_state(snap)
    address = 12345 * config.word_bytes
    assert other.l1d.probe(address)
    assert other.l2.probe(address)
    assert other.l3.probe(address)


def test_builder_caches_component_snapshots(artifact):
    from repro.engine.lowering import lower_execution
    from repro.uarch.btu import BranchTraceUnit

    trace = lower_execution(artifact.result)
    hint_table = artifact.bundle.hint_table

    def btu_factory():
        return BranchTraceUnit(
            GOLDEN_COVE_LIKE.btu, artifact.bundle.hardware_traces(), hint_table
        )

    builder = WarmStateBuilder(trace, GOLDEN_COVE_LIKE, hint_table, btu_factory)
    first = builder._icache_state(1)
    assert builder._icache_state(1) is first
    assert builder.component_walks == 1
    builder._bpu_state("all", 1)
    builder._bpu_state("all", 1)
    assert builder.component_walks == 2


# --------------------------------------------------------------------------- #
# Store-forwarding exactness guard
# --------------------------------------------------------------------------- #
def _forwarding_divergent_execution():
    """A stream where skipping a forwarded load's d-cache access matters.

    L1D: 64 sets, 12 ways, 64-byte lines, 8-byte words -> word addresses
    512 apart share a set.  A long-latency DIV feeds a store, so the load
    of the same address right after it forwards (and skips its cache
    access) in the reference warm-up; an interleaved same-set load between
    them makes that skip change the set's LRU order, and eleven more
    same-set lines overflow the 12 ways by exactly one, so the two orders
    evict *different* victims and the measured pass diverges.
    """
    from repro.arch.executor import SequentialExecutor
    from repro.isa.builder import ProgramBuilder

    base = 4096  # word address; (4096 // 8) % 64 == 0 -> set 0
    b = ProgramBuilder("fwd-divergent")
    x, y, v, addr = b.regs("x", "y", "v", "addr")
    b.movi(x, 7)
    b.movi(y, 3)
    b.div(v, x, y)  # long latency: keeps the store in flight
    b.movi(addr, base)
    b.store(v, addr)  # store A
    b.movi(addr, base + 512)
    b.load(v, addr)  # load B: intervening access to A's set
    b.movi(addr, base)
    b.load(v, addr)  # load A: forwarded -> reference skips the access
    for line in range(2, 13):  # eleven more lines overflow the 12 ways by one
        b.movi(addr, base + 512 * line)
        b.load(v, addr)
    # The warm pass now ends with either A's or B's line evicted depending
    # on whether load A's access was skipped; the measured pass re-runs the
    # same stream and its load B hits or misses accordingly.
    b.halt()
    program = b.build()
    return program, SequentialExecutor().run(program)


def test_forwarding_divergent_stream_is_detected_and_stays_bit_identical():
    from repro.engine.lowering import lower_execution
    from repro.uarch.core import CoreModel
    from repro.uarch.defenses.unsafe import UnsafeBaseline

    program, result = _forwarding_divergent_execution()
    trace = lower_execution(result)
    builder = WarmStateBuilder(trace, GOLDEN_COVE_LIKE)
    assert builder.forwarding_shareable() is False

    # The shared no-skip replay genuinely diverges from the reference
    # warm-up here: the guard is load-bearing, not just conservative.
    reference_core = CoreModel(policy=UnsafeBaseline())
    reference_core.run_reference(result.dynamic)
    assert builder._dcache_state(1) != reference_core.caches.snapshot_state()

    # simulate_batch must therefore warm this point privately and still
    # reproduce the reference path bit-for-bit.
    batch_stats = BatchStats()
    simulations = simulate_batch(
        result, None, [PointSpec(policy=UnsafeBaseline())], batch_stats=batch_stats
    )
    assert batch_stats.forwarding_private_points == 1
    assert batch_stats.full_warmup_passes == 1

    reference_core.reset_stats()
    reference = reference_core.run_reference(result.dynamic)
    assert simulations[0].stats.as_dict() == reference.stats.as_dict()


def test_no_forwarding_policies_always_share_despite_divergent_stream():
    _program, result = _forwarding_divergent_execution()
    # The default L1D geometry the divergent stream is built against, with
    # a one-line L1I so the icache walk is not skipped by residency.
    config = CoreConfig(l1i=NON_RESIDENT.l1i)
    batch_stats = BatchStats()
    simulate_batch(
        result,
        None,
        [PointSpec(policy=DESIGN_BUILDERS["spt"](None), config=config)],
        batch_stats=batch_stats,
    )
    # SPT never forwards, so every load hits the cache in its warm-up too:
    # the shared replay stays exact and no private pass is needed.
    assert batch_stats.forwarding_private_points == 0
    assert batch_stats.full_warmup_passes == 0
    assert batch_stats.warmup_component_walks == 3  # icache + dcache + bpu
