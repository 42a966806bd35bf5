"""Warm-up sharing: once per workload and warm key, not once per policy or config.

These tests pin the batch layer's sharing machinery (component walks,
snapshot round-trips, the forwarding exactness guard) on the python tier.
Its residency proofs skip the cache component walks for programs that fit
the L1s, so every walk count that depends on those proofs is taken under
:data:`NON_RESIDENT`, a geometry where both proofs fail.  The proofs'
own skipping is asserted in ``tests/engine/test_engine_kernels.py``.
"""

import collections
import dataclasses
import itertools
from dataclasses import replace

import pytest

from repro.engine import batch as batch_module
from repro.engine import native, warmup
from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.kernels import TIER_ENV
from repro.engine.warmup import WarmStateBuilder
from repro.experiments.runner import DESIGN_BUILDERS, prepare_workload
from repro.experiments.sweep import SWEEP_CONFIGS, SWEEP_DESIGNS
from repro.uarch.bpu import BranchPredictionUnit
from repro.uarch.btu import BranchTraceUnit
from repro.uarch.caches import Cache, CacheHierarchy
from repro.uarch.config import GOLDEN_COVE_LIKE, BtuConfig, CacheConfig, CoreConfig


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


# --------------------------------------------------------------------------- #
# Sharing across configs: warm state is keyed on the fields it reads
# --------------------------------------------------------------------------- #
#: ``CoreConfig`` fields no warm-up replay or proof reads: the timing fields
#: the measured pass alone consumes.  ``memory_latency`` and
#: ``store_latency`` are read by the d-cache replay only for latencies it
#: discards.  Every field must be here or in a ``KEY_FIELDS`` row.
UNREAD_BY_WARMUP = frozenset(
    {
        "fetch_width",
        "decode_width",
        "issue_width",
        "commit_width",
        "rob_size",
        "iq_size",
        "lq_size",
        "frontend_depth",
        "mispredict_penalty",
        "branch_resolve_latency",
        "alu_latency",
        "mul_latency",
        "div_latency",
        "store_latency",
        "store_forward_latency",
        "memory_latency",
    }
)

#: ChaCha20's data overflows this 4-set, 2-way, one-word-line L1D, and its
#: forwarding scan flips with the store-queue size (exact at 2, not at 114).
CHACHA = "ChaCha20_ct"
SMALL_L1D = CacheConfig(64, 8, 2, 5, name="L1D")

#: Key-field variants crossed with non-key variants by the exactness grid.
#: Each key variant changes some warm key.  The second and third share
#: every snapshot key and differ only in the forwarding proof's
#: ``sq_size``; the fifth shares their L1D but not their L2, and the sixth
#: overflows a different L1I.
KEY_VARIANTS = (
    {},
    {"l1i": NON_RESIDENT.l1i, "l1d": SMALL_L1D, "sq_size": 2},
    {"l1i": NON_RESIDENT.l1i, "l1d": SMALL_L1D, "sq_size": 114},
    {"pht_bits": 10, "global_history_bits": 10, "btb_entries": 512, "rsb_entries": 8},
    {
        "btu": BtuConfig(entries=4, elements_per_entry=8),
        "l1d": SMALL_L1D,
        "l2": CacheConfig(2048, 8, 4, 12, name="L2"),
        "sq_size": 2,
    },
    {
        "l1i": CacheConfig(128, 64, 1, 5, name="L1I"),
        "l1d": CacheConfig(256, 8, 2, 5, name="L1D"),
        "sq_size": 4,
        "pht_bits": 12,
    },
)
NON_KEY_VARIANTS = (
    {},
    {
        "rob_size": 128,
        "fetch_width": 4,
        "issue_width": 4,
        "commit_width": 4,
        "mispredict_penalty": 9,
        "store_forward_latency": 3,
        "memory_latency": 100,
        "lq_size": 16,
    },
)


def _grid(keyed=KEY_VARIANTS, unkeyed=NON_KEY_VARIANTS):
    return [CoreConfig(**k, **u) for k in keyed for u in unkeyed]


@pytest.fixture(scope="module")
def chacha():
    return prepare_workload(CHACHA)


def _points(artifact, configs, designs=ALL_DESIGNS, **kwargs):
    return [
        PointSpec(policy=DESIGN_BUILDERS[design](artifact.bundle), config=config, **kwargs)
        for config in configs
        for design in designs
    ]


def _assert_batch_matches_single_points(artifact, points):
    batch_stats = BatchStats()
    batched = simulate_batch(
        artifact.result, artifact.bundle, points, batch_stats=batch_stats
    )
    for point, simulation in zip(points, batched):
        # Forget the trace's kept setup: each single point builds its own.
        batch_module.clear_trace_setups()
        alone = simulate_batch(artifact.result, artifact.bundle, [point])[0]
        assert simulation.as_dict() == alone.as_dict(), (
            point.policy.name,
            point.config,
        )
    return batch_stats


def test_grid_proofs_flip_where_the_exactness_test_needs_them(chacha):
    """The exactness grid really crosses both residency proofs and the
    forwarding proof; otherwise it would vacuously agree."""
    trace = _lowered(chacha)
    seen = {
        (b.icache_resident(), b.dcache_resident(), b.forwarding_shareable())
        for b in (WarmStateBuilder(trace, config) for config in _grid())
    }
    assert {icache for icache, _d, _f in seen} == {True, False}
    assert {dcache for _i, dcache, _f in seen} == {True, False}
    assert (False, False, True) in seen and (False, False, False) in seen


def test_multi_config_batch_equals_single_point_batches(chacha):
    points = _points(chacha, _grid())
    stats = _assert_batch_matches_single_points(chacha, points)
    # The forwarding-divergent configs warm their forwarding designs
    # privately; everything else restores shared state.
    assert stats.forwarding_private_points > 0
    assert stats.full_warmup_passes == stats.forwarding_private_points
    assert stats.kernel_points == len(points)


def test_multi_config_batch_equals_single_point_batches_with_flushes(chacha):
    configs = _grid(KEY_VARIANTS[:3], NON_KEY_VARIANTS)
    points = _points(chacha, configs, btu_flush_interval=700, warmup_passes=2)
    _assert_batch_matches_single_points(chacha, points)


needs_compiler = pytest.mark.skipif(
    not native.compiler_available(), reason="no working C toolchain"
)


@needs_compiler
def test_multi_config_native_batch_equals_single_point_batches(chacha, monkeypatch):
    monkeypatch.setenv(TIER_ENV, "native")
    configs = _grid(KEY_VARIANTS[1:2]) + _grid(KEY_VARIANTS[2:3], NON_KEY_VARIANTS[1:])
    points = _points(chacha, configs, designs=SWEEP_DESIGNS)
    stats = _assert_batch_matches_single_points(chacha, points)
    assert stats.native_points == len(points)
    assert stats.forwarding_private_points > 0


def _walks(artifact, configs):
    """Component walks of one batch of ``configs`` × :data:`SWEEP_DESIGNS`,
    which need every walk class: icache, dcache, bpu(all), bpu(noncrypto)
    and btu(replay)."""
    if hasattr(artifact.result, "_lowered_trace"):
        del artifact.result._lowered_trace
    stats = BatchStats()
    simulate_batch(
        artifact.result,
        artifact.bundle,
        _points(artifact, configs, SWEEP_DESIGNS),
        batch_stats=stats,
    )
    return stats.warmup_component_walks


def test_perfbench_shaped_grid_walks_like_one_config_per_pht_size(artifact):
    """rob × width × pht × penalty × forward: only the PHT size is a warm key,
    so each extra PHT size costs one walk per BPU class (all, noncrypto)."""
    grid = [
        replace(
            NON_RESIDENT,
            rob_size=rob,
            fetch_width=width,
            issue_width=width,
            commit_width=width,
            pht_bits=pht,
            global_history_bits=pht,
            mispredict_penalty=penalty,
            store_forward_latency=forward,
        )
        for rob, width, pht, penalty, forward in itertools.product(
            (512, 256), (8, 4), (14, 12, 10), (13, 9), (1, 3)
        )
    ]
    assert _walks(artifact, grid[:1]) == 5
    assert _walks(artifact, grid) == 5 + 2 * 2


def _shrunk(config):
    """``config`` with L1s ModPow overflows; distinct L1Ds stay distinct."""
    l1d = config.l1d
    return replace(
        config,
        l1i=NON_RESIDENT.l1i,
        l1d=CacheConfig(
            l1d.size_bytes // 2048, 8, l1d.associativity // 6, l1d.latency, name=l1d.name
        ),
    )


class _RecordingStore(warmup.WarmStore):
    made = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


def test_sweep_configs_walk_once_per_distinct_component_key(artifact, monkeypatch):
    configs = [_shrunk(config) for _label, config in SWEEP_CONFIGS]
    trace = _lowered(artifact)
    for config in configs:
        builder = WarmStateBuilder(trace, config)
        assert not builder.icache_resident() and not builder.dcache_resident()
        assert builder.forwarding_shareable()

    def distinct(component):
        fields = warmup.KEY_FIELDS[component]
        return len({tuple(getattr(c, f) for f in fields) for c in configs})

    # icache: one L1I; dcache: default, l1d-32k-8w, l2-512k; bpu: default,
    # pht-10b, btb-512 per class (all, noncrypto); btu: default, btu-8, btu-4x8.
    expected = distinct("icache") + distinct("dcache") + 2 * distinct("bpu") + distinct("btu")
    assert expected == 1 + 3 + 2 * 3 + 3
    monkeypatch.setattr(batch_module, "WarmStore", _RecordingStore)
    _RecordingStore.made = []
    assert _walks(artifact, configs) == expected

    # Each proof scanned once per value of the fields it reads.
    (store,) = _RecordingStore.made
    scans = collections.Counter(key[0] for key in store.entries)
    assert scans["icache_resident"] == distinct("icache_resident") == 1
    assert scans["dcache_resident"] == distinct("dcache_resident") == 2
    assert scans["forwarding_shareable"] == distinct("forwarding_shareable") == 2


def test_every_config_field_is_keyed_or_unread():
    """A new ``CoreConfig`` field fails here until it is classified: a field
    a warm replay reads but no key holds would share stale state."""
    keyed = {name for row in warmup.KEY_FIELDS.values() for name in row}
    names = {f.name for f in dataclasses.fields(CoreConfig)}
    assert not keyed & UNREAD_BY_WARMUP
    assert names == keyed | UNREAD_BY_WARMUP


def _perturbed(value):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"no perturbation for {value!r}")
    return value + "-x" if isinstance(value, str) else value + 1


def _config_perturbations():
    """``(label, top-level field, config)``: every field, nested ones too,
    changed once from :data:`NON_RESIDENT`."""
    for f in dataclasses.fields(CoreConfig):
        value = getattr(NON_RESIDENT, f.name)
        if dataclasses.is_dataclass(value):
            for sub in dataclasses.fields(value):
                changed = replace(value, **{sub.name: _perturbed(getattr(value, sub.name))})
                yield f"{f.name}.{sub.name}", f.name, replace(NON_RESIDENT, **{f.name: changed})
        else:
            yield f.name, f.name, replace(NON_RESIDENT, **{f.name: _perturbed(value)})


def _fill(builder):
    """Every flat snapshot and proof the builder serves."""
    return (
        builder._flat_icache(1),
        builder._flat_dcache(1),
        builder._flat_bpu("all", 1),
        builder._flat_bpu("noncrypto", 1),
        builder._flat_btu(1),
        builder.icache_resident(),
        builder.dcache_resident(),
        builder.forwarding_shareable(),
    )


def test_each_field_change_rebuilds_exactly_the_components_keyed_on_it(artifact):
    """Changing any field, nested cache/BTU fields included, recomputes
    precisely the snapshots and proofs whose ``KEY_FIELDS`` row names it,
    and what a config reads from a shared store equals a private build."""
    trace = _lowered(artifact)
    hint_table = artifact.bundle.hint_table

    def builder(config, store):
        def btu_factory():
            return BranchTraceUnit(config.btu, artifact.bundle.hardware_traces(), hint_table)

        return WarmStateBuilder(trace, config, hint_table, btu_factory, store=store)

    for label, top, config in _config_perturbations():
        store = warmup.WarmStore(trace, hint_table)
        _fill(builder(NON_RESIDENT, store))
        before = set(store.entries)
        assert _fill(builder(config, store)) == _fill(builder(config, None)), label
        rebuilt = {key[0] for key in set(store.entries) - before}
        expected = {name for name, row in warmup.KEY_FIELDS.items() if top in row}
        assert rebuilt == expected, label
