"""Generated-kernel machinery: tier switch, specialization, dedup, state.

``tests/engine/test_parity.py`` pins the kernels' *results* to the golden
models across the quick suite; this module pins the machinery itself — the
``REPRO_ENGINE_TIER`` switch, the per-(spec × config) compilation cache, the dead-code and
residency specialization of the generated source, the measured-pass dedup,
the per-tier batch accounting, and the flat-state conversions.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.kernels import (
    ENGINE_TIERS,
    TIER_ENV,
    engine_tier,
    get_kernel,
    kernel_source,
)
from repro.engine.state import (
    FlatState,
    flat_bpu_from_snapshot,
    flat_btu_from_snapshot,
    flat_cache_from_sets,
    flat_cache_to_sets,
)
from repro.experiments.runner import DESIGN_BUILDERS, prepare_workload
from repro.uarch.config import GOLDEN_COVE_LIKE, CoreConfig
from repro.uarch.core import CoreModel
from repro.uarch.defenses.base import EnginePolicySpec

ALL_DESIGNS = tuple(DESIGN_BUILDERS)


@pytest.fixture(scope="module")
def artifact():
    return prepare_workload("ModPow_i31")


def _batch(artifact, **point_kwargs):
    specs = [
        PointSpec(policy=DESIGN_BUILDERS[design](artifact.bundle), **point_kwargs)
        for design in ALL_DESIGNS
    ]
    stats = BatchStats()
    sims = simulate_batch(artifact.result, artifact.bundle, specs, batch_stats=stats)
    return sims, stats


# --------------------------------------------------------------------------- #
# The REPRO_ENGINE_TIER switch
# --------------------------------------------------------------------------- #
def test_kernels_enabled_by_default(monkeypatch):
    monkeypatch.delenv(TIER_ENV, raising=False)
    assert engine_tier() == "python"


@pytest.mark.parametrize("tier", ENGINE_TIERS)
def test_tier_env_explicit_values(monkeypatch, tier):
    monkeypatch.setenv(TIER_ENV, tier)
    assert engine_tier() == tier
    monkeypatch.setenv(TIER_ENV, f"  {tier.upper()}  ")
    assert engine_tier() == tier


def test_tier_env_rejects_unknown_values(monkeypatch):
    # " Interp " and "columns" name deleted tiers (" Interp " spelled the
    # way normalization accepts a live tier): both must still be rejected.
    for value in ("turbo", " Interp ", "columns"):
        monkeypatch.setenv(TIER_ENV, value)
        with pytest.raises(ValueError, match=TIER_ENV):
            engine_tier()


def test_batch_attribution_counters_per_tier(artifact, monkeypatch):
    monkeypatch.setenv(TIER_ENV, "python")
    _, python_stats = _batch(artifact)
    assert python_stats.kernel_points == len(ALL_DESIGNS)
    assert python_stats.native_points == 0

    # Every live tier's accounting ends up in the wire/bench dict; the
    # deleted columns tier's counters do not.
    as_dict = python_stats.as_dict()
    for key in ("kernel_points", "native_points", "fallback_points"):
        assert key in as_dict
    assert not any(key.startswith("columns") for key in as_dict)


def test_default_tier_never_imports_numpy(tmp_path):
    """A default-tier batch runs on the standard library alone."""
    script = textwrap.dedent(
        """
        import sys

        from repro.analysis.tracegen import generate_trace_bundle
        from repro.arch.executor import SequentialExecutor
        from repro.engine.batch import PointSpec, simulate_batch
        from repro.experiments.runner import DESIGN_BUILDERS
        from tests.conftest import build_toy_crypto_program

        program, key_addr, _out = build_toy_crypto_program()
        result = SequentialExecutor().run(program)
        bundle = generate_trace_bundle(
            program, [{key_addr: 3, key_addr + 1: 9}, {key_addr: 200, key_addr + 1: 77}]
        )
        points = [
            PointSpec(policy=DESIGN_BUILDERS[design](bundle))
            for design in DESIGN_BUILDERS
        ]
        assert len(simulate_batch(result, bundle, points)) == len(points)
        print("numpy" in sys.modules)
        """
    )
    env = {k: v for k, v in os.environ.items() if k != TIER_ENV}
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=str(tmp_path),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


# --------------------------------------------------------------------------- #
# Compilation cache and source specialization
# --------------------------------------------------------------------------- #
def test_kernel_cache_returns_same_callable():
    spec = EnginePolicySpec(kind="bpu")
    first = get_kernel(spec, GOLDEN_COVE_LIKE, False)
    assert get_kernel(spec, GOLDEN_COVE_LIKE, False) is first
    assert "def kernel(" in first.__repro_source__
    # A different config digest compiles (and caches) a different kernel.
    other = get_kernel(spec, CoreConfig(rob_size=128), False)
    assert other is not first


def test_dead_policy_code_is_dropped_at_generation_time():
    bpu = kernel_source(EnginePolicySpec(kind="bpu"), GOLDEN_COVE_LIKE, False)
    assert "btu_pos" not in bpu  # no Cassandra fetch flow at all
    assert "plan_cls[pc]" not in bpu
    assert "window_resolve_cycle > ready" not in bpu  # no gate test
    gated = kernel_source(
        EnginePolicySpec(kind="bpu", gate_mask=16), GOLDEN_COVE_LIKE, False
    )
    assert "window_resolve_cycle > ready" in gated
    no_fwd = kernel_source(
        EnginePolicySpec(kind="bpu", allow_store_forwarding=False),
        GOLDEN_COVE_LIKE,
        False,
    )
    assert "n_stl_blocked" in no_fwd and "n_forwards" not in no_fwd
    lite = kernel_source(
        EnginePolicySpec(kind="cassandra", lite=True), GOLDEN_COVE_LIKE, False
    )
    assert "btu_targets" not in lite  # lite never replays traces


def test_residency_proofs_delete_cache_models():
    spec = EnginePolicySpec(kind="bpu")
    full = kernel_source(spec, GOLDEN_COVE_LIKE, False)
    assert "state.l1i" in full and "state.l1d" in full
    resident = kernel_source(
        spec, GOLDEN_COVE_LIKE, False, icache_resident=True, dcache_resident=True
    )
    assert "state.l1i" not in resident
    assert "state.l1d" not in resident
    assert "l2_sets" not in resident
    assert "except ValueError" not in resident  # no cache probe remains


def test_flush_check_compiled_only_when_active():
    spec = EnginePolicySpec(kind="cassandra")
    without = kernel_source(spec, GOLDEN_COVE_LIKE, False)
    assert "next_btu_flush" not in without
    with_flush = kernel_source(spec, GOLDEN_COVE_LIKE, True)
    assert "next_btu_flush" in with_flush


def test_btu_elide_requires_traced_flushless_kernel():
    with pytest.raises(ValueError):
        kernel_source(
            EnginePolicySpec(kind="bpu"), GOLDEN_COVE_LIKE, False, btu_elide=True
        )
    with pytest.raises(ValueError):
        kernel_source(
            EnginePolicySpec(kind="cassandra"), GOLDEN_COVE_LIKE, True, btu_elide=True
        )


def test_warm_kernels_carry_no_counters():
    warm = kernel_source(
        EnginePolicySpec(kind="cassandra"), GOLDEN_COVE_LIKE, False, collect_stats=False
    )
    assert "return None" in warm
    assert "n_btu_misses" not in warm
    assert "squash_cycles" not in warm


# --------------------------------------------------------------------------- #
# Kernel-path warm-up sharing
# --------------------------------------------------------------------------- #
def test_residency_skips_cache_component_walks(artifact, monkeypatch):
    """ModPow fits both L1s, so only the BPU/BTU replays run at all."""
    monkeypatch.setenv(TIER_ENV, "python")
    if hasattr(artifact.result, "_lowered_trace"):
        del artifact.result._lowered_trace
    _sims, stats = _batch(artifact)
    assert stats.full_warmup_passes == 0
    # bpu(all) + bpu(noncrypto) + btu(replay); no icache/dcache walks.
    assert stats.warmup_component_walks == 3
    assert stats.kernel_points == len(ALL_DESIGNS)


def test_flush_points_still_warm_privately_on_kernels(artifact, monkeypatch):
    monkeypatch.setenv(TIER_ENV, "python")
    _sims, stats = _batch(artifact, btu_flush_interval=500)
    # The three trace-replaying designs (cassandra, +stl, +prospect) need
    # cycle-exact private warm-up, on the kernels too.
    assert stats.full_warmup_passes == 3


def test_zero_flush_interval_means_disabled_on_both_paths(artifact, monkeypatch):
    """Regression: the reference loop treats a falsy interval as "no
    flushing"; an early kernel build compiled the flush check in for
    interval 0 and flushed the BTU every instruction."""
    monkeypatch.setenv(TIER_ENV, "python")
    zero, stats_zero = _batch(artifact, btu_flush_interval=0)
    disabled, _ = _batch(artifact, btu_flush_interval=None)
    for a, b in zip(zero, disabled):
        assert a.stats.as_dict() == b.stats.as_dict()
    assert stats_zero.full_warmup_passes == 0  # nothing is cycle-dependent
    for design, sim in zip(ALL_DESIGNS, zero):
        core = CoreModel(
            policy=DESIGN_BUILDERS[design](artifact.bundle),
            bundle=artifact.bundle,
            btu_flush_interval=0,
        )
        core.run_reference(artifact.result.dynamic)
        core.reset_stats()
        reference = core.run_reference(artifact.result.dynamic)
        assert sim.stats.as_dict() == reference.stats.as_dict(), design


# --------------------------------------------------------------------------- #
# Measured-pass dedup via spec canonicalization
# --------------------------------------------------------------------------- #
def _storeless_execution():
    """A program with loads but no stores: forwarding provably irrelevant."""
    from repro.arch.executor import SequentialExecutor
    from repro.isa.builder import ProgramBuilder

    b = ProgramBuilder("storeless")
    data = b.alloc("data", [3, 1, 4, 1, 5, 9, 2, 6])
    i, addr, val, acc = b.regs("i", "addr", "val", "acc")
    b.movi(acc, 0)
    with b.for_range(i, 0, 8):
        b.movi(addr, data)
        b.add(addr, addr, i)
        b.load(val, addr)
        b.add(acc, acc, val)
        b.mul(acc, acc, 3)
    b.halt()
    program = b.build()
    return program, SequentialExecutor().run(program)


def test_storeless_trace_dedups_forwarding_and_gate_variants(monkeypatch):
    monkeypatch.setenv(TIER_ENV, "python")
    _program, result = _storeless_execution()
    assert not any(dyn.is_store for dyn in result.dynamic)
    # spt differs from unsafe only through forwarding (irrelevant: no
    # stores) and its load/leak issue gate... which loads *do* make
    # relevant, so spt stays its own point; prospect's F_SECRET gate
    # matches nothing here and dedups onto the unsafe baseline.
    specs = [
        PointSpec(policy=DESIGN_BUILDERS[design](None))
        for design in ("unsafe-baseline", "prospect", "spt")
    ]
    stats = BatchStats()
    sims = simulate_batch(result, None, specs, batch_stats=stats)
    assert stats.deduped_points == 1
    assert sims[0].stats.as_dict() == sims[1].stats.as_dict()
    assert sims[1].policy_name == "prospect"
    # The deduped result is still bit-identical to the reference loop.
    for design, sim in zip(("unsafe-baseline", "prospect", "spt"), sims):
        core = CoreModel(policy=DESIGN_BUILDERS[design](None))
        core.run_reference(result.dynamic)
        core.reset_stats()
        reference = core.run_reference(result.dynamic)
        assert sim.stats.as_dict() == reference.stats.as_dict(), design


# --------------------------------------------------------------------------- #
# Flat-state conversions
# --------------------------------------------------------------------------- #
def test_flat_cache_roundtrip_preserves_lru_order():
    sets = {0: [7, 3, 9], 5: [1], 63: [2, 4]}
    flat = flat_cache_from_sets(sets, num_sets=64, associativity=4)
    assert flat_cache_to_sets(flat, 64, 4) == sets
    # LRU→MRU order is right-aligned in each segment, padding on the left.
    assert list(flat[0:4]) == [-1, 7, 3, 9]
    assert list(flat[5 * 4 : 5 * 4 + 4]) == [-1, -1, -1, 1]


def test_flat_cache_rejects_overfull_set():
    with pytest.raises(ValueError):
        flat_cache_from_sets({0: [1, 2, 3]}, num_sets=4, associativity=2)


def test_flat_bpu_and_btu_snapshot_conversions():
    from repro.engine.lowering import B_COND
    from repro.uarch.bpu import BranchPredictionUnit

    bpu = BranchPredictionUnit(GOLDEN_COVE_LIKE)
    for taken in (True, True, False):
        predicted = bpu.predict_class(B_COND, 10, 20 if taken else 11)
        bpu.update_class(B_COND, 10, 20 if taken else 11, taken, predicted)
    pht, history, btb, rsb, loops = flat_bpu_from_snapshot(bpu.snapshot_state())
    assert history == bpu._history
    assert btb == bpu._btb
    assert loops[10] == [
        bpu._loops[10].current_run,
        bpu._loops[10].last_trip,
        bpu._loops[10].confidence,
    ]

    positions = {4: (3, 2), 9: (0, 0)}
    pos, committed, resident = flat_btu_from_snapshot((positions, [4]))
    assert pos == {4: 3, 9: 0}
    assert committed == {4: 2, 9: 0}
    assert resident == [4]


def test_flat_state_fresh_shapes():
    state = FlatState(GOLDEN_COVE_LIKE)
    cfg = GOLDEN_COVE_LIKE
    assert len(state.l1i) == cfg.l1i.num_sets * cfg.l1i.associativity
    assert len(state.l1d) == cfg.l1d.num_sets * cfg.l1d.associativity
    assert set(state.l1i) == {-1}
    assert len(state.pht) == 1 << cfg.pht_bits
    assert state.btu_occupancy() == 0
