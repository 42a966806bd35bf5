"""Kernel IR unit tests: transforms and their contracts.

The end-to-end guarantee (IR → emitted kernels ≡ the reference loop) is
pinned by the golden snapshots and the fuzz parity suite; this module tests
the IR layer in isolation — each transform's pre/post conditions, the
feature-derivation rules, the per-spec tree cache, and the emitter's
refusal to render unlowered trees.
"""

import pytest

from repro.engine import ir
from repro.engine.emit.python import render
from repro.engine.ir import (
    FEATURES,
    Block,
    Guard,
    KernelFeatures,
    L,
    build_kernel_ir,
    clear_ir_cache,
    guard_features,
    has_stats,
    lines,
    lower_kernel,
    specialize,
    stat,
    strip_stats,
)
from repro.uarch.defenses.base import EnginePolicySpec

BPU = EnginePolicySpec(kind="bpu")
CASSANDRA = EnginePolicySpec(kind="cassandra")
LITE = EnginePolicySpec(kind="cassandra", lite=True)


# --------------------------------------------------------------------------- #
# Feature derivation
# --------------------------------------------------------------------------- #
def test_derive_flush_requires_traced_kernel():
    traced = KernelFeatures.derive(CASSANDRA, flush_active=True)
    assert traced.flush
    for spec in (BPU, LITE):
        assert not KernelFeatures.derive(spec, flush_active=True).flush


@pytest.mark.parametrize("spec", [BPU, LITE])
def test_derive_rejects_elide_without_trace(spec):
    with pytest.raises(ValueError, match="btu_elide"):
        KernelFeatures.derive(spec, flush_active=False, btu_elide=True)


def test_derive_rejects_elide_under_flush():
    with pytest.raises(ValueError, match="btu_elide"):
        KernelFeatures.derive(CASSANDRA, flush_active=True, btu_elide=True)


def test_guard_rejects_unknown_feature():
    with pytest.raises(ValueError, match="unknown kernel feature"):
        Guard("warp_drive", then=(L("pass"),))


# --------------------------------------------------------------------------- #
# Transforms: pre/post conditions
# --------------------------------------------------------------------------- #
def _guarded_tree():
    return [
        L("start"),
        Guard(
            "flush",
            then=lines("flush_check()"),
            orelse=lines("no_flush()"),
        ),
        Block(
            (Guard("stats", then=(stat("n += 1"),)),),
            indent=1,
        ),
    ]


def test_specialize_splices_selected_arms_and_removes_guards():
    features = {name: False for name in FEATURES}
    off = specialize(_guarded_tree(), features)
    assert guard_features(off) == []
    assert render(strip_stats(off, True)) == "start\nno_flush()\n"

    on = specialize(_guarded_tree(), dict(features, flush=True, stats=True))
    assert guard_features(on) == []
    assert render(strip_stats(on, True)) == "start\nflush_check()\n    n += 1\n"


def test_strip_stats_unwraps_or_drops():
    body = [L("work()"), stat("counter += 1")]
    assert has_stats(body)
    kept = strip_stats(body, True)
    assert not has_stats(kept)
    assert render(kept) == "work()\ncounter += 1\n"
    dropped = strip_stats(body, False)
    assert not has_stats(dropped)
    assert render(dropped) == "work()\n"


def test_emitter_refuses_unlowered_nodes():
    with pytest.raises(TypeError, match="unlowered Guard"):
        render([Guard("flush", then=(L("x"),))])
    with pytest.raises(TypeError, match="unlowered Stat"):
        render([stat("n += 1")])


def test_lower_kernel_output_is_fully_resolved():
    features = KernelFeatures.derive(CASSANDRA, flush_active=False, btu_elide=True)
    lowered = lower_kernel(build_kernel_ir(CASSANDRA), features)
    assert guard_features(lowered) == []
    assert not has_stats(lowered)
    # The result is genuinely renderable and compilable.
    compile(render(lowered), "<ir-test>", "exec")


# --------------------------------------------------------------------------- #
# The IR cache
# --------------------------------------------------------------------------- #
def test_build_kernel_ir_is_cached_per_spec_config():
    """One tree per spec: the config is not an input of the build."""
    clear_ir_cache()
    a = build_kernel_ir(BPU)
    assert build_kernel_ir(BPU) is a
    assert build_kernel_ir(CASSANDRA) is not a
    assert set(ir._IR_CACHE) == {BPU, CASSANDRA}
    clear_ir_cache()
    assert build_kernel_ir(BPU) is not a


def test_lower_kernel_does_not_mutate_the_cached_tree():
    clear_ir_cache()
    tree = build_kernel_ir(CASSANDRA)
    before = render(strip_stats(specialize(tree, KernelFeatures.derive(
        CASSANDRA, flush_active=False).as_mapping()), True))
    lower_kernel(tree, KernelFeatures.derive(CASSANDRA, flush_active=True))
    after = render(strip_stats(specialize(tree, KernelFeatures.derive(
        CASSANDRA, flush_active=False).as_mapping()), True))
    assert before == after
