"""Kernel IR unit tests: transforms and their contracts.

The end-to-end guarantee (IR → emitted kernels ≡ the reference loop) is
pinned by the golden snapshots and the fuzz parity suite; this module tests
the IR layer in isolation — each transform's pre/post conditions, the
feature-derivation rules, the per-spec tree build, and the emitter's
refusal to render unlowered trees.
"""

import pytest

from repro.engine.emit.python import render
from repro.engine.ir import (
    FEATURES,
    Block,
    Guard,
    KernelFeatures,
    L,
    build_kernel_ir,
    guard_features,
    lines,
    lower_kernel,
    specialize,
    stat,
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
    assert render(off) == "start\nno_flush()\n"

    on = specialize(_guarded_tree(), dict(features, flush=True, stats=True))
    assert guard_features(on) == []
    assert render(on) == "start\nflush_check()\n    n += 1\n"


def test_specialize_keeps_or_drops_stat_lines():
    """``stat`` lines are a ``stats`` Guard: kept when the kernel collects
    statistics, dropped otherwise."""
    body = [L("work()"), stat("counter += 1")]
    assert stat("counter += 1") == Guard("stats", then=(L("counter += 1"),))
    assert guard_features(body) == ["stats"]
    features = {name: False for name in FEATURES}
    kept = specialize(body, dict(features, stats=True))
    assert guard_features(kept) == []
    assert render(kept) == "work()\ncounter += 1\n"
    dropped = specialize(body, features)
    assert guard_features(dropped) == []
    assert render(dropped) == "work()\n"


def test_emitter_refuses_unlowered_nodes():
    with pytest.raises(TypeError, match="unlowered Guard"):
        render([Guard("flush", then=(L("x"),))])
    with pytest.raises(TypeError, match="unlowered Guard"):
        render([stat("n += 1")])


def test_lower_kernel_output_is_fully_resolved():
    features = KernelFeatures.derive(CASSANDRA, flush_active=False)
    lowered = lower_kernel(build_kernel_ir(CASSANDRA), features)
    assert guard_features(lowered) == []
    # The result is genuinely renderable and compilable.
    compile(render(lowered), "<ir-test>", "exec")


# --------------------------------------------------------------------------- #
# The tree build
# --------------------------------------------------------------------------- #
def test_build_kernel_ir_depends_on_the_spec_alone():
    """One tree per spec, built afresh on each call: the config is not an
    input of the build, and equal specs give equal trees."""
    a = build_kernel_ir(BPU)
    again = build_kernel_ir(BPU)
    assert again == a and again is not a
    assert build_kernel_ir(CASSANDRA) != a


def test_lower_kernel_does_not_mutate_the_cached_tree():
    tree = build_kernel_ir(CASSANDRA)
    before = render(specialize(tree, KernelFeatures.derive(
        CASSANDRA, flush_active=False).as_mapping()))
    lower_kernel(tree, KernelFeatures.derive(CASSANDRA, flush_active=True))
    after = render(specialize(tree, KernelFeatures.derive(
        CASSANDRA, flush_active=False).as_mapping()))
    assert before == after
