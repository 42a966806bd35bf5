"""Randomized-program fuzz parity for the native tier.

Mirrors ``test_kernel_parity.py`` one rung up the specialization chain: for
every fuzz seed the compiled C kernels must agree bit-for-bit with the
python kernels across all seven designs, BTU-flush intervals, and warm-up
counts — and the python kernels are themselves pinned to ``run_reference``
by ``test_kernel_parity.py``.  Each case additionally
spot-checks one design directly against ``CoreModel.run_reference`` so a
simultaneous drift of both kernel tiers cannot hide.

The batch stats are asserted alongside the numbers: every point must
actually execute natively (``native_points == len(points)``, zero
fallbacks), otherwise a silently-degraded tier would vacuously "agree".
The degraded path gets the opposite pin: with an unresolvable
``REPRO_NATIVE_CC`` the tier must fall back onto the python kernels
point-by-point and still produce identical tables.
"""

import pytest

from engine.test_kernel_parity import (
    ALL_DESIGNS,
    SEEDS,
    _design_of,
    build_fuzz_program,
    reference_simulate,
)
from repro.analysis.tracegen import generate_trace_bundle
from repro.arch.executor import SequentialExecutor
from repro.engine import native
from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.kernels import TIER_ENV
from repro.experiments.runner import DESIGN_BUILDERS

pytestmark = pytest.mark.skipif(
    not native.compiler_available(), reason="no working C toolchain"
)


@pytest.fixture(scope="module", params=SEEDS)
def fuzz_case(request):
    program, inputs = build_fuzz_program(request.param)
    result = SequentialExecutor().run(program, memory_overrides=inputs[0])
    bundle = generate_trace_bundle(program, inputs)
    return request.param, result, bundle


def _points(bundle, **kwargs):
    return [
        PointSpec(policy=DESIGN_BUILDERS[design](bundle), **kwargs)
        for design in ALL_DESIGNS
    ]


def _assert_native_parity(result, bundle, points, monkeypatch, label):
    monkeypatch.setenv(TIER_ENV, "native")
    native_stats = BatchStats()
    with_native = simulate_batch(result, bundle, points, batch_stats=native_stats)
    assert native_stats.fallback_points == 0, label
    assert native_stats.native_points == len(points), (
        label,
        native_stats.native_points,
        native.last_error,
    )
    monkeypatch.setenv(TIER_ENV, "python")
    with_python = simulate_batch(result, bundle, points)
    for point, native_sim, python_sim in zip(points, with_native, with_python):
        expected = python_sim.stats.as_dict()
        got = native_sim.stats.as_dict()
        diffs = {key: (expected[key], got[key]) for key in expected if got[key] != expected[key]}
        assert not diffs, f"{label}/{native_sim.policy_name}: native vs python {diffs}"
    # One direct reference pin per case (the full cross product would just
    # repeat test_kernel_parity's reference sweep).
    point, native_sim = points[0], with_native[0]
    reference = reference_simulate(
        result,
        bundle,
        _design_of(point, bundle),
        flush=point.btu_flush_interval,
        warmups=point.warmup_passes,
    )
    assert native_sim.stats.as_dict() == reference.stats.as_dict(), (
        f"{label}/{native_sim.policy_name}: native vs reference"
    )


def test_all_designs_agree(fuzz_case, monkeypatch):
    seed, result, bundle = fuzz_case
    points = _points(bundle)
    _assert_native_parity(result, bundle, points, monkeypatch, f"seed={seed}")


@pytest.mark.parametrize("flush", [100, 1500])
def test_flush_intervals_agree(fuzz_case, monkeypatch, flush):
    seed, result, bundle = fuzz_case
    points = _points(bundle, btu_flush_interval=flush)
    _assert_native_parity(
        result, bundle, points, monkeypatch, f"seed={seed}/flush={flush}"
    )


@pytest.mark.parametrize("warmups", [0, 2])
def test_warmup_counts_agree(fuzz_case, monkeypatch, warmups):
    seed, result, bundle = fuzz_case
    points = _points(bundle, warmup_passes=warmups)
    _assert_native_parity(
        result, bundle, points, monkeypatch, f"seed={seed}/w={warmups}"
    )


def test_degraded_path_falls_back_per_point(fuzz_case, monkeypatch):
    seed, result, bundle = fuzz_case
    points = _points(bundle)
    monkeypatch.setenv(TIER_ENV, "native")
    monkeypatch.setenv(native.TOOLCHAIN_ENV, "/nonexistent/cc")
    stats = BatchStats()
    degraded = simulate_batch(result, bundle, points, batch_stats=stats)
    assert stats.native_points == 0
    assert stats.kernel_points == len(points)
    assert stats.fallback_points == 0
    monkeypatch.delenv(native.TOOLCHAIN_ENV)
    monkeypatch.setenv(TIER_ENV, "python")
    with_python = simulate_batch(result, bundle, points)
    for degraded_sim, python_sim in zip(degraded, with_python):
        assert degraded_sim.stats.as_dict() == python_sim.stats.as_dict(), seed
