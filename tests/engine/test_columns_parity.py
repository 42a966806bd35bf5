"""Columns-tier parity and fallback: one NumPy walk ≡ per-config kernels.

Extends the parity chain one layer up: ``test_kernel_parity`` pins the
python kernels to the reference loop; this suite pins the columns tier to
the python kernels — and a grid sample directly to ``run_reference`` —
bit-for-bit over fuzz programs × a
config grid spanning every vectorized axis (ROB, widths, predictor
geometry, penalties, latencies, BTU sizing) — and locks the tier's
engagement rules: flushed/unwarmed points and configs failing an exactness
proof stay on the python kernels, the cohort-size threshold gates the
NumPy walk, and a missing NumPy degrades to the python tier silently.
"""

import itertools

import pytest

from engine.test_kernel_parity import build_fuzz_program, reference_simulate
from repro.analysis.tracegen import generate_trace_bundle
from repro.arch.executor import SequentialExecutor
from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.emit import columns as emit_columns
from repro.engine.kernels import TIER_ENV
from repro.experiments.runner import DESIGN_BUILDERS
from repro.uarch.config import BtuConfig, CacheConfig, CoreConfig

ALL_DESIGNS = tuple(DESIGN_BUILDERS)
COLUMNS_MIN_ENV = emit_columns.COLUMNS_MIN_ENV

pytestmark = pytest.mark.skipif(
    not emit_columns.columns_available(), reason="NumPy not installed"
)

#: A grid exercising every per-config axis the columns walk vectorizes.
GRID = [
    CoreConfig(
        rob_size=rob,
        fetch_width=width,
        issue_width=width,
        commit_width=width,
        pht_bits=pht,
        global_history_bits=pht,
    )
    for rob, width, pht in itertools.product((512, 300), (8, 4), (14, 10))
] + [
    CoreConfig(mispredict_penalty=9, frontend_depth=5),
    CoreConfig(store_forward_latency=3, alu_latency=2, div_latency=20),
    CoreConfig(btu=BtuConfig(entries=4, elements_per_entry=8)),
    CoreConfig(btb_entries=512, rsb_entries=8),
]


@pytest.fixture(scope="module", params=(2024, 9000))
def fuzz_case(request):
    program, inputs = build_fuzz_program(request.param)
    result = SequentialExecutor().run(program, memory_overrides=inputs[0])
    bundle = generate_trace_bundle(program, inputs)
    return request.param, result, bundle


def _grid_points(bundle, design, configs=GRID, **kwargs):
    policy = DESIGN_BUILDERS[design](bundle)
    return [PointSpec(policy=policy, config=cfg, **kwargs) for cfg in configs]


def _run(result, bundle, points, monkeypatch, tier, columns_min=2):
    monkeypatch.setenv(TIER_ENV, tier)
    monkeypatch.setenv(COLUMNS_MIN_ENV, str(columns_min))
    stats = BatchStats()
    sims = simulate_batch(result, bundle, points, batch_stats=stats)
    return sims, stats


def _assert_identical(a_sims, b_sims, label):
    for a, b in zip(a_sims, b_sims):
        da, db = a.stats.as_dict(), b.stats.as_dict()
        diffs = {k: (da[k], db[k]) for k in da if da[k] != db[k]}
        assert not diffs, f"{label}/{a.policy_name}: {diffs}"


@pytest.mark.parametrize("design", ALL_DESIGNS)
def test_columns_match_python_kernels_across_grid(fuzz_case, monkeypatch, design):
    seed, result, bundle = fuzz_case
    points = _grid_points(bundle, design)
    python, _ = _run(result, bundle, points, monkeypatch, "python")
    columns, stats = _run(result, bundle, points, monkeypatch, "columns")
    # Every grid config holds the exactness proofs on these traces: the
    # whole batch must have come from cohort walks, not a silent fallback.
    assert stats.columns_points == len(points)
    assert stats.kernel_points == 0
    assert stats.columns_cohorts == 1
    assert stats.columns_seconds > 0.0
    _assert_identical(python, columns, f"seed={seed}/{design}")


def test_reference_agrees_on_grid_sample(fuzz_case, monkeypatch):
    seed, result, bundle = fuzz_case
    points = _grid_points(bundle, "cassandra", configs=GRID[:3])
    columns, stats = _run(result, bundle, points, monkeypatch, "columns")
    assert stats.columns_points == len(points)
    references = [
        reference_simulate(result, bundle, "cassandra", config=point.config)
        for point in points
    ]
    _assert_identical(columns, references, f"seed={seed}/reference")


def test_flush_and_unwarmed_points_stay_on_python_kernels(fuzz_case, monkeypatch):
    seed, result, bundle = fuzz_case
    flushed = _grid_points(bundle, "cassandra", btu_flush_interval=100)
    cold = _grid_points(bundle, "cassandra", warmup_passes=0)
    for points, label in ((flushed, "flush"), (cold, "cold")):
        python, _ = _run(result, bundle, points, monkeypatch, "python")
        columns, stats = _run(result, bundle, points, monkeypatch, "columns")
        assert stats.columns_points == 0, label
        assert stats.columns_cohorts == 0, label
        assert stats.kernel_points == len(points), label
        _assert_identical(python, columns, f"seed={seed}/{label}")


def test_ineligible_configs_fall_back_per_point(fuzz_case, monkeypatch):
    # A 1-line L1D can never be residency-proved: those points must run on
    # python kernels while the rest of the cohort still vectorizes.
    seed, result, bundle = fuzz_case
    tiny = CoreConfig(l1d=CacheConfig(64, 64, 1, 5, name="L1D"))
    configs = GRID + [tiny]
    points = _grid_points(bundle, "spt", configs=configs)
    python, _ = _run(result, bundle, points, monkeypatch, "python")
    columns, stats = _run(result, bundle, points, monkeypatch, "columns")
    assert stats.columns_points == len(GRID)
    assert stats.kernel_points == 1
    _assert_identical(python, columns, f"seed={seed}/mixed")


def test_cohort_threshold_gates_the_walk(fuzz_case, monkeypatch):
    seed, result, bundle = fuzz_case
    points = _grid_points(bundle, "cassandra", configs=GRID[:4])
    _, stats = _run(
        result, bundle, points, monkeypatch, "columns", columns_min=5
    )
    assert stats.columns_cohorts == 0
    assert stats.kernel_points == len(points)


def test_missing_numpy_degrades_to_python_tier(fuzz_case, monkeypatch):
    seed, result, bundle = fuzz_case
    points = _grid_points(bundle, "cassandra", configs=GRID[:4])
    python, _ = _run(result, bundle, points, monkeypatch, "python")
    monkeypatch.setattr(emit_columns, "_np", None)
    assert not emit_columns.columns_available()
    columns, stats = _run(result, bundle, points, monkeypatch, "columns")
    assert stats.columns_points == 0 and stats.columns_cohorts == 0
    assert stats.kernel_points == len(points)
    _assert_identical(python, columns, f"seed={seed}/no-numpy")


def test_duplicate_configs_share_the_cohort_result(fuzz_case, monkeypatch):
    seed, result, bundle = fuzz_case
    points = _grid_points(bundle, "cassandra", configs=GRID[:3] * 2)
    columns, stats = _run(result, bundle, points, monkeypatch, "columns")
    # Duplicates are columns points too (the cohort covered their config);
    # they are not python-tier dedups.
    assert stats.columns_points == len(points)
    assert stats.deduped_points == 0
    _assert_identical(columns[: len(GRID[:3])], columns[len(GRID[:3]) :], "dup")
