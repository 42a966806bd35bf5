"""End-to-end tests of the experiment harnesses on a reduced workload set."""

import json
from pathlib import Path

import pytest

from repro.api import SimulationService, build_service
from repro.experiments import table1 as table1_module
from repro.experiments.cassandra_lite import format_cassandra_lite, run_cassandra_lite
from repro.experiments.figure7 import format_figure7, run_figure7, summarize_speedup
from repro.experiments.figure8 import format_figure8, run_figure8
from repro.experiments.figure9 import btu_area_percent, format_figure9, power_reduction_percent, run_figure9
from repro.experiments.interrupts import format_interrupt_study, run_interrupt_study
from repro.experiments.runner import geometric_mean, prepare_workload
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.trace_runtime import format_trace_runtime, run_trace_runtime

#: A tiny but representative slice: one fast workload per suite.
TEST_WORKLOADS = ["ChaCha20_ct", "sha256", "sphincs-haraka-128s"]

#: ``run_table1(ctx, invocations=64)`` over ``TEST_WORKLOADS``, recorded with
#: full float reprs before the one-pass k-mer counter replaced the two-pass one.
TABLE1_GOLDEN = Path(__file__).parent / "golden" / "table1_invocations64.json"

#: The default ``run_table1`` (256 invocations) over ``QUICK_WORKLOADS``,
#: recorded with full float reprs before Algorithm 1 moved onto ``str``.
TABLE1_QUICK_GOLDEN = Path(__file__).parent / "golden" / "table1_quick_invocations256.json"


@pytest.fixture(scope="module")
def ctx():
    # The shared service is what every consumer (CLI, benchmarks) now uses;
    # driving the experiments through one uniform context here keeps the
    # standalone and CLI paths honest.  Prepared artifacts and simulation
    # memos are shared across every test in the module.
    return SimulationService(names=TEST_WORKLOADS).context()


def test_prepare_workload_verifies_kernel():
    artifact = prepare_workload("Poly1305_ctmul")
    assert artifact.analysis.branch_count > 0
    assert artifact.bundle.hardware_traces() is not None


def test_geometric_mean():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([]) == 0.0


def test_table1_rows_and_compression(ctx):
    rows = run_table1(ctx=ctx, invocations=64)
    assert rows[-1]["program"] == "All"
    # With repeated invocations the k-mers traces must be far smaller than
    # the vanilla traces (the paper's headline compression claim).
    assert rows[-1]["compression_avg"] > 10
    assert rows[-1]["kmers_avg"] < rows[-1]["vanilla_avg"]
    assert "ChaCha20_ct" in format_table1(rows)


def test_table1_rows_match_golden(ctx):
    rows = run_table1(ctx=ctx, invocations=64)
    assert rows == json.loads(TABLE1_GOLDEN.read_text())


def test_default_table1_matches_golden(quick_context):
    rows = run_table1(ctx=quick_context)
    assert rows == json.loads(TABLE1_QUICK_GOLDEN.read_text())


def test_table1_warm_run_reads_cached_stats(tmp_path, monkeypatch):
    def table1():
        with build_service(workloads="ChaCha20_ct", cache_dir=str(tmp_path), jobs=1) as service:
            return run_table1(ctx=service.context(), invocations=64)

    cold = table1()
    assert list((tmp_path / "v1" / "table1-stats").glob("ChaCha20_ct-*.pkl"))

    def no_analysis(*_args, **_kwargs):
        raise AssertionError("a warm Table 1 must not re-run Algorithm 1")

    monkeypatch.setattr(table1_module, "stats_from_bundle_scaled", no_analysis)
    assert table1() == cold


def test_figure7_normalization_and_headline(ctx):
    rows = run_figure7(ctx=ctx)
    assert rows[-1]["workload"] == "geomean"
    assert [row["workload"] for row in rows[:-1]] == TEST_WORKLOADS
    for row in rows[:-1]:
        assert row["unsafe-baseline"] == pytest.approx(1.0)
        # Cassandra must never be slower than the baseline on these kernels
        # and SPT must never be faster than the baseline.
        assert row["cassandra"] <= 1.0 + 1e-9
        assert row["spt"] >= 1.0 - 1e-9
    speedup = summarize_speedup(rows)
    assert speedup >= 0.0
    assert "geomean" in format_figure7(rows)


def test_figure8_overheads():
    rows = run_figure8(mixes=["25s/75c", "all-crypto"])
    assert len(rows) == 4
    by_key = {(row["primitive"], row["mix"]): row for row in rows}
    for (primitive, mix), row in by_key.items():
        # Neither design may blow up: the paper's overheads stay within a
        # narrow band (at most ~15% for ProSpeCT, small gains for Cassandra).
        assert -10.0 < row["prospect"] < 60.0
        assert -10.0 < row["cassandra+prospect"] < 60.0
    # The chacha20 (public stack) benchmark is nearly free for ProSpeCT.
    assert by_key[("chacha20", "all-crypto")]["prospect"] < 5.0
    assert "curve25519" in format_figure8(rows)


def test_figure9_power_and_area(ctx):
    report = run_figure9(ctx=ctx)
    assert power_reduction_percent(report) > 0.0
    assert btu_area_percent(report) == pytest.approx(1.26, abs=0.01)
    assert report["power:unsafe-baseline"]["total"] == pytest.approx(1.0)
    assert "branch_trace_unit" in format_figure9(report)


def test_table2_scenarios():
    results = run_table2()
    assert len(results) == 8
    assert all(not r.leaks_cassandra for r in results if r.scenario <= 6)
    assert "BR1 -> R1" in format_table2(results)


def test_cassandra_lite_study(ctx):
    rows = run_cassandra_lite(ctx=ctx)
    lite_rows = [row for row in rows if isinstance(row["lite_over_cassandra"], float) and not str(row["workload"]).startswith("geomean")]
    assert all(row["lite_over_cassandra"] >= 1.0 - 1e-9 for row in lite_rows)
    assert "geomean-bearssl" in format_cassandra_lite(rows)


def test_interrupt_study(ctx):
    rows = run_interrupt_study(ctx=ctx, flush_interval=500)
    geomean = rows[-1]
    assert geomean["cassandra+flush"] >= geomean["cassandra"] - 1e-9
    assert "geomean" in format_interrupt_study(rows)


def test_trace_runtime_rows(ctx):
    rows = run_trace_runtime(ctx=ctx)
    assert len(rows) == len(TEST_WORKLOADS)
    assert all(row["E_kmers_compression"] >= 0 for row in rows)
    assert "A_detect_static_branches" in format_trace_runtime(rows)


def test_figure8_parallel_fanout_matches_serial():
    serial = SimulationService(names=[], backend="serial").context()
    fork = SimulationService(names=[], jobs=2, backend="fork").context()
    rows_serial = run_figure8(ctx=serial, mixes=["25s/75c"])
    rows_parallel = run_figure8(ctx=fork, mixes=["25s/75c"])
    assert rows_serial == rows_parallel


def test_sweep_experiment(ctx):
    from repro.experiments.sweep import SWEEP_CONFIGS, format_sweep, run_sweep

    configs = SWEEP_CONFIGS[:2]  # golden-cove + rob-256 keeps the test fast
    rows = run_sweep(ctx=ctx, configs=configs)
    assert [row["config"] for row in rows] == [label for label, _ in configs]
    for row in rows:
        assert row["unsafe-baseline_cycles"] > 0
        # Cassandra is not slower than the baseline on these kernels,
        # whatever the configuration.
        assert row["cassandra_norm"] <= 1.0 + 1e-9
    # A smaller ROB can't be faster than the paper's Golden-Cove machine.
    assert rows[1]["unsafe-baseline_cycles"] >= rows[0]["unsafe-baseline_cycles"]
    assert "golden-cove" in format_sweep(rows)


def test_sweep_matrix_covers_every_config_and_design():
    from repro.experiments.registry import get_experiment
    from repro.experiments.sweep import SWEEP_CONFIGS, SWEEP_DESIGNS, sweep_matrix

    spec = get_experiment("sweep")
    assert spec.matrix == sweep_matrix()

    requests = sweep_matrix().expand(["ChaCha20_ct"])
    assert len(requests) == len(SWEEP_CONFIGS) * len(SWEEP_DESIGNS)
    assert len({request.key() for request in requests}) == len(requests)
