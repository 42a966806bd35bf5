"""The ``repro warehouse`` CLI, driven in-process: exit codes and formats."""

import json

import pytest

from repro.api import ScenarioMatrix, SimulationService
from repro.api.results import rows_to_csv
from repro.warehouse import Query, WarehouseStore, attach_ingestor
from repro.warehouse.cli import warehouse_main

WORKLOAD = "ChaCha20_ct"
DESIGNS = ("unsafe-baseline", "cassandra")


@pytest.fixture(scope="module")
def warehouse(tmp_path_factory):
    """A store with a live run under fpA and a 1.25×-doctored fpB."""
    path = str(tmp_path_factory.mktemp("wh") / "wh.sqlite3")
    store = WarehouseStore(path)
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    attach_ingestor(service, store, fingerprint="fpA")
    service.run(ScenarioMatrix(designs=DESIGNS))
    service.close()
    import time

    deadline = time.monotonic() + 30.0
    while store.count() < len(DESIGNS) and time.monotonic() < deadline:
        time.sleep(0.02)

    doctored = [
        {**row, "cycles": int(row["cycles"] * 1.25)}
        for row in Query(store, fingerprint="fpA").export_rows()
    ]
    slow = tmp_path_factory.mktemp("wh") / "slow.json"
    slow.write_text(json.dumps(doctored), encoding="utf-8")
    assert warehouse_main(
        ["--warehouse", path, "ingest", str(slow), "--fingerprint", "fpB"]
    ) == 0
    store.close()
    return path


def test_missing_store_is_a_usage_error(tmp_path, capsys):
    assert warehouse_main(
        ["--warehouse", str(tmp_path / "none.sqlite3"), "query"]
    ) == 2
    assert "no warehouse at" in capsys.readouterr().err


def test_query_formats(warehouse, capsys):
    assert warehouse_main(["--warehouse", warehouse, "query"]) == 0
    text = capsys.readouterr().out
    assert WORKLOAD in text and "fpA" in text and "fpB" in text

    assert warehouse_main(
        ["--warehouse", warehouse, "query", "--fingerprint", "fpA",
         "--format", "json"]
    ) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == len(DESIGNS)
    assert {row["design"] for row in rows} == set(DESIGNS)

    assert warehouse_main(
        ["--warehouse", warehouse, "query", "--group-by", "design",
         "--format", "json"]
    ) == 0
    groups = json.loads(capsys.readouterr().out)
    assert {g["design"] for g in groups} == set(DESIGNS)
    assert all(g["points"] == 2 for g in groups)  # fpA + fpB each


def test_fingerprints_lists_both(warehouse, capsys):
    assert warehouse_main(["--warehouse", warehouse, "fingerprints"]) == 0
    out = capsys.readouterr().out
    assert "fpA" in out and "fpB" in out


def test_regressions_gate_exit_codes(warehouse, capsys):
    # Identical fingerprints: clean gate.
    assert warehouse_main(
        ["--warehouse", warehouse, "regressions",
         "--baseline", "fpA", "--candidate", "fpA"]
    ) == 0
    assert "no regressions" in capsys.readouterr().out
    # The doctored 1.25× fingerprint trips the default 2% threshold...
    assert warehouse_main(
        ["--warehouse", warehouse, "regressions",
         "--baseline", "fpA", "--candidate", "fpB"]
    ) == 1
    assert "regression(s)" in capsys.readouterr().out
    # ...but not a 50% one.
    assert warehouse_main(
        ["--warehouse", warehouse, "regressions", "--baseline", "fpA",
         "--candidate", "fpB", "--threshold", "0.5"]
    ) == 0
    capsys.readouterr()
    # Defaults resolve to (next-newest, newest) = (fpA, fpB): still gated.
    assert warehouse_main(["--warehouse", warehouse, "regressions"]) == 1
    capsys.readouterr()
    # An unknown fingerprint is a usage error, not a silent pass.
    assert warehouse_main(
        ["--warehouse", warehouse, "regressions",
         "--baseline", "ghost", "--candidate", "fpA"]
    ) == 2
    assert "error:" in capsys.readouterr().err


def test_diff_always_exits_zero(warehouse, capsys):
    assert warehouse_main(
        ["--warehouse", warehouse, "diff", "--baseline", "fpA",
         "--candidate", "fpB", "--format", "json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert len(payload["deltas"]) == len(DESIGNS)
    assert payload["deltas"][0]["ratio"] == pytest.approx(1.25, abs=1e-3)


def test_export_matches_result_set_writer(warehouse, tmp_path, capsys):
    assert warehouse_main(
        ["--warehouse", warehouse, "export", "--fingerprint", "fpA"]
    ) == 0
    out = capsys.readouterr().out
    with WarehouseStore(warehouse) as store:
        expected_rows = Query(store, fingerprint="fpA").export_rows()
    assert out == rows_to_csv(expected_rows)
    assert out.splitlines()[0] == (
        "workload,design,config,btu_flush_interval,warmup_passes,"
        "cycles,instructions,ipc"
    )
    target = tmp_path / "rows.json"
    assert warehouse_main(
        ["--warehouse", warehouse, "export", "--fingerprint", "fpA",
         "--format", "json", "-o", str(target)]
    ) == 0
    capsys.readouterr()
    assert json.loads(target.read_text(encoding="utf-8")) == expected_rows


def test_view_errors_are_typed_exit_codes(warehouse, capsys):
    # figure7 needs designs this store lacks; the error is typed, not a crash.
    assert warehouse_main(
        ["--warehouse", warehouse, "view", "figure7",
         "--fingerprint", "fpA", "--workloads", WORKLOAD]
    ) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "no stored result" in err


def test_bench_and_compact(warehouse, capsys):
    assert warehouse_main(["--warehouse", warehouse, "bench"]) == 0
    capsys.readouterr()
    assert warehouse_main(
        ["--warehouse", warehouse, "compact", "--keep", "2"]
    ) == 0
    assert "compacted" in capsys.readouterr().out


def test_bench_shows_the_schema_7_speedup(tmp_path, capsys):
    """Schema-7 entries carry ``speedup`` (kernels over the reference loop)
    and no ``kernel_speedup``; the table must not render them blank."""
    path = str(tmp_path / "wh.sqlite3")
    store = WarehouseStore(path)
    store.record_bench({"schema_version": 7, "speedup": 16.83}, "2026-03-01T00:00:00Z")
    store.close()
    assert warehouse_main(["--warehouse", path, "bench"]) == 0
    assert "16.83" in capsys.readouterr().out


def test_bench_renders_pre_schema_8_trajectory_entries(tmp_path, capsys):
    """Schema 8 dropped the columns sweep; the recorded trajectory's older
    entries keep their ``columns_speedup`` in the table next to new ones."""
    import os

    from repro.warehouse.ingest import ingest_file

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    path = str(tmp_path / "wh.sqlite3")
    store = WarehouseStore(path)
    kind, count = ingest_file(store, os.path.join(root, "BENCH_trajectory.json"))
    assert kind == "bench-trajectory" and count >= 2
    store.record_bench(
        {"schema_version": 8, "speedup": 16.1, "native_speedup": 7.0},
        "2026-10-01T00:00:00Z",
    )
    store.close()
    assert warehouse_main(["--warehouse", path, "bench"]) == 0
    out = capsys.readouterr().out
    assert "columns_speedup" in out
    assert "2.76" in out and "3.81" in out
    assert "16.1" in out


def test_state_dir_points_at_the_serve_store(tmp_path, capsys):
    state_dir = tmp_path / "state"
    store = WarehouseStore(str(state_dir))
    store.close()
    assert warehouse_main(["--state-dir", str(state_dir), "fingerprints"]) == 0
    capsys.readouterr()
