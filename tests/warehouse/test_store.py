"""WarehouseStore semantics: idempotent upserts, migrations, compaction.

The store is the durability contract of the warehouse: the same point
under the same fingerprint is ONE row no matter how many times ingest
replays it, a lossy re-ingest never erases full-fidelity JSON, an old
store upgrades in place, and every write passes the ``warehouse-write``
fault site so the chaos suite can kill mid-ingest deterministically.
"""

import json
import sqlite3

import pytest

from repro.api import ScenarioMatrix, SimulationService
from repro.testing import Fault, FaultPlan, InjectedFault, activate
from repro.warehouse import WarehouseRow, WarehouseStore, point_key_of
from repro.warehouse.store import _MIGRATIONS, SCHEMA_VERSION, WAREHOUSE_NAME

WORKLOAD = "ChaCha20_ct"


@pytest.fixture(scope="module")
def entries():
    """A handful of real (request, result) pairs to store."""
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    results = service.run(
        ScenarioMatrix(designs=("unsafe-baseline", "cassandra", "spt"))
    )
    service.close()
    return list(results)


def make_row(entry, fingerprint="fp1", **overrides):
    request, result = entry
    row = WarehouseRow.from_entry(
        request, result, fingerprint=fingerprint, recorded=100.0
    )
    if overrides:
        from dataclasses import replace

        row = replace(row, **overrides)
    return row


def test_upsert_same_point_same_fingerprint_is_one_row(tmp_path, entries):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    row = make_row(entries[0])
    store.upsert(row)
    store.upsert(make_row(entries[0]))  # replayed ingest
    assert store.count() == 1
    # A different fingerprint for the same point is a second row...
    store.upsert(make_row(entries[0], fingerprint="fp2"))
    # ...as is a different point under the first fingerprint.
    store.upsert(make_row(entries[1]))
    assert store.count() == 3
    assert store.count(fingerprint="fp1") == 2
    store.close()


def test_lossy_replay_never_erases_full_fidelity(tmp_path, entries):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    full = make_row(entries[0])
    store.upsert(full)
    lossy = make_row(entries[0], request_json=None, result_json=None)
    store.upsert(lossy)
    (stored,) = store.select(fingerprint="fp1")
    assert stored.full_fidelity
    assert stored.result_json == full.result_json
    request, result = stored.entry()
    assert request == entries[0][0]
    assert result.cycles == entries[0][1].cycles
    store.close()


def test_lossy_row_refuses_entry_reconstruction(tmp_path, entries):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    store.upsert(make_row(entries[0], request_json=None, result_json=None))
    (stored,) = store.select()
    assert not stored.full_fidelity
    with pytest.raises(ValueError, match="full-fidelity"):
        stored.entry()
    store.close()


def test_select_orders_by_sort_key_not_insertion(tmp_path, entries):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    for entry in reversed(entries):  # insert backwards
        store.upsert(make_row(entry))
    rows = store.select(fingerprint="fp1")
    expected = sorted(point_key_of(req) for req, _ in entries)
    assert [json.dumps(list(r.sort_tuple()), separators=(",", ":"))
            for r in rows] == expected
    store.close()


def test_directory_path_places_store_inside(tmp_path, entries):
    store = WarehouseStore(str(tmp_path / "state"))
    assert store.path.endswith(WAREHOUSE_NAME)
    store.upsert(make_row(entries[0]))
    store.close()
    reopened = WarehouseStore(str(tmp_path / "state"))
    assert reopened.count() == 1
    reopened.close()


def test_wal_mode_is_active(tmp_path):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
    assert mode == "wal"
    store.close()


def test_old_store_migrates_in_place(tmp_path):
    """A v1 file (results only, no bench table) upgrades on open."""
    path = str(tmp_path / "wh.sqlite3")
    conn = sqlite3.connect(path)
    conn.executescript(_MIGRATIONS[0])
    conn.execute("PRAGMA user_version=1")
    conn.commit()
    assert conn.execute(
        "SELECT COUNT(*) FROM sqlite_master WHERE name='bench'"
    ).fetchone()[0] == 0
    conn.close()

    store = WarehouseStore(path)
    assert store.schema_version == SCHEMA_VERSION
    store.record_bench({"schema_version": 6, "speedup": 5.7}, "2026-01-01T00:00:00Z")
    assert store.bench_history()[0]["speedup"] == 5.7
    store.close()


def test_v2_store_gains_an_ingest_sequence(tmp_path, entries):
    """A v2 file's rows keep their insertion order; new writes land after.

    The two fingerprints are written with ``recorded`` inverted against
    insertion order: after the migration "newest" follows insertion.
    """
    path = str(tmp_path / "wh.sqlite3")
    conn = sqlite3.connect(path)
    for script in _MIGRATIONS[:2]:
        conn.executescript(script)
    for fingerprint, recorded in (("old", 200.0), ("new", 100.0)):
        row = make_row(entries[0], fingerprint=fingerprint)
        conn.execute(
            "INSERT INTO results (point_key, fingerprint, workload, design, "
            "config_digest, warmup_passes, cycles, recorded) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (row.point_key, fingerprint, row.workload, row.design,
             row.config_digest, row.warmup_passes, row.cycles, recorded),
        )
    conn.execute("PRAGMA user_version=2")
    conn.commit()
    conn.close()

    store = WarehouseStore(path)
    assert store.schema_version == SCHEMA_VERSION
    assert store.latest_fingerprints(2) == ["new", "old"]
    store.upsert(make_row(entries[1], fingerprint="old"))
    assert store.latest_fingerprints(2) == ["old", "new"]
    store.close()


def test_bench_entries_dedupe_on_timestamp_and_schema(tmp_path):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    store.record_bench({"schema_version": 6, "speedup": 1.0}, "2026-01-01T00:00:00Z")
    store.record_bench({"schema_version": 6, "speedup": 2.0}, "2026-01-01T00:00:00Z")
    store.record_bench({"schema_version": 5, "speedup": 3.0}, "2026-01-01T00:00:00Z")
    history = store.bench_history()
    assert len(history) == 2
    assert {entry["speedup"] for entry in history} == {2.0, 3.0}
    store.close()


def test_compact_keeps_newest_fingerprints(tmp_path, entries):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    for index, fp in enumerate(["old", "mid", "new"]):
        for entry in entries:
            row = make_row(entry, fingerprint=fp)
            from dataclasses import replace

            store.upsert(replace(row, recorded=100.0 + index))
    deleted = store.compact(keep=2)
    assert deleted == len(entries)
    kept = {info.fingerprint for info in store.fingerprints()}
    assert kept == {"mid", "new"}
    assert store.latest_fingerprints(1) == ["new"]
    with pytest.raises(ValueError):
        store.compact(keep=0)
    store.close()


def test_fingerprints_report_footprint(tmp_path, entries):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    store.upsert(make_row(entries[0]))
    store.upsert(make_row(entries[1]))
    (info,) = store.fingerprints()
    assert info.fingerprint == "fp1"
    assert info.points == 2
    assert info.first_recorded == info.last_recorded == 100.0
    store.close()


def test_warehouse_write_fault_site_fires(tmp_path, entries):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    plan = FaultPlan.scripted(Fault("warehouse-write", 1, "crash"))
    with activate(plan) as active:
        store.upsert(make_row(entries[0]))  # visit 0: free
        with pytest.raises(InjectedFault):
            store.upsert(make_row(entries[1]))  # visit 1: fires pre-commit
        assert active.fired
    # The faulted write never committed; the first one survived.
    assert store.count() == 1
    store.upsert(make_row(entries[1]))  # replay after recovery
    assert store.count() == 2
    store.close()


def test_content_rows_ignore_run_metadata(tmp_path, entries):
    """Timestamps, job ids, and tags differ across a resume; science doesn't."""
    store_a = WarehouseStore(str(tmp_path / "a.sqlite3"))
    store_b = WarehouseStore(str(tmp_path / "b.sqlite3"))
    from dataclasses import replace

    for entry in entries:
        row = make_row(entry)
        store_a.upsert(replace(row, recorded=1.0, job_id="j-1", tags=("x",)))
        store_b.upsert(replace(row, recorded=2.0, job_id="j-2", tags=("resumed",)))
    assert store_a.content_rows() == store_b.content_rows()
    store_a.close()
    store_b.close()
