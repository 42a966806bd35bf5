"""Warehouse ingest: the event-stream listener and the JSON backfill."""

import json
import logging
import time

import pytest

from repro.api import ScenarioMatrix, SimulationService
from repro.api.gateway.usage import TENANT_TAG_PREFIX
from repro.api.jobs import JobEvent
from repro.api.request import SimulationRequest
from repro.engine import native
from repro.engine.kernels import TIER_ENV
from repro.testing import Fault, FaultPlan, activate
from repro.warehouse import (
    FINGERPRINT_ENV,
    Query,
    WarehouseError,
    WarehouseIngestor,
    WarehouseStore,
    attach_ingestor,
    default_fingerprint,
    ingest_file,
)
from repro.warehouse.store import SOURCE_BACKFILL, SOURCE_EVENT, WarehouseRow

WORKLOAD = "ChaCha20_ct"
MATRIX = ScenarioMatrix(designs=("unsafe-baseline", "cassandra"))


@pytest.fixture()
def service():
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    yield service
    service.close()


def wait_for_rows(store, expected, timeout=60.0):
    """Listeners run on the scheduler thread; results can unblock first."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if store.count() >= expected:
            return
        time.sleep(0.02)
    raise AssertionError(f"store never reached {expected} rows")


def test_listener_lands_every_point_with_run_metadata(tmp_path, service):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    ingestor = attach_ingestor(service, store, fingerprint="fp-live")
    handle = service.submit(MATRIX, tags=("tenant:acme", "smoke"))
    answer = handle.result()
    wait_for_rows(store, 2)

    rows = store.select(fingerprint="fp-live")
    assert len(rows) == 2
    for row in rows:
        assert row.full_fidelity
        assert row.source == SOURCE_EVENT
        assert row.job_id == handle.job_id
        assert row.tags == ("tenant:acme", "smoke")
        assert row.tenant == "acme"
        assert row.engine_tier
    assert ingestor.ingested == 2
    # The stored rows rebuild the exact ResultSet the job returned.
    rebuilt = Query(store, fingerprint="fp-live").result_set()
    assert rebuilt.export_rows() == answer.export_rows()
    store.close()


def test_replayed_points_are_idempotent(tmp_path, service):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    ingestor = attach_ingestor(service, store, fingerprint="fp-live")
    service.run(MATRIX)
    wait_for_rows(store, 2)
    before = store.content_rows()
    # The same matrix again: every point replays as a cache-hit event.
    service.run(MATRIX)
    deadline = time.monotonic() + 60.0
    while ingestor.ingested < 4 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert ingestor.ingested == 4
    assert store.count() == 2
    assert store.content_rows() == before
    store.close()


def test_each_round_lands_in_one_commit_before_the_job_ends(tmp_path, service):
    """One upsert_many per round; the last round's lands before the job's
    terminal event, which the journal records before listeners see it (a
    crash in between must not strand a finished job's rows)."""
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    commits = []
    upsert_many = store.upsert_many
    store.upsert_many = lambda rows: commits.append(upsert_many(rows))
    # Ahead of the ingestor, as the journal's state record is.
    at_end = []
    service.scheduler.add_listener(
        lambda event: at_end.append(store.count()) if event.terminal else None
    )
    attach_ingestor(service, store, fingerprint="fp-live")
    two_rounds = ScenarioMatrix(
        workloads=(WORKLOAD, "Poly1305_ctmul"), designs=("unsafe-baseline", "cassandra")
    )

    def run_to_its_end():
        ended = len(at_end)
        service.run(two_rounds)
        # Listeners see the terminal event after result() returns.
        deadline = time.monotonic() + 60.0
        while len(at_end) == ended and time.monotonic() < deadline:
            time.sleep(0.01)

    run_to_its_end()
    # The serial backend runs one round per workload.
    assert commits == [2, 2]
    assert at_end == [4]
    # A rerun is all cache hits: one commit, again before the job ends.
    run_to_its_end()
    assert commits == [2, 2, 4]
    assert at_end == [4, 4]
    store.close()


def test_untagged_job_has_no_tenant(tmp_path, service):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    attach_ingestor(service, store, fingerprint="fp-live")
    service.submit(SimulationRequest(workload=WORKLOAD, design="spt")).result()
    wait_for_rows(store, 1)
    (row,) = store.select()
    assert row.tags == ()
    assert row.tenant is None
    store.close()


def test_a_failed_upsert_is_logged_not_silent(tmp_path, service, caplog):
    """A round whose commit raises loses its rows, but the loss names the
    job, the event that flushed the round and the error in a warning
    instead of vanishing; the job's next round still lands."""
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    attach_ingestor(service, store, fingerprint="fp-live")
    # Two workloads: the serial backend runs one round per workload.
    two_rounds = ScenarioMatrix(
        workloads=(WORKLOAD, "Poly1305_ctmul"), designs=("unsafe-baseline", "cassandra")
    )
    plan = FaultPlan.scripted(Fault("warehouse-write", 0, "crash"))
    with caplog.at_level(logging.WARNING, logger="repro.api.jobs"):
        with activate(plan) as active:
            handle = service.submit(two_rounds)
            handle.result(timeout=60)
            # The second round lands after the first one's failure.
            wait_for_rows(store, 2)
    assert [fault.site for fault in active.fired] == ["warehouse-write"]
    assert {row.workload for row in store.select()} == {"Poly1305_ctmul"}
    assert store.count() == 2
    [lost] = [record for record in caplog.records if record.name == "repro.api.jobs"]
    message = lost.getMessage()
    assert handle.job_id in message
    # A round commits at its last point-done.
    assert "point-done" in message
    assert "InjectedFault" in message
    store.close()


def test_rows_record_the_tier_that_served_them(tmp_path, service, monkeypatch):
    """A native request without a compiler runs on the python kernels, and
    its rows say so."""
    monkeypatch.setenv(TIER_ENV, "native")
    monkeypatch.setenv(native.TOOLCHAIN_ENV, "/nonexistent/cc")
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    attach_ingestor(service, store, fingerprint="fp-live")
    service.run(MATRIX)
    wait_for_rows(store, 2)
    assert [row.engine_tier for row in store.select()] == ["python", "python"]
    store.close()


def test_fingerprint_env_overrides_tree_fingerprint(tmp_path, service, monkeypatch):
    monkeypatch.setenv(FINGERPRINT_ENV, "env-fp")
    assert default_fingerprint() == "env-fp"
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    ingestor = WarehouseIngestor(store)
    assert ingestor.fingerprint == "env-fp"
    # An explicit fingerprint still wins over the environment.
    assert WarehouseIngestor(store, fingerprint="x").fingerprint == "x"
    monkeypatch.delenv(FINGERPRINT_ENV)
    assert default_fingerprint() not in ("env-fp", "")
    store.close()


# ---------------------------------------------------------------------- #
# Backfill
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def answered():
    """One live ResultSet to back the file-format fixtures."""
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    results = service.run(MATRIX)
    service.close()
    return results


def test_point_event_carries_its_result_into_the_store(tmp_path, answered, monkeypatch):
    """The listener needs no service: a point event hands it the result."""
    monkeypatch.setenv(TIER_ENV, "python")
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    ingestor = WarehouseIngestor(store, fingerprint="fp-ev", clock=lambda: 42.0)
    request, result = next(iter(answered))
    tags = (TENANT_TAG_PREFIX + "acme",)
    ingestor.on_event(
        JobEvent("queued", "job-7", 1, payload={"points": 1, "tags": list(tags)})
    )
    ingestor.on_event(JobEvent("point-started", "job-7", 2, request=request))
    done = JobEvent(
        "point-done", "job-7", 3, request=request,
        payload={"cycles": result.cycles}, result=result,
    )
    # The result rides in process only: the wire form is unchanged.
    assert set(done.as_dict()) == {"kind", "job", "seq", "request", "payload"}
    assert JobEvent.from_dict(done.as_dict()) == done
    ingestor.on_event(done)
    # The round's last point-done commits it, before the job's terminal
    # event (which the journal records first) reaches any listener.
    expected = [
        WarehouseRow.from_entry(
            request, result, fingerprint="fp-ev", recorded=42.0,
            engine_tier="python", job_id="job-7", tags=tags, tenant="acme",
        )
    ]
    assert store.select() == expected
    ingestor.on_event(JobEvent("done", "job-7", 4, payload={"points": 1}))
    assert store.select() == expected
    assert ingestor.ingested == 1
    store.close()


def test_backfill_wire_dump_is_full_fidelity(tmp_path, answered):
    path = tmp_path / "results.wire.json"
    path.write_text(answered.to_wire(), encoding="utf-8")
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    kind, count = ingest_file(store, str(path), fingerprint="fp-bf")
    assert (kind, count) == ("resultset-wire", 2)
    rows = store.select(fingerprint="fp-bf")
    assert all(row.full_fidelity and row.source == SOURCE_BACKFILL for row in rows)
    rebuilt = Query(store, fingerprint="fp-bf").result_set()
    assert rebuilt.export_rows() == answered.export_rows()
    store.close()


def test_backfill_export_rows_is_lossy_but_queryable(tmp_path, answered):
    path = tmp_path / "rows.json"
    path.write_text(answered.to_json(), encoding="utf-8")
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    kind, count = ingest_file(
        store, str(path), fingerprint="fp-bf", tags=("imported",), recorded=12345.0
    )
    assert (kind, count) == ("result-rows", 2)
    rows = store.select(fingerprint="fp-bf")
    assert all(not row.full_fidelity for row in rows)
    assert all(row.recorded == 12345.0 and row.tags == ("imported",) for row in rows)
    query = Query(store, fingerprint="fp-bf")
    assert query.export_rows() == answered.export_rows()
    with pytest.raises(WarehouseError, match="full-fidelity"):
        query.result_set()
    store.close()


def test_full_fidelity_reingest_upgrades_lossy_rows(tmp_path, answered):
    lossy = tmp_path / "rows.json"
    lossy.write_text(answered.to_json(), encoding="utf-8")
    wire = tmp_path / "results.wire.json"
    wire.write_text(answered.to_wire(), encoding="utf-8")
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    ingest_file(store, str(lossy), fingerprint="fp")
    ingest_file(store, str(wire), fingerprint="fp")
    assert store.count() == 2
    assert all(row.full_fidelity for row in store.select())
    store.close()


def test_backfill_bench_engine_and_trajectory(tmp_path):
    engine = tmp_path / "BENCH_engine.json"
    engine.write_text(
        json.dumps({"schema_version": 6, "kernel_speedup": 12.5}), encoding="utf-8"
    )
    trajectory = tmp_path / "BENCH_trajectory.json"
    trajectory.write_text(
        json.dumps(
            [
                {"schema_version": 5, "timestamp": "2026-01-01T00:00:00Z"},
                {"schema_version": 6, "timestamp": "2026-02-01T00:00:00Z"},
            ]
        ),
        encoding="utf-8",
    )
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    assert ingest_file(store, str(engine), recorded=0.0) == ("bench-engine", 1)
    assert ingest_file(store, str(trajectory)) == ("bench-trajectory", 2)
    history = store.bench_history()
    assert len(history) == 3
    assert history[0]["timestamp"] == "1970-01-01T00:00:00Z"  # recorded=0.0
    assert [entry["schema_version"] for entry in history[1:]] == [5, 6]
    store.close()


def test_backfill_rejects_unknown_shapes(tmp_path):
    path = tmp_path / "mystery.json"
    path.write_text(json.dumps({"nope": 1}), encoding="utf-8")
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    with pytest.raises(ValueError, match="unrecognized payload shape"):
        ingest_file(store, str(path))
    store.close()
