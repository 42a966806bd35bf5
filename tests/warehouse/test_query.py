"""Warehouse queries: filters, ResultSet-identical aggregates, regressions."""

import pytest

from repro.api import ScenarioMatrix, SimulationService
from repro.warehouse import (
    Query,
    WarehouseError,
    WarehouseRow,
    WarehouseStore,
    attach_ingestor,
    compare_fingerprints,
    resolve_fingerprints,
)

WORKLOAD = "ChaCha20_ct"
DESIGNS = ("unsafe-baseline", "cassandra", "spt")


@pytest.fixture(scope="module")
def baseline():
    """(live ResultSet, its rows) — the warehouse side built per-test."""
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    results = service.run(ScenarioMatrix(designs=DESIGNS))
    service.close()
    return results


@pytest.fixture(scope="module")
def store(tmp_path_factory, baseline):
    """A store holding the live run under fpA and a 1.25× copy under fpB."""
    store = WarehouseStore(str(tmp_path_factory.mktemp("wh") / "wh.sqlite3"))
    recorded = 100.0
    for request, result in baseline:
        row = WarehouseRow.from_entry(
            request, result, fingerprint="fpA", recorded=recorded
        )
        store.upsert(row)
        from dataclasses import replace

        store.upsert(
            replace(
                row,
                fingerprint="fpB",
                cycles=int(row.cycles * 1.25),
                recorded=recorded + 10.0,
            )
        )
    yield store
    store.close()


def test_filters_and_rows_are_stable_ordered(store, baseline):
    query = Query(store, fingerprint="fpA")
    assert len(query.rows()) == len(DESIGNS)
    assert [r.design for r in query.rows()] == sorted(DESIGNS)
    one = query.where(design="cassandra")
    assert [r.design for r in one.rows()] == ["cassandra"]
    assert one.where(workload="nope").rows() == []
    with pytest.raises(KeyError, match="unknown query axis"):
        query.where(bogus=1)


def test_group_by_partitions_by_axis(store):
    groups = Query(store, fingerprint="fpA").group_by("design")
    assert set(groups) == set(DESIGNS)
    for design, group in groups.items():
        assert [r.design for r in group.rows()] == [design]
    with pytest.raises(KeyError):
        Query(store).group_by("bogus")


def test_aggregates_match_result_set_semantics(store, baseline):
    query = Query(store, fingerprint="fpA")
    assert query.cycles(design="cassandra") == baseline.cycles(design="cassandra")
    assert query.geomean_cycles() == baseline.geomean_cycles()
    assert query.normalized_time("cassandra") == baseline.normalized_time("cassandra")
    assert query.geomean_normalized_time("spt") == pytest.approx(
        baseline.geomean_normalized_time("spt")
    )


def test_cycles_requires_exactly_one_row(store):
    query = Query(store, fingerprint="fpA")
    with pytest.raises(WarehouseError, match="exactly one row"):
        query.cycles()  # three designs match
    with pytest.raises(WarehouseError, match="exactly one row"):
        query.cycles(design="nope")


def test_result_set_round_trips_full_fidelity_rows(store, baseline):
    rebuilt = Query(store, fingerprint="fpA").result_set()
    assert rebuilt.export_rows() == baseline.export_rows()
    assert rebuilt.to_wire() == ResultSetSorted(baseline).to_wire()


def ResultSetSorted(results):
    """The baseline re-ordered the way the store returns it (sort_key)."""
    from repro.api.results import ResultSet

    entries = sorted(results, key=lambda entry: entry[0].sort_key())
    return ResultSet(entries)


# ---------------------------------------------------------------------- #
# Cross-fingerprint comparison
# ---------------------------------------------------------------------- #
def test_identical_fingerprints_report_ok(store):
    report = compare_fingerprints(store, "fpA", "fpA")
    assert report.ok
    assert len(report.deltas) == len(DESIGNS)
    assert report.missing == report.new == 0
    assert all(d.ratio == 1.0 for d in report.deltas)


def test_slowdown_is_flagged_at_threshold(store):
    report = compare_fingerprints(store, "fpA", "fpB", threshold=0.02)
    assert not report.ok
    assert len(report.regressions) == len(DESIGNS)
    assert all(d.ratio == pytest.approx(1.25, abs=1e-3) for d in report.deltas)
    payload = report.as_dict()
    assert payload["ok"] is False
    assert payload["compared"] == len(DESIGNS)
    # A generous threshold swallows the same slowdown.
    assert compare_fingerprints(store, "fpA", "fpB", threshold=0.5).ok
    # The reverse direction is an improvement, not a regression.
    reverse = compare_fingerprints(store, "fpB", "fpA", threshold=0.02)
    assert reverse.ok
    assert len(reverse.improvements) == len(DESIGNS)


def test_disjoint_or_empty_fingerprints_fail_loudly(store, baseline):
    with pytest.raises(WarehouseError, match="has no rows"):
        compare_fingerprints(store, "fpA", "ghost")
    with pytest.raises(WarehouseError, match="has no rows"):
        compare_fingerprints(store, "ghost", "fpA")
    with pytest.raises(ValueError):
        compare_fingerprints(store, "fpA", "fpB", threshold=-0.1)


def test_partial_overlap_counts_missing_and_new(tmp_path, baseline):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    entries = list(baseline)
    for request, result in entries:
        store.upsert(
            WarehouseRow.from_entry(request, result, fingerprint="old", recorded=1.0)
        )
    for request, result in entries[1:]:  # candidate misses the first point
        store.upsert(
            WarehouseRow.from_entry(request, result, fingerprint="new", recorded=2.0)
        )
    report = compare_fingerprints(store, "old", "new")
    assert report.ok
    assert len(report.deltas) == len(entries) - 1
    assert report.missing == 1
    assert report.new == 0
    store.close()


def test_resolve_fingerprints_picks_newest_pair(store):
    # fpB was recorded later, so it is the default candidate.
    assert resolve_fingerprints(store) == ("fpA", "fpB")
    assert resolve_fingerprints(store, candidate="fpA") == ("fpB", "fpA")
    assert resolve_fingerprints(store, baseline="fpA", candidate="fpB") == (
        "fpA",
        "fpB",
    )


def test_backfill_older_than_event_rows_is_the_default_candidate(tmp_path, baseline):
    """Regression: "newest" follows ingest order, not ``recorded``.

    A backfill stamps its rows with the file's mtime, which can read earlier
    than event rows ingested just before it (coarse filesystem clocks, or a
    file simply written earlier); the defaults must still pick the
    backfill, the last thing ingested, as the candidate.
    """
    import json
    import os
    import time

    from repro.warehouse import ingest_file

    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    for request, result in baseline:
        store.upsert(
            WarehouseRow.from_entry(
                request, result, fingerprint="fpA", recorded=time.time()
            )
        )
    rows = tmp_path / "rows.json"
    rows.write_text(
        json.dumps(Query(store, fingerprint="fpA").export_rows()), encoding="utf-8"
    )
    older = time.time() - 3600.0
    os.utime(rows, (older, older))
    assert ingest_file(store, str(rows), fingerprint="fpB")[1] == len(DESIGNS)
    assert resolve_fingerprints(store) == ("fpA", "fpB")
    assert store.latest_fingerprints(1) == ["fpB"]
    store.close()


def test_resolve_fingerprints_needs_two(tmp_path, baseline):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    with pytest.raises(WarehouseError, match="no fingerprints"):
        resolve_fingerprints(store)
    request, result = next(iter(baseline))
    store.upsert(WarehouseRow.from_entry(request, result, fingerprint="solo", recorded=1.0))
    with pytest.raises(WarehouseError, match="distinct from candidate"):
        resolve_fingerprints(store)
    store.close()
