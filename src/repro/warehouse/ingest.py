"""The warehouse's ingest layer: event-stream writer plus JSON backfill.

:class:`WarehouseIngestor` is a scheduler listener — the same
:class:`~repro.api.jobs.JobEvent` hook the gateway's
:class:`~repro.api.gateway.usage.UsageService` rides — that lands every
``point-done`` and ``cache-hit`` in the store.  The scheduler hands each of
those events the full :class:`~repro.uarch.core.SimulationResult` it
already holds (:attr:`~repro.api.jobs.JobEvent.result`, in process only),
so the listener neither looks the result up again nor widens the event
wire format.

Rows land once per round, not once per point: the listener buffers a
job's rows and commits them in one :meth:`WarehouseStore.upsert_many`
when the round's last started point is done (the cache hits answered
before the first round ride along with it), or, for a job every point of
which was a cache hit, when its last point is answered.  A listener
exception is logged by the emitting :class:`~repro.api.jobs.JobHandle`
with the job id and the event kind, and loses only that round's rows.

Crash contract: every round commits before the job's next round starts
and before its terminal event, whose ``state`` record the journal writes
*before* any listener runs — so a job the journal calls finished has all
its rows in the store, and a ``kill -9`` loses at most the rows of
rounds whose job is still pending.  Attach the listener *before*
:func:`repro.api.journal.resume_jobs` runs (``repro serve --state-dir``
and ``repro gateway`` both do): the resumed job's already-completed
points replay as ``cache-hit`` events, so the store converges back to the
exact rows an uninterrupted run produces — the store's idempotent upsert
makes the replay safe.

:func:`ingest_file` is the batch half: it sniffs and backfills the JSON
artifacts that predate the warehouse — full-fidelity ``ResultSet.to_wire``
payloads, lossy ``export_rows`` dumps, and the ``BENCH_engine.json`` /
``BENCH_trajectory.json`` perf history.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.jobs import JobEvent
from repro.api.results import ResultSet
from repro.warehouse.store import (
    SOURCE_BACKFILL,
    SOURCE_EVENT,
    WarehouseRow,
    WarehouseStore,
)

#: Overrides the source-tree fingerprint rows are keyed under — how CI runs
#: the same tree under two pretend fingerprints to exercise the regression
#: gate, and how backfills pin the tree that actually produced a file.
FINGERPRINT_ENV = "REPRO_WAREHOUSE_FINGERPRINT"


def default_fingerprint() -> str:
    """The fingerprint rows land under: the env override, else the tree's."""
    override = os.environ.get(FINGERPRINT_ENV)
    if override:
        return override
    from repro.pipeline.hashing import code_fingerprint

    return code_fingerprint()


class WarehouseIngestor:
    """Land every answered point from the event stream into the store."""

    def __init__(
        self,
        store: WarehouseStore,
        fingerprint: Optional[str] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.store = store
        self.fingerprint = fingerprint or default_fingerprint()
        self.clock = clock
        self._lock = threading.Lock()
        self._jobs: Dict[str, _JobRows] = {}
        #: Points landed through this listener, for tests and stats.
        self.ingested = 0

    def on_event(self, event: JobEvent) -> None:
        """The scheduler listener.  Exceptions are logged and dropped by
        the emitting :class:`JobHandle` (a broken store must not kill
        jobs): the round's rows are lost, its warning names the job."""
        with self._lock:
            job = self._jobs.setdefault(event.job_id, _JobRows())
            if event.kind == "queued":
                payload = event.payload or {}
                job.tags = tuple(payload.get("tags") or ())
                job.points = payload.get("points")
            elif event.kind == "point-started":
                job.running += 1
            elif event.result is not None:  # point-done / cache-hit
                job.rows.append(self._row(event, job.tags))
                job.answered += 1
                job.running -= event.kind == "point-done"
            if event.terminal:
                rows = self._jobs.pop(event.job_id).rows
            elif job.running <= 0 and (
                event.kind == "point-done" or job.answered == job.points
            ):
                rows, job.rows = job.rows, []
            else:
                rows = []
        if rows:
            self.store.upsert_many(rows)
            with self._lock:
                self.ingested += len(rows)

    def _row(self, event: JobEvent, tags: Tuple[str, ...]) -> WarehouseRow:
        from repro.api.gateway.usage import tenant_from_tags
        from repro.engine import native
        from repro.engine.kernels import engine_tier

        # The tier that served the point: a native request without a
        # compiler runs on the python kernels.  (One shape the toolchain
        # rejects still reads "native": the tier is recorded per run.)
        tier = engine_tier()
        if tier == "native" and native.find_toolchain() is None:
            tier = "python"
        return WarehouseRow.from_entry(
            event.request,
            event.result,
            fingerprint=self.fingerprint,
            recorded=self.clock(),
            engine_tier=tier,
            job_id=event.job_id,
            tags=tags,
            tenant=tenant_from_tags(tags),
            source=SOURCE_EVENT,
        )


@dataclass
class _JobRows:
    """One job's ingest state: its tags and its open round's rows."""

    tags: Tuple[str, ...] = ()
    #: The job's point count, from its ``queued`` event.
    points: Optional[int] = None
    #: Points answered (``point-done`` or ``cache-hit``) so far.
    answered: int = 0
    #: Points started and not yet done: the open round's.
    running: int = 0
    rows: List[WarehouseRow] = field(default_factory=list)


def attach_ingestor(
    service, store: WarehouseStore, fingerprint: Optional[str] = None
) -> WarehouseIngestor:
    """Wire an ingestor onto a service's scheduler; returns the listener."""
    ingestor = WarehouseIngestor(store, fingerprint=fingerprint)
    service.scheduler.add_listener(ingestor.on_event)
    return ingestor


# ---------------------------------------------------------------------- #
# Backfill
# ---------------------------------------------------------------------- #
def ingest_file(
    store: WarehouseStore,
    path: str,
    fingerprint: Optional[str] = None,
    tags: Sequence[str] = (),
    recorded: Optional[float] = None,
) -> Tuple[str, int]:
    """Backfill one JSON artifact; returns ``(kind, rows)``.

    Sniffs the payload shape:

    * ``ResultSet.to_wire`` output (``{"version": ..., "entries": [...]}``)
      → full-fidelity rows;
    * ``ResultSet.export_rows`` / ``to_json`` output (a list of axis/cycles
      dicts) → columnar rows without request/result JSON;
    * ``BENCH_engine.json`` (a dict with ``schema_version``) → one bench
      entry stamped with the file's mtime;
    * ``BENCH_trajectory.json`` (a list of dicts with ``schema_version``
      and ``timestamp``) → one bench entry each.

    ``recorded`` defaults to the file's mtime — the caller-passed
    timestamp discipline keeps replays deterministic.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    fingerprint = fingerprint or default_fingerprint()
    recorded = os.path.getmtime(path) if recorded is None else recorded

    if isinstance(payload, dict) and "entries" in payload:
        count = _ingest_wire(store, payload, fingerprint, tags, recorded)
        return "resultset-wire", count
    if isinstance(payload, dict) and "schema_version" in payload:
        store.record_bench(payload, timestamp=_mtime_stamp(recorded))
        return "bench-engine", 1
    if isinstance(payload, list) and payload and _looks_like_rows(payload):
        count = _ingest_rows(store, payload, fingerprint, tags, recorded)
        return "result-rows", count
    if isinstance(payload, list) and all(
        isinstance(entry, dict) and "schema_version" in entry for entry in payload
    ):
        for entry in payload:
            store.record_bench(
                entry, timestamp=str(entry.get("timestamp") or _mtime_stamp(recorded))
            )
        return "bench-trajectory", len(payload)
    raise ValueError(
        f"{path}: unrecognized payload shape — expected a ResultSet wire "
        "dump, an export_rows list, or a BENCH engine/trajectory file"
    )


def _mtime_stamp(recorded: float) -> str:
    import datetime

    stamp = datetime.datetime.fromtimestamp(recorded, datetime.timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def _looks_like_rows(payload: List[Any]) -> bool:
    required = {"workload", "design", "cycles"}
    return all(
        isinstance(entry, dict) and required.issubset(entry) for entry in payload
    )


def _ingest_wire(
    store: WarehouseStore,
    payload: Dict[str, Any],
    fingerprint: str,
    tags: Sequence[str],
    recorded: float,
) -> int:
    results = ResultSet.from_wire(json.dumps(payload))
    rows = [
        WarehouseRow.from_entry(
            request,
            result,
            fingerprint=fingerprint,
            recorded=recorded,
            tags=tuple(tags),
            source=SOURCE_BACKFILL,
        )
        for request, result in results
    ]
    return store.upsert_many(rows)


def _ingest_rows(
    store: WarehouseStore,
    payload: List[Dict[str, Any]],
    fingerprint: str,
    tags: Sequence[str],
    recorded: float,
) -> int:
    rows = []
    for entry in payload:
        flush = entry.get("btu_flush_interval")
        warmup = int(entry.get("warmup_passes", 1))
        config_digest = str(entry.get("config", ""))
        sort_key = [
            str(entry["workload"]),
            str(entry["design"]),
            config_digest,
            flush is not None,
            flush or 0,
            warmup,
        ]
        rows.append(
            WarehouseRow(
                point_key=json.dumps(sort_key, separators=(",", ":")),
                fingerprint=fingerprint,
                workload=str(entry["workload"]),
                design=str(entry["design"]),
                config_digest=config_digest,
                btu_flush_interval=flush,
                warmup_passes=warmup,
                cycles=int(entry["cycles"]),
                instructions=entry.get("instructions"),
                ipc=entry.get("ipc"),
                recorded=recorded,
                tags=tuple(tags),
                source=SOURCE_BACKFILL,
            )
        )
    return store.upsert_many(rows)
