"""The warehouse's schema/store layer: one WAL-mode SQLite file of results.

:class:`WarehouseStore` is the durable, queryable record of every
simulation point this source tree (and its ancestors) ever answered: one
row per (request ``sort_key`` × source fingerprint), carrying both the
columnar axes the query layer filters on (workload, design, config digest,
BTU flush, warm-up, cycles, instructions, IPC) and — when the point came
through the event stream or a full-fidelity export — the lossless
request/result JSON that lets the views layer rebuild an exact
:class:`~repro.api.results.ResultSet`.

Design points:

* **Idempotent upserts.**  The primary key is ``(point_key, fingerprint)``
  where ``point_key`` serializes :meth:`SimulationRequest.sort_key` — the
  same total order exports and tables sort by.  Re-ingesting the same
  point under the same source fingerprint (a journal replay after
  ``kill -9``, a backfill run twice) lands on the same row; lossy
  re-ingest never erases full-fidelity JSON (``COALESCE`` keeps it).
* **WAL mode.**  Readers (queries, views, regression gates) never block
  the incremental writer riding the scheduler's event stream (one
  :meth:`WarehouseStore.upsert_many` commit per job round), and a torn
  final commit after ``kill -9`` simply isn't there on reopen — the
  journal-driven resume re-ingests it, and the upsert makes that replay
  safe.
* **Migrations.**  ``PRAGMA user_version`` tracks the schema; every
  ``_MIGRATIONS`` step below the file's version is applied on open, so a
  store written by an older tree upgrades in place.
* **Fault site.**  Every write passes ``FAULT_HOOK("warehouse-write")``
  first (see :mod:`repro.testing.faults`), so the chaos suite can kill the
  process at the Nth warehouse write and assert the replay converges.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.request import SimulationRequest
from repro.uarch.core import SimulationResult

#: Set by :mod:`repro.testing.faults` when a plan is armed; visited as
#: ``FAULT_HOOK("warehouse-write", path=...)`` before every committed write.
FAULT_HOOK = None

#: The store file inside a state dir (next to ``journal.jsonl`` and
#: ``gateway.sqlite3``).
WAREHOUSE_NAME = "warehouse.sqlite3"

#: Rows ingested live off the scheduler's event stream.
SOURCE_EVENT = "event"
#: Rows backfilled from JSON exports / BENCH files.
SOURCE_BACKFILL = "backfill"

#: ``PRAGMA user_version`` after every migration has run.
SCHEMA_VERSION = 3

#: Ordered migration scripts; ``_MIGRATIONS[i]`` brings a version-``i``
#: store to version ``i + 1``.  Append, never edit: old stores replay the
#: tail on open.
_MIGRATIONS: Tuple[str, ...] = (
    # v0 -> v1: the results table, one row per (point, fingerprint).
    """
    CREATE TABLE results (
        point_key          TEXT NOT NULL,
        fingerprint        TEXT NOT NULL,
        workload           TEXT NOT NULL,
        design             TEXT NOT NULL,
        config_digest      TEXT NOT NULL,
        btu_flush_interval INTEGER,
        warmup_passes      INTEGER NOT NULL,
        cycles             INTEGER NOT NULL,
        instructions       INTEGER,
        ipc                REAL,
        engine_tier        TEXT,
        request_json       TEXT,
        result_json        TEXT,
        recorded           REAL NOT NULL,
        job_id             TEXT,
        tenant             TEXT,
        tags               TEXT NOT NULL DEFAULT '[]',
        source             TEXT NOT NULL DEFAULT 'event',
        PRIMARY KEY (point_key, fingerprint)
    );
    CREATE INDEX results_axes ON results(fingerprint, workload, design);
    """,
    # v1 -> v2: BENCH trajectory history generalized from two JSON files.
    """
    CREATE TABLE bench (
        timestamp      TEXT NOT NULL,
        schema_version INTEGER NOT NULL,
        payload        TEXT NOT NULL,
        PRIMARY KEY (timestamp, schema_version)
    );
    """,
    # v2 -> v3: a monotonic write sequence, so "newest fingerprint" follows
    # ingest order instead of ``recorded`` (which mixes event wall-clock
    # times with backfilled file mtimes).  Existing rows keep rowid order.
    """
    ALTER TABLE results ADD COLUMN seq INTEGER NOT NULL DEFAULT 0;
    UPDATE results SET seq = rowid;
    CREATE INDEX results_seq ON results(seq);
    """,
)


def point_key_of(request: SimulationRequest) -> str:
    """The warehouse key of one request: its ``sort_key`` as compact JSON."""
    return json.dumps(list(request.sort_key()), separators=(",", ":"))


@dataclass(frozen=True)
class WarehouseRow:
    """One stored point: columnar axes + optional full-fidelity JSON."""

    point_key: str
    fingerprint: str
    workload: str
    design: str
    config_digest: str
    btu_flush_interval: Optional[int]
    warmup_passes: int
    cycles: int
    instructions: Optional[int] = None
    ipc: Optional[float] = None
    engine_tier: Optional[str] = None
    request_json: Optional[str] = None
    result_json: Optional[str] = None
    recorded: float = 0.0
    job_id: Optional[str] = None
    tenant: Optional[str] = None
    tags: Tuple[str, ...] = ()
    source: str = SOURCE_EVENT

    def __post_init__(self) -> None:
        if not isinstance(self.tags, tuple):
            object.__setattr__(self, "tags", tuple(self.tags))

    @classmethod
    def from_entry(
        cls,
        request: SimulationRequest,
        result: SimulationResult,
        fingerprint: str,
        recorded: float,
        engine_tier: Optional[str] = None,
        job_id: Optional[str] = None,
        tags: Sequence[str] = (),
        tenant: Optional[str] = None,
        source: str = SOURCE_EVENT,
    ) -> "WarehouseRow":
        """A full-fidelity row from one (request, result) pair."""
        return cls(
            point_key=point_key_of(request),
            fingerprint=fingerprint,
            workload=request.workload.name,
            design=request.design,
            config_digest=request.config.digest(),
            btu_flush_interval=request.btu_flush_interval,
            warmup_passes=request.warmup_passes,
            cycles=result.cycles,
            instructions=result.stats.instructions,
            ipc=round(result.ipc, 4),
            engine_tier=engine_tier,
            request_json=request.to_json(),
            result_json=result.to_json(),
            recorded=recorded,
            job_id=job_id,
            tags=tuple(tags),
            tenant=tenant,
            source=source,
        )

    @property
    def full_fidelity(self) -> bool:
        """Whether this row can rebuild its exact (request, result) pair."""
        return self.request_json is not None and self.result_json is not None

    def entry(self) -> Tuple[SimulationRequest, SimulationResult]:
        """The (request, result) pair of a full-fidelity row."""
        if not self.full_fidelity:
            raise ValueError(
                f"row {self.point_key} @ {self.fingerprint} was backfilled "
                "without full-fidelity JSON; only columnar axes are available"
            )
        return (
            SimulationRequest.from_json(self.request_json),
            SimulationResult.from_dict(json.loads(self.result_json)),
        )

    def sort_tuple(self) -> Tuple:
        """The :meth:`SimulationRequest.sort_key` order, from the columns."""
        return (
            self.workload,
            self.design,
            self.config_digest,
            self.btu_flush_interval is not None,
            self.btu_flush_interval or 0,
            self.warmup_passes,
        )

    def export_row(self) -> Dict[str, Any]:
        """The :meth:`ResultSet.export_rows`-shaped dict of this row."""
        return {
            "workload": self.workload,
            "design": self.design,
            "config": self.config_digest,
            "btu_flush_interval": self.btu_flush_interval,
            "warmup_passes": self.warmup_passes,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "ipc": self.ipc,
        }

    def content_tuple(self) -> Tuple:
        """The run-independent science of this row — what a crash-replayed
        ingest must reproduce exactly (timestamps, job ids, and tags
        legitimately differ across a resume)."""
        return (
            self.point_key,
            self.fingerprint,
            self.workload,
            self.design,
            self.config_digest,
            self.btu_flush_interval,
            self.warmup_passes,
            self.cycles,
            self.instructions,
            self.ipc,
            self.result_json,
        )


@dataclass(frozen=True)
class FingerprintInfo:
    """One source-tree fingerprint's footprint in the store."""

    fingerprint: str
    points: int
    first_recorded: float
    last_recorded: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "points": self.points,
            "first_recorded": self.first_recorded,
            "last_recorded": self.last_recorded,
        }


_UPSERT_SQL = """
INSERT INTO results (
    point_key, fingerprint, workload, design, config_digest,
    btu_flush_interval, warmup_passes, cycles, instructions, ipc,
    engine_tier, request_json, result_json, recorded, job_id, tenant,
    tags, source, seq
) VALUES (
    ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,
    (SELECT COALESCE(MAX(seq), 0) + 1 FROM results)
)
ON CONFLICT(point_key, fingerprint) DO UPDATE SET
    cycles=excluded.cycles,
    instructions=COALESCE(excluded.instructions, results.instructions),
    ipc=COALESCE(excluded.ipc, results.ipc),
    engine_tier=COALESCE(excluded.engine_tier, results.engine_tier),
    request_json=COALESCE(excluded.request_json, results.request_json),
    result_json=COALESCE(excluded.result_json, results.result_json),
    recorded=excluded.recorded,
    job_id=COALESCE(excluded.job_id, results.job_id),
    tenant=COALESCE(excluded.tenant, results.tenant),
    tags=excluded.tags,
    source=excluded.source,
    seq=excluded.seq
"""

_ROW_COLUMNS = (
    "point_key, fingerprint, workload, design, config_digest, "
    "btu_flush_interval, warmup_passes, cycles, instructions, ipc, "
    "engine_tier, request_json, result_json, recorded, job_id, tenant, "
    "tags, source"
)


class WarehouseStore:
    """The SQLite persistence of the result warehouse.

    Thread-safe: one connection, one lock, WAL journal.  ``path`` may be
    the SQLite file itself or a directory (a serve/gateway ``--state-dir``),
    in which case the store lives at ``<path>/warehouse.sqlite3`` next to
    the job journal.
    """

    def __init__(self, path: str) -> None:
        if not os.path.splitext(path)[1] and (
            os.path.isdir(path) or not os.path.exists(path)
        ):
            os.makedirs(path, exist_ok=True)
            path = os.path.join(path, WAREHOUSE_NAME)
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._migrate()

    def _migrate(self) -> None:
        with self._lock:
            version = int(self._conn.execute("PRAGMA user_version").fetchone()[0])
            for target, script in enumerate(_MIGRATIONS, start=1):
                if version < target:
                    self._conn.executescript(script)
                    self._conn.execute(f"PRAGMA user_version={target}")
            self._conn.commit()

    @property
    def schema_version(self) -> int:
        with self._lock:
            return int(self._conn.execute("PRAGMA user_version").fetchone()[0])

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "WarehouseStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def _trip(self, detail: str) -> None:
        if FAULT_HOOK is not None:
            FAULT_HOOK("warehouse-write", path=self.path, detail=detail)

    def upsert(self, row: WarehouseRow) -> None:
        """Land (or refresh) one point row; safe to replay."""
        self._trip(row.point_key)
        with self._lock:
            self._conn.execute(_UPSERT_SQL, self._params(row))
            self._conn.commit()

    def upsert_many(self, rows: Iterable[WarehouseRow]) -> int:
        """Land a batch in one transaction; returns the row count."""
        rows = list(rows)
        for row in rows:
            self._trip(row.point_key)
        with self._lock:
            self._conn.executemany(_UPSERT_SQL, [self._params(r) for r in rows])
            self._conn.commit()
        return len(rows)

    @staticmethod
    def _params(row: WarehouseRow) -> Tuple:
        return (
            row.point_key,
            row.fingerprint,
            row.workload,
            row.design,
            row.config_digest,
            row.btu_flush_interval,
            row.warmup_passes,
            row.cycles,
            row.instructions,
            row.ipc,
            row.engine_tier,
            row.request_json,
            row.result_json,
            row.recorded,
            row.job_id,
            row.tenant,
            json.dumps(list(row.tags)),
            row.source,
        )

    def record_bench(self, payload: Dict[str, Any], timestamp: str) -> None:
        """Land one BENCH entry (engine snapshot or trajectory element)."""
        self._trip(f"bench:{timestamp}")
        with self._lock:
            self._conn.execute(
                "INSERT INTO bench VALUES (?, ?, ?) "
                "ON CONFLICT(timestamp, schema_version) DO UPDATE SET "
                "payload=excluded.payload",
                (
                    timestamp,
                    int(payload.get("schema_version", 0)),
                    json.dumps(payload, sort_keys=True),
                ),
            )
            self._conn.commit()

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def _rows(self, sql: str, params: Tuple = ()) -> List[WarehouseRow]:
        with self._lock:
            raw = self._conn.execute(sql, params).fetchall()
        return [self._row(values) for values in raw]

    @staticmethod
    def _row(values: Tuple) -> WarehouseRow:
        return WarehouseRow(
            point_key=values[0],
            fingerprint=values[1],
            workload=values[2],
            design=values[3],
            config_digest=values[4],
            btu_flush_interval=values[5],
            warmup_passes=values[6],
            cycles=values[7],
            instructions=values[8],
            ipc=values[9],
            engine_tier=values[10],
            request_json=values[11],
            result_json=values[12],
            recorded=values[13],
            job_id=values[14],
            tenant=values[15],
            tags=tuple(json.loads(values[16] or "[]")),
            source=values[17],
        )

    def select(self, fingerprint: Optional[str] = None, **axes: Any) -> List[WarehouseRow]:
        """Rows matching the given axis equalities, in stable sort order.

        ``axes`` keys are column names (``workload``, ``design``,
        ``config_digest``, ``btu_flush_interval``, ``warmup_passes``,
        ``tenant``, ``source``); a ``None`` value matches SQL ``NULL``.
        """
        clauses: List[str] = []
        params: List[Any] = []
        if fingerprint is not None:
            clauses.append("fingerprint=?")
            params.append(fingerprint)
        allowed = (
            "workload", "design", "config_digest", "btu_flush_interval",
            "warmup_passes", "tenant", "source", "job_id",
        )
        for column, value in axes.items():
            if column not in allowed:
                raise KeyError(f"unknown warehouse axis {column!r}; known: {allowed}")
            if value is None:
                clauses.append(f"{column} IS NULL")
            else:
                clauses.append(f"{column}=?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        rows = self._rows(f"SELECT {_ROW_COLUMNS} FROM results{where}", tuple(params))
        return sorted(rows, key=lambda row: (row.sort_tuple(), row.fingerprint))

    def count(self, fingerprint: Optional[str] = None) -> int:
        sql = "SELECT COUNT(*) FROM results"
        params: Tuple = ()
        if fingerprint is not None:
            sql += " WHERE fingerprint=?"
            params = (fingerprint,)
        with self._lock:
            return int(self._conn.execute(sql, params).fetchone()[0])

    def fingerprints(self) -> List[FingerprintInfo]:
        """Every fingerprint's footprint, oldest first (by last write).

        "Last write" is the ingest sequence, not ``recorded``: a backfill
        stamps rows with its file's mtime, which can predate rows an event
        ingest wrote moments earlier.
        """
        with self._lock:
            raw = self._conn.execute(
                "SELECT fingerprint, COUNT(*), MIN(recorded), MAX(recorded) "
                "FROM results GROUP BY fingerprint "
                "ORDER BY MAX(seq), fingerprint"
            ).fetchall()
        return [
            FingerprintInfo(row[0], int(row[1]), float(row[2]), float(row[3]))
            for row in raw
        ]

    def latest_fingerprints(self, count: int = 2) -> List[str]:
        """The ``count`` most recently written fingerprints, newest first."""
        infos = self.fingerprints()
        return [info.fingerprint for info in reversed(infos[-count:])]

    def content_rows(self, fingerprint: Optional[str] = None) -> List[Tuple]:
        """Deterministic science-only tuples, for replay/idempotence checks."""
        return sorted(
            row.content_tuple() for row in self.select(fingerprint=fingerprint)
        )

    def bench_history(self) -> List[Dict[str, Any]]:
        """Every BENCH entry, oldest first, as plain dicts (+``timestamp``)."""
        with self._lock:
            raw = self._conn.execute(
                "SELECT timestamp, payload FROM bench ORDER BY timestamp"
            ).fetchall()
        history = []
        for timestamp, payload in raw:
            entry = json.loads(payload)
            entry.setdefault("timestamp", timestamp)
            history.append(entry)
        return history

    # ------------------------------------------------------------------ #
    # Compaction
    # ------------------------------------------------------------------ #
    def compact(self, keep: int = 8) -> int:
        """Drop all but the ``keep`` most recent fingerprints and VACUUM.

        Returns the number of result rows deleted.  Bench history is kept —
        it is tiny and is the long-horizon trend record.
        """
        if keep < 1:
            raise ValueError("compact keeps at least one fingerprint")
        survivors = set(self.latest_fingerprints(keep))
        self._trip(f"compact:{keep}")
        with self._lock:
            known = [
                row[0]
                for row in self._conn.execute(
                    "SELECT DISTINCT fingerprint FROM results"
                ).fetchall()
            ]
            doomed = [fp for fp in known if fp not in survivors]
            deleted = 0
            for fp in doomed:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE fingerprint=?", (fp,)
                )
                deleted += cursor.rowcount
            self._conn.commit()
            self._conn.execute("VACUUM")
        return deleted
