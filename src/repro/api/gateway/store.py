"""The gateway's models layer: tenants, API keys, quotas, usage, ownership.

:class:`GatewayStore` is one SQLite file (``<state-dir>/gateway.sqlite3``)
living next to the PR-8 job journal, holding everything the stateless HTTP
tier needs to remember across restarts:

* **tenants** — the unit of isolation, each with three nullable quota
  columns (``NULL`` = fall back to the gateway's configured defaults):
  concurrent jobs, queued points, and points per rolling usage window.
* **api_keys** — SHA-256 *hashes* of issued bearer keys (the plaintext is
  printed exactly once at creation and never stored), with a short
  ``key_id`` prefix for admin listing/revocation.
* **usage** — one ledger row per finished job: points answered, computed
  vs cache hits, wall seconds, native compile seconds.  The quota layer
  sums the rolling window over this table.
* **jobs** — the job-ownership index (job id → tenant) plus a coarse
  state, so routers can answer "is this *your* job?" without touching the
  scheduler, and the quota layer can count a tenant's live load.

Durability matches the journal's append-then-fsync discipline: the store
runs in WAL mode with ``PRAGMA synchronous=FULL``, so every commit fsyncs
the write-ahead log before it returns and a ``kill -9`` after any
acknowledged write never loses it, while SQLite's WAL gives the atomicity
the JSONL journal gets from single-line appends.  A WAL commit appends to
one file instead of rewriting a rollback journal plus the database pages,
which makes it several times cheaper.  Every write passes the
``store-write`` fault site first (see :mod:`repro.testing.faults`), so the
chaos suite can crash or kill the gateway *before* a write commits and
assert nothing torn survives.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import secrets
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Set by :mod:`repro.testing.faults` when a plan is armed; visited as
#: ``FAULT_HOOK("store-write", path=...)`` before every committed write.
FAULT_HOOK = None

#: The store file inside a state dir (next to ``journal.jsonl``).
STORE_NAME = "gateway.sqlite3"

#: Plaintext API keys look like ``rk_<64 hex chars>``.
KEY_PREFIX = "rk_"

#: Length of the ``key_id`` admin handle (a prefix of the key hash).
KEY_ID_LEN = 12

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tenants (
    tenant_id           TEXT PRIMARY KEY,
    name                TEXT NOT NULL UNIQUE,
    created             REAL NOT NULL,
    max_concurrent_jobs INTEGER,
    max_queued_points   INTEGER,
    points_per_day      INTEGER
);
CREATE TABLE IF NOT EXISTS api_keys (
    key_hash  TEXT PRIMARY KEY,
    key_id    TEXT NOT NULL,
    tenant_id TEXT NOT NULL REFERENCES tenants(tenant_id),
    label     TEXT NOT NULL DEFAULT '',
    created   REAL NOT NULL,
    revoked   REAL
);
CREATE TABLE IF NOT EXISTS usage (
    entry_id               INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant_id              TEXT NOT NULL,
    job_id                 TEXT NOT NULL,
    recorded               REAL NOT NULL,
    points                 INTEGER NOT NULL,
    computed               INTEGER NOT NULL,
    cache_hits             INTEGER NOT NULL,
    wall_seconds           REAL NOT NULL,
    native_compile_seconds REAL NOT NULL DEFAULT 0.0,
    outcome                TEXT NOT NULL DEFAULT 'done'
);
CREATE INDEX IF NOT EXISTS usage_tenant_time ON usage(tenant_id, recorded);
CREATE TABLE IF NOT EXISTS jobs (
    job_id    TEXT PRIMARY KEY,
    tenant_id TEXT NOT NULL,
    submitted REAL NOT NULL,
    points    INTEGER NOT NULL,
    state     TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_tenant ON jobs(tenant_id, state);
"""

#: Job states the quota layer counts as live load.
ACTIVE_JOB_STATES = ("queued", "running")


@dataclass(frozen=True)
class Tenant:
    """One tenant: identity plus its (nullable) quota overrides."""

    tenant_id: str
    name: str
    created: float
    max_concurrent_jobs: Optional[int] = None
    max_queued_points: Optional[int] = None
    points_per_day: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "tenant_id": self.tenant_id,
            "name": self.name,
            "created": self.created,
            "max_concurrent_jobs": self.max_concurrent_jobs,
            "max_queued_points": self.max_queued_points,
            "points_per_day": self.points_per_day,
        }


@dataclass(frozen=True)
class ApiKey:
    """One issued key's metadata (the plaintext is never stored)."""

    key_id: str
    tenant_id: str
    label: str
    created: float
    revoked: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.revoked is None

    def as_dict(self) -> Dict[str, object]:
        return {
            "key_id": self.key_id,
            "tenant_id": self.tenant_id,
            "label": self.label,
            "created": self.created,
            "revoked": self.revoked,
        }


@dataclass(frozen=True)
class UsageRecord:
    """One ledger row: what one finished job cost its tenant."""

    tenant_id: str
    job_id: str
    recorded: float
    points: int
    computed: int
    cache_hits: int
    wall_seconds: float
    native_compile_seconds: float = 0.0
    outcome: str = "done"


def hash_key(plaintext: str) -> str:
    """The stored form of an API key: its SHA-256 hex digest."""
    return hashlib.sha256(plaintext.encode("utf-8")).hexdigest()


class GatewayStore:
    """The SQLite persistence of one gateway ``--state-dir``.

    Thread-safe: one connection, one lock, every write committed (and
    fsync'd: WAL mode, ``synchronous=FULL``) before the call returns.
    Reopening the same state dir — including after ``kill -9`` — sees every
    acknowledged write.
    """

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.path = os.path.join(state_dir, STORE_NAME)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=FULL")
        with self._lock:
            self._conn.executescript(_SCHEMA)
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "GatewayStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Write plumbing
    # ------------------------------------------------------------------ #
    def _write(self, *statements: Tuple[str, Tuple]) -> None:
        """One committed write of ``(sql, params)`` statements, all or none,
        passing the ``store-write`` fault site first.

        The fault hook fires *before* the statements execute, so an
        injected crash or ``kill -9`` at this site models dying ahead of
        the commit: the acknowledged store state is exactly what it was.
        """
        if FAULT_HOOK is not None:
            FAULT_HOOK("store-write", path=self.path, sql=statements[0][0].split(None, 1)[0])
        with self._lock, self._conn:
            for sql, params in statements:
                self._conn.execute(sql, params)

    # ------------------------------------------------------------------ #
    # Tenants
    # ------------------------------------------------------------------ #
    def create_tenant(
        self,
        name: str,
        max_concurrent_jobs: Optional[int] = None,
        max_queued_points: Optional[int] = None,
        points_per_day: Optional[int] = None,
    ) -> Tenant:
        if not name:
            raise ValueError("tenant name must be non-empty")
        if self.tenant_by_name(name) is not None:
            raise ValueError(f"tenant {name!r} already exists")
        tenant = Tenant(
            tenant_id=f"t-{secrets.token_hex(6)}",
            name=name,
            created=time.time(),
            max_concurrent_jobs=max_concurrent_jobs,
            max_queued_points=max_queued_points,
            points_per_day=points_per_day,
        )
        self._write(
            (
                "INSERT INTO tenants VALUES (?, ?, ?, ?, ?, ?)",
                (
                    tenant.tenant_id,
                    tenant.name,
                    tenant.created,
                    tenant.max_concurrent_jobs,
                    tenant.max_queued_points,
                    tenant.points_per_day,
                ),
            )
        )
        return tenant

    def set_quotas(
        self,
        tenant_id: str,
        max_concurrent_jobs: Optional[int] = None,
        max_queued_points: Optional[int] = None,
        points_per_day: Optional[int] = None,
    ) -> Tenant:
        """Replace a tenant's quota overrides (``None`` = use defaults)."""
        if self.get_tenant(tenant_id) is None:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        self._write(
            (
                "UPDATE tenants SET max_concurrent_jobs=?, max_queued_points=?, "
                "points_per_day=? WHERE tenant_id=?",
                (max_concurrent_jobs, max_queued_points, points_per_day, tenant_id),
            )
        )
        tenant = self.get_tenant(tenant_id)
        assert tenant is not None
        return tenant

    @staticmethod
    def _tenant_row(row) -> Tenant:
        return Tenant(
            tenant_id=row[0],
            name=row[1],
            created=row[2],
            max_concurrent_jobs=row[3],
            max_queued_points=row[4],
            points_per_day=row[5],
        )

    def get_tenant(self, tenant_id: str) -> Optional[Tenant]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM tenants WHERE tenant_id=?", (tenant_id,)
            ).fetchone()
        return self._tenant_row(row) if row else None

    def tenant_by_name(self, name: str) -> Optional[Tenant]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM tenants WHERE name=?", (name,)
            ).fetchone()
        return self._tenant_row(row) if row else None

    def list_tenants(self) -> List[Tenant]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM tenants ORDER BY created, tenant_id"
            ).fetchall()
        return [self._tenant_row(row) for row in rows]

    # ------------------------------------------------------------------ #
    # API keys
    # ------------------------------------------------------------------ #
    def issue_key(self, tenant_id: str, label: str = "") -> Tuple[str, ApiKey]:
        """Mint a key for ``tenant_id``; returns ``(plaintext, metadata)``.

        The plaintext is the only copy — hand it to the tenant now; the
        store keeps the hash.
        """
        if self.get_tenant(tenant_id) is None:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        plaintext = KEY_PREFIX + secrets.token_hex(32)
        digest = hash_key(plaintext)
        key = ApiKey(
            key_id=digest[:KEY_ID_LEN],
            tenant_id=tenant_id,
            label=label,
            created=time.time(),
        )
        self._write(
            (
                "INSERT INTO api_keys VALUES (?, ?, ?, ?, ?, NULL)",
                (digest, key.key_id, tenant_id, label, key.created),
            )
        )
        return plaintext, key

    def revoke_key(self, key_id: str) -> bool:
        """Revoke by admin ``key_id``; False when unknown/already revoked."""
        with self._lock:
            row = self._conn.execute(
                "SELECT key_hash FROM api_keys WHERE key_id=? AND revoked IS NULL",
                (key_id,),
            ).fetchone()
        if row is None:
            return False
        self._write(
            ("UPDATE api_keys SET revoked=? WHERE key_hash=?", (time.time(), row[0]))
        )
        return True

    def list_keys(self, tenant_id: Optional[str] = None) -> List[ApiKey]:
        query = (
            "SELECT key_id, tenant_id, label, created, revoked FROM api_keys"
        )
        params: Tuple = ()
        if tenant_id is not None:
            query += " WHERE tenant_id=?"
            params = (tenant_id,)
        query += " ORDER BY created, key_id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [ApiKey(*row) for row in rows]

    def lookup_key(self, plaintext: str) -> Optional[Tenant]:
        """The tenant an active key belongs to, or ``None``.

        The presented key is hashed and compared against every active hash
        with :func:`hmac.compare_digest`, so the scan's timing does not
        depend on *which* stored key (if any) matches.
        """
        presented = hash_key(plaintext)
        with self._lock:
            rows = self._conn.execute(
                "SELECT key_hash, tenant_id FROM api_keys WHERE revoked IS NULL"
            ).fetchall()
        matched: Optional[str] = None
        for key_hash, tenant_id in rows:
            if hmac.compare_digest(presented, key_hash):
                matched = tenant_id
        if matched is None:
            return None
        return self.get_tenant(matched)

    # ------------------------------------------------------------------ #
    # Job ownership
    # ------------------------------------------------------------------ #
    def record_job(
        self, job_id: str, tenant_id: str, points: int, state: str = "running"
    ) -> None:
        """Register (or refresh) the ownership row of one job."""
        self._write(
            (
                "INSERT INTO jobs VALUES (?, ?, ?, ?, ?) "
                "ON CONFLICT(job_id) DO UPDATE SET tenant_id=excluded.tenant_id, "
                "points=excluded.points, state=excluded.state",
                (job_id, tenant_id, time.time(), points, state),
            )
        )

    def job_owner(self, job_id: str) -> Optional[str]:
        with self._lock:
            row = self._conn.execute(
                "SELECT tenant_id FROM jobs WHERE job_id=?", (job_id,)
            ).fetchone()
        return row[0] if row else None

    def active_load(self, tenant_id: str) -> Tuple[int, int]:
        """``(active jobs, queued points)`` the tenant currently holds."""
        marks = ",".join("?" for _ in ACTIVE_JOB_STATES)
        with self._lock:
            row = self._conn.execute(
                f"SELECT COUNT(*), COALESCE(SUM(points), 0) FROM jobs "
                f"WHERE tenant_id=? AND state IN ({marks})",
                (tenant_id, *ACTIVE_JOB_STATES),
            ).fetchone()
        return int(row[0]), int(row[1])

    # ------------------------------------------------------------------ #
    # Usage ledger
    # ------------------------------------------------------------------ #
    def record_usage(self, record: UsageRecord) -> None:
        """Land one finished job's ledger row and its ownership row's
        terminal state (``record.outcome``) in one commit."""
        self._write(
            (
                "INSERT INTO usage (tenant_id, job_id, recorded, points, computed, "
                "cache_hits, wall_seconds, native_compile_seconds, outcome) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    record.tenant_id,
                    record.job_id,
                    record.recorded,
                    record.points,
                    record.computed,
                    record.cache_hits,
                    record.wall_seconds,
                    record.native_compile_seconds,
                    record.outcome,
                ),
            ),
            ("UPDATE jobs SET state=? WHERE job_id=?", (record.outcome, record.job_id)),
        )

    def usage_totals(self, tenant_id: str) -> Dict[str, float]:
        """Lifetime ledger totals for one tenant."""
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(points), 0), "
                "COALESCE(SUM(computed), 0), COALESCE(SUM(cache_hits), 0), "
                "COALESCE(SUM(wall_seconds), 0.0), "
                "COALESCE(SUM(native_compile_seconds), 0.0) "
                "FROM usage WHERE tenant_id=?",
                (tenant_id,),
            ).fetchone()
        return {
            "jobs": int(row[0]),
            "points": int(row[1]),
            "computed": int(row[2]),
            "cache_hits": int(row[3]),
            "wall_seconds": round(float(row[4]), 6),
            "native_compile_seconds": round(float(row[5]), 6),
        }

    def points_in_window(
        self, tenant_id: str, window_seconds: float, now: Optional[float] = None
    ) -> Tuple[int, float]:
        """``(points used, seconds until some expire)`` in the rolling window.

        The second element is how long until the *oldest* contributing
        ledger row ages out — the honest ``Retry-After`` for a tenant whose
        windowed quota is exhausted (0.0 when the window is empty).
        """
        now = time.time() if now is None else now
        since = now - window_seconds
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(SUM(points), 0), MIN(recorded) FROM usage "
                "WHERE tenant_id=? AND recorded > ?",
                (tenant_id, since),
            ).fetchone()
        points = int(row[0])
        oldest = row[1]
        if points == 0 or oldest is None:
            return 0, 0.0
        return points, max(0.0, oldest + window_seconds - now)
