"""Content-addressed on-disk artifact cache with in-memory memoization.

The expensive per-workload work — sequential execution and Algorithm 2 trace
generation — is pure: it depends only on the program content, the
confidential-input set, and the trace parameters.  The cache therefore keys
each stored artifact on a digest of exactly those inputs plus a format
version, so a kernel edit, a new input set, or a serialization change each
miss cleanly instead of returning stale data.

Layout on disk::

    <root>/v<FORMAT>/<kind>/<workload-slug>-<digest>.pkl   most kinds
    <root>/v<FORMAT>/native-kernel/<policy>-<digest>.so    compiled kernels
    <root>/v<FORMAT>/simulation/points.sqlite3             simulation results

Which format a kind uses is this module's business alone; callers see
:meth:`ArtifactCache.get`, :meth:`~ArtifactCache.put` and the batched
:meth:`~ArtifactCache.put_many`.

* **Files** are written atomically (``os.replace`` of a temp file), so
  concurrent worker processes can warm the same cache and a half-written
  entry is never visible under its final name.  ``bytes`` payloads of a
  kind in :data:`RAW_SUFFIXES` are stored verbatim, so the entry itself can
  be used in place: the native tier ``dlopen``-s a compiled kernel straight
  from its cache file (:meth:`~ArtifactCache.entry_file`).
* **Stores** hold a kind's entries as rows of one SQLite table keyed on the
  digest, with a pickled payload.  :meth:`~ArtifactCache.put_many` writes a
  whole batch in one transaction, so a sweep pays one commit per batch
  rather than a temp file and a rename per point.  The store lives inside
  its kind's directory: deleting ``v<FORMAT>/simulation`` evicts every
  simulation entry.  Each process opens its own connection on first use
  (a connection inherited across ``fork`` is neither used nor closed), one
  lock serializes a process's threads on it, and a busy timeout queues
  concurrent writer processes.

Neither format fsyncs (stores run in WAL mode with ``synchronous=OFF``): a
crash may lose the latest entries, but a reader never sees a torn one — a
rename and a commit are each all or nothing.  Entries that do not decode
anyway (bit rot, a torn write-back) are quarantined as misses and counted
in :attr:`CacheStats.quarantined`: a file is renamed to ``*.corrupt``, a
row is deleted, and a store SQLite cannot read is renamed to
``*.corrupt`` and replaced by a fresh one.
"""

from __future__ import annotations

import logging
import os
import pickle
import re
import sqlite3
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

logger = logging.getLogger(__name__)

#: Bump whenever the pickled payload layout changes incompatibly.
CACHE_FORMAT_VERSION = 1

#: Kinds kept as rows of one SQLite store (the file named here, inside the
#: kind's directory) instead of one file per entry.
STORE_FILES = {"simulation": "points.sqlite3"}

#: Kinds whose ``bytes`` payloads are stored verbatim under this suffix.
RAW_SUFFIXES = {"native-kernel": ".so"}

#: Fault-injection hook (see :mod:`repro.testing.faults`).  ``None`` in
#: production; when armed it is called around the atomic-store window.
FAULT_HOOK = None

#: Entries already reported as quarantined, so each corrupt entry logs once
#: per process instead of once per read.
_QUARANTINE_LOGGED: Set[str] = set()

#: Store connections this process inherited across ``fork``: kept referenced
#: so they are never closed here (closing one could checkpoint or unlink the
#: WAL under the parent's feet).
_INHERITED: List[sqlite3.Connection] = []

#: Environment variable that switches the default disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-cassandra``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-cassandra")


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text)


@dataclass
class CacheStats:
    """Hit/miss counters, exposed by the CLI's ``--stats`` report."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    memo_hits: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "disk_hits": self.hits,
            "disk_misses": self.misses,
            "disk_stores": self.stores,
            "memo_hits": self.memo_hits,
            "quarantined": self.quarantined,
        }


class _Store:
    """One kind's SQLite file and this process's connection to it."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._pid: Optional[int] = None
        self._conn: Optional[sqlite3.Connection] = None
        self._lock = threading.Lock()

    def owned(self) -> threading.Lock:
        """This process's lock.  After a fork the parent's connection is
        dropped unclosed, and its lock replaced: a parent thread may have
        held it at the fork."""
        pid = os.getpid()
        if self._pid != pid:
            if self._conn is not None:
                _INHERITED.append(self._conn)
            self._conn, self._lock, self._pid = None, threading.Lock(), pid
        return self._lock

    def connect(self, create: bool) -> Optional[sqlite3.Connection]:
        """The open connection (hold :meth:`owned`); ``None`` when the store
        does not exist and ``create`` is false.  A store deleted since it
        was opened (an eviction) is reopened, so it starts empty."""
        if self._conn is not None and not os.path.exists(self.path):
            self.close()
        if self._conn is None:
            if not create and not os.path.exists(self.path):
                return None
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            conn = sqlite3.connect(
                self.path, timeout=60.0, isolation_level=None, check_same_thread=False
            )
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=OFF")
                # Rows are read once, by digest: a 256 KiB page cache
                # (default 2 MiB) is enough and keeps long-lived servers small.
                conn.execute("PRAGMA cache_size=-256")
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries (digest TEXT PRIMARY KEY,"
                    " name TEXT NOT NULL, payload BLOB NOT NULL) WITHOUT ROWID"
                )
            except sqlite3.Error:
                conn.close()
                raise
            self._conn = conn
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def set_aside(self) -> None:
        """Rename an unreadable store to ``*.corrupt`` (hold :meth:`owned`);
        its WAL files go too, so they are never replayed into a new store."""
        self.close()
        os.replace(self.path, self.path + ".corrupt")
        for suffix in ("-wal", "-shm"):
            try:
                os.unlink(self.path + suffix)
            except FileNotFoundError:
                pass


@dataclass
class ArtifactCache:
    """A two-level (memory, disk) cache for pipeline artifacts.

    Parameters
    ----------
    root:
        Directory for persisted entries.  ``None`` disables the disk level;
        the in-memory memo still works, which is what pure in-process
        sharing (tests, single experiment runs) needs.
    """

    root: Optional[str] = None
    stats: CacheStats = field(default_factory=CacheStats)
    _memo: Dict[str, Any] = field(default_factory=dict, repr=False)
    _stores: Dict[str, _Store] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ #
    # Key/path plumbing
    # ------------------------------------------------------------------ #
    def _file(self, kind: str, name: str, digest: str, suffix: str) -> Optional[str]:
        if self.root is None:
            return None
        directory = os.path.join(self.root, f"v{CACHE_FORMAT_VERSION}", _slug(kind))
        return os.path.join(directory, f"{_slug(name)}-{digest}{suffix}")

    def path_for(self, kind: str, name: str, digest: str) -> Optional[str]:
        """Where a pickled file entry lives (``None`` when memory-only)."""
        return self._file(kind, name, digest, ".pkl")

    def entry_file(self, kind: str, name: str, digest: str) -> Optional[str]:
        """The path of a raw (verbatim ``bytes``) entry that is on disk, or
        ``None`` — missing, or a memory-only cache."""
        path = self._file(kind, name, digest, RAW_SUFFIXES[kind])
        if path is None or not os.path.exists(path):
            return None
        return path

    def _store(self, kind: str) -> Optional[_Store]:
        store = self._stores.get(kind)
        if store is None and self.root is not None:
            path = os.path.join(
                self.root, f"v{CACHE_FORMAT_VERSION}", _slug(kind), STORE_FILES[kind]
            )
            store = self._stores[kind] = _Store(path)
        return store

    @staticmethod
    def _memo_key(kind: str, name: str, digest: str) -> str:
        return f"{kind}/{name}/{digest}"

    # ------------------------------------------------------------------ #
    # Core operations
    # ------------------------------------------------------------------ #
    def get(self, kind: str, name: str, digest: str) -> Any:
        """Return the cached object or ``None`` on a miss."""
        memo_key = self._memo_key(kind, name, digest)
        if memo_key in self._memo:
            self.stats.memo_hits += 1
            return self._memo[memo_key]
        if kind in STORE_FILES:
            payload = self._read_row(kind, digest)
        else:
            payload = self._read_file(self.path_for(kind, name, digest))
        if payload is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._memo[memo_key] = payload
        return payload

    def _read_file(self, path: Optional[str]) -> Any:
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception as error:
            # A corrupt / truncated / incompatible entry is a miss — but
            # left in place it would be re-read and re-missed every run, so
            # quarantine it aside (the recompute re-puts at the same path).
            self.quarantine(path, error)
            return None

    def _read_row(self, kind: str, digest: str) -> Any:
        store = self._store(kind)
        if store is None:
            return None
        with store.owned():
            try:
                conn = store.connect(create=False)
                if conn is None:
                    return None
                row = conn.execute(
                    "SELECT payload FROM entries WHERE digest = ?", (digest,)
                ).fetchone()
            except sqlite3.OperationalError:
                raise
            except sqlite3.DatabaseError as error:
                self._set_aside(store, error)
                return None
            if row is None:
                return None
            try:
                return pickle.loads(row[0])
            except Exception as error:
                conn.execute("DELETE FROM entries WHERE digest = ?", (digest,))
                self._note_quarantine(f"{store.path}#{digest}", "deleted its row", error)
                return None

    def quarantine(self, path: str, error: Exception) -> None:
        """Move a corrupt file entry to ``<path>.corrupt`` and log once."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            return
        self._note_quarantine(path, f"moved it to {os.path.basename(path)}.corrupt", error)

    def _set_aside(self, store: _Store, error: Exception) -> None:
        """Quarantine a whole store SQLite cannot read; the next write
        starts a fresh one."""
        try:
            store.set_aside()
        except OSError:
            return
        self._note_quarantine(store.path, "moved the store aside", error)

    def _note_quarantine(self, label: str, action: str, error: Exception) -> None:
        self.stats.quarantined += 1
        if label not in _QUARANTINE_LOGGED:
            _QUARANTINE_LOGGED.add(label)
            logger.warning(
                "artifact cache: quarantined corrupt entry %s: %s (%s)", label, action, error
            )

    def memoize(self, kind: str, name: str, digest: str, payload: Any) -> None:
        """Seed only the in-memory level (e.g. with a payload a worker
        process already persisted to the shared disk directory)."""
        self._memo[self._memo_key(kind, name, digest)] = payload

    def put(self, kind: str, name: str, digest: str, payload: Any) -> None:
        """Store ``payload`` under the key, atomically when disk-backed.

        A raw ``bytes`` payload (see :data:`RAW_SUFFIXES`) is written to disk
        verbatim and not memoized: its reader uses the file.
        """
        if kind in STORE_FILES:
            self.put_many(kind, name, [(digest, payload)])
            return
        raw = kind in RAW_SUFFIXES
        if not raw:
            self._memo[self._memo_key(kind, name, digest)] = payload
        path = self._file(kind, name, digest, RAW_SUFFIXES.get(kind, ".pkl"))
        if path is None:
            return
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                if raw:
                    handle.write(payload)
                else:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            if FAULT_HOOK is not None:
                # The crash window atomicity protects: temp written, not
                # yet visible under its final name.
                FAULT_HOOK("cache-put", path=path, temp_path=temp_path)
            os.replace(temp_path, path)
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        if FAULT_HOOK is not None:
            FAULT_HOOK("cache-stored", path=path)
        self.stats.stores += 1

    def put_many(
        self, kind: str, name: str, entries: Iterable[Tuple[str, Any]]
    ) -> None:
        """Store ``(digest, payload)`` entries of one kind and name; a store
        kind commits them all in one transaction."""
        entries = list(entries)
        if kind not in STORE_FILES:
            for digest, payload in entries:
                self.put(kind, name, digest, payload)
            return
        for digest, payload in entries:
            self._memo[self._memo_key(kind, name, digest)] = payload
        store = self._store(kind)
        if store is None or not entries:
            return
        rows = [
            (digest, name, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
            for digest, payload in entries
        ]
        with store.owned():
            try:
                self._commit(store, rows)
            except sqlite3.OperationalError:
                raise
            except sqlite3.DatabaseError as error:
                self._set_aside(store, error)
                self._commit(store, rows)
        if FAULT_HOOK is not None:
            digests = [row[0] for row in rows]
            FAULT_HOOK(
                "cache-stored", path=store.path, corrupt=lambda: self._tear(store, digests)
            )
        self.stats.stores += len(rows)

    @staticmethod
    def _commit(store: _Store, rows: List[Tuple[str, str, bytes]]) -> None:
        conn = store.connect(create=True)
        conn.execute("BEGIN IMMEDIATE")
        try:
            conn.executemany("INSERT OR REPLACE INTO entries VALUES (?, ?, ?)", rows)
            if FAULT_HOOK is not None:
                # The crash window the transaction protects: rows written,
                # not yet committed.
                FAULT_HOOK("cache-put", path=store.path)
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    @staticmethod
    def _tear(store: _Store, digests: List[str]) -> None:
        """Truncate the payloads just committed (the ``corrupt`` fault)."""
        with store.owned():
            conn = store.connect(create=True)
            conn.executemany(
                "UPDATE entries SET payload = substr(payload, 1, max(1, length(payload) / 2))"
                " WHERE digest = ?",
                [(digest,) for digest in digests],
            )

    def load_or_compute(self, kind: str, name: str, digest: str, compute) -> Any:
        """``get`` falling back to ``compute()`` + ``put``."""
        payload = self.get(kind, name, digest)
        if payload is None:
            payload = compute()
            self.put(kind, name, digest, payload)
        return payload

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def entry_count(self) -> int:
        """Number of entries currently on disk (0 when memory-only)."""
        if self.root is None:
            return 0
        suffixes = (".pkl", *RAW_SUFFIXES.values())
        count = 0
        version_dir = os.path.join(self.root, f"v{CACHE_FORMAT_VERSION}")
        for _dirpath, _dirnames, filenames in os.walk(version_dir):
            count += sum(1 for filename in filenames if filename.endswith(suffixes))
        for kind in STORE_FILES:
            store = self._store(kind)
            with store.owned():
                conn = store.connect(create=False)
                if conn is not None:
                    count += conn.execute("SELECT count(*) FROM entries").fetchone()[0]
        return count
