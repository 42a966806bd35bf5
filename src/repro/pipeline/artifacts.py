"""Content-addressed on-disk artifact cache with in-memory memoization.

The expensive per-workload work — sequential execution and Algorithm 2 trace
generation — is pure: it depends only on the program content, the
confidential-input set, and the trace parameters.  The cache therefore keys
each stored artifact on a digest of exactly those inputs plus a format
version, so a kernel edit, a new input set, or a serialization change each
miss cleanly instead of returning stale data.

Layout on disk::

    <root>/v<FORMAT>/<kind>/<workload-slug>-<digest>.pkl

Writes are atomic (``os.replace`` of a temp file) so concurrent worker
processes can warm the same cache without corrupting entries; a half-written
entry is never visible under its final name.  Corrupt or unreadable entries
are treated as misses and overwritten.
"""

from __future__ import annotations

import logging
import os
import pickle
import re
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

logger = logging.getLogger(__name__)

#: Bump whenever the pickled payload layout changes incompatibly.
CACHE_FORMAT_VERSION = 1

#: Fault-injection hook (see :mod:`repro.testing.faults`).  ``None`` in
#: production; when armed it is called around the atomic-store window.
FAULT_HOOK = None

#: Entries already reported as quarantined, so each corrupt file logs once
#: per process instead of once per read.
_QUARANTINE_LOGGED: Set[str] = set()

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


@dataclass
class ArtifactCache:
    """A two-level (memory, disk) cache for pickled pipeline artifacts.

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

    # ------------------------------------------------------------------ #
    # Key/path plumbing
    # ------------------------------------------------------------------ #
    def path_for(self, kind: str, name: str, digest: str) -> Optional[str]:
        if self.root is None:
            return None
        directory = os.path.join(self.root, f"v{CACHE_FORMAT_VERSION}", _slug(kind))
        return os.path.join(directory, f"{_slug(name)}-{digest}.pkl")

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
        path = self.path_for(kind, name, digest)
        if path is None or not os.path.exists(path):
            self.stats.misses += 1
            return None
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception as error:
            # A corrupt / truncated / incompatible entry is a miss — but
            # left in place it would be re-read and re-missed every run, so
            # quarantine it aside (the recompute re-puts at the same path).
            self._quarantine(path, error)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._memo[memo_key] = payload
        return payload

    def reload(self, kind: str, name: str, digest: str) -> Any:
        """``get`` that bypasses the memo: the entry as it is on disk now.

        For entries other processes rewrite in place (merge-on-write
        indexes), where a memoized copy may be stale.
        """
        self._memo.pop(self._memo_key(kind, name, digest), None)
        return self.get(kind, name, digest)

    def _quarantine(self, path: str, error: Exception) -> None:
        """Move a corrupt entry to ``<path>.corrupt`` and log once."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            return
        self.stats.quarantined += 1
        if path not in _QUARANTINE_LOGGED:
            _QUARANTINE_LOGGED.add(path)
            logger.warning(
                "artifact cache: quarantined corrupt entry %s -> %s.corrupt (%s)",
                path,
                os.path.basename(path),
                error,
            )

    def memoize(self, kind: str, name: str, digest: str, payload: Any) -> None:
        """Seed only the in-memory level (e.g. with a payload a worker
        process already persisted to the shared disk directory)."""
        self._memo[self._memo_key(kind, name, digest)] = payload

    def put(self, kind: str, name: str, digest: str, payload: Any) -> None:
        """Store ``payload`` under the key, atomically when disk-backed."""
        self._memo[self._memo_key(kind, name, digest)] = payload
        path = self.path_for(kind, name, digest)
        if path is None:
            return
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
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
        count = 0
        version_dir = os.path.join(self.root, f"v{CACHE_FORMAT_VERSION}")
        for _dirpath, _dirnames, filenames in os.walk(version_dir):
            count += sum(1 for filename in filenames if filename.endswith(".pkl"))
        return count
