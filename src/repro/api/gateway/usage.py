"""Usage metering: every tenant job's cost, measured off the event stream.

:class:`UsageService` is a scheduler listener.  It watches the same typed
:class:`~repro.api.jobs.JobEvent` stream clients see and, for every job
tagged ``tenant:<id>``:

* on ``queued`` — starts a meter (and its wall clock);
* on ``prepared`` — the job's run begins: opens its compile window;
* on ``point-done`` / ``cache-hit`` — counts computed vs cached points;
* on a terminal event — closes the meter into one usage-ledger row:
  points answered, computed, cache hits, wall seconds since ``queued``,
  and the delta of the native engine's compile-seconds counter across
  the compile window (0 for a job that never ran).

The scheduler runs one job at a time, so a window opened at ``prepared``
holds only its own job's compiles; a window opened at ``queued`` would
also claim the compiles of the job running ahead of it.  The counter is
this process's: compiles in fork-backend workers (a fan-out over several
workloads) or shard workers never reach it, so they are not billed.

Ordering caveat: ``JobHandle._emit`` sets the finished flag *before*
listeners run, so a caller unblocked by ``result()`` can observe the
ledger row a beat later — poll when asserting on it.

A ledger write that fails loses that job's row; the job itself is
unaffected.  Each loss is logged once and counted in
:attr:`UsageService.ledger_failures`, which ``/healthz`` reports.

Ordering rule: attach the listener (build the
:class:`~repro.api.gateway.http.GatewayServer`) *before*
:func:`repro.api.journal.resume_jobs`, so each resumed job's ``queued``
event starts its meter.  Tenancy rides the journaled ``tenant:`` tag, so
it survives ``kill -9``.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.api.gateway.store import GatewayStore, UsageRecord
from repro.api.jobs import JobEvent

logger = logging.getLogger(__name__)

#: The scheduler tag carrying ownership; everything after the colon is the
#: tenant id.  User-supplied tags with this prefix are stripped at submit.
TENANT_TAG_PREFIX = "tenant:"


def tenant_tag(tenant_id: str) -> str:
    return TENANT_TAG_PREFIX + tenant_id


def tenant_from_tags(tags) -> Optional[str]:
    """The owning tenant id named in a job's tags, or ``None``."""
    for tag in tags or ():
        if isinstance(tag, str) and tag.startswith(TENANT_TAG_PREFIX):
            return tag[len(TENANT_TAG_PREFIX):]
    return None


@dataclass
class _Meter:
    """The running tally for one live tenant job."""

    tenant_id: str
    points: int = 0
    computed: int = 0
    cache_hits: int = 0
    started: float = field(default_factory=time.monotonic)
    #: The compile counter when the job's run began (``None`` until then).
    native_seconds_at_start: Optional[float] = None


def _native_compile_seconds() -> float:
    from repro.engine import native

    _count, seconds, _hits = native.counters_snapshot()
    return seconds


class UsageService:
    """Meter tenant jobs from the event stream into the usage ledger."""

    def __init__(self, store: GatewayStore) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._meters: Dict[str, _Meter] = {}
        #: Ledger rows lost to a failed store write since start.
        self.ledger_failures = 0

    # ------------------------------------------------------------------ #
    # Scheduler listener
    # ------------------------------------------------------------------ #
    def on_event(self, event: JobEvent) -> None:
        """The scheduler listener.  A failed ledger write is counted in
        :attr:`ledger_failures`; any other exception is logged and dropped
        by the emitting :class:`JobHandle` (a broken store must not kill
        jobs)."""
        if event.kind == "queued":
            self._on_queued(event)
        elif event.kind == "prepared":
            self._on_prepared(event)
        elif event.kind == "point-done":
            self._bump(event.job_id, computed=1)
        elif event.kind == "cache-hit":
            self._bump(event.job_id, cache_hits=1)
        elif event.terminal:
            self._on_terminal(event)

    def _on_queued(self, event: JobEvent) -> None:
        payload = event.payload or {}
        tenant_id = tenant_from_tags(payload.get("tags"))
        if tenant_id is None:
            return
        with self._lock:
            self._meters[event.job_id] = _Meter(
                tenant_id=tenant_id, points=int(payload.get("points", 0))
            )

    def _on_prepared(self, event: JobEvent) -> None:
        with self._lock:
            meter = self._meters.get(event.job_id)
            if meter is not None:
                meter.native_seconds_at_start = _native_compile_seconds()

    def _bump(self, job_id: str, computed: int = 0, cache_hits: int = 0) -> None:
        with self._lock:
            meter = self._meters.get(job_id)
            if meter is None:
                return
            meter.computed += computed
            meter.cache_hits += cache_hits

    def _on_terminal(self, event: JobEvent) -> None:
        with self._lock:
            meter = self._meters.pop(event.job_id, None)
        if meter is None:
            return
        compile_seconds = 0.0
        if meter.native_seconds_at_start is not None:
            compile_seconds = max(
                0.0, _native_compile_seconds() - meter.native_seconds_at_start
            )
        record = UsageRecord(
            tenant_id=meter.tenant_id,
            job_id=event.job_id,
            recorded=time.time(),
            points=meter.points,
            computed=meter.computed,
            cache_hits=meter.cache_hits,
            wall_seconds=max(0.0, time.monotonic() - meter.started),
            native_compile_seconds=compile_seconds,
            outcome=event.kind,  # done / failed / cancelled
        )
        try:
            self.store.record_usage(record)
        except Exception as exc:  # noqa: BLE001 - counted and logged, not raised
            with self._lock:
                self.ledger_failures += 1
            logger.warning(
                "usage ledger: lost the row of tenant %s job %s: %s",
                meter.tenant_id, event.job_id, exc,
            )
