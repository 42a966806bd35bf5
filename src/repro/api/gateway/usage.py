"""Usage metering: every tenant job's cost, measured off the event stream.

:class:`UsageService` is a scheduler listener.  It watches the same typed
:class:`~repro.api.jobs.JobEvent` stream clients see and, for every job
tagged ``tenant:<id>``:

* on ``queued`` — writes the job-ownership row (the routers' owner check
  and the quota layer's live-load count) and starts a meter;
* on ``point-done`` / ``cache-hit`` — counts computed vs cached points;
* on a terminal event — closes the meter into one usage-ledger row:
  points answered, computed, cache hits, wall seconds, and the delta of
  the native engine's compile-seconds counter across the job's lifetime
  (best-effort: concurrent jobs share one process-wide counter, so
  overlapping compiles attribute to whichever job's window they land in).
  The ledger row and the ownership row's terminal state commit together.

Ordering caveat: ``JobHandle._emit`` sets the finished flag *before*
listeners run, so a caller unblocked by ``result()`` can observe the
ledger row a beat later — poll when asserting on it.

Listeners fire for the ``queued`` event inside the submitting thread, so
ownership is durably recorded before ``POST /v1/jobs`` responds.  For jobs
revived by :func:`repro.api.journal.resume_jobs` (whose ``queued`` events
pre-date this process), :meth:`UsageService.adopt` scans the scheduler and
re-attaches ownership — tenancy rides the journaled tags, so it survives
``kill -9``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.api.gateway.store import GatewayStore, UsageRecord
from repro.api.jobs import JobEvent

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
    native_seconds_at_start: float = 0.0


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

    # ------------------------------------------------------------------ #
    # Scheduler listener
    # ------------------------------------------------------------------ #
    def on_event(self, event: JobEvent) -> None:
        """The scheduler listener.  Exceptions are swallowed by the
        emitting :class:`JobHandle` (a broken store must not kill jobs)."""
        if event.kind == "queued":
            self._on_queued(event)
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
        points = int(payload.get("points", 0))
        self.store.record_job(event.job_id, tenant_id, points, state="queued")
        with self._lock:
            self._meters[event.job_id] = _Meter(
                tenant_id=tenant_id,
                points=points,
                native_seconds_at_start=_native_compile_seconds(),
            )

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
        self.store.record_usage(
            UsageRecord(
                tenant_id=meter.tenant_id,
                job_id=event.job_id,
                recorded=time.time(),
                points=meter.points,
                computed=meter.computed,
                cache_hits=meter.cache_hits,
                wall_seconds=max(0.0, time.monotonic() - meter.started),
                native_compile_seconds=max(
                    0.0, _native_compile_seconds() - meter.native_seconds_at_start
                ),
                outcome=event.kind,  # done / failed / cancelled
            )
        )

    # ------------------------------------------------------------------ #
    # Crash recovery
    # ------------------------------------------------------------------ #
    def adopt(self, scheduler) -> int:
        """Re-attach ownership of jobs already living in ``scheduler``.

        Called once at gateway startup, *after* ``resume_jobs``: resumed
        jobs were re-submitted before this listener existed, so their
        ``queued`` events were never observed here.  Tenancy rides the
        journaled ``tenant:`` tag.  Non-terminal jobs get a fresh meter
        (wall time restarts — the pre-crash portion is not recoverable).

        Returns the number of jobs adopted.
        """
        adopted = 0
        for handle in scheduler.jobs():
            tenant_id = tenant_from_tags(handle.tags)
            if tenant_id is None:
                continue
            adopted += 1
            points = len(handle.requests)
            if handle.done:
                self.store.record_job(
                    handle.job_id, tenant_id, points, state=handle.state
                )
                continue
            self.store.record_job(handle.job_id, tenant_id, points, state="queued")
            with self._lock:
                if handle.job_id not in self._meters:
                    self._meters[handle.job_id] = _Meter(
                        tenant_id=tenant_id,
                        points=points,
                        native_seconds_at_start=_native_compile_seconds(),
                    )
        return adopted
