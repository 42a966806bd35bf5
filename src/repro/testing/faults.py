"""Deterministic fault injection for the service stack.

Waiting for real networks and real crashes makes failure-path tests flaky
and slow; this module makes failure *scheduled*.  A :class:`FaultPlan` is a
list of :class:`Fault` points — (site, visit index, action) — installed as a
process-wide hook that the framing layer (``repro.api.shard.write_frame`` /
``read_frame``), the shard worker loop, and the artifact cache's ``put``
consult on every visit.  The Nth visit of a site fires the matching fault;
every other visit is free.  Because sites are visited in a deterministic
order for a deterministic workload, the same plan produces the same failure
at the same point every run — the chaos suite (``tests/api/test_chaos.py``)
replays each plan and asserts recovery, byte-identical tables, or a typed
error, never a hang.

Sites:

``frame-write``
    Before a length-prefixed shard frame is written to a worker pipe.
    Supports ``reset`` (raise :class:`ConnectionResetError` before any
    bytes), ``truncate`` (write the full-length header but only half the
    payload, then reset — the peer sees a torn frame), ``delay``, ``die``,
    ``crash``.
``frame-read``
    Before a frame header is read.  ``reset``/``delay``/``die``/``crash``.
``worker-task``
    In the shard worker loop, before executing a received task.
    ``die`` (``os._exit``) models a worker crash mid-task; ``crash`` raises
    inside the worker; ``delay`` stalls it.
``cache-put``
    Between the artifact cache's temp-file write and its atomic rename, or
    between a store's row writes and their commit — the window a crash
    must not corrupt.  ``crash``/``die``/``delay``.
``cache-stored``
    After the rename or the commit.  ``corrupt`` truncates the just-stored
    entry (or every payload the commit stored) in place, modeling torn
    disk writes the cache must quarantine on read.
``gateway-request``
    At the top of the HTTP gateway's request dispatch, before routing.
    ``crash`` surfaces as a typed 500 to the client; ``die`` models the
    gateway process dying mid-request (the chaos suite's kill vector);
    ``delay`` stalls the request.
``store-write``
    Before a :class:`~repro.api.gateway.store.GatewayStore` write
    executes+commits.  ``crash``/``die`` model dying ahead of the commit —
    the acknowledged store state must be exactly what it was.
``warehouse-write``
    Before a :class:`~repro.warehouse.store.WarehouseStore` upsert
    executes+commits.  ``die`` mid-ingest models losing warehouse rows the
    journal already has — the journal-driven resume must re-ingest to an
    identical store (idempotent upserts make the replay safe).

Plans cross process boundaries via the :data:`FAULT_PLAN_ENV` environment
variable: :func:`activate` (optionally) exports the plan as JSON, and the
shard worker and server entry points call :func:`activate_from_env` so
subprocess workers and servers inject the same schedule.  Visit counters are
per-process, which keeps single-worker scenarios exactly deterministic and
multi-worker scenarios deterministic per worker.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

#: Environment variable carrying a JSON-encoded plan into worker processes.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Exit status of a ``die`` fault, distinguishable from real crashes.
DIE_STATUS = 53

SITES = (
    "frame-write",
    "frame-read",
    "worker-task",
    "cache-put",
    "cache-stored",
    "gateway-request",
    "store-write",
    "warehouse-write",
)
ACTIONS = ("reset", "truncate", "delay", "die", "crash", "corrupt")


class InjectedFault(RuntimeError):
    """A fault fired by a :class:`FaultPlan` (the typed, expected error)."""


@dataclass(frozen=True)
class Fault:
    """Fire ``action`` on the ``index``-th visit (0-based) of ``site``."""

    site: str
    index: int
    action: str
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r} (have {SITES})")
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r} (have {ACTIONS})")

    def as_dict(self) -> dict:
        return {
            "site": self.site,
            "index": self.index,
            "action": self.action,
            "delay": self.delay,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults, replayable across processes."""

    faults: Tuple[Fault, ...] = ()

    @classmethod
    def scripted(cls, *faults: Fault) -> "FaultPlan":
        """Exactly these faults, at exactly these visit indices."""
        return cls(faults=tuple(faults))

    @classmethod
    def seeded(
        cls,
        seed: int,
        site: str,
        action: str,
        count: int = 1,
        max_index: int = 24,
        delay: float = 0.05,
    ) -> "FaultPlan":
        """``count`` faults at seed-chosen visit indices below ``max_index``."""
        rng = random.Random(seed)
        indices = sorted(rng.sample(range(max_index), min(count, max_index)))
        return cls(faults=tuple(Fault(site, index, action, delay) for index in indices))

    def to_json(self) -> str:
        return json.dumps(
            {"version": 1, "faults": [fault.as_dict() for fault in self.faults]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        return cls(
            faults=tuple(
                Fault(
                    site=str(entry["site"]),
                    index=int(entry["index"]),
                    action=str(entry["action"]),
                    delay=float(entry.get("delay", 0.05)),
                )
                for entry in payload.get("faults", ())
            )
        )


class ActivePlan:
    """A plan armed in this process: per-site visit counters + fired log."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._visits = {site: 0 for site in SITES}
        #: Faults that actually fired, for test assertions.
        self.fired: List[Fault] = []

    def visits(self, site: str) -> int:
        with self._lock:
            return self._visits[site]

    # ------------------------------------------------------------------ #
    # The hook installed at every instrumented site
    # ------------------------------------------------------------------ #
    def trip(self, site: str, **context: Any) -> None:
        with self._lock:
            index = self._visits[site]
            self._visits[site] = index + 1
            fault = next(
                (f for f in self.plan.faults if f.site == site and f.index == index),
                None,
            )
            if fault is not None:
                self.fired.append(fault)
        if fault is None:
            return
        self._fire(fault, context)

    def _fire(self, fault: Fault, context: dict) -> None:
        if fault.action == "delay":
            time.sleep(fault.delay)
            return
        if fault.action == "die":
            os._exit(DIE_STATUS)
        if fault.action == "crash":
            raise InjectedFault(
                f"injected crash at {fault.site}[{fault.index}]"
            )
        if fault.action == "reset":
            raise ConnectionResetError(
                f"injected reset at {fault.site}[{fault.index}]"
            )
        if fault.action == "truncate":
            self._truncate_frame(fault, context)
            return
        if fault.action == "corrupt":
            self._corrupt_file(fault, context)
            return

    @staticmethod
    def _truncate_frame(fault: Fault, context: dict) -> None:
        """Emit a torn frame: true length header, half the payload, reset."""
        stream = context.get("stream")
        payload = context.get("payload")
        if stream is None or payload is None:
            raise ConnectionResetError(
                f"injected reset at {fault.site}[{fault.index}] (no stream to tear)"
            )
        from repro.api.shard import _HEADER

        with contextlib.suppress(OSError, ValueError):
            stream.write(_HEADER.pack(len(payload)))
            stream.write(payload[: max(1, len(payload) // 2)])
            stream.flush()
        raise ConnectionResetError(
            f"injected mid-frame truncation at {fault.site}[{fault.index}]"
        )

    @staticmethod
    def _corrupt_file(fault: Fault, context: dict) -> None:
        corrupt = context.get("corrupt")
        if corrupt is not None:  # the site knows how to tear what it stored
            corrupt()
            return
        path = context.get("path")
        if not path or not os.path.exists(path):
            return
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(max(1, size // 2))


def _install(active: Optional[ActivePlan]) -> None:
    from repro.api import shard
    from repro.api.gateway import http as gateway_http
    from repro.api.gateway import store as gateway_store
    from repro.pipeline import artifacts
    from repro.warehouse import store as warehouse_store

    hook = active.trip if active is not None else None
    shard.FAULT_HOOK = hook
    artifacts.FAULT_HOOK = hook
    gateway_http.FAULT_HOOK = hook
    gateway_store.FAULT_HOOK = hook
    warehouse_store.FAULT_HOOK = hook


@contextlib.contextmanager
def activate(plan: FaultPlan, env: bool = False) -> Iterator[ActivePlan]:
    """Arm ``plan`` in this process; with ``env=True`` export it so
    subprocess workers spawned while armed inject the same schedule."""
    active = ActivePlan(plan)
    _install(active)
    had_env = os.environ.get(FAULT_PLAN_ENV)
    if env:
        os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        yield active
    finally:
        _install(None)
        if env:
            if had_env is None:
                os.environ.pop(FAULT_PLAN_ENV, None)
            else:
                os.environ[FAULT_PLAN_ENV] = had_env


def activate_from_env() -> Optional[ActivePlan]:
    """Arm the plan from :data:`FAULT_PLAN_ENV`, if any (worker entry)."""
    text = os.environ.get(FAULT_PLAN_ENV)
    if not text:
        return None
    try:
        plan = FaultPlan.from_json(text)
    except (ValueError, KeyError, TypeError):
        return None
    active = ActivePlan(plan)
    _install(active)
    return active
