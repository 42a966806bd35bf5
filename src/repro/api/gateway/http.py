"""The one server: HTTP/1.1 + JSON over the durable scheduler.

:class:`GatewayServer` mounts a threading stdlib HTTP server
(``http.server`` — no new runtime deps) in front of one
:class:`~repro.api.service.SimulationService` and its journaled
:class:`~repro.api.scheduler.Scheduler`.  It is the body of both server
commands:

* ``repro gateway`` builds it with a
  :class:`~repro.api.gateway.store.GatewayStore`, putting the
  :mod:`~repro.api.gateway.auth`/:mod:`~repro.api.gateway.quota`/
  :mod:`~repro.api.gateway.usage` layers in front of ``/v1`` — the
  untrusted-client front door;
* ``repro serve`` builds it with no store: there are no tenants, so every
  ``/v1`` route is open, and there are no quotas, no usage ledger and no
  ownership checks (``/v1/usage`` answers 404).

Routes (all JSON unless noted):

========  ==========================  =====================================
Method    Path                        Semantics
========  ==========================  =====================================
GET       ``/healthz``                Liveness + scheduler stats (no auth)
GET       ``/v1/workloads``           The service's workload names
POST      ``/v1/jobs``                Submit a request batch → job id
GET       ``/v1/jobs/{id}/events``    Server-Sent Events stream of the
                                      job's :class:`JobEvent`\\ s;
                                      ``Last-Event-ID`` (or ``?after_seq``)
                                      resumes via the journal-backed
                                      ``after_seq`` replay
GET       ``/v1/jobs/{id}/result``    ``ResultSet.to_wire`` (``?wait=S``
                                      blocks up to S seconds)
DELETE    ``/v1/jobs/{id}``           Cancel (owner-only)
GET       ``/v1/usage``               Ledger totals + live load + quotas
                                      (keyed gateway only)
========  ==========================  =====================================

Error vocabulary: 401 (bad/missing key, with ``WWW-Authenticate``), 404
(unknown *or foreign* job — foreign ids are indistinguishable from absent
ones by design), 409 (result not ready / job cancelled), 429 (quota, with
``Retry-After``), 400 (malformed body), 500 (typed ``internal-error``).

Every request passes the ``gateway-request`` fault site before routing
(see :mod:`repro.testing.faults`), so the chaos suite can crash or kill
the gateway mid-request deterministically.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api.gateway.auth import AuthError, AuthService
from repro.api.gateway.quota import (
    DEFAULT_WINDOW_SECONDS,
    QuotaDefaults,
    QuotaExceeded,
    QuotaService,
)
from repro.api.gateway.store import GatewayStore, Tenant
from repro.api.gateway.usage import (
    TENANT_TAG_PREFIX,
    UsageService,
    tenant_from_tags,
    tenant_tag,
)
from repro.api.jobs import JobHandle
from repro.api.request import SimulationRequest

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.service import SimulationService

#: Set by :mod:`repro.testing.faults`; visited before routing a request.
FAULT_HOOK = None

#: Cap on request bodies, far above any sane batch.
MAX_BODY_BYTES = 16 * 1024 * 1024


class ApiError(RuntimeError):
    """A routed request failed with a specific HTTP status."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class _Listener(ThreadingHTTPServer):
    """The stdlib threading server, remembering its live connections so a
    forked child can close them (:func:`_close_sockets_after_fork`)."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], handler) -> None:
        self.connections: Set[socket.socket] = set()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        self.connections.add(request)
        super().process_request(request, client_address)

    def close_request(self, request) -> None:
        self.connections.discard(request)
        super().close_request(request)


def _close_sockets_after_fork(listener: _Listener) -> None:
    """Close ``listener``'s sockets in any child this process forks.

    The fork and fork-pool backends fork workers that inherit every open
    file descriptor.  A worker orphaned by a server crash (``kill -9``)
    would otherwise keep the listen port alive — new clients dial into a
    backlog nobody accepts and hang instead of getting a prompt
    connection-refused — and keep established client connections from
    seeing EOF until the last worker exits.  Closing the descriptors in
    the child only drops the child's references; the parent's sockets are
    untouched.

    ``os.register_at_fork`` callbacks cannot be unregistered, so the
    callback holds a weakref and turns into a no-op once the listener is
    collected.  It must not take locks: another thread may hold them at
    fork time and will not exist in the child to release them.  And it
    must close the raw descriptor, not call ``socket.close()``: the
    connection handlers hold ``makefile()`` streams whose io-references
    make ``close()`` defer the real close indefinitely in the child.
    """
    ref = weakref.ref(listener)

    def close_in_child() -> None:
        alive = ref()
        if alive is None:
            return
        for sock in [alive.socket, *alive.connections]:
            try:
                fd = sock.detach()
                if fd >= 0:
                    os.close(fd)
            except Exception:  # pragma: no cover - best effort in the child
                pass

    os.register_at_fork(after_in_child=close_in_child)


class GatewayServer:
    """One server instance: HTTP front, service (and store) behind.

    Embeddable in-process for tests (``port=0`` picks a free port) and the
    body of ``repro serve`` (``store=None``: no tenants, every ``/v1``
    route open) and ``repro gateway`` (API keys, quotas, usage ledger).
    Binding happens in ``__init__`` — a taken port raises ``OSError``
    here, which the CLI turns into a one-line diagnosis.
    """

    def __init__(
        self,
        service: "SimulationService",
        store: Optional[GatewayStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        usage_window: float = DEFAULT_WINDOW_SECONDS,
        defaults: Optional[QuotaDefaults] = None,
    ) -> None:
        self.service = service
        self.store = store
        self.auth: Optional[AuthService] = None
        if store is not None:
            self.auth = AuthService(store)
            self.quota = QuotaService(
                store, service.scheduler, defaults, window_seconds=usage_window
            )
            self.usage = UsageService(store)
            service.scheduler.add_listener(self.usage.on_event)
        handler = type(
            "GatewayHandler",
            (_Handler,),
            {"gateway": self, "protocol_version": "HTTP/1.1"},
        )
        self._httpd = _Listener((host, port), handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False
        _close_sockets_after_fork(self._httpd)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "GatewayServer":
        """Serve on a daemon thread (the embeddable/test entry)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI entry)."""
        self._serving = True
        self._httpd.serve_forever(poll_interval=0.1)

    def close(self) -> None:
        """Stop accepting; running jobs and the store are left alone."""
        if self._closed:
            return
        self._closed = True
        if self._serving:
            # Waits for the serve loop to exit; one that never began would
            # never signal it.
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def stop_jobs(self) -> None:
        """Cancel every unfinished job at its next round boundary *without*
        journaling the cancels: they stay pending and resume next start."""
        journal = self.service.journal
        if journal is not None:
            journal.draining = True
        scheduler = self.service._scheduler
        if scheduler is not None:
            for job in scheduler.jobs():
                if not job.done:
                    job.cancel()

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, stop jobs (:meth:`stop_jobs`;
        again, for any submitted before the listener closed), wait for
        them, checkpoint the journal, close the store."""
        self.close()
        self.stop_jobs()
        journal = self.service.journal
        scheduler = self.service._scheduler
        if scheduler is not None:
            deadline = time.monotonic() + timeout
            for job in scheduler.jobs():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                job._finished.wait(remaining)
            scheduler.close()
        if journal is not None:
            journal.checkpoint()
            journal.close()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def handle(self, request: "_Handler", method: str) -> None:
        """Route one request; every error becomes a JSON response."""
        parts = urlsplit(request.path)
        path = parts.path.rstrip("/") or "/"
        query = parse_qs(parts.query)
        try:
            if FAULT_HOOK is not None:
                FAULT_HOOK("gateway-request", method=method, path=path)
            self._route(request, method, path, query)
        except AuthError as exc:
            request.reply_json(
                401,
                {"ok": False, "error": "unauthorized", "message": str(exc)},
                headers={"WWW-Authenticate": 'Bearer realm="repro-gateway"'},
            )
        except QuotaExceeded as exc:
            retry_after = max(1, int(exc.retry_after + 0.999))
            request.reply_json(
                429,
                {
                    "ok": False,
                    "error": "quota-exceeded",
                    "message": str(exc),
                    "retry_after": retry_after,
                },
                headers={"Retry-After": str(retry_after)},
            )
        except ApiError as exc:
            request.reply_json(
                exc.status, {"ok": False, "error": exc.code, "message": str(exc)}
            )
        except (BrokenPipeError, ConnectionResetError):
            # The client went away mid-response (SSE disconnects land
            # here); nothing to send and nothing to clean up — the job
            # keeps running and the client resumes via Last-Event-ID.
            request.close_connection = True
        except Exception as exc:  # noqa: BLE001 - typed 500, never a traceback page
            try:
                request.reply_json(
                    500,
                    {
                        "ok": False,
                        "error": "internal-error",
                        "message": f"{type(exc).__name__}: {exc}",
                    },
                )
            except (BrokenPipeError, ConnectionResetError, OSError):
                request.close_connection = True

    def _route(
        self,
        request: "_Handler",
        method: str,
        path: str,
        query: Dict[str, List[str]],
    ) -> None:
        if path == "/healthz" and method == "GET":
            self._healthz(request)
            return
        if not path.startswith("/v1/"):
            raise ApiError(404, "not-found", f"no route for {method} {path}")
        tenant = None
        if self.auth is not None:
            tenant = self.auth.authenticate(request.headers.get("Authorization"))
        if path == "/v1/workloads" and method == "GET":
            request.reply_json(
                200, {"ok": True, "workloads": list(self.service.workloads)}
            )
            return
        if path == "/v1/usage" and method == "GET" and tenant is not None:
            self._usage(request, tenant)
            return
        if path == "/v1/jobs" and method == "POST":
            self._submit(request, tenant)
            return
        job_route = self._parse_job_path(path)
        if job_route is not None:
            job_id, leaf = job_route
            handle = self._owned_job(tenant, job_id)
            if leaf is None and method == "DELETE":
                self._cancel(request, handle)
                return
            if leaf == "events" and method == "GET":
                self._events(request, handle, query)
                return
            if leaf == "result" and method == "GET":
                self._result(request, handle, query)
                return
        raise ApiError(404, "not-found", f"no route for {method} {path}")

    @staticmethod
    def _parse_job_path(path: str) -> Optional[Tuple[str, Optional[str]]]:
        """``/v1/jobs/{id}[/events|/result]`` → ``(id, leaf)``."""
        segments = path.split("/")[1:]  # drop the leading ''
        if len(segments) < 3 or segments[:2] != ["v1", "jobs"] or not segments[2]:
            return None
        if len(segments) == 3:
            return segments[2], None
        if len(segments) == 4 and segments[3] in ("events", "result"):
            return segments[2], segments[3]
        return None

    def _owned_job(self, tenant: Optional[Tenant], job_id: str) -> JobHandle:
        """The handle, iff ``tenant`` owns ``job_id`` (any job when there
        are no tenants); 404 otherwise.

        Ownership is the live handle's ``tenant:`` tag, which the journal
        carries across restarts.  Foreign jobs 404 — not 403 — so tenants
        cannot probe for other tenants' job ids.
        """
        handle = self.service.scheduler.get_job(job_id)
        if handle is None:
            raise ApiError(404, "not-found", f"no such job {job_id!r}")
        if tenant is None:
            return handle
        if tenant_from_tags(handle.tags) != tenant.tenant_id:
            raise ApiError(404, "not-found", f"no such job {job_id!r}")
        return handle

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def _healthz(self, request: "_Handler") -> None:
        service = self.service
        stats = service.stats()
        keyed = self.store is not None
        request.reply_json(
            200,
            {
                "ok": True,
                "server": "repro-gateway" if keyed else "repro-serve",
                "backend": stats.get("backend"),
                "engine_tier": stats.get("engine_tier"),
                "workloads": len(service.workloads),
                "scheduler": stats.get("scheduler"),
                # Operator visibility into the artifact cache — notably the
                # quarantined counter (corrupt entries set aside on read).
                "artifact_cache": stats.get("artifact_cache"),
                "journal": (
                    service.journal.path if service.journal is not None else None
                ),
                "store": self.store.path if keyed else None,
                "usage_ledger_failures": (
                    self.usage.ledger_failures if keyed else None
                ),
            },
        )

    def _usage(self, request: "_Handler", tenant: Tenant) -> None:
        active_jobs, queued_points = self.quota.live_load(tenant.tenant_id)
        window_points, _expires = self.store.points_in_window(
            tenant.tenant_id, self.quota.window_seconds
        )
        request.reply_json(
            200,
            {
                "ok": True,
                "tenant": tenant.name,
                "tenant_id": tenant.tenant_id,
                "totals": self.store.usage_totals(tenant.tenant_id),
                "window": {
                    "seconds": self.quota.window_seconds,
                    "points": window_points,
                },
                "active": {"jobs": active_jobs, "queued_points": queued_points},
                "quotas": self.quota.effective(tenant),
            },
        )

    def _submit(self, request: "_Handler", tenant: Optional[Tenant]) -> None:
        body = request.read_json_body()
        raw_requests = body.get("requests")
        if not isinstance(raw_requests, list) or not raw_requests:
            raise ApiError(
                400, "bad-request", "body must carry a non-empty 'requests' list"
            )
        try:
            submitted = [SimulationRequest.from_dict(entry) for entry in raw_requests]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ApiError(400, "bad-request", f"bad request entry: {exc}") from exc
        priority = body.get("priority", 0)
        if not isinstance(priority, int):
            raise ApiError(400, "bad-request", "'priority' must be an integer")
        raw_tags = body.get("tags", [])
        if not isinstance(raw_tags, list) or not all(
            isinstance(tag, str) for tag in raw_tags
        ):
            raise ApiError(400, "bad-request", "'tags' must be a list of strings")
        tags = list(raw_tags)
        if tenant is not None:
            # Ownership is ours to assert, never the client's.
            tags = [tag for tag in tags if not tag.startswith(TENANT_TAG_PREFIX)]
            tags.append(tenant_tag(tenant.tenant_id))

        try:
            expanded = self.service.expand(submitted)
        except Exception as exc:  # noqa: BLE001 - bad matrices etc.
            raise ApiError(400, "bad-request", f"cannot expand batch: {exc}") from exc
        # Unknown registry workloads would only fail at preparation, deep
        # inside the job; reject them at the door instead.
        from repro.crypto.workloads import workload_names

        known = set(workload_names())
        unknown = sorted(
            {
                request.workload.name
                for request in expanded
                if request.workload.kind == "registry"
                and request.workload.name not in known
            }
        )
        if unknown:
            raise ApiError(400, "bad-request", f"unknown workload(s): {unknown}")
        if tenant is not None:
            self.quota.check(tenant, len(expanded))
        handle = self.service.scheduler.submit(submitted, priority=priority, tags=tags)
        request.reply_json(
            202,
            {
                "ok": True,
                "job": handle.job_id,
                "points": len(handle.requests),
                "priority": priority,
            },
        )

    def _cancel(self, request: "_Handler", handle: JobHandle) -> None:
        cancelled = handle.cancel()
        request.reply_json(
            200,
            {
                "ok": True,
                "job": handle.job_id,
                "cancelled": cancelled,
                "state": handle.state,
            },
        )

    def _events(
        self, request: "_Handler", handle: JobHandle, query: Dict[str, List[str]]
    ) -> None:
        after_seq: Optional[int] = None
        last_event_id = request.headers.get("Last-Event-ID")
        if last_event_id is None and "after_seq" in query:
            last_event_id = query["after_seq"][0]
        if last_event_id is not None:
            try:
                after_seq = int(last_event_id)
            except ValueError as exc:
                raise ApiError(
                    400, "bad-request", f"bad Last-Event-ID {last_event_id!r}"
                ) from exc
        request.send_response(200)
        request.send_header("Content-Type", "text/event-stream; charset=utf-8")
        request.send_header("Cache-Control", "no-cache")
        request.send_header("Connection", "close")
        request.end_headers()
        request.close_connection = True
        # Each JobEvent maps 1:1 to an SSE frame: the monotonic seq is the
        # event id (what a reconnecting client echoes as Last-Event-ID),
        # the kind is the event name, the event's compact JSON is the data line.
        for event in handle.events(after_seq=after_seq):
            frame = (
                f"id: {event.seq}\n"
                f"event: {event.kind}\n"
                f"data: {event.to_json()}\n\n"
            )
            request.wfile.write(frame.encode("utf-8"))
            request.wfile.flush()

    def _result(
        self, request: "_Handler", handle: JobHandle, query: Dict[str, List[str]]
    ) -> None:
        if "wait" in query:
            try:
                wait = float(query["wait"][0])
            except ValueError as exc:
                raise ApiError(400, "bad-request", "bad 'wait' value") from exc
            try:
                handle.result(timeout=wait)
            except BaseException:  # noqa: BLE001
                pass  # state-based dispatch below reports what happened
        state = handle.state
        if not handle.done:
            raise ApiError(
                409, "not-ready", f"job {handle.job_id} is still {state}"
            )
        if state == "failed":
            try:
                handle.result(timeout=0)
            except BaseException as exc:  # noqa: BLE001
                raise ApiError(
                    500, "job-failed", f"job {handle.job_id} failed: {exc}"
                ) from exc
        if state == "cancelled":
            request.reply_json(
                409,
                {
                    "ok": False,
                    "error": "cancelled",
                    "message": f"job {handle.job_id} was cancelled",
                    "partial": json.loads(handle.partial().to_wire()),
                },
            )
            return
        wire = handle.result(timeout=0).to_wire()
        request.send_body(200, wire.encode("utf-8"), "application/json")


class _Handler(BaseHTTPRequestHandler):
    """Per-connection plumbing; all routing lives on :class:`GatewayServer`."""

    gateway: GatewayServer  # overridden by the per-instance subclass
    server_version = "repro-gateway"

    # ------------------------------------------------------------------ #
    # Verb entry points
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self.gateway.handle(self, "GET")

    def do_POST(self) -> None:  # noqa: N802
        self.gateway.handle(self, "POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self.gateway.handle(self, "DELETE")

    # ------------------------------------------------------------------ #
    # Response helpers
    # ------------------------------------------------------------------ #
    def send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def reply_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_body(status, body, "application/json; charset=utf-8", headers)

    def read_json_body(self) -> Dict[str, Any]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError as exc:
            raise ApiError(400, "bad-request", "bad Content-Length") from exc
        if length <= 0:
            raise ApiError(400, "bad-request", "a JSON body is required")
        if length > MAX_BODY_BYTES:
            raise ApiError(413, "too-large", f"body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ApiError(400, "bad-request", f"body is not JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ApiError(400, "bad-request", "body must be a JSON object")
        return payload

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # requests are the tests' business, not stderr's
