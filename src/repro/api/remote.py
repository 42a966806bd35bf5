"""The client of ``repro serve`` and ``repro gateway``.

Both commands run one server, :class:`~repro.api.gateway.http.GatewayServer`,
speaking HTTP/1.1 + JSON with a Server-Sent-Events job stream; ``serve``
builds it without a tenant store, so every ``/v1`` route is open.  This
module speaks that protocol with the stdlib's ``http.client``:

* :class:`RemoteServiceClient` / :class:`RemoteJobHandle` — the
  ``SimulationService``-shaped client: ``submit(...)`` (``POST /v1/jobs``)
  returns a handle whose ``events()`` (the SSE stream, resumed with
  ``Last-Event-ID``) / ``result()`` (``GET …/result?wait=S``) /
  ``cancel()`` (``DELETE``) mirror the local
  :class:`~repro.api.jobs.JobHandle`, with results rehydrated client-side
  via :meth:`ResultSet.from_wire`.
* :class:`RemoteBackend` adapts the client to the
  :class:`~repro.api.backends.ExecutionBackend` contract, so
  ``python -m repro ... --backend remote --connect host:port`` runs every
  simulation point on the server while the experiments render locally.

Every call runs under one :class:`~repro.api.retry.RetryPolicy`: idempotent
requests retry whole, a submit retries only its dial.  Results are
bit-identical to :class:`~repro.api.backends.SerialBackend`;
``tests/api/test_remote.py`` and the CI serve/client leg pin it.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.backends import ExecutionBackend
from repro.api.jobs import JobCancelled, JobEvent
from repro.api.matrix import ScenarioMatrix, expand_many
from repro.api.request import SimulationRequest
from repro.api.results import ResultSet
from repro.api.retry import RetryPolicy
from repro.uarch.config import compact_json

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.service import RequestsLike

#: Errors a retry or a stream reconnect may heal.
_RETRYABLE = (OSError, http.client.HTTPException)

#: Longest ``?wait=`` one result request asks the server to hold it.
_RESULT_WAIT = 60.0


class RemoteJobError(RuntimeError):
    """The server refused a request or a job failed; carries its error text."""


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"``, ``"http://host:port"`` (the form the servers print),
    or an already-split pair → ``(host, port)``."""
    if isinstance(address, (tuple, list)):
        host, port = address
        return str(host), int(port)
    scheme, sep, rest = address.partition("://")
    if sep:
        if scheme != "http":
            raise ValueError(f"remote address {address!r}: only http:// is served")
        address = rest
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"remote address {address!r} must be host:port")
    return host or "127.0.0.1", int(port)


def _message(body: bytes, fallback: str) -> str:
    """The ``message`` of a JSON error reply, else ``fallback``."""
    try:
        return str(json.loads(body)["message"])
    except (ValueError, KeyError, TypeError):
        return fallback


class RemoteJobHandle:
    """The client-side view of a job running on a server.

    Mirrors :class:`~repro.api.jobs.JobHandle`: :meth:`events` streams the
    server's typed events as they happen, :meth:`result` blocks for (and
    rehydrates) the final :class:`ResultSet`, :meth:`cancel` asks the
    server to stop.  One consumer of :meth:`events` at a time: the handle
    owns a single stream.

    When the client's :class:`~repro.api.retry.RetryPolicy` allows
    ``reconnect``, a dropped stream (reset, EOF, read timeout) is
    transparent: the handle re-opens it with the policy's backoff and
    ``Last-Event-ID`` set to the last seen event ``seq`` — the server
    replays only the gap, and duplicates are filtered here, so a flaky
    network does not kill a client sweep.
    """

    def __init__(
        self,
        job_id: str,
        requests: Sequence[SimulationRequest],
        client: "RemoteServiceClient",
        response: Optional[http.client.HTTPResponse] = None,
        after_seq: Optional[int] = None,
    ) -> None:
        self.job_id = job_id
        self.requests = tuple(requests)
        self.state = "queued"
        self._client = client
        self._response = response
        self._last_seq = after_seq if after_seq is not None else -1
        self._partial: Optional[ResultSet] = None

    @property
    def done(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def _next_event(self) -> Optional[JobEvent]:
        """The next SSE frame's event, or ``None`` once the stream ends.

        Each frame's ``data:`` line carries the whole event (``id:`` and
        ``event:`` repeat its seq and kind); a line cut short by a dropped
        connection reads as the end of the stream.
        """
        while True:
            line = self._response.readline()
            if not line.endswith(b"\n"):
                return None
            if line.startswith(b"data:"):
                return JobEvent.from_dict(json.loads(line[5:]))

    def events(self) -> Iterator[JobEvent]:
        """Stream events until the terminal one; then the stream ends."""
        if self._response is None and not self.done:
            self._response = self._client._open_events(self.job_id, self._last_seq)
        while not self.done:
            try:
                event = self._next_event()
            except _RETRYABLE + (ValueError,) as exc:
                event, cause = None, exc
            else:
                cause = None
            if event is None:
                self._close()
                self._reopen(cause)
                continue
            if event.seq <= self._last_seq:
                continue  # a reconnect replayed something already seen
            self._last_seq = event.seq
            if event.kind in ("queued", "point-started"):
                self.state = "running"
            if event.terminal:
                self.state = event.kind
            yield event
        self._close()

    def _reopen(self, cause: Optional[BaseException]) -> None:
        """Replace a stream that ended before the terminal event."""
        if self._client.retry.reconnect:
            try:
                self._response = self._client._open_events(
                    self.job_id, self._last_seq
                )
                return
            except _RETRYABLE + (RemoteJobError,):
                pass
        raise ConnectionError(
            f"lost the event stream of job {self.job_id}"
            + (f": {cause}" if cause is not None else "")
        ) from cause

    def result(self, timeout: Optional[float] = None) -> ResultSet:
        """Wait for the job's outcome and return the rehydrated result set.

        ``timeout`` bounds this call only: past it a :class:`TimeoutError`
        names the job, and the handle can still be asked again.  A
        cancelled job raises :class:`JobCancelled` (its completed points
        are in :meth:`partial`), a failed one :class:`RemoteJobError`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = _RESULT_WAIT
            if deadline is not None:
                wait = max(0.0, min(wait, deadline - time.monotonic()))
            status, body = self._client._request(
                "GET", f"/v1/jobs/{self.job_id}/result?wait={wait:.3f}", wait=wait
            )
            if status == 200:
                self.state = "done"
                return ResultSet.from_wire(body.decode("utf-8"))
            reply = json.loads(body)
            if status == 409 and reply.get("error") == "not-ready":
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(f"{reply.get('message')} after {timeout}s")
                continue
            if status == 409 and reply.get("error") == "cancelled":
                self.state = "cancelled"
                self._partial = ResultSet.from_wire(json.dumps(reply["partial"]))
                raise JobCancelled(f"job {self.job_id} was cancelled on the server")
            if reply.get("error") == "job-failed":
                self.state = "failed"
            raise RemoteJobError(reply.get("message", "remote job failed"))

    def partial(self) -> ResultSet:
        """Completed points of a cancelled job (empty otherwise)."""
        return self._partial if self._partial is not None else ResultSet()

    def cancel(self) -> bool:
        """Ask the server to cancel (False once the job finished)."""
        return self._client.cancel(self.job_id)

    def _close(self) -> None:
        if self._response is not None:
            self._response.close()
            self._response = None


class RemoteServiceClient:
    """A :class:`SimulationService`-shaped front end over HTTP.

    ``run`` / ``submit`` / ``expand`` / ``workloads`` mirror the local
    service; execution happens wherever ``repro serve`` is running.  Open
    matrices expand over the *server's* configured workload set (fetched
    once and cached).
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.address = parse_address(address)
        self.retry = retry if retry is not None else RetryPolicy()
        self._workloads: Optional[List[str]] = None

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _dial(self, wait: float = 0.0) -> http.client.HTTPConnection:
        """One connected HTTP connection.  Reads get the policy's
        ``io_timeout`` plus ``wait``, the seconds the server may hold the
        request before answering."""
        host, port = self.address
        conn = http.client.HTTPConnection(
            host, port, timeout=self.retry.connect_timeout
        )
        try:
            conn.connect()
            io_timeout = self.retry.io_timeout
            conn.sock.settimeout(None if io_timeout is None else io_timeout + wait)
        except BaseException:
            conn.close()
            raise
        return conn

    @staticmethod
    def _send(
        conn: http.client.HTTPConnection,
        method: str,
        path: str,
        body: Optional[str] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> http.client.HTTPResponse:
        """Send one request; ``body`` is already-encoded JSON text."""
        headers = dict(headers or {})
        if body is not None:
            headers["Content-Type"] = "application/json"
            body = body.encode("utf-8")
        conn.request(method, path, body=body, headers=headers)
        return conn.getresponse()

    def _request(
        self, method: str, path: str, wait: float = 0.0
    ) -> Tuple[int, bytes]:
        """An idempotent request → ``(status, body)``, retried whole under
        the policy."""

        def attempt() -> Tuple[int, bytes]:
            conn = self._dial(wait)
            try:
                response = self._send(conn, method, path)
                return response.status, response.read()
            finally:
                conn.close()

        return self.retry.call(
            attempt, retry_on=_RETRYABLE, token=f"{method} {path}:{self.address}"
        )

    def _json(self, method: str, path: str) -> Dict[str, Any]:
        status, body = self._request(method, path)
        if status != 200:
            raise RemoteJobError(
                _message(body, f"{method} {path} answered {status}")
            )
        return json.loads(body)

    def _open_events(
        self, job_id: str, after_seq: Optional[int] = None
    ) -> http.client.HTTPResponse:
        """The job's SSE stream, resumed after ``after_seq``; retried whole
        (attaching is idempotent)."""
        headers = {}
        if after_seq is not None and after_seq >= 0:
            headers["Last-Event-ID"] = str(after_seq)

        def attempt() -> http.client.HTTPResponse:
            conn = self._dial()
            try:
                response = self._send(
                    conn, "GET", f"/v1/jobs/{job_id}/events", headers=headers
                )
            except BaseException:
                conn.close()
                raise
            if response.status != 200:
                body = response.read()
                conn.close()
                raise RemoteJobError(
                    f"unknown job {job_id!r}"
                    if response.status == 404
                    else _message(body, f"events of {job_id} answered {response.status}")
                )
            # The stream answers ``Connection: close``, so the response
            # owns the socket now and closing it closes the connection.
            return response

        return self.retry.call(attempt, retry_on=_RETRYABLE, token=f"attach:{job_id}")

    # ------------------------------------------------------------------ #
    # Service surface
    # ------------------------------------------------------------------ #
    def ping(self) -> Dict[str, Any]:
        """The server's ``/healthz`` report."""
        return self._json("GET", "/healthz")

    def cancel(self, job_id: str) -> bool:
        status, body = self._request("DELETE", f"/v1/jobs/{job_id}")
        return status == 200 and bool(json.loads(body).get("cancelled"))

    @property
    def workloads(self) -> List[str]:
        if self._workloads is None:
            self._workloads = list(self._json("GET", "/v1/workloads")["workloads"])
        return list(self._workloads)

    def expand(self, what: "RequestsLike") -> List[SimulationRequest]:
        if isinstance(what, (ScenarioMatrix, SimulationRequest)):
            what = [what]
        items = list(what)
        needs_server_set = any(
            isinstance(item, ScenarioMatrix) and item._workloads_open()
            for item in items
        )
        defaults = self.workloads if needs_server_set else ()
        return expand_many(items, default_workloads=defaults)

    def submit(
        self,
        what: "RequestsLike",
        priority: int = 0,
        tags: Sequence[str] = (),
    ) -> RemoteJobHandle:
        requests = self.expand(what)
        # Submission is NOT idempotent (a retry could create a second job),
        # so only the dial retries; the request itself is one shot.
        conn = self.retry.call(self._dial, token=f"dial:{self.address}")
        try:
            # The requests' own encodings, spliced between the two sorted
            # neighbours of the ``requests`` key.
            entries = ",".join(request.to_json() for request in requests)
            payload = (
                f'{{"priority":{compact_json(priority)},"requests":[{entries}],'
                f'"tags":{compact_json(list(tags))}}}'
            )
            response = self._send(conn, "POST", "/v1/jobs", payload)
            body = response.read()
        finally:
            conn.close()
        if response.status != 202:
            raise RemoteJobError(
                _message(body, f"submit rejected by {self.address} ({response.status})")
            )
        return RemoteJobHandle(json.loads(body)["job"], requests, self)

    def attach(self, job_id: str, after_seq: Optional[int] = None) -> RemoteJobHandle:
        """Re-observe an existing server-side job.

        History is replayed first, so attaching to a finished job still
        yields its complete event stream and final result.  ``after_seq``
        resumes mid-stream: events at or below it are skipped server-side.
        An unknown job raises :class:`RemoteJobError` here.
        """
        response = self._open_events(job_id, after_seq)
        return RemoteJobHandle(job_id, (), self, response, after_seq)

    def run(self, what: "RequestsLike") -> ResultSet:
        """The blocking convenience, exactly like ``SimulationService.run``."""
        return self.submit(what).result()


class RemoteBackend(ExecutionBackend):
    """Execute a service's pending points on a ``repro serve`` server.

    The in-process scheduler stays local (experiments, probes, the
    artifact cache); only the pending request batch crosses the wire, as
    one server-side job whose events feed ``listener`` (the CLI progress
    line) and whose rehydrated results it returns, in request order, for
    the local scheduler to persist.  The server may answer some of them
    from its own cache; locally they still count as simulated.
    """

    name = "remote"
    multiplexes_groups = True

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        listener: Optional[Callable[[JobEvent], None]] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.client = RemoteServiceClient(address, retry=retry)
        self.listener = listener

    def execute(self, artifacts, requests, jobs):
        handle = self.client.submit(list(requests), tags=("remote-backend",))
        for event in handle.events():
            if self.listener is not None:
                try:
                    self.listener(event)
                except Exception:  # noqa: BLE001 - progress must not kill the run
                    pass
        answer = handle.result()
        return [answer.get(request) for request in requests]
