"""The networked tier: ``repro serve``, its client, and socket sharding.

The multi-host protocol the ROADMAP promised, built from pieces that
already exist: :class:`~repro.api.shard.ShardTask` frames move over TCP
sockets instead of pipes, and job control is a small JSON vocabulary —
``submit`` / ``events`` / ``cancel`` / ``ping`` — over the same
length-prefixed framing.  Three roles live here:

* :class:`JobServer` — the long-lived ``repro serve --port N`` process: it
  wraps one :class:`~repro.api.service.SimulationService` (and hence one
  scheduler, artifact cache, and backend) and serves any number of
  clients.  A ``submit`` connection streams the job's typed
  :class:`~repro.api.jobs.JobEvent`\\ s frame-for-frame and finishes with
  the full-fidelity :meth:`ResultSet.to_wire` payload; ``cancel`` works
  both in-band (on the submit connection) and by job id from anywhere.
* :class:`RemoteServiceClient` / :class:`RemoteJobHandle` — the
  ``SimulationService``-shaped client: ``submit(...)`` returns a handle
  whose ``events()`` / ``result()`` / ``cancel()`` mirror the local
  :class:`~repro.api.jobs.JobHandle`, with results rehydrated client-side
  via :meth:`ResultSet.from_wire`.  :class:`RemoteBackend` adapts the
  client to the :class:`~repro.api.backends.ExecutionBackend` contract, so
  ``python -m repro ... --backend remote --connect host:port`` runs every
  simulation point on the server while the experiments render locally.
* :class:`RemoteShardBackend` — sockets instead of worker pipes: workers
  (``python -m repro.api.remote --connect host:port``) dial in and
  register, the backend ships each pending workload group as a
  :class:`ShardTask` frame, heartbeats idle workers, and on worker loss
  requeues the task onto the surviving workers with the dead worker
  recorded in the task's ``excluded`` set — the
  :class:`~repro.api.shard.ShardWorkerError` recovery semantics shared
  with the subprocess backend.

All tiers are bit-identical to :class:`~repro.api.backends.SerialBackend`;
``tests/api/test_remote.py`` and the CI serve/client leg pin it.
"""

from __future__ import annotations

import json
import os
import pickle
import socket
import sys
import threading
import time
import weakref
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.api import shard as _shard
from repro.api.backends import ExecutionBackend, SubprocessShardBackend
from repro.api.jobs import JobCancelled, JobEvent
from repro.api.matrix import ScenarioMatrix, expand_many
from repro.api.request import SimulationRequest
from repro.api.results import ResultSet
from repro.api.retry import RetryPolicy
from repro.api.shard import (
    ShardTask,
    ShardWorkerError,
    read_frame,
    run_task,
    write_frame,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.service import RequestsLike, SimulationService
    from repro.experiments.runner import WorkloadArtifacts

#: Bump when the control vocabulary or frame layout changes; both ends
#: reject other versions instead of mis-parsing them.
REMOTE_PROTOCOL_VERSION = 1

#: One-byte frame tags on a registered worker channel.  Everything before
#: registration (and every job-control frame) is JSON; after it the channel
#: carries tagged binary frames so :class:`ShardTask` payloads and pickled
#: result lists never pass through a text layer.
TAG_TASK = b"T"
TAG_RESULT = b"R"
TAG_PING = b"P"
TAG_PONG = b"O"


class RemoteJobError(RuntimeError):
    """A server-side job failed; carries the server's error text."""


# --------------------------------------------------------------------------- #
# Wire helpers
# --------------------------------------------------------------------------- #
def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` (or an already-split pair) → ``(host, port)``."""
    if isinstance(address, (tuple, list)):
        host, port = address
        return str(host), int(port)
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"remote address {address!r} must be host:port")
    return host or "127.0.0.1", int(port)


def send_json(stream, payload: Dict[str, Any]) -> None:
    write_frame(stream, json.dumps(payload, sort_keys=True).encode("utf-8"))


def recv_json(stream) -> Optional[Dict[str, Any]]:
    """The next JSON control frame, or ``None`` on a clean EOF."""
    payload = read_frame(stream)
    if payload is None:
        return None
    return json.loads(payload.decode("utf-8"))


def _close_sockets_after_fork(owner, sockets: Callable[[Any], Iterable[Any]]) -> None:
    """Close ``owner``'s sockets in any child this process forks.

    The fork and fork-pool backends fork workers that inherit every open
    file descriptor.  A worker orphaned by a server crash (``kill -9``)
    would otherwise keep the listen port alive — new clients dial into a
    backlog nobody accepts and hang instead of getting a prompt
    connection-refused — and keep established client connections from
    seeing EOF until the last worker exits.  Closing the descriptors in
    the child only drops the child's references; the parent's sockets are
    untouched.

    ``os.register_at_fork`` callbacks cannot be unregistered, so the
    callback holds a weakref and turns into a no-op once the owner is
    collected.  It must not take locks: another thread may hold them at
    fork time and will not exist in the child to release them.  And it
    must close the raw descriptor, not call ``socket.close()``: the
    connection handlers hold ``makefile()`` streams whose io-references
    make ``close()`` defer the real close indefinitely in the child.
    """
    ref = weakref.ref(owner)

    def close_in_child() -> None:
        alive = ref()
        if alive is None:
            return
        for sock in list(sockets(alive)):
            try:
                fd = sock.detach()
                if fd >= 0:
                    os.close(fd)
            except Exception:  # pragma: no cover - best effort in the child
                pass

    os.register_at_fork(after_in_child=close_in_child)


# --------------------------------------------------------------------------- #
# Server
# --------------------------------------------------------------------------- #
class JobServer:
    """``repro serve``: one shared service, many socket clients.

    Every connection opens with one JSON frame naming an ``op``:

    ``ping``
        → ``{"ok", "server", "protocol", "version", "workloads", "backend"}``.
    ``workloads``
        → the server's configured workload names (what open matrices
        expand over).
    ``submit``
        ``{"requests": [...], "priority": N, "tags": [...]}`` → an ack
        frame ``{"ok": true, "job": id}``, then one frame per
        :class:`JobEvent`, then a terminal frame: ``{"result": wire}`` /
        ``{"cancelled": true, "partial": wire}`` / ``{"error": text}``.
        A ``{"op": "cancel"}`` frame sent back up the same connection —
        or the client disconnecting — cancels the job.
    ``events``
        ``{"job": id}`` → the same stream for an existing job (history
        replayed first).
    ``cancel``
        ``{"job": id}`` → ``{"ok": bool}``.
    """

    def __init__(
        self,
        service: "SimulationService",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closed = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: Set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        _close_sockets_after_fork(
            self, lambda server: [server._sock, *server._conns]
        )

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "JobServer":
        """Accept connections on a background thread; returns self."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Run the accept loop in the calling thread (the CLI entry)."""
        self._accept_loop()

    def close(self) -> None:
        self._closed.set()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: stop accepting, stop jobs at their next round
        boundary, checkpoint the journal, return.

        With a journal attached its ``draining`` flag is set first, so the
        ``cancelled`` events this induces are *not* journaled as terminal —
        the interrupted jobs stay pending and resume on the next start
        (their completed points are already in the disk cache).
        """
        self.close()
        journal = self.service.journal
        if journal is not None:
            journal.draining = True
        scheduler = self.service._scheduler
        if scheduler is not None:
            for job in scheduler.jobs():
                if not job.done:
                    job.cancel()
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

    def _accept_loop(self) -> None:
        self._sock.settimeout(0.2)
        while not self._closed.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._conns_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            ).start()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _handle_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rwb")
        try:
            message = recv_json(stream)
            if message is None:
                return
            op = message.get("op")
            if op == "ping":
                send_json(
                    stream,
                    {
                        "ok": True,
                        "server": "repro-serve",
                        "protocol": REMOTE_PROTOCOL_VERSION,
                        "workloads": self.service.workloads,
                        "backend": self.service.backend.name,
                    },
                )
            elif op == "workloads":
                send_json(stream, {"ok": True, "workloads": self.service.workloads})
            elif op == "submit":
                self._serve_submit(stream, message)
            elif op == "events":
                handle = self.service.scheduler.get_job(str(message.get("job")))
                if handle is None:
                    send_json(stream, {"ok": False, "error": "unknown job"})
                else:
                    after_seq = message.get("after_seq")
                    send_json(stream, {"ok": True, "job": handle.job_id})
                    # An observer does not own the job: its disconnect must
                    # not cancel work the submitter is still waiting on.
                    self._stream_job(
                        stream,
                        handle,
                        owner=False,
                        after_seq=int(after_seq) if after_seq is not None else None,
                    )
            elif op == "cancel":
                handle = self.service.scheduler.get_job(str(message.get("job")))
                send_json(
                    stream,
                    {"ok": bool(handle is not None and handle.cancel())},
                )
            else:
                send_json(stream, {"ok": False, "error": f"unknown op {op!r}"})
        except (OSError, ValueError, EOFError):
            pass  # client went away or spoke garbage; the job (if any) survives
        finally:
            for closer in (stream.close, conn.close):
                try:
                    closer()
                except OSError:
                    pass
            with self._conns_lock:
                self._conns.discard(conn)

    def _serve_submit(self, stream, message: Dict[str, Any]) -> None:
        protocol = message.get("protocol", REMOTE_PROTOCOL_VERSION)
        if protocol != REMOTE_PROTOCOL_VERSION:
            send_json(
                stream,
                {
                    "ok": False,
                    "error": f"protocol {protocol!r} unsupported "
                    f"(server speaks {REMOTE_PROTOCOL_VERSION})",
                },
            )
            return
        try:
            requests = [
                SimulationRequest.from_dict(payload)
                for payload in message["requests"]
            ]
            handle = self.service.submit(
                requests,
                priority=int(message.get("priority", 0)),
                tags=tuple(message.get("tags", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            # A malformed frame must answer, not strand the client waiting
            # for an ack that will never come.
            send_json(stream, {"ok": False, "error": f"bad submit frame: {exc}"})
            return
        send_json(stream, {"ok": True, "job": handle.job_id})
        # ``on_disconnect: "keep"`` marks a reconnecting client: its job
        # must survive a dropped connection (it will re-attach by id).
        # The protocol default stays "cancel" so old clients keep the
        # nobody-is-waiting-anymore semantics.
        self._stream_job(
            stream, handle, owner=message.get("on_disconnect", "cancel") != "keep"
        )

    def _stream_job(
        self,
        stream,
        handle,
        owner: bool = True,
        after_seq: Optional[int] = None,
    ) -> None:
        """Forward a job's events, watching for in-band cancel frames.

        ``owner`` marks the submitting connection: only *its* disconnect
        cancels the job (nobody is waiting for the answer); an observer
        attached via the ``events`` op can come and go freely.
        ``after_seq`` resumes a stream mid-way (events at or below it are
        skipped — the reconnect replay path).
        """
        stop = threading.Event()

        def watch() -> None:
            # Reads run concurrently with the event writes below.
            while not stop.is_set():
                try:
                    message = recv_json(stream)
                except (OSError, ValueError, EOFError):
                    message = None
                if message is None:
                    if owner and not handle.done:
                        handle.cancel()
                    return
                if message.get("op") == "cancel":
                    handle.cancel()

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            for event in handle.events(after_seq=after_seq):
                send_json(stream, {"event": event.as_dict()})
            try:
                result = handle.result()
                send_json(stream, {"result": result.to_wire()})
            except JobCancelled:
                send_json(
                    stream,
                    {"cancelled": True, "partial": handle.partial().to_wire()},
                )
            except BaseException as exc:  # noqa: BLE001 - forwarded as text
                send_json(stream, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            stop.set()


def serve(
    service: "SimulationService", host: str = "127.0.0.1", port: int = 0
) -> JobServer:
    """Start a :class:`JobServer` on a background thread and return it."""
    return JobServer(service, host=host, port=port).start()


# --------------------------------------------------------------------------- #
# Client
# --------------------------------------------------------------------------- #
class RemoteJobHandle:
    """The client-side view of a job running on a ``repro serve`` server.

    Mirrors :class:`~repro.api.jobs.JobHandle`: :meth:`events` streams the
    server's typed events as they happen, :meth:`result` blocks for (and
    rehydrates) the final :class:`ResultSet`, :meth:`cancel` asks the
    server to stop.  One consumer at a time: the handle owns a single
    socket.

    When constructed by a client whose :class:`~repro.api.retry.RetryPolicy`
    allows ``reconnect``, a dropped connection (reset, EOF, read timeout)
    is transparent: the handle re-attaches by job id with the policy's
    backoff and resumes the stream from the last seen event ``seq`` — the
    server replays only the gap, and duplicates are filtered here, so a
    flaky network no longer kills a client sweep.
    """

    #: Errors a reconnect may heal.  A read timeout is included because a
    #: timed-out buffered stream may hold a partial frame — the stream is
    #: never reused after any of these, only replaced by a fresh attach.
    _RETRYABLE = (OSError, EOFError, ValueError)

    def __init__(
        self,
        job_id: str,
        requests: Sequence[SimulationRequest],
        sock: socket.socket,
        stream,
        client: Optional["RemoteServiceClient"] = None,
    ) -> None:
        self.job_id = job_id
        self.requests = tuple(requests)
        self.state = "queued"
        self._sock = sock
        self._stream = stream
        self._client = client
        self._final: Optional[Dict[str, Any]] = None
        self._drained = False
        self._last_seq = -1
        self._deadline: Optional[float] = None
        self._timeout: Optional[float] = None

    @property
    def done(self) -> bool:
        return self._drained

    # ------------------------------------------------------------------ #
    # Stream plumbing
    # ------------------------------------------------------------------ #
    def _io_timeout(self) -> Optional[float]:
        if self._client is not None:
            return self._client.retry.io_timeout
        return None

    def _recv(self) -> Optional[Dict[str, Any]]:
        """One frame, honoring the result() deadline and the io timeout."""
        limit = self._io_timeout()
        if self._deadline is not None:
            remaining = self._deadline - time.monotonic()
            limit = remaining if limit is None else min(limit, remaining)
        try:
            self._sock.settimeout(limit)
        except OSError:
            pass  # closed underneath us; the read below reports it
        return recv_json(self._stream)

    def _expired(self) -> bool:
        return self._deadline is not None and time.monotonic() >= self._deadline

    def _try_reconnect(self) -> bool:
        """Replace the dead socket via attach-by-id; True on success."""
        if self._client is None or not self._client.retry.reconnect:
            return False
        self._close()
        try:
            fresh = self._client.attach(self.job_id, after_seq=self._last_seq)
        except (OSError, EOFError, RemoteJobError):
            return False
        self._sock, self._stream = fresh._sock, fresh._stream
        return True

    def events(self) -> Iterator[JobEvent]:
        """Stream events until the terminal one; then the stream ends."""
        while not self._drained:
            if self._expired():
                self._close()
                raise TimeoutError(
                    f"job {self.job_id} still {self.state} after {self._timeout}s"
                )
            try:
                message = self._recv()
            except self._RETRYABLE as exc:
                if self._expired():
                    self._close()
                    raise TimeoutError(
                        f"job {self.job_id} still {self.state} "
                        f"after {self._timeout}s"
                    ) from exc
                if self._try_reconnect():
                    continue
                self._drained = True
                self._close()
                raise ConnectionError(
                    f"lost connection to job {self.job_id}: {exc}"
                ) from exc
            if message is None:
                if self._try_reconnect():
                    continue
                self._drained = True
                self._close()
                raise ConnectionError(
                    f"server closed the connection mid-job ({self.job_id})"
                )
            if "event" not in message:
                # The final frame arrived (an events-replay of a finished
                # job can open with it, and it always follows the terminal
                # event).
                self._final = message
                self._drained = True
                self._close()
                return
            event = JobEvent.from_dict(message["event"])
            if event.seq <= self._last_seq:
                continue  # a reconnect replayed something already seen
            self._last_seq = event.seq
            if event.kind in ("queued", "point-started"):
                self.state = "running"
            if event.terminal:
                self.state = event.kind
            yield event

    def result(self, timeout: Optional[float] = None) -> ResultSet:
        """Drain remaining events and return the rehydrated result set.

        ``timeout`` is an overall deadline for this call only: it bounds
        every read, and — unlike the old behavior, which left the override
        on the socket — the connection's default io timeout is restored
        afterwards whether the call returns, times out, or raises.
        """
        if timeout is not None:
            self._timeout = timeout
            self._deadline = time.monotonic() + timeout
        try:
            for _event in self.events():
                pass
        finally:
            self._deadline = None
            self._timeout = None
            if not self._drained:
                try:
                    self._sock.settimeout(self._io_timeout())
                except OSError:
                    pass
        final = self._final
        if final is None:
            raise ConnectionError(f"no final frame for job {self.job_id}")
        if "result" in final:
            self.state = "done"
            return ResultSet.from_wire(final["result"])
        if final.get("cancelled"):
            self.state = "cancelled"
            raise JobCancelled(f"job {self.job_id} was cancelled on the server")
        self.state = "failed"
        raise RemoteJobError(final.get("error", "remote job failed"))

    def partial(self) -> ResultSet:
        """Completed points of a cancelled job (empty otherwise)."""
        if self._final and self._final.get("cancelled"):
            return ResultSet.from_wire(self._final["partial"])
        return ResultSet()

    def cancel(self) -> bool:
        """Send the in-band cancel frame (False once the job finished)."""
        if self._drained:
            return False
        try:
            send_json(self._stream, {"op": "cancel"})
        except OSError:
            return False
        return True

    def _close(self) -> None:
        for closer in (self._stream.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass


class RemoteServiceClient:
    """A :class:`SimulationService`-shaped front end over a socket.

    ``run`` / ``submit`` / ``expand`` / ``workloads`` mirror the local
    service; execution happens wherever ``repro serve`` is running.  Open
    matrices expand over the *server's* configured workload set (fetched
    once and cached).
    """

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.address = parse_address(address)
        self.timeout = timeout
        if retry is None:
            # Legacy ``timeout`` maps onto the policy's two timeout knobs;
            # everything else gets the uniform defaults.
            retry = (
                RetryPolicy()
                if timeout is None
                else RetryPolicy(connect_timeout=timeout, io_timeout=timeout)
            )
        self.retry = retry
        self._workloads: Optional[List[str]] = None

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _dial(self):
        """One connection attempt (the policy's drivers wrap this)."""
        sock = socket.create_connection(
            self.address, timeout=self.retry.connect_timeout
        )
        sock.settimeout(self.retry.io_timeout)
        return sock, sock.makefile("rwb")

    def _connect(self):
        return self.retry.call(self._dial, token=f"dial:{self.address}")

    def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        # One-shot ops (ping / workloads / cancel) are idempotent, so the
        # whole exchange retries under the policy, not just the dial.
        def attempt() -> Dict[str, Any]:
            sock, stream = self._dial()
            try:
                send_json(stream, message)
                answer = recv_json(stream)
            finally:
                stream.close()
                sock.close()
            if answer is None:
                raise ConnectionError(
                    f"no answer from {self.address} for {message['op']}"
                )
            return answer

        return self.retry.call(
            attempt,
            retry_on=(OSError, EOFError),
            token=f"{message.get('op')}:{self.address}",
        )

    # ------------------------------------------------------------------ #
    # Service surface
    # ------------------------------------------------------------------ #
    def ping(self) -> Dict[str, Any]:
        return self._roundtrip({"op": "ping"})

    def cancel(self, job_id: str) -> bool:
        return bool(self._roundtrip({"op": "cancel", "job": job_id}).get("ok"))

    @property
    def workloads(self) -> List[str]:
        if self._workloads is None:
            self._workloads = list(
                self._roundtrip({"op": "workloads"})["workloads"]
            )
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
        # so only the dial retries; the submit exchange itself is one shot.
        sock, stream = self._connect()
        try:
            send_json(
                stream,
                {
                    "op": "submit",
                    "protocol": REMOTE_PROTOCOL_VERSION,
                    "requests": [request.as_dict() for request in requests],
                    "priority": priority,
                    "tags": list(tags),
                    # A reconnecting client's job must survive its dropped
                    # connections; it re-attaches by id.
                    "on_disconnect": "keep" if self.retry.reconnect else "cancel",
                },
            )
            ack = recv_json(stream)
        except BaseException:
            sock.close()
            raise
        if not ack or not ack.get("ok"):
            sock.close()
            raise RemoteJobError(
                (ack or {}).get("error", f"submit rejected by {self.address}")
            )
        return RemoteJobHandle(ack["job"], requests, sock, stream, client=self)

    def attach(self, job_id: str, after_seq: Optional[int] = None) -> RemoteJobHandle:
        """Re-observe an existing server-side job (the ``events`` op).

        History is replayed first, so attaching to a finished job still
        yields its complete event stream and final result.  ``after_seq``
        resumes mid-stream: events at or below it are skipped server-side
        (what :class:`RemoteJobHandle` reconnection uses).  Attaching is
        idempotent, so the whole exchange retries under the policy.
        """

        def attempt() -> RemoteJobHandle:
            sock, stream = self._dial()
            message: Dict[str, Any] = {"op": "events", "job": job_id}
            if after_seq is not None and after_seq >= 0:
                message["after_seq"] = after_seq
            try:
                send_json(stream, message)
                ack = recv_json(stream)
            except BaseException:
                sock.close()
                raise
            if not ack or not ack.get("ok"):
                sock.close()
                raise RemoteJobError(
                    (ack or {}).get("error", f"unknown job {job_id!r}")
                )
            return RemoteJobHandle(job_id, (), sock, stream, client=self)

        return self.retry.call(
            attempt, retry_on=(OSError, EOFError), token=f"attach:{job_id}"
        )

    def run(self, what: "RequestsLike") -> ResultSet:
        """The blocking convenience, exactly like ``SimulationService.run``."""
        return self.submit(what).result()


class RemoteBackend(ExecutionBackend):
    """Execute a service's pending points on a ``repro serve`` server.

    The in-process scheduler stays local (experiments, memo, disk cache);
    only the pending request batch crosses the wire, as one server-side
    job whose events feed ``listener`` (the CLI progress line) and whose
    rehydrated results are persisted into the local artifact memos and
    disk cache.
    """

    name = "remote"
    multiplexes_groups = True

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        listener: Optional[Callable[[JobEvent], None]] = None,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.client = RemoteServiceClient(address, timeout=timeout, retry=retry)
        self.listener = listener

    def execute(self, artifacts, requests, jobs):
        handle = self.client.submit(list(requests), tags=("remote-backend",))
        computed = 0
        for event in handle.events():
            if event.kind == "point-done":
                computed += 1
            if self.listener is not None:
                try:
                    self.listener(event)
                except Exception:  # noqa: BLE001 - progress must not kill the run
                    pass
        results = handle.result()
        for request, result in results:
            artifacts[request.workload.name].persist_simulation(request.key(), result)
        return computed


# --------------------------------------------------------------------------- #
# Socket sharding: RemoteShardBackend + its worker
# --------------------------------------------------------------------------- #
class _Worker:
    """One registered remote worker connection."""

    def __init__(self, worker_id: str, conn: socket.socket, stream) -> None:
        self.id = worker_id
        self.conn = conn
        self.stream = stream
        self.lock = threading.Lock()  # guards one write→read transaction
        self.alive = True

    def close(self) -> None:
        self.alive = False
        for closer in (self.stream.close, self.conn.close):
            try:
                closer()
            except OSError:
                pass


class RemoteShardBackend(ExecutionBackend):
    """:class:`ShardTask` frames over sockets to registered workers.

    The ROADMAP's distributed-sharding step: the task payloads and result
    frames are byte-for-byte the subprocess shard backend's; only the
    transport (TCP instead of worker pipes) and the worker lifecycle
    (registration + heartbeat instead of spawn) differ.  Worker loss
    follows the shared :class:`ShardWorkerError` recovery path — the dead
    worker joins the task's ``excluded`` set and the task is requeued for
    the surviving workers; a task with no eligible workers left fails the
    run.
    """

    name = "remote-shard"
    multiplexes_groups = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_wait: float = 30.0,
        heartbeat_interval: Optional[float] = 10.0,
        ping_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.worker_wait = worker_wait
        # The explicit knob wins; otherwise the policy's heartbeat budget.
        self.ping_timeout = (
            ping_timeout if ping_timeout is not None else self.retry.heartbeat_timeout
        )
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)
        self.host, self.port = self._sock.getsockname()[:2]
        self._closed = threading.Event()
        self._lock = threading.Lock()
        self._registered = threading.Condition(self._lock)
        self._workers: Dict[str, _Worker] = {}
        self._worker_ids = iter(range(1, 1 << 30))
        _close_sockets_after_fork(
            self,
            lambda backend: [
                backend._sock,
                *[worker.conn for worker in backend._workers.values()],
            ],
        )
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-remote-shard-accept", daemon=True
        )
        self._accept_thread.start()
        self._heartbeat_thread: Optional[threading.Thread] = None
        if heartbeat_interval:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(heartbeat_interval,),
                name="repro-remote-shard-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    @property
    def address(self) -> str:
        """What workers pass to ``python -m repro.api.remote --connect``."""
        return f"{self.host}:{self.port}"

    def workers(self) -> List[str]:
        with self._lock:
            return sorted(self._workers)

    def close(self) -> None:
        self._closed.set()
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed
            pass
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            worker.close()

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        self._sock.settimeout(0.2)
        while not self._closed.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                conn.settimeout(self.retry.connect_timeout)
                stream = conn.makefile("rwb")
                hello = recv_json(stream)
                if (
                    not hello
                    or hello.get("op") != "register-worker"
                    or hello.get("protocol") != REMOTE_PROTOCOL_VERSION
                ):
                    send_json(stream, {"ok": False, "error": "bad registration"})
                    conn.close()
                    continue
                worker_id = f"worker-{next(self._worker_ids)}"
                send_json(stream, {"ok": True, "worker_id": worker_id})
                conn.settimeout(None)
                with self._registered:
                    self._workers[worker_id] = _Worker(worker_id, conn, stream)
                    self._registered.notify_all()
            except (OSError, ValueError, EOFError):
                try:
                    conn.close()
                except OSError:
                    pass

    def wait_for_workers(self, count: int = 1, timeout: Optional[float] = None) -> int:
        """Block until ``count`` workers registered; returns the live count."""
        deadline = timeout if timeout is not None else self.worker_wait
        with self._registered:
            self._registered.wait_for(
                lambda: len(self._workers) >= count, timeout=deadline
            )
            return len(self._workers)

    def _drop_worker(self, worker: _Worker) -> None:
        with self._lock:
            self._workers.pop(worker.id, None)
        worker.close()

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._closed.wait(interval):
            with self._lock:
                workers = list(self._workers.values())
            for worker in workers:
                # Busy workers (a driver holds the lock for its whole
                # write→read transaction) are proving liveness already.
                if not worker.lock.acquire(blocking=False):
                    continue
                try:
                    worker.conn.settimeout(self.ping_timeout)
                    write_frame(worker.stream, TAG_PING)
                    frame = read_frame(worker.stream)
                    worker.conn.settimeout(None)
                    if frame is None or frame[:1] != TAG_PONG:
                        raise EOFError("no pong")
                except (OSError, EOFError, ValueError):
                    self._drop_worker(worker)
                finally:
                    worker.lock.release()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def execute(self, artifacts, requests, jobs):
        pending = SubprocessShardBackend._pending_groups(artifacts, requests)
        if not pending:
            return 0
        if not self.wait_for_workers(1):
            first = next(iter(pending))
            raise ShardWorkerError(
                "none",
                first,
                tuple(pending[first]),
                f"ever registered (waited {self.worker_wait}s)",
            )
        outcomes = self._run_remote(artifacts, pending)
        computed = 0
        for workload, results in outcomes.items():
            artifact = artifacts[workload]
            for request, result in zip(pending[workload], results):
                artifact.persist_simulation(request.key(), result)
                computed += 1
        return computed

    def _run_remote(
        self,
        artifacts,
        pending: Dict[str, List[SimulationRequest]],
    ) -> Dict[str, List]:
        queue: List[str] = list(pending)
        excluded: Dict[str, Set[str]] = {name: set() for name in pending}
        outcomes: Dict[str, List] = {}
        errors: List[BaseException] = []
        lock = threading.Lock()
        work = threading.Condition(lock)
        inflight = [0]

        with self._lock:
            drivers = list(self._workers.values())
        # Only the snapshot has a driver thread this run; a worker that
        # registers mid-run joins the pool at the *next* execute().  The
        # eligibility checks below must agree, or a requeued task could be
        # kept "eligible" for a worker no thread will ever serve it with.
        driver_ids = {worker.id for worker in drivers}

        def live_ids() -> Set[str]:
            with self._lock:
                return driver_ids & set(self._workers)

        def next_task(worker: _Worker) -> Optional[str]:
            with work:
                while True:
                    if errors:
                        return None
                    for index, name in enumerate(queue):
                        if worker.id not in excluded[name]:
                            inflight[0] += 1
                            return queue.pop(index)
                    if not queue and inflight[0] == 0:
                        return None
                    if queue and all(
                        not (live_ids() - excluded[name]) for name in queue
                    ):
                        # retry-with-excluded exhausted every live worker.
                        name = queue[0]
                        errors.append(
                            ShardWorkerError(
                                "|".join(sorted(excluded[name])) or "none",
                                name,
                                tuple(pending[name]),
                                "pool exhausted (every live worker excluded)",
                            )
                        )
                        work.notify_all()
                        return None
                    work.wait(0.2)

        def task_done(name: str, results: List) -> None:
            with work:
                outcomes[name] = results
                inflight[0] -= 1
                work.notify_all()

        def task_failed(name: str, worker: _Worker, error: ShardWorkerError) -> None:
            with work:
                inflight[0] -= 1
                excluded[name].add(worker.id)
                if live_ids() - excluded[name]:
                    queue.append(name)
                else:
                    errors.append(error)
                work.notify_all()

        def drive(worker: _Worker) -> None:
            while True:
                name = next_task(worker)
                if name is None:
                    return
                task = SubprocessShardBackend._build_task(
                    artifacts[name], pending[name]
                )
                try:
                    with worker.lock:
                        write_frame(worker.stream, TAG_TASK + task.to_bytes())
                        frame = read_frame(worker.stream)
                        # Skip any pong a heartbeat raced into the channel.
                        while frame is not None and frame[:1] == TAG_PONG:
                            frame = read_frame(worker.stream)
                except (OSError, EOFError, ValueError) as exc:
                    frame = None
                    reason = f"died mid-frame ({exc})"
                else:
                    reason = "closed its connection mid-task"
                if frame is None:
                    self._drop_worker(worker)
                    task_failed(
                        name,
                        worker,
                        ShardWorkerError(
                            worker.id, name, tuple(pending[name]), reason
                        ),
                    )
                    return
                if frame[:1] != TAG_RESULT:
                    self._drop_worker(worker)
                    task_failed(
                        name,
                        worker,
                        ShardWorkerError(
                            worker.id,
                            name,
                            tuple(pending[name]),
                            f"answered with unexpected frame tag {frame[:1]!r}",
                        ),
                    )
                    return
                task_done(name, pickle.loads(frame[1:]))

        threads = [
            threading.Thread(target=drive, args=(worker,), daemon=True)
            for worker in drivers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        missing = [name for name in pending if name not in outcomes]
        if missing:  # pragma: no cover - guarded by the error paths above
            raise ShardWorkerError(
                "none", missing[0], tuple(pending[missing[0]]), "was never computed"
            )
        return outcomes


# --------------------------------------------------------------------------- #
# Worker entry point
# --------------------------------------------------------------------------- #
def worker_main(
    connect: Union[str, Tuple[str, int]],
    retry: Optional[RetryPolicy] = None,
) -> int:
    """Dial a :class:`RemoteShardBackend`, register, and serve tasks.

    The socket twin of the pipe worker loop in :mod:`repro.api.shard`:
    tagged frames in (``TAG_TASK`` :class:`ShardTask` payloads, pings),
    tagged frames out (pickled result lists, pongs), exit 0 on EOF.
    """
    from repro.testing.faults import activate_from_env

    activate_from_env()
    policy = retry if retry is not None else RetryPolicy()
    address = parse_address(connect)
    sock = policy.call(
        lambda: socket.create_connection(address, timeout=policy.connect_timeout),
        token=f"worker-dial:{address}",
    )
    sock.settimeout(None)
    stream = sock.makefile("rwb")
    send_json(
        stream,
        {
            "op": "register-worker",
            "protocol": REMOTE_PROTOCOL_VERSION,
            "pid": os.getpid(),
        },
    )
    ack = recv_json(stream)
    if not ack or not ack.get("ok"):
        return 1
    while True:
        try:
            frame = read_frame(stream)
        except (OSError, EOFError):
            return 0
        if frame is None:
            return 0
        tag, body = frame[:1], frame[1:]
        if tag == TAG_PING:
            write_frame(stream, TAG_PONG)
        elif tag == TAG_TASK:
            if _shard.FAULT_HOOK is not None:
                _shard.FAULT_HOOK("worker-task")
            results = run_task(ShardTask.from_bytes(body))
            write_frame(
                stream,
                TAG_RESULT + pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL),
            )
        else:
            return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.api.remote --connect host:port`` — a shard worker."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.api.remote",
        description="Register with a RemoteShardBackend and compute shard tasks.",
    )
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the RemoteShardBackend worker address to register with",
    )
    args = parser.parse_args(argv)
    return worker_main(args.connect)


if __name__ == "__main__":  # pragma: no cover - exercised via worker processes
    sys.exit(main())
