"""Jobs: the asynchronous unit of work the scheduler and the wire speak.

A *job* is one submitted request batch.  Callers get a :class:`JobHandle`
back immediately and observe the job through a stream of typed
:class:`JobEvent`\\ s — ``queued`` → ``prepared`` → per-point
``point-started`` / ``point-done`` / ``cache-hit`` → one terminal
``done`` / ``failed`` / ``cancelled`` — or just block on
:meth:`JobHandle.result`.  Events are JSON-round-trippable
(:meth:`JobEvent.as_dict` / :meth:`JobEvent.from_dict`), so the same
stream a local :class:`~repro.api.scheduler.Scheduler` emits in-process is
what ``repro serve`` forwards as Server-Sent Events, one frame per event.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from queue import Queue
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.api.request import SimulationRequest
from repro.api.results import ResultSet

if TYPE_CHECKING:
    from repro.uarch.core import SimulationResult

logger = logging.getLogger(__name__)

#: Every event kind a job can emit, in rough lifecycle order.
EVENT_KINDS = (
    "queued",        # accepted by the scheduler (payload: points, priority, tags)
    "prepared",      # workload artifacts ready (payload: workloads)
    "point-started", # a pending point's batch was dispatched to the backend
    "point-done",    # a pending point finished computing (payload: cycles)
    "cache-hit",     # a point resolved from the artifact cache (memory or disk)
    "done",          # terminal: every point answered
    "failed",        # terminal: the job raised (payload: error)
    "cancelled",     # terminal: cancel() won the race (payload: completed)
)

#: Kinds that end a job's event stream.
TERMINAL_KINDS = frozenset({"done", "failed", "cancelled"})


class JobCancelled(RuntimeError):
    """Raised by :meth:`JobHandle.result` when the job was cancelled."""


@dataclass(frozen=True)
class JobEvent:
    """One observation of a job's progress (JSON-round-trippable).

    ``result`` is in-process only: a local scheduler's ``point-done`` and
    ``cache-hit`` events carry the point's full result for listeners (the
    warehouse ingestor), but it never reaches :meth:`as_dict`, so the wire
    and the journal see only the payload's cycles.
    """

    kind: str
    job_id: str
    seq: int
    request: Optional[SimulationRequest] = None
    payload: Optional[Dict[str, Any]] = None
    result: Optional[SimulationResult] = field(
        default=None, compare=False, repr=False
    )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "job": self.job_id,
            "seq": self.seq,
            "request": self.request.as_dict() if self.request is not None else None,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobEvent":
        request = data.get("request")
        return cls(
            kind=data["kind"],
            job_id=data["job"],
            seq=data["seq"],
            request=SimulationRequest.from_dict(request) if request else None,
            payload=data.get("payload"),
        )

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_KINDS


class JobHandle:
    """The caller's view of one submitted job.

    Thread-safe: the scheduler's dispatcher appends events while any number
    of consumers iterate :meth:`events` (each gets the full history replayed
    and then the live tail) or block on :meth:`result`.
    """

    def __init__(
        self,
        job_id: str,
        requests: Sequence[SimulationRequest],
        priority: int = 0,
        tags: Tuple[str, ...] = (),
    ) -> None:
        self.job_id = job_id
        self.requests: Tuple[SimulationRequest, ...] = tuple(requests)
        self.priority = priority
        self.tags = tuple(tags)
        self.state = "queued"
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._history: List[JobEvent] = []
        self._subscribers: List[Queue] = []
        self._result: Optional[ResultSet] = None
        self._partial: Optional[ResultSet] = None
        self._error: Optional[BaseException] = None
        self._cancel_requested = False

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """True once a terminal event (done/failed/cancelled) was emitted."""
        return self._finished.is_set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel_requested

    def events(self, after_seq: Optional[int] = None) -> Iterator[JobEvent]:
        """Stream this job's events: history so far, then live, then stop.

        The iterator ends after yielding the terminal event, so
        ``for event in handle.events()`` always terminates once the job
        does.  Safe to call from several threads; each caller gets its own
        complete stream.

        ``after_seq`` resumes a stream: events whose monotonic ``seq`` is at
        or below it are skipped (the caller already saw them), which is what
        lets a reconnecting remote client replay only the gap.  If the
        terminal event itself falls inside the skipped prefix the stream is
        simply empty.
        """
        queue: Queue = Queue()
        with self._lock:
            backlog = list(self._history)
            finished = bool(backlog) and backlog[-1].terminal
            if not finished:
                self._subscribers.append(queue)
        for event in backlog:
            if after_seq is not None and event.seq <= after_seq:
                if event.terminal:
                    return
                continue
            yield event
            if event.terminal:
                return
        if finished:
            return
        while True:
            event = queue.get()
            if after_seq is not None and event.seq <= after_seq:
                if event.terminal:
                    return
                continue
            yield event
            if event.terminal:
                return

    def history(self) -> List[JobEvent]:
        """A snapshot of every event emitted so far."""
        with self._lock:
            return list(self._history)

    def result(self, timeout: Optional[float] = None) -> ResultSet:
        """Block until the job finishes; return its :class:`ResultSet`.

        Raises the job's original exception if it failed,
        :class:`JobCancelled` if it was cancelled, and ``TimeoutError`` if
        ``timeout`` elapses first.
        """
        if not self._finished.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} still {self.state} after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        if self.state == "cancelled":
            raise JobCancelled(f"job {self.job_id} was cancelled")
        assert self._result is not None
        return self._result

    def partial(self) -> ResultSet:
        """The points that completed before a cancel (empty otherwise)."""
        return self._partial if self._partial is not None else ResultSet()

    def cancel(self) -> bool:
        """Request cancellation.  Returns False when already finished.

        A queued job is cancelled by the scheduler before it starts; a
        running job stops at its next point-group boundary (completed points
        stay cached — see :meth:`partial`).
        """
        with self._lock:
            if self._finished.is_set():
                return False
            self._cancel_requested = True
        return True

    # ------------------------------------------------------------------ #
    # Scheduler side (package-internal)
    # ------------------------------------------------------------------ #
    def _emit(self, event: JobEvent, listeners: Sequence[Callable] = ()) -> None:
        with self._lock:
            self._history.append(event)
            subscribers = list(self._subscribers)
            if event.terminal:
                self._subscribers.clear()
        for queue in subscribers:
            queue.put(event)
        if event.terminal:
            # Set *after* the event is in the history so a consumer that
            # observes ``done`` (or returns from ``result()``) can always
            # find the terminal event in ``events()``/``history()``.
            self._finished.set()
        for listener in listeners:
            try:
                listener(event)
            except Exception as exc:  # noqa: BLE001 - a listener must not kill a job
                logger.warning(
                    "job %s: a listener failed on its %s event: %r",
                    event.job_id, event.kind, exc, exc_info=True,
                )

    def _finish(self, result: ResultSet) -> None:
        """Record success; the scheduler emits the ``done`` event next."""
        self.state = "done"
        self._result = result

    def _fail(self, error: BaseException) -> None:
        """Record failure; the scheduler emits the ``failed`` event next."""
        self.state = "failed"
        self._error = error

    def _mark_cancelled(self, partial: Optional[ResultSet] = None) -> None:
        """Record cancellation; the ``cancelled`` event follows."""
        self.state = "cancelled"
        self._partial = partial
