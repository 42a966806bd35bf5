"""The job scheduler: prioritized jobs over one shared service.

:class:`Scheduler` turns the blocking :class:`~repro.api.service.SimulationService`
execution path into job-oriented execution: callers
:meth:`~Scheduler.submit` a request batch (anything ``service.run`` accepts)
with a ``priority`` and ``tags`` and get a
:class:`~repro.api.jobs.JobHandle` back immediately.  One dispatcher thread
drains a priority queue, running one job at a time: it prepares the job's
workloads, drives the service's configured
:class:`~repro.api.backends.ExecutionBackend`, and publishes every step as
a typed :class:`~repro.api.jobs.JobEvent` stream.

Guarantees:

* **One result path** — the scheduler probes the service's artifact
  cache once per point, hands the misses to the backend (which only
  computes), and persists what it returns with one cache write per
  workload group.  So a point any earlier job computed is a ``cache-hit``
  for the next (two jobs naming the same
  :class:`~repro.api.request.SimulationRequest` execute it once).
* **Priority ordering** — higher ``priority`` jobs are popped first; ties
  run in submission order.
* **Cancellation** — :meth:`JobHandle.cancel` stops a queued job before it
  starts and a running job at its next workload-group boundary; points
  that already finished are persisted in the artifact cache (the cache is
  always consistent), and are available via :meth:`JobHandle.partial`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api.jobs import JobEvent, JobHandle
from repro.api.request import SimulationRequest
from repro.api.results import ResultSet

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.journal import JobJournal
    from repro.api.service import RequestsLike, SimulationService
    from repro.uarch.core import SimulationResult


class Scheduler:
    """Multiplex prioritized jobs over one service's backend and cache.

    With a :class:`~repro.api.journal.JobJournal` attached, every
    submission and terminal event is written ahead to the journal, every
    event's seq is covered by a journaled lease before it is emitted, and
    the event-``seq`` / job-id counters restart *above* the journal's
    recovered high-water marks, so ids and seqs stay monotonic across
    process restarts.
    """

    def __init__(
        self,
        service: "SimulationService",
        journal: Optional["JobJournal"] = None,
    ) -> None:
        self.service = service
        self.journal = journal
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, JobHandle]] = []
        self._order = itertools.count()
        self._seq = itertools.count(journal.next_seq if journal else 0)
        self._job_ids = itertools.count(journal.next_job_number if journal else 1)
        self._jobs: Dict[str, JobHandle] = {}
        self._listeners: List[Callable[[JobEvent], None]] = []
        self._paused = False
        self._closed = False
        self._thread = threading.Thread(
            target=self._dispatch, name="repro-scheduler", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------ #
    # Public surface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        what: "RequestsLike",
        priority: int = 0,
        tags: Sequence[str] = (),
        job_id: Optional[str] = None,
    ) -> JobHandle:
        """Queue a job for ``what`` (expanded eagerly, in the caller).

        Invalid input (unknown workloads/designs surface at expansion)
        raises here, synchronously; everything later is reported through
        the handle.  An empty expansion completes immediately.

        ``job_id`` overrides the allocated id — used by journal resume so
        an interrupted job keeps its identity (clients re-attach by id)
        across restarts.
        """
        requests = self.service.expand(what)
        handle = JobHandle(
            job_id if job_id is not None else f"job-{next(self._job_ids)}",
            requests,
            priority=priority,
            tags=tuple(tags),
        )
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._jobs[handle.job_id] = handle
        if self.journal is not None:
            # Write-ahead: the submission is durable before any event or
            # execution, so a crash from here on leaves a resumable job.
            self.journal.job_submitted(handle)
        self._emit(
            handle,
            "queued",
            payload={
                "points": len(requests),
                "priority": priority,
                "tags": list(handle.tags),
            },
        )
        if not requests:
            handle._finish(ResultSet())
            self._emit(handle, "done", payload={"points": 0, "computed": 0, "cache_hits": 0})
            return handle
        with self._work:
            if self._closed:
                # close() won the race after the check above: a push now
                # would land on a dead heap and strand result() forever.
                closed_during_submit = True
            else:
                closed_during_submit = False
                heapq.heappush(self._heap, (-priority, next(self._order), handle))
                self._work.notify()
        if closed_during_submit:
            handle._mark_cancelled(ResultSet())
            self._emit(handle, "cancelled", payload={"completed": 0})
        return handle

    def get_job(self, job_id: str) -> Optional[JobHandle]:
        """A previously submitted job's handle (``None`` when unknown)."""
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobHandle]:
        """Every job this scheduler has seen (the drain path iterates it)."""
        with self._lock:
            return list(self._jobs.values())

    def stats(self) -> Dict[str, object]:
        """A point-in-time operational snapshot (the ``/healthz`` payload).

        Job counts are by handle state, so ``jobs_queued`` includes jobs
        waiting in the heap and ``jobs_running`` the one the dispatcher holds.
        """
        with self._lock:
            handles = list(self._jobs.values())
            queue_depth = len(self._heap)
            paused = self._paused
        counts = {"queued": 0, "running": 0, "done": 0, "failed": 0, "cancelled": 0}
        for handle in handles:
            counts[handle.state] = counts.get(handle.state, 0) + 1
        return {
            "jobs_total": len(handles),
            "jobs_queued": counts["queued"],
            "jobs_running": counts["running"],
            "jobs_done": counts["done"],
            "jobs_failed": counts["failed"],
            "jobs_cancelled": counts["cancelled"],
            "queue_depth": queue_depth,
            "paused": paused,
            "journal_path": self.journal.path if self.journal is not None else None,
        }

    def add_listener(self, listener: Callable[[JobEvent], None]) -> None:
        """Observe every event of every job (the CLI progress line hook)."""
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable[[JobEvent], None]) -> None:
        self._listeners.remove(listener)

    def pause(self) -> None:
        """Stop starting new jobs (running jobs finish; submits still queue)."""
        with self._work:
            self._paused = True

    def resume(self) -> None:
        with self._work:
            self._paused = False
            self._work.notify_all()

    def close(self, wait: bool = True) -> None:
        """Cancel queued jobs, stop the dispatcher, optionally join it."""
        with self._work:
            if self._closed:
                return
            self._closed = True
            leftover = [job for _, _, job in self._heap]
            self._heap.clear()
            self._work.notify_all()
        for job in leftover:
            job._mark_cancelled(ResultSet())
            self._emit(job, "cancelled", payload={"completed": 0})
        if wait and self._thread is not threading.current_thread():
            self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _emit(
        self,
        handle: JobHandle,
        kind: str,
        request: Optional[SimulationRequest] = None,
        payload: Optional[dict] = None,
        result: Optional[SimulationResult] = None,
    ) -> JobEvent:
        event = JobEvent(
            kind=kind,
            job_id=handle.job_id,
            seq=next(self._seq),
            request=request,
            payload=payload,
            result=result,
        )
        if self.journal is not None:
            # Write-ahead: durable before any subscriber observes it.
            self.journal.job_event(event)
        handle._emit(event, self._listeners)
        return event

    @staticmethod
    def _point_payload(result) -> dict:
        """The payload of a point-done/cache-hit event: the point's cycles.

        The full result rides the same event in process only
        (:attr:`JobEvent.result`, never serialized), so the wire and the
        journal carry just the cycles; the journal records no per-point
        state.
        """
        return {"cycles": result.cycles}

    def _dispatch(self) -> None:
        while True:
            with self._work:
                while not self._closed and (self._paused or not self._heap):
                    self._work.wait()
                if self._closed:
                    return
                _, _, handle = heapq.heappop(self._heap)
            if handle.cancel_requested:
                handle._mark_cancelled(ResultSet())
                self._emit(handle, "cancelled", payload={"completed": 0})
                continue
            handle.state = "running"
            try:
                self._run_job(handle)
            except BaseException as exc:  # noqa: BLE001 - reported via the handle
                handle._fail(exc)
                self._emit(handle, "failed", payload={"error": str(exc)})

    def _run_job(self, handle: JobHandle) -> None:
        service = self.service
        requests = handle.requests
        refs = {}
        for request in requests:
            refs.setdefault(request.workload.name, request.workload)
        artifacts = service._artifacts_for_refs(list(refs.values()))
        self._emit(handle, "prepared", payload={"workloads": sorted(refs)})

        resolved: Dict[SimulationRequest, object] = {}
        computed = cache_hits = 0
        groups: Dict[str, List[SimulationRequest]] = {}
        for request in requests:
            artifact = artifacts[request.workload.name]
            cached = artifact.cached_simulation(request)
            if cached is not None:
                resolved[request] = cached
                cache_hits += 1
                self._emit(
                    handle, "cache-hit", request,
                    payload=self._point_payload(cached), result=cached,
                )
            else:
                groups.setdefault(request.workload.name, []).append(request)

        # Backends that multiplex per-workload groups internally (the fork
        # fan-out, the shard worker pool, the remote backend) get every group
        # in one call so cross-workload parallelism is preserved; the serial
        # backend runs group-sized rounds — identical work, but cancellation
        # and point-done events land at every group boundary.
        if getattr(service.backend, "multiplexes_groups", False) and len(groups) > 1:
            rounds = [list(groups.items())]
        else:
            rounds = [[group] for group in groups.items()]

        try:
            for round_groups in rounds:
                if handle.cancel_requested:
                    break
                round_artifacts = {name: artifacts[name] for name, _ in round_groups}
                round_requests = [
                    request for _, group in round_groups for request in group
                ]
                for request in round_requests:
                    self._emit(handle, "point-started", request)
                results = service.backend.execute(
                    round_artifacts, round_requests, jobs=service.jobs
                )
                computed += len(results)
                resolved.update(zip(round_requests, results, strict=True))
                for name, group in round_groups:
                    # One commit per workload group, not one per point.
                    artifact = round_artifacts[name]
                    artifact.cache.put_many(
                        "simulation",
                        name,
                        [(artifact.simulation_digest(r), resolved[r]) for r in group],
                    )
                for request in round_requests:
                    result = resolved[request]
                    self._emit(
                        handle, "point-done", request,
                        payload=self._point_payload(result), result=result,
                    )
        finally:
            service.points_simulated += computed

        if handle.cancel_requested:
            partial = ResultSet(
                [(request, resolved[request]) for request in requests if request in resolved]
            )
            handle._mark_cancelled(partial)
            self._emit(handle, "cancelled", payload={"completed": len(partial)})
            return

        result_set = ResultSet([(request, resolved[request]) for request in requests])
        handle._finish(result_set)
        self._emit(
            handle,
            "done",
            payload={
                "points": len(requests),
                "computed": computed,
                "cache_hits": cache_hits,
            },
        )
