"""Pluggable execution backends for :class:`SimulationService`.

A backend's contract is narrow: given the prepared artifacts and a request
list, make sure every request's :class:`SimulationResult` ends up in its
artifact's in-memory memo, and report how many points were actually
computed (memoized points are free).  Three implementations ship:

* :class:`SerialBackend` — everything in the calling process, one grouped
  batch per workload (the reference semantics).
* :class:`ForkPoolBackend` — the fork-based grouped fan-out:
  workers inherit prepared artifacts copy-on-write and receive the
  preserialized columnar trace.
* :class:`SubprocessShardBackend` — fresh worker *subprocesses* fed
  self-contained :class:`~repro.api.shard.ShardTask` payloads over pipes:
  nothing is inherited, everything crosses the pipe.

All three produce bit-identical results (``tests/api/test_backends.py``
asserts it); they differ only in where the batches run.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import threading
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence

from repro.api.request import SimulationRequest
from repro.api.shard import ShardTask, ShardWorkerError, read_frame, write_frame

if TYPE_CHECKING:  # pragma: no cover - types only (import cycle guard: the
    # experiments package's modules import repro.api at module scope)
    from repro.experiments.runner import WorkloadArtifacts


class ExecutionBackend:
    """Where (and how) a service's pending simulation points execute."""

    #: CLI name (``--backend <name>``).
    name: str = "base"

    #: Whether one :meth:`execute` call parallelizes *across* per-workload
    #: groups internally.  The scheduler hands such backends every pending
    #: group in a single call (preserving their fan-out) and drives
    #: group-at-a-time rounds through the others (finer-grained progress
    #: events and cancellation boundaries at identical cost).
    multiplexes_groups: bool = False

    def execute(
        self,
        artifacts: Mapping[str, WorkloadArtifacts],
        requests: Sequence[SimulationRequest],
        jobs: int,
    ) -> int:
        """Ensure every request's result is memoized; return points computed."""
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """Grouped per-workload batches in the calling process."""

    name = "serial"

    def execute(self, artifacts, requests, jobs):
        from repro.pipeline.parallel import simulate_points

        return simulate_points(list(artifacts.values()), requests, jobs=1)


class ForkPoolBackend(ExecutionBackend):
    """The fork-based grouped fan-out of :mod:`repro.pipeline.parallel`.

    Falls back to the serial path (bit-identically) when ``jobs <= 1``,
    when only one workload group is pending, or when the platform lacks
    the ``fork`` start method.
    """

    name = "fork"
    multiplexes_groups = True

    def execute(self, artifacts, requests, jobs):
        from repro.pipeline.parallel import simulate_points

        return simulate_points(list(artifacts.values()), requests, jobs=max(jobs, 1))


class SubprocessShardBackend(ExecutionBackend):
    """Self-contained per-workload shard tasks over worker-process pipes.

    The parent resolves memo/disk-cache hits, serializes one
    :class:`ShardTask` per pending workload group — columnar trace bytes,
    pickled trace bundle, JSON requests — and drives up to ``jobs``
    ``python -m repro.api.shard`` workers over stdin/stdout pipes.  Results
    come back pickled, are seeded into the artifact memos, and persisted to
    the disk cache (workers have no cache handle, by design: the wire
    payloads must be sufficient).

    A worker dying mid-task — EOF or a truncated length-prefixed frame —
    surfaces as a typed :class:`ShardWorkerError` naming the worker and the
    pending requests, and its task is requeued onto the surviving workers.
    Only a task that kills every worker it is offered to (or the loss of
    the last live worker) fails the run.
    """

    name = "shard"
    multiplexes_groups = True

    def execute(self, artifacts, requests, jobs):
        pending = self._pending_groups(artifacts, requests)
        if not pending:
            return 0
        outcomes = self._run_workers(artifacts, pending, jobs)
        computed = 0
        for workload, results in outcomes.items():
            artifact = artifacts[workload]
            for request, result in zip(pending[workload], results):
                artifact.persist_simulation(request.key(), result)
                computed += 1
        return computed

    # ------------------------------------------------------------------ #
    # Task construction
    # ------------------------------------------------------------------ #
    @staticmethod
    def _pending_groups(
        artifacts: Mapping[str, WorkloadArtifacts],
        requests: Sequence[SimulationRequest],
    ) -> Dict[str, List[SimulationRequest]]:
        """Per-workload request groups still missing after cache probes."""
        groups: Dict[str, List[SimulationRequest]] = {}
        seen = set()
        for request in requests:
            name = request.workload.name
            if name not in artifacts:
                raise KeyError(f"no prepared artifact for workload {name!r}")
            identity = (name, request.key())
            if identity in seen:
                continue
            seen.add(identity)
            if artifacts[name].cached_simulation(request.key()) is None:
                groups.setdefault(name, []).append(request)
        return groups

    @staticmethod
    def _build_task(
        artifact: WorkloadArtifacts, group: Sequence[SimulationRequest]
    ) -> ShardTask:
        return ShardTask(
            workload=artifact.name,
            program_name=artifact.kernel.program.name,
            request_payloads=tuple(request.to_json() for request in group),
            trace_bytes=artifact.lowered_trace().to_bytes(),
            bundle_bytes=pickle.dumps(artifact.bundle, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # ------------------------------------------------------------------ #
    # Worker management
    # ------------------------------------------------------------------ #
    @staticmethod
    def _worker_command() -> List[str]:
        # Equivalent to ``python -m repro.api.shard`` but avoids runpy's
        # double-import warning (the package __init__ already imports shard).
        return [
            sys.executable,
            "-c",
            "import sys; from repro.api.shard import main; sys.exit(main())",
        ]

    @staticmethod
    def _worker_env(cache_root: Optional[str] = None) -> Dict[str, str]:
        """The parent's environment with ``repro``'s source tree importable
        and, given the service's cache root, the workers' compiled native
        kernels kept under it (without one, under no directory at all)."""
        import repro
        from repro.pipeline.artifacts import CACHE_DIR_ENV

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        parts = [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        env["PYTHONPATH"] = os.pathsep.join(parts)
        if cache_root:
            env[CACHE_DIR_ENV] = cache_root
        else:
            env.pop(CACHE_DIR_ENV, None)
        return env

    def _run_workers(
        self,
        artifacts: Mapping[str, "WorkloadArtifacts"],
        pending: Dict[str, List[SimulationRequest]],
        jobs: int,
    ) -> Dict[str, List["SimulationResult"]]:  # noqa: F821
        """Drive up to ``jobs`` worker processes off one shared task queue.

        Dispatch is dynamic — each worker pulls the next pending task as
        soon as it answers the previous one — so a skewed group (one
        workload carrying most of the points) cannot strand the other
        workers idle the way a static partition would.  Each task's wire
        payload is built when a worker pulls it, so peak parent memory is
        ~``jobs`` frames rather than the whole suite's.

        A worker dying mid-task raises :class:`ShardWorkerError` inside its
        driver thread; the task is requeued for the surviving workers
        (idle drivers wait while any task is still in flight, so a
        requeued task is always picked up).  The run fails only when a
        task has killed as many workers as the pool started with, or when
        the last live worker dies with work outstanding.
        """
        workers = max(1, min(jobs, len(pending)))
        cache = artifacts[next(iter(pending))].cache
        worker_env = self._worker_env(cache.root if cache is not None else None)
        queue: List[str] = list(pending)
        failures: Dict[str, int] = {}
        outcomes: Dict[str, List] = {}
        errors: List[BaseException] = []
        lock = threading.Lock()
        work = threading.Condition(lock)
        inflight = [0]
        alive = [workers]

        def next_name() -> Optional[str]:
            with work:
                while True:
                    if errors:
                        return None
                    if queue:
                        inflight[0] += 1
                        return queue.pop(0)
                    if inflight[0] == 0:
                        return None
                    # Another driver may yet die and requeue its task;
                    # stay available instead of exiting early.
                    work.wait()

        def task_done(name: str, results: List) -> None:
            with work:
                outcomes[name] = results
                inflight[0] -= 1
                work.notify_all()

        def task_failed(name: str, error: ShardWorkerError) -> None:
            with work:
                inflight[0] -= 1
                failures[name] = failures.get(name, 0) + 1
                if failures[name] >= workers:
                    # The task killed every worker the pool ever had:
                    # requeueing again can only repeat the carnage.
                    errors.append(error)
                else:
                    queue.append(name)
                work.notify_all()

        def drive(worker_id: str) -> None:
            process = subprocess.Popen(
                self._worker_command(),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=worker_env,
            )
            current: Optional[str] = None
            try:
                while True:
                    current = next_name()
                    if current is None:
                        break
                    task = self._build_task(artifacts[current], pending[current])
                    try:
                        write_frame(process.stdin, task.to_bytes())
                        payload = read_frame(process.stdout)
                    except (BrokenPipeError, EOFError, OSError) as exc:
                        raise ShardWorkerError(
                            worker_id,
                            current,
                            tuple(pending[current]),
                            f"died mid-frame ({exc})",
                        ) from exc
                    if payload is None:
                        raise ShardWorkerError(
                            worker_id,
                            current,
                            tuple(pending[current]),
                            f"exited mid-task (code {process.poll()})",
                        )
                    task_done(current, pickle.loads(payload))
                    current = None
                process.stdin.close()
                if process.wait() != 0:
                    raise RuntimeError(
                        f"shard worker {worker_id} exited with code {process.returncode}"
                    )
            except ShardWorkerError as exc:
                process.kill()
                process.wait()
                if current is not None:
                    task_failed(current, exc)
            except BaseException as exc:  # noqa: BLE001 - reraised in the parent
                process.kill()
                process.wait()
                with work:
                    if current is not None:
                        inflight[0] -= 1
                    errors.append(exc)
                    work.notify_all()
            finally:
                for stream in (process.stdin, process.stdout):
                    if stream and not stream.closed:
                        stream.close()
                with work:
                    alive[0] -= 1
                    if alive[0] == 0 and queue and not errors:
                        # The pool is gone with tasks still queued: surface
                        # the loss instead of returning a partial answer.
                        leftover = queue[0]
                        errors.append(
                            ShardWorkerError(
                                worker_id,
                                leftover,
                                tuple(pending[leftover]),
                                "was the last live worker",
                            )
                        )
                    work.notify_all()

        threads = [
            threading.Thread(target=drive, args=(f"pipe-{i + 1}",), daemon=True)
            for i in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return outcomes


#: CLI backend name → factory.
BACKENDS = {
    backend.name: backend
    for backend in (SerialBackend, ForkPoolBackend, SubprocessShardBackend)
}


def make_backend(
    name: Optional[str],
    connect: Optional[str] = None,
    listener: Optional[object] = None,
) -> ExecutionBackend:
    """Instantiate a backend by CLI name (default: the fork fan-out).

    ``remote`` — the HTTP client of a running ``repro serve`` — needs
    ``connect`` (``host:port`` or ``http://host:port``) and accepts an
    optional ``listener`` forwarded the server's job events (the CLI's
    progress line).
    """
    if name is None:
        return ForkPoolBackend()
    if name == "remote":
        if not connect:
            raise KeyError(
                "the remote backend needs a server address (--connect host:port)"
            )
        from repro.api.remote import RemoteBackend

        return RemoteBackend(connect, listener=listener)
    try:
        return BACKENDS[name]()
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {sorted(BACKENDS) + ['remote']}"
        ) from None
