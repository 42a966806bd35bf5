""":class:`SimulationService` — the one front door for simulation requests.

The service owns everything between a request and the batch engine: the
default workload set, the artifact cache, the worker budget and the
prepared :class:`~repro.experiments.runner.WorkloadArtifacts` (registry
and non-registry workloads alike, prepared in one fan-out and keyed by
name).  Callers hand it :class:`~repro.api.request.SimulationRequest`
iterables or :class:`~repro.api.matrix.ScenarioMatrix` declarations, pick
an :class:`~repro.api.backends.ExecutionBackend`, and receive a typed
:class:`~repro.api.results.ResultSet`; the serial and fork backends hand
those same requests to :func:`~repro.pipeline.parallel.simulate_points`.
The artifact cache is always there (memory-only without a disk root) and
is the one memo of simulation results: the scheduler probes it and
persists into it.  Experiments never touch points, memos, or pools
directly — they run against an :class:`ExperimentContext` whose
:meth:`~ExperimentContext.run` dispatches through the service (and is a
pure cache lookup for anything the CLI already prefetched).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Union

from repro.api.backends import ExecutionBackend, make_backend
from repro.api.jobs import JobHandle
from repro.api.matrix import ScenarioMatrix, expand_many
from repro.api.request import SimulationRequest, WorkloadRef
from repro.api.results import ResultSet

if TYPE_CHECKING:  # pragma: no cover - types only.  The pipeline and runner
    # modules import the experiments package, whose modules import repro.api
    # at module scope; runtime imports below are deferred to break the cycle.
    from repro.api.journal import JobJournal
    from repro.api.scheduler import Scheduler
    from repro.experiments.runner import WorkloadArtifacts
    from repro.pipeline.artifacts import ArtifactCache

#: What :meth:`SimulationService.run` accepts.
RequestsLike = Union[
    ScenarioMatrix,
    SimulationRequest,
    Iterable[Union[ScenarioMatrix, SimulationRequest]],
]


class SimulationService:
    """Prepare on demand, execute through a backend, answer with a ResultSet.

    ``names`` is the default workload set (the full registry when ``None``)
    that open-axis matrices expand over; it is fixed here, so requests
    naming other workloads prepare them without changing it.  Within one
    service each workload's execution and Algorithm 2 tracing happen at
    most once, and at most once *ever* with a disk ``cache`` attached;
    without one (``cache=None``) the service holds a memory-only cache.
    """

    def __init__(
        self,
        *,
        names: Optional[Sequence[str]] = None,
        cache: Optional[ArtifactCache] = None,
        jobs: int = 1,
        backend: Optional[Union[str, ExecutionBackend]] = None,
        journal: Optional["JobJournal"] = None,
    ) -> None:
        from repro.crypto.workloads import workload_names
        from repro.pipeline.artifacts import ArtifactCache
        from repro.pipeline.parallel import default_jobs

        self.names = tuple(names) if names is not None else tuple(workload_names())
        self.cache = cache if cache is not None else ArtifactCache(root=None)
        self.jobs = jobs if jobs > 0 else default_jobs()
        self.backend = (
            backend if isinstance(backend, ExecutionBackend) else make_backend(backend)
        )
        #: Optional write-ahead journal the scheduler records jobs into.
        self.journal = journal
        #: Prepared artifacts of every workload any caller named, by name.
        self._artifacts: Dict[str, WorkloadArtifacts] = {}
        #: Wall-clock seconds spent preparing so far.
        self.prepare_seconds: float = 0.0
        #: Simulation points the backend returned (not cache hits).  With
        #: the remote backend this includes points the server answered
        #: from its own cache.
        self.points_simulated: int = 0
        self._scheduler: Optional[Scheduler] = None
        self._scheduler_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def workloads(self) -> List[str]:
        """The registry workload names requests expand over by default."""
        return list(self.names)

    def stats(self) -> Dict[str, object]:
        from repro.engine import native
        from repro.engine.kernels import engine_tier

        report: Dict[str, object] = {
            "workloads": len(self.names),
            "prepared": len(self._artifacts),
            "prepare_seconds": round(self.prepare_seconds, 3),
            "points_simulated": self.points_simulated,
            "jobs": self.jobs,
        }
        on_disk = self.cache.root is not None
        if on_disk:
            report["cache_dir"] = self.cache.root
            report.update(self.cache.stats.as_dict())
        report["backend"] = self.backend.name
        report["engine_tier"] = engine_tier()
        # Only a probe already made: stats() must not start a C compiler.
        report["native_compiler"] = native.probed_compiler()
        # The structured artifact-cache counters (hits, misses, stores,
        # memo hits, quarantined corrupt entries), present even when the
        # disk cache is off so operators can tell "no cache" from "no
        # quarantines".
        report["artifact_cache"] = self.cache.stats.as_dict() if on_disk else None
        # Read the field, not the lazy property: stats() must never be the
        # thing that spins a scheduler (and its dispatcher thread) up.
        if self._scheduler is not None:
            report["scheduler"] = self._scheduler.stats()
        return report

    # ------------------------------------------------------------------ #
    # Artifacts
    # ------------------------------------------------------------------ #
    def artifacts(self) -> List[WorkloadArtifacts]:
        """The default workload set's artifacts, preparing the missing ones."""
        refs = [WorkloadRef.registry(name) for name in self.names]
        by_name = self._artifacts_for_refs(refs)
        return [by_name[name] for name in self.names]

    def artifact(self, ref: Union[WorkloadRef, str]) -> WorkloadArtifacts:
        """One workload's artifacts (registry name or any :class:`WorkloadRef`).

        A bare name finds any workload already prepared under it and
        otherwise names a registry workload.
        """
        if isinstance(ref, str):
            if ref in self._artifacts:
                return self._artifacts[ref]
            ref = WorkloadRef.registry(ref)
        return self._artifacts_for_refs([ref])[ref.name]

    def _artifacts_for_refs(
        self, refs: Sequence[WorkloadRef]
    ) -> Dict[str, WorkloadArtifacts]:
        """Artifacts for ``refs``, by name, preparing only the missing ones.

        Registry and non-registry refs (the Figure 8 synthetic kernels)
        prepare in one fan-out over the worker budget and the artifact
        cache, then stay memoized on the service.
        """
        missing: Dict[str, WorkloadRef] = {}
        for ref in refs:
            if ref.name not in self._artifacts:
                missing.setdefault(ref.name, ref)
        if missing:
            from repro.pipeline.parallel import prepare_kernels_parallel

            start = time.perf_counter()
            prepared = prepare_kernels_parallel(
                list(missing.values()), cache=self.cache, jobs=self.jobs
            )
            for artifact in prepared:
                self._artifacts[artifact.name] = artifact
            self.prepare_seconds += time.perf_counter() - start
        return {ref.name: self._artifacts[ref.name] for ref in refs}

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def expand(self, what: RequestsLike) -> List[SimulationRequest]:
        """The set-ordered unique request list ``what`` denotes.

        Matrices with an open workload axis expand over the service's
        configured workload set; duplicate requests — within one matrix or
        across several — collapse to their first occurrence.
        """
        if isinstance(what, (ScenarioMatrix, SimulationRequest)):
            what = [what]
        return expand_many(what, default_workloads=self.names)

    @property
    def scheduler(self) -> "Scheduler":
        """The service's job scheduler (created on first use).

        All execution — including the synchronous :meth:`run` — goes
        through it, so every caller shares one priority queue and one
        event stream, and jobs run one at a time.
        """
        with self._scheduler_lock:
            if self._scheduler is None:
                from repro.api.scheduler import Scheduler

                self._scheduler = Scheduler(self, journal=self.journal)
            return self._scheduler

    def submit(
        self, what: RequestsLike, priority: int = 0, tags: Sequence[str] = ()
    ) -> JobHandle:
        """Submit ``what`` as a job; returns immediately with a handle.

        The handle streams typed :class:`~repro.api.jobs.JobEvent`\\ s
        (``handle.events()``) and answers with the job's
        :class:`ResultSet` (``handle.result()``); ``handle.cancel()``
        stops it.  A request an earlier job computed is a cache hit.
        """
        return self.scheduler.submit(what, priority=priority, tags=tags)

    def run(self, what: RequestsLike) -> ResultSet:
        """Expand, prepare, execute through the backend, and answer.

        The synchronous convenience over :meth:`submit`:
        ``submit(what).result()``.  Already-cached points (in memory or
        on disk) cost a lookup; the rest are grouped per workload and
        dispatched to the configured backend.  The returned
        :class:`ResultSet` follows the expanded request order.
        """
        return self.submit(what).result()

    def close(self) -> None:
        """Shut the scheduler down (queued jobs are cancelled)."""
        with self._scheduler_lock:
            scheduler, self._scheduler = self._scheduler, None
        if scheduler is not None:
            scheduler.close()

    def __enter__(self) -> "SimulationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def context(self) -> "ExperimentContext":
        """The uniform context object experiments run against."""
        return ExperimentContext(self)


class ExperimentContext:
    """What an experiment's ``run(ctx)`` receives: one object, whole API.

    Wraps a service with accumulated results: every :meth:`run` call merges
    its answer into :attr:`results`, so an experiment (or the CLI's
    prefetch) can consult everything simulated so far without re-querying.
    """

    def __init__(self, service: SimulationService) -> None:
        self.service = service
        self.results = ResultSet()
        #: Default tag for jobs submitted through :meth:`run` — the CLI sets
        #: it to the running experiment's name so job events (and hence the
        #: progress line) say *which* experiment is simulating.
        self.tag: Optional[str] = None

    @property
    def workloads(self) -> List[str]:
        return self.service.workloads

    @property
    def jobs(self) -> int:
        return self.service.jobs

    def artifacts(self) -> List[WorkloadArtifacts]:
        return self.service.artifacts()

    def artifact(self, ref: Union[WorkloadRef, str]) -> WorkloadArtifacts:
        return self.service.artifact(ref)

    def run(
        self,
        what: RequestsLike,
        priority: int = 0,
        tags: Sequence[str] = (),
    ) -> ResultSet:
        """Dispatch through the service; cache hits are effectively free.

        Each call is one scheduler job, so its progress is observable as
        events (tagged with :attr:`tag` unless ``tags`` is given).
        """
        if not tags and self.tag:
            tags = (self.tag,)
        answer = self.service.submit(what, priority=priority, tags=tags).result()
        self.results = self.results.merged(answer)
        return answer


def build_service(
    workloads: Optional[str] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    jobs: int = 0,
    backend: Optional[Union[str, ExecutionBackend]] = None,
    journal: Optional["JobJournal"] = None,
) -> SimulationService:
    """Construct a service from CLI-style options (the CLI's front door).

    ``workloads`` is a selector for
    :func:`~repro.crypto.workloads.resolve_workload_names`; an unknown or
    empty selection raises :class:`KeyError`.
    """
    from repro.crypto.workloads import resolve_workload_names
    from repro.pipeline.artifacts import ArtifactCache, default_cache_dir

    root = (cache_dir or default_cache_dir()) if use_cache else None
    return SimulationService(
        names=resolve_workload_names(workloads),
        cache=ArtifactCache(root=root),
        jobs=jobs,
        backend=backend,
        journal=journal,
    )


def default_context(
    ctx: Optional[ExperimentContext] = None,
    names: Optional[Sequence[str]] = None,
    jobs: int = 1,
    backend: Optional[Union[str, ExecutionBackend]] = None,
) -> ExperimentContext:
    """``ctx`` itself, or a fresh uncached context over ``names``.

    The standalone path for ``run_<experiment>()`` calls and
    ``python -m repro.experiments.<module>`` invocations: a memory-only
    cache and serial-by-default preparation.
    """
    if ctx is not None:
        return ctx
    service = SimulationService(names=list(names) if names else None, jobs=jobs, backend=backend)
    return service.context()
