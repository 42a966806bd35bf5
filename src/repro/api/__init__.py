"""``repro.api`` — the declarative request surface over the whole stack.

Everything the paper's evaluation does is one sentence in this vocabulary:
*declare* the scenario cross-product, *run* it through a service, *query*
the typed results.  The same request objects drive the in-process serial
path, the fork fan-out, the subprocess shard backend, and the HTTP client
of ``repro serve``.

A worked example — Cassandra vs the unsafe baseline on two workloads, with
the interrupt study's BTU-flush override riding along::

    from repro.api import ScenarioMatrix, SimulationService

    service = SimulationService(names=["ChaCha20_ct", "SHA-256"], jobs=4)
    matrix = ScenarioMatrix(
        designs=("unsafe-baseline", "cassandra"),
    ).extended(
        ScenarioMatrix(designs=("cassandra",), flush_intervals=(2_000,))
    )
    results = service.run(matrix)

    for workload, group in results.group_by("workload").items():
        slowdown = group.normalized_time("cassandra", btu_flush_interval=None)
        flushed = group.cycles(design="cassandra", btu_flush_interval=2_000)
        print(workload, slowdown, flushed)
    print(results.geomean_normalized_time("cassandra", btu_flush_interval=None))

The pieces:

* :class:`SimulationRequest` / :class:`WorkloadRef` — one frozen, hashable,
  JSON-round-trippable simulation point (workload × design ×
  :class:`CoreConfig` × BTU-flush × warm-up).
* :class:`ScenarioMatrix` — declarative cross-products with axis overrides,
  expanding to set-ordered unique request lists.
* :class:`SimulationService` — owns the default workload set, the artifact
  cache, the worker budget and the prepared artifacts: prepares on demand,
  dispatches requests to a backend, answers with a :class:`ResultSet`.
* :class:`ExecutionBackend` — :class:`SerialBackend`,
  :class:`ForkPoolBackend`, :class:`SubprocessShardBackend`; all
  bit-identical, selectable via ``python -m repro --backend``.
* :class:`ResultSet` — query / group-by / normalized-time / geomean /
  export over (request, result) pairs, with a lossless
  :meth:`~ResultSet.to_wire`/:meth:`~ResultSet.from_wire` round trip.
* :class:`ExperimentContext` — the uniform object every registered
  experiment's ``run(ctx)`` receives.

Since the job redesign, ``service.run`` is a thin synchronous convenience
over job submission: ``service.submit(matrix, priority=5)`` answers
immediately with a :class:`JobHandle` streaming typed :class:`JobEvent`\\ s
(``queued`` / ``prepared`` / ``point-started`` / ``point-done`` /
``cache-hit`` / terminal), and the :class:`~repro.api.scheduler.Scheduler`
runs such jobs one at a time, in priority order, over the one shared
backend and artifact cache (a point an earlier job computed is a memo
hit).  One
server, :class:`~repro.api.gateway.http.GatewayServer`, exposes a service
over HTTP + Server-Sent Events: open as ``repro serve``, keyed as
``repro gateway``.  Its client lives in :mod:`repro.api.remote`:
:class:`RemoteServiceClient`/:class:`RemoteBackend`.
"""

from repro.api.backends import (
    BACKENDS,
    ExecutionBackend,
    ForkPoolBackend,
    SerialBackend,
    SubprocessShardBackend,
    make_backend,
)
from repro.api.jobs import JobCancelled, JobEvent, JobHandle
from repro.api.journal import JobJournal, RecoveredJob, resume_jobs
from repro.api.matrix import EMPTY_MATRIX, ScenarioMatrix, expand_many
from repro.api.request import (
    REQUEST_FORMAT_VERSION,
    SimulationRequest,
    WorkloadRef,
)
from repro.api.results import ResultSet
from repro.api.retry import RetryError, RetryPolicy
from repro.api.scheduler import Scheduler
from repro.api.service import (
    ExperimentContext,
    SimulationService,
    build_service,
    default_context,
)
from repro.api.shard import ShardWorkerError

__all__ = [
    "BACKENDS",
    "EMPTY_MATRIX",
    "ExecutionBackend",
    "ExperimentContext",
    "ForkPoolBackend",
    "JobCancelled",
    "JobEvent",
    "JobHandle",
    "JobJournal",
    "REQUEST_FORMAT_VERSION",
    "RecoveredJob",
    "ResultSet",
    "RetryError",
    "RetryPolicy",
    "ScenarioMatrix",
    "Scheduler",
    "SerialBackend",
    "ShardWorkerError",
    "SimulationRequest",
    "SimulationService",
    "SubprocessShardBackend",
    "WorkloadRef",
    "build_service",
    "default_context",
    "expand_many",
    "make_backend",
    "resume_jobs",
]
