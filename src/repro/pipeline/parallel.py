"""Multiprocessing fan-out for workload preparation and simulation points.

Two axes parallelize independently:

* **Preparation** — each workload's sequential execution + trace generation
  is pure and isolated, so workers compute ``(ExecutionResult, TraceBundle)``
  payloads, lower the run they executed, and ship back the record-free
  result, the bundle and the preserialized lowered trace (the
  ``KernelProgram`` itself holds unpicklable verify closures and is rebuilt
  in the parent, which is cheap).  ``DynamicInstruction`` records never
  leave the worker that executed the kernel.
  Preparation covers both the 22-workload registry *and* non-registry
  kernels described by a :class:`KernelSpec` — e.g. the Figure 8 synthetic
  (primitive, mix) grid — so workers build the kernel from its spec instead
  of the parent serializing an unpicklable program object.
* **Simulation** — every (workload × design × config × flush × warmup) point
  is independent.  Workers are forked *after* the parent has prepared the
  artifacts, so they inherit the prepared state by copy-on-write; the parent
  additionally publishes each workload's columnar trace (lowered once) as
  preserialized bytes (:meth:`LoweredTrace.to_bytes`), so workers
  materialize the columns with one C-level unpickle instead of re-walking
  the per-instruction object stream, and only the small task tuples and
  ``SimulationResult`` payloads cross process boundaries.

Both paths fall back to serial execution when ``jobs <= 1``, when there is
only one task, or when the platform lacks the ``fork`` start method — results
are bit-identical either way, which ``tests/pipeline`` asserts.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.tracegen import TraceParameters
from repro.crypto.workloads import workload_names
from repro.engine.lowering import LoweredTrace
from repro.experiments.runner import (
    DesignPoint,
    SimulationKey,
    WorkloadArtifacts,
    artifacts_for_kernel,
    lowered_trace_digest,
    prepare_workload,
    simulation_key,
)
from repro.pipeline.artifacts import ArtifactCache
from repro.pipeline.hashing import (
    code_fingerprint,
    inputs_fingerprint,
    program_fingerprint,
    stable_digest,
)
from repro.uarch.config import CoreConfig, GOLDEN_COVE_LIKE
from repro.uarch.core import SimulationResult


def default_jobs() -> int:
    """A sensible worker count: the CPU count, capped to keep fork cheap."""
    return max(1, min(os.cpu_count() or 1, 8))


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def workload_artifact_digest(kernel, params: TraceParameters) -> str:
    """The content digest a prepared workload is cached under.

    Covers the program content, the confidential-input set, the trace
    parameters, and the ``repro`` source tree itself — a code edit is a
    cache miss, never a stale hit.  Simulation digests derive from this one,
    so they inherit the same invalidation.
    """
    return stable_digest(
        program_fingerprint(kernel.program),
        inputs_fingerprint(kernel.inputs),
        params.identity(),
        code_fingerprint(),
    )


# --------------------------------------------------------------------------- #
# Parallel preparation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelSpec:
    """A picklable description of how to (re)build one kernel program.

    ``KernelProgram`` objects hold unpicklable verify closures, so the
    parallel preparation ships *specs* instead: each worker rebuilds the
    kernel from the spec (cheap), then runs the expensive execution +
    Algorithm 2 tracing.  ``kind`` selects a builder from
    :data:`KERNEL_BUILDERS`; ``args`` are its positional arguments.

    * ``KernelSpec("registry", "SHA-256")`` — a registry workload;
    * ``KernelSpec("synthetic", "synthetic-chacha20-90s/10c",
      args=("chacha20", "90s/10c"))`` — a Figure 8 (primitive, mix) point.
    """

    kind: str
    name: str
    args: Tuple = ()
    suite: str = ""

    def build(self):
        try:
            builder = KERNEL_BUILDERS[self.kind]
        except KeyError:
            raise KeyError(
                f"unknown kernel spec kind {self.kind!r}; "
                f"known: {sorted(KERNEL_BUILDERS)}"
            ) from None
        return builder(self)


def _build_registry_kernel(spec: KernelSpec):
    from repro.crypto.workloads import get_workload

    return get_workload(spec.name).kernel()


def _build_synthetic_kernel(spec: KernelSpec):
    from repro.crypto.synthetic import build_synthetic

    return build_synthetic(*spec.args)


KERNEL_BUILDERS: Dict[str, Callable[[KernelSpec], object]] = {
    "registry": _build_registry_kernel,
    "synthetic": _build_synthetic_kernel,
}


def _prepare_kernel_task(task: Tuple[KernelSpec, Optional[str], TraceParameters]):
    """Prepare one spec; returns ``(name, record-free result, bundle, trace bytes)``.

    A worker that executed the kernel also lowers that run (persisting the
    ``lowered-trace`` entry when the cache is disk-backed), so the parent
    never lowers; on a ``workload-artifacts`` hit there is no run to lower
    and the trace bytes are ``None`` — the parent loads the entry only if a
    point misses.
    """
    spec, cache_root, params = task
    cache = ArtifactCache(root=cache_root) if cache_root else None
    artifact = _prepare_from_spec(spec, cache=cache, params=params)
    result = artifact.result
    trace_bytes = artifact.lowered_trace().to_bytes() if result.has_records else None
    return spec.name, result.without_records(), artifact.bundle, trace_bytes


def _prepare_from_spec(
    spec: KernelSpec,
    cache: Optional[ArtifactCache],
    params: TraceParameters,
) -> WorkloadArtifacts:
    """Build + execute + trace one spec through the shared cache path."""
    if spec.kind == "registry":
        return prepare_workload(spec.name, cache=cache, trace_params=params)
    return artifacts_for_kernel(
        spec.build(),
        suite=spec.suite or spec.kind,
        name=spec.name,
        cache=cache,
        trace_params=params,
    )


def prepare_kernels_parallel(
    specs: Sequence[KernelSpec],
    cache: Optional[ArtifactCache] = None,
    jobs: int = 0,
    trace_params: Optional[TraceParameters] = None,
) -> List[WorkloadArtifacts]:
    """Prepare arbitrary kernel specs across worker processes.

    Workers build each kernel from its spec, run the sequential execution,
    Algorithm 2 tracing and the lowering, warm the shared disk cache (when
    one is configured), and return record-free ``(result, bundle)`` payloads
    plus the lowered traces; the parent seeds its own cache with both and
    assembles the final :class:`WorkloadArtifacts` — including the
    per-workload correctness check — through the exact same serial code
    path, without unpickling a record or lowering a trace.
    """
    specs = list(specs)
    by_name = {spec.name: spec for spec in specs}
    if len(by_name) != len(specs):
        # Worker payloads come back keyed by name; a duplicate would seed
        # one spec's artifacts under another spec's digest without error.
        raise ValueError("kernel specs must have unique names")
    params = trace_params or TraceParameters()
    jobs = jobs or default_jobs()
    context = _fork_context()
    if jobs <= 1 or len(specs) <= 1 or context is None:
        return [_prepare_from_spec(spec, cache=cache, params=params) for spec in specs]

    cache_root = cache.root if cache is not None else None
    tasks = [(spec, cache_root, params) for spec in specs]
    with context.Pool(processes=min(jobs, len(tasks))) as pool:
        payloads = pool.map(_prepare_kernel_task, tasks, chunksize=1)

    # Seed the parent's in-memory memo so assembly below never recomputes;
    # workers already persisted the payloads when the cache is disk-backed,
    # so a second disk write here would be pure waste.
    parent_cache = cache if cache is not None else ArtifactCache(root=None)
    for name, result, bundle, trace_bytes in payloads:
        kernel = by_name[name].build()
        digest = workload_artifact_digest(kernel, params)
        parent_cache.memoize("workload-artifacts", name, digest, (result, bundle))
        if trace_bytes is not None:
            trace = LoweredTrace.from_bytes(trace_bytes)
            parent_cache.memoize("lowered-trace", name, lowered_trace_digest(digest), trace)
    return [
        _prepare_from_spec(spec, cache=parent_cache, params=params) for spec in specs
    ]


def prepare_workloads_parallel(
    names: Optional[Sequence[str]] = None,
    cache: Optional[ArtifactCache] = None,
    jobs: int = 0,
    trace_params: Optional[TraceParameters] = None,
) -> List[WorkloadArtifacts]:
    """Prepare registry workloads across worker processes.

    A thin wrapper over :func:`prepare_kernels_parallel` with
    ``registry``-kind specs, kept for the existing call sites.
    """
    chosen = list(names) if names is not None else workload_names()
    return prepare_kernels_parallel(
        [KernelSpec(kind="registry", name=name) for name in chosen],
        cache=cache,
        jobs=jobs,
        trace_params=trace_params,
    )


# --------------------------------------------------------------------------- #
# Parallel simulation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SimulationPoint(DesignPoint):
    """One (workload × design × config × flush × warmup) simulation task.

    Extends the workload-agnostic :class:`~repro.experiments.runner.DesignPoint`
    (whose fields and :meth:`~repro.experiments.runner.DesignPoint.key` it
    inherits) with the workload it belongs to.  ``workload`` is
    keyword-only in practice: it defaults only so the inherited defaulted
    fields can precede it, and an empty workload is rejected.
    """

    workload: str = ""

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("SimulationPoint requires a workload name")


#: Artifacts visible to forked simulation workers (set only around the pool).
_FORK_ARTIFACTS: Dict[str, WorkloadArtifacts] = {}

#: One worker task: every pending point of one workload — so the worker's
#: ``simulate_batch`` shares one lowering across them all (and warm-up state
#: within each config) — plus the workload's columnar trace preserialized by
#: the parent.  Shipping the lowered columns as bytes means a worker's batch
#: starts from one C-level unpickle instead of re-lowering the
#: ``DynamicInstruction`` object stream per worker.  The fully
#: self-contained version of this payload shape — no fork inheritance at
#: all — is :class:`repro.api.shard.ShardTask`, which the subprocess shard
#: backend ships over pipes and the multi-host direction will ship over
#: sockets.
_BatchTask = Tuple[str, Tuple[SimulationPoint, ...], bytes]


def _simulate_batch_task(task: _BatchTask) -> Tuple[str, List[Tuple[SimulationKey, SimulationResult]]]:
    name, points, trace_payload = task
    artifact = _FORK_ARTIFACTS[name]
    artifact.result._lowered_trace = LoweredTrace.from_bytes(trace_payload)  # type: ignore[attr-defined]
    results = _run_batch(artifact, points)
    return name, results


def _run_batch(
    artifact: WorkloadArtifacts, points: Sequence[SimulationPoint]
) -> List[Tuple[SimulationKey, SimulationResult]]:
    """The batch body both execution modes share."""
    return list(artifact.simulate_batch(points).items())


def _group_tasks(
    groups: Dict[str, List[SimulationPoint]],
    by_name: Dict[str, WorkloadArtifacts],
) -> List[_BatchTask]:
    """Worker tasks from per-workload groups: one lowering per task.

    The engine's ``simulate_batch`` keys its warm-state builders by config
    internally, so a single per-workload task still shares warm-up within
    each config while computing the (config-independent) lowering once —
    in the parent, whose preserialized columns every worker reuses.
    """
    return [
        (
            workload,
            tuple(points),
            by_name[workload].lowered_trace().to_bytes(),
        )
        for workload, points in groups.items()
    ]


def simulate_points(
    artifacts: Sequence[WorkloadArtifacts],
    points: Iterable[SimulationPoint],
    jobs: int = 0,
) -> int:
    """Run simulation points, seeding each artifact's in-memory memo.

    Points already present in a memo are skipped.  Returns the number of
    points actually simulated.  Pending points are grouped by workload and
    each group runs through :meth:`WorkloadArtifacts.simulate_batch`, so
    the columnar lowering is computed once per group and the warm-up
    component snapshots are shared across every design and flush-interval
    within each config.  With ``jobs > 1`` the groups fan out over
    forked workers that inherit the prepared artifacts read-only; the
    resulting ``SimulationResult``s are stored back on the parent's
    artifacts, so subsequent :meth:`WorkloadArtifacts.simulate` calls are
    memo hits regardless of which mode computed them.
    """
    by_name = {artifact.name: artifact for artifact in artifacts}
    pending: List[SimulationPoint] = []
    seen = set()
    for point in points:
        if point.workload not in by_name:
            raise KeyError(f"no prepared artifact for workload {point.workload!r}")
        identity = (point.workload, point.key())
        if identity in seen or point.key() in by_name[point.workload].simulations:
            continue
        seen.add(identity)
        pending.append(point)
    if not pending:
        return 0

    jobs = jobs or default_jobs()
    context = _fork_context()
    groups: Dict[str, List[SimulationPoint]] = {}
    for point in pending:
        groups.setdefault(point.workload, []).append(point)
    if jobs <= 1 or len(groups) <= 1 or context is None:
        for name, group in groups.items():
            for key, result in _run_batch(by_name[name], group):
                by_name[name].store_simulation(key, result)
        return len(pending)

    tasks = _group_tasks(groups, by_name)
    global _FORK_ARTIFACTS
    _FORK_ARTIFACTS = dict(by_name)
    try:
        with context.Pool(processes=min(jobs, len(tasks))) as pool:
            outcomes = pool.map(_simulate_batch_task, tasks, chunksize=1)
    finally:
        _FORK_ARTIFACTS = {}
    for name, results in outcomes:
        for key, result in results:
            by_name[name].store_simulation(key, result)
    return len(pending)
