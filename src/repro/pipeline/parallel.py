"""Multiprocessing fan-out for workload preparation and simulation points.

Two axes parallelize independently:

* **Preparation** — each workload's sequential execution + trace generation
  is pure and isolated, so workers compute ``(ExecutionResult, TraceBundle)``
  payloads and ship back the record-free result, the bundle and the
  preserialized lowered trace their recording run produced (the
  ``KernelProgram`` itself holds unpicklable verify closures and is rebuilt
  in the parent, which is cheap).  No ``DynamicInstruction`` record is
  built on this path.
  Preparation covers both the 22-workload registry *and* non-registry
  kernels named by a :class:`~repro.api.request.WorkloadRef` — e.g. the
  Figure 8 synthetic (primitive, mix) grid — so workers build the kernel
  from its ref instead of the parent serializing an unpicklable program
  object.
* **Simulation** — every (workload × design × config × flush × warmup) point
  is independent.  The parent loads each pending workload's lowered trace
  onto its artifacts and *then* forks the workers, so they inherit the
  prepared state — traces included — by copy-on-write; only the small task
  tuples and ``SimulationResult`` payloads cross process boundaries.
  Workers only compute: the caller persists what they return.

Both paths fall back to serial execution when ``jobs <= 1``, when there is
only one task, or when the platform lacks the ``fork`` start method — results
are bit-identical either way, which ``tests/pipeline`` asserts.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.tracegen import TraceParameters
from repro.engine.lowering import LoweredTrace
from repro.experiments.runner import (
    WorkloadArtifacts,
    artifacts_for_kernel,
    lowered_trace_digest,
    prepare_workload,
)
from repro.pipeline.artifacts import ArtifactCache
from repro.pipeline.hashing import (
    code_fingerprint,
    inputs_fingerprint,
    program_fingerprint,
    stable_digest,
)
from repro.uarch.core import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.request import SimulationRequest, WorkloadRef


def default_jobs() -> int:
    """A sensible worker count: the CPU count, capped to keep fork cheap."""
    return max(1, min(os.cpu_count() or 1, 8))


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def workload_artifact_digest(kernel) -> str:
    """The content digest a prepared workload is cached under.

    Covers the program content, the confidential-input set, Algorithm 2's
    (default) trace parameters, and the ``repro`` source tree itself — a
    code edit is a cache miss, never a stale hit.  Simulation digests derive from this one,
    so they inherit the same invalidation.
    """
    return stable_digest(
        program_fingerprint(kernel.program),
        inputs_fingerprint(kernel.inputs),
        TraceParameters().identity(),
        code_fingerprint(),
    )


# --------------------------------------------------------------------------- #
# Parallel preparation
# --------------------------------------------------------------------------- #
def _build_registry_kernel(ref: "WorkloadRef"):
    from repro.crypto.workloads import get_workload

    return get_workload(ref.name).kernel()


def _build_synthetic_kernel(ref: "WorkloadRef"):
    from repro.crypto.synthetic import build_synthetic

    return build_synthetic(*ref.args)


#: ``WorkloadRef.kind`` → kernel builder.  ``KernelProgram`` objects hold
#: unpicklable verify closures, so parallel preparation ships refs and each
#: worker rebuilds its kernel (cheap) before the expensive execution and
#: Algorithm 2 tracing.
KERNEL_BUILDERS: Dict[str, Callable[["WorkloadRef"], object]] = {
    "registry": _build_registry_kernel,
    "synthetic": _build_synthetic_kernel,
}


def build_kernel(ref: "WorkloadRef"):
    """The kernel program ``ref`` names, built through :data:`KERNEL_BUILDERS`."""
    try:
        builder = KERNEL_BUILDERS[ref.kind]
    except KeyError:
        raise KeyError(
            f"unknown workload kind {ref.kind!r}; known: {sorted(KERNEL_BUILDERS)}"
        ) from None
    return builder(ref)


def _prepare_kernel_task(task: Tuple["WorkloadRef", Optional[str]]):
    """Prepare one ref; returns ``(name, record-free result, bundle, trace bytes)``.

    A worker that executed the kernel ships the trace its run lowered
    (preparation also persisted it when the cache is disk-backed); on a
    ``workload-artifacts`` hit there is no run and the trace bytes are
    ``None`` — the parent loads the entry only if a point misses.
    """
    ref, cache_root = task
    artifact = _prepare_ref(ref, cache=ArtifactCache(root=cache_root))
    result = artifact.result
    trace_bytes = artifact.lowered_trace().to_bytes() if result.has_records else None
    return ref.name, result.without_records(), artifact.bundle, trace_bytes


def _prepare_ref(ref: "WorkloadRef", cache: ArtifactCache) -> WorkloadArtifacts:
    """Build + execute + trace one ref through the shared cache path."""
    if ref.kind == "registry":
        return prepare_workload(ref.name, cache=cache)
    return artifacts_for_kernel(
        build_kernel(ref), suite=ref.suite or ref.kind, name=ref.name, cache=cache
    )


def prepare_kernels_parallel(
    refs: Sequence["WorkloadRef"],
    cache: ArtifactCache,
    jobs: int = 0,
) -> List[WorkloadArtifacts]:
    """Prepare registry and non-registry workload refs across worker processes.

    Workers build each kernel from its ref, run the sequential execution,
    Algorithm 2 tracing and the lowering, warm the shared disk cache (when
    ``cache`` has a disk root), and return record-free ``(result, bundle)``
    payloads plus the lowered traces; the parent seeds ``cache``'s memo with
    both and assembles the final :class:`WorkloadArtifacts` — including the
    per-workload correctness check — through the exact same serial code
    path, without unpickling a record or lowering a trace.
    """
    refs = list(refs)
    by_name = {ref.name: ref for ref in refs}
    if len(by_name) != len(refs):
        # Worker payloads come back keyed by name; a duplicate would seed
        # one ref's artifacts under another ref's digest without error.
        raise ValueError("workload refs must have unique names")
    jobs = jobs or default_jobs()
    context = _fork_context()
    if jobs <= 1 or len(refs) <= 1 or context is None:
        return [_prepare_ref(ref, cache=cache) for ref in refs]

    tasks = [(ref, cache.root) for ref in refs]
    with context.Pool(processes=min(jobs, len(tasks))) as pool:
        payloads = pool.map(_prepare_kernel_task, tasks, chunksize=1)

    # Seed the parent's in-memory memo so assembly below never recomputes;
    # workers already persisted the payloads when the cache is disk-backed,
    # so a second disk write here would be pure waste.
    for name, result, bundle, trace_bytes in payloads:
        kernel = build_kernel(by_name[name])
        digest = workload_artifact_digest(kernel)
        cache.memoize("workload-artifacts", name, digest, (result, bundle))
        if trace_bytes is not None:
            trace = LoweredTrace.from_bytes(trace_bytes)
            cache.memoize("lowered-trace", name, lowered_trace_digest(digest), trace)
    return [_prepare_ref(ref, cache=cache) for ref in refs]


# --------------------------------------------------------------------------- #
# Parallel simulation
# --------------------------------------------------------------------------- #
#: Artifacts visible to forked simulation workers (set only around the pool).
_FORK_ARTIFACTS: Dict[str, WorkloadArtifacts] = {}

#: One worker task: every request of one workload, so the worker's
#: ``simulate_batch`` shares one lowering across them all (and warm-up state
#: within each config).  The lowering itself is inherited through the fork.
_BatchTask = Tuple[str, Tuple["SimulationRequest", ...]]


def _simulate_batch_task(task: _BatchTask) -> List[SimulationResult]:
    name, requests = task
    return _FORK_ARTIFACTS[name].simulate_batch(requests)


def group_by_workload(
    artifacts: Mapping[str, WorkloadArtifacts], requests: Iterable["SimulationRequest"]
) -> Dict[str, List["SimulationRequest"]]:
    """Requests per workload, each group in request order."""
    groups: Dict[str, List["SimulationRequest"]] = {}
    for request in requests:
        name = request.workload.name
        if name not in artifacts:
            raise KeyError(f"no prepared artifact for workload {name!r}")
        groups.setdefault(name, []).append(request)
    return groups


def in_request_order(
    requests: Sequence["SimulationRequest"],
    outcomes: Mapping[str, Sequence[SimulationResult]],
) -> List[SimulationResult]:
    """Per-workload results (as :func:`group_by_workload` grouped them)
    back in request order."""
    answers = {name: iter(results) for name, results in outcomes.items()}
    return [next(answers[request.workload.name]) for request in requests]


def simulate_points(
    artifacts: Sequence[WorkloadArtifacts],
    requests: Iterable["SimulationRequest"],
    jobs: int = 0,
) -> List[SimulationResult]:
    """Compute every request; one result per request, in request order.

    Requests are grouped by workload and each group runs through
    :meth:`WorkloadArtifacts.simulate_batch`, so the columnar lowering is
    computed once per group and the warm-up component snapshots are shared
    across every design and flush-interval within each config.  With
    ``jobs > 1`` the groups fan out over forked workers that inherit the
    prepared artifacts read-only and only compute.  Nothing is probed or
    persisted here: the scheduler does both, in the parent.
    """
    by_name = {artifact.name: artifact for artifact in artifacts}
    requests = list(requests)
    groups = group_by_workload(by_name, requests)
    jobs = jobs or default_jobs()
    context = _fork_context()
    if jobs <= 1 or len(groups) <= 1 or context is None:
        outcomes = {name: by_name[name].simulate_batch(group) for name, group in groups.items()}
        return in_request_order(requests, outcomes)

    # The lowering is config-independent: load it in the parent, before
    # the fork, so every worker inherits it.
    for name in groups:
        by_name[name].lowered_trace()
    tasks = [(name, tuple(group)) for name, group in groups.items()]
    global _FORK_ARTIFACTS
    _FORK_ARTIFACTS = by_name
    try:
        with context.Pool(processes=min(jobs, len(tasks))) as pool:
            results = pool.map(_simulate_batch_task, tasks, chunksize=1)
    finally:
        _FORK_ARTIFACTS = {}
    return in_request_order(requests, dict(zip(groups, results)))
