"""Shared experiment infrastructure: build, trace, and simulate workloads.

Artifact preparation (build + sequential execution + Algorithm 2 tracing) and
timing simulation both memoize their results.  The simulation cache key covers
*every* argument that changes the outcome — design, core configuration, BTU
flush interval, and warmup passes — so sweeping a parameter never returns a
stale result from an earlier point.  Preparation can additionally be backed by
the on-disk content-addressed cache and the multiprocessing fan-out of
:mod:`repro.pipeline`, which all experiments, benchmarks, and tests share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.stats import BranchAnalysisStats, stats_from_bundle
from repro.analysis.tracegen import TraceBundle, TraceParameters, generate_trace_bundle
from repro.arch.executor import ExecutionResult
from repro.crypto.programs.common import KernelProgram
from repro.crypto.workloads import QUICK_WORKLOADS, get_workload  # noqa: F401 - re-exported
from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.lowering import LOWERING_FORMAT_VERSION, LoweredTrace, lower_execution
from repro.uarch.config import CoreConfig, GOLDEN_COVE_LIKE
from repro.uarch.core import SimulationResult
from repro.uarch.defenses import (
    CassandraLitePolicy,
    CassandraPolicy,
    CassandraProspectPolicy,
    DefensePolicy,
    ProspectPolicy,
    SptPolicy,
    UnsafeBaseline,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.api.request import SimulationRequest
    from repro.pipeline.artifacts import ArtifactCache

#: Design-point factories; Cassandra-family policies need the trace bundle.
DESIGN_BUILDERS: Dict[str, Callable[[Optional[TraceBundle]], DefensePolicy]] = {
    "unsafe-baseline": lambda bundle: UnsafeBaseline(),
    "cassandra": lambda bundle: CassandraPolicy(bundle),
    "cassandra+stl": lambda bundle: CassandraPolicy(bundle, protect_stl=True),
    "cassandra-lite": lambda bundle: CassandraLitePolicy(bundle),
    "spt": lambda bundle: SptPolicy(),
    "prospect": lambda bundle: ProspectPolicy(),
    "cassandra+prospect": lambda bundle: CassandraProspectPolicy(bundle),
}

#: A simulation-cache key: (design, config identity, flush interval, warmups).
SimulationKey = Tuple[str, tuple, Optional[int], int]

#: Most disk-cache misses a :class:`WorkloadArtifacts` remembers between a
#: probe and the batch that computes the point (the table is cleared when
#: full, which only costs a repeated probe).
MISSED_PROBES_LIMIT = 4096


def lowered_trace_digest(content_digest: str) -> str:
    """The ``lowered-trace`` cache digest of a workload's content digest.

    The lowering is policy- and config-independent, so it is keyed only on
    the workload content digest plus the lowering format version.
    """
    from repro.pipeline.hashing import stable_digest

    return stable_digest(content_digest, ("lowered-trace", LOWERING_FORMAT_VERSION))


def simulation_key(
    design: str,
    config: CoreConfig = GOLDEN_COVE_LIKE,
    btu_flush_interval: Optional[int] = None,
    warmup_passes: int = 1,
) -> SimulationKey:
    """The memoization key for one simulation point.

    Every argument that affects the timing result participates: the historic
    key of (design, flush interval) alone silently returned the first
    config's result for every subsequent config in a sweep.
    """
    return (design, config.identity(), btu_flush_interval, warmup_passes)


@dataclass(frozen=True)
class DesignPoint:
    """One simulation point of a workload batch (no workload attached)."""

    design: str
    config: CoreConfig = GOLDEN_COVE_LIKE
    btu_flush_interval: Optional[int] = None
    warmup_passes: int = 1

    def key(self) -> SimulationKey:
        return simulation_key(
            self.design, self.config, self.btu_flush_interval, self.warmup_passes
        )


@dataclass
class WorkloadArtifacts:
    """Everything derived once per workload and shared across design points.

    ``result`` carries its lowered trace, and builds its
    ``DynamicInstruction`` records on demand, only when this process
    executed the kernel; artifacts loaded from the cache or shipped by a
    preparation worker hold a record-free result, and the timing engine
    reads the lowered trace instead.  When the trace or the records are
    needed after all — the ``lowered-trace`` entry is missing or corrupt, or
    a pending point's policy has no engine spec — :meth:`recorded_result`
    re-executes the kernel, at most once per artifact.
    """

    name: str
    suite: str
    kernel: KernelProgram
    result: ExecutionResult
    bundle: TraceBundle
    analysis: BranchAnalysisStats
    simulations: Dict[SimulationKey, SimulationResult] = field(default_factory=dict)
    #: Optional disk cache + the workload's content digest; when both are set,
    #: simulation results (small, deterministic) also persist across processes.
    cache: Optional["ArtifactCache"] = field(default=None, repr=False)
    content_digest: Optional[str] = field(default=None, repr=False)
    #: Disk digests of points whose :meth:`cached_simulation` probe missed:
    #: the batch that computes such a point next reuses the digest and skips
    #: the second disk probe.  Entries go when the point is computed.
    _missed: Dict[SimulationKey, str] = field(default_factory=dict, repr=False)

    def simulate(
        self,
        design: str,
        config: CoreConfig = GOLDEN_COVE_LIKE,
        btu_flush_interval: Optional[int] = None,
        warmup_passes: int = 1,
    ) -> SimulationResult:
        """Simulate one design point (memoized on the full argument set)."""
        point = DesignPoint(design, config, btu_flush_interval, warmup_passes)
        return self.simulate_batch([point])[point.key()]

    def _simulation_digest(self, key: SimulationKey) -> Optional[str]:
        """The disk-cache digest of one simulation point (None when uncached)."""
        if self.cache is None or self.content_digest is None:
            return None
        from repro.pipeline.hashing import stable_digest

        return stable_digest(self.content_digest, key)

    def cached_simulation(self, key: SimulationKey) -> Optional[SimulationResult]:
        """A memoized or disk-cached result for ``key``, or ``None``.

        Disk hits are seeded into the in-memory memo.  Execution backends
        that cannot reach the artifact cache from their workers (the
        subprocess shard backend) use this to resolve hits in the parent
        before shipping the remaining points over the wire.
        """
        memoized = self.simulations.get(key)
        if memoized is not None:
            return memoized
        digest = self._simulation_digest(key)
        if digest is not None:
            cached = self.cache.get("simulation", self.name, digest)
            if cached is not None:
                self.simulations[key] = cached
                return cached
            if len(self._missed) >= MISSED_PROBES_LIMIT:
                self._missed.clear()
            self._missed[key] = digest
        return None

    def persist_simulation(self, key: SimulationKey, result: SimulationResult) -> None:
        """Seed the memo *and* the disk cache with an external result.

        The counterpart of :meth:`store_simulation` for backends whose
        workers computed the result outside this process's cache handle.
        """
        self.simulations[key] = result
        self._missed.pop(key, None)
        digest = self._simulation_digest(key)
        if digest is not None:
            self.cache.put("simulation", self.name, digest, result)

    def recorded_result(self) -> ExecutionResult:
        """``result`` with its lowered trace and on-demand records,
        re-executing the kernel if it has neither.

        The re-run must reproduce the stored instruction count and final
        state; it then replaces ``result``, so this executes the kernel at
        most once per artifact.
        """
        if not self.result.has_records:
            rerun = self.kernel.run(0)
            if (
                rerun.instruction_count != self.result.instruction_count
                or rerun.state != self.result.state
            ):
                raise RuntimeError(
                    f"workload {self.name!r}: re-execution does not reproduce "
                    "the prepared run"
                )
            self.result = rerun
        return self.result

    def lowered_trace(self) -> LoweredTrace:
        """The workload's columnar timing trace (computed once, disk-cached)."""
        cached = getattr(self.result, "_lowered_trace", None)
        if cached is not None:
            return cached
        digest = None
        if self.cache is not None and self.content_digest is not None:
            digest = lowered_trace_digest(self.content_digest)
            payload = self.cache.get("lowered-trace", self.name, digest)
            if payload is not None:
                self.result._lowered_trace = payload  # type: ignore[attr-defined]
                return payload
        trace = lower_execution(self.recorded_result())
        if digest is not None:
            self.cache.put("lowered-trace", self.name, digest, trace)
        return trace

    def simulate_batch(
        self,
        points: Sequence[Union[DesignPoint, "SimulationRequest"]],
        batch_stats: Optional[BatchStats] = None,
    ) -> Dict[SimulationKey, SimulationResult]:
        """Simulate many design points over one shared lowering and warm state.

        ``points`` are :class:`DesignPoint`\\ s or
        :class:`~repro.api.request.SimulationRequest`\\ s (of this workload);
        only their design, config, flush interval and warm-up passes count.

        Points already in the memo (or the disk cache) are returned without
        re-simulation; a point whose :meth:`cached_simulation` probe just
        missed is not probed again.  The remainder run through
        :func:`repro.engine.batch.simulate_batch`, which shares the columnar
        trace, the per-workload setup, and the warm-up component snapshots
        across every missing point.  Results are bit-identical to calling
        :meth:`simulate` per point.
        """
        results: Dict[SimulationKey, SimulationResult] = {}
        pending: List[Union[DesignPoint, "SimulationRequest"]] = []
        pending_digests: Dict[SimulationKey, Optional[str]] = {}
        for point in points:
            cache_key = point.key()
            if cache_key in results or cache_key in pending_digests:
                continue
            memoized = self.simulations.get(cache_key)
            if memoized is not None:
                results[cache_key] = memoized
                continue
            sim_digest = self._missed.pop(cache_key, None)
            if sim_digest is None:
                sim_digest = self._simulation_digest(cache_key)
                if sim_digest is not None:
                    cached = self.cache.get("simulation", self.name, sim_digest)
                    if cached is not None:
                        self.simulations[cache_key] = cached
                        results[cache_key] = cached
                        continue
            pending.append(point)
            pending_digests[cache_key] = sim_digest

        if pending:
            specs = [
                PointSpec(
                    policy=DESIGN_BUILDERS[point.design](self.bundle),
                    config=point.config,
                    btu_flush_interval=point.btu_flush_interval,
                    warmup_passes=point.warmup_passes,
                )
                for point in pending
            ]
            needs_records = any(spec.policy.engine_spec() is None for spec in specs)
            simulations = simulate_batch(
                self.recorded_result() if needs_records else self.result,
                self.bundle,
                specs,
                trace=self.lowered_trace(),
                program_name=self.kernel.program.name,
                batch_stats=batch_stats,
                cache_dir=self.cache.root if self.cache is not None else None,
            )
            for point, simulation in zip(pending, simulations):
                cache_key = point.key()
                self.simulations[cache_key] = simulation
                results[cache_key] = simulation
                sim_digest = pending_digests[cache_key]
                if self.cache is not None and sim_digest is not None:
                    self.cache.put("simulation", self.name, sim_digest, simulation)
        return results

    def store_simulation(self, key: SimulationKey, result: SimulationResult) -> None:
        """Seed the memo with an externally computed result (parallel fan-out)."""
        self.simulations[key] = result
        self._missed.pop(key, None)

    def normalized_time(self, design: str, baseline: str = "unsafe-baseline") -> float:
        return self.simulate(design).cycles / self.simulate(baseline).cycles


def artifacts_for_kernel(
    kernel: KernelProgram,
    suite: str,
    name: Optional[str] = None,
    cache: Optional["ArtifactCache"] = None,
    trace_params: Optional[TraceParameters] = None,
) -> WorkloadArtifacts:
    """Functionally execute and trace-analyse an already-built kernel.

    With ``cache`` set, the expensive products (the sequential
    :class:`ExecutionResult`, record-free, and the :class:`TraceBundle`) are
    loaded from / stored to the content-addressed artifact cache, keyed on
    the program content, the confidential-input set, and the trace
    parameters.  The kernel's correctness check always re-runs, so a stale
    or corrupt cache entry cannot silently poison an experiment.  A cold
    preparation executes each input exactly once: the verified run of
    ``inputs[0]`` is Algorithm 2's primary execution, the returned artifacts
    keep it, and its lowered trace is persisted next to the record-free
    result.
    """
    name = name or kernel.name
    params = trace_params or TraceParameters()

    payload = None
    digest = None
    if cache is not None:
        from repro.pipeline.parallel import workload_artifact_digest

        digest = workload_artifact_digest(kernel, params)
        payload = cache.get("workload-artifacts", name, digest)

    if payload is not None:
        result, bundle = payload
        # A hit still re-verifies: a stale or corrupt entry must not
        # silently poison an experiment.
        if not kernel.verify(result):
            raise RuntimeError(f"workload {name!r} failed its correctness check")
    else:
        result = kernel.run(0)
        # Verify before tracing/caching: a functionally broken kernel must
        # neither pay for Algorithm 2 nor leave a junk entry on disk.
        if not kernel.verify(result):
            raise RuntimeError(f"workload {name!r} failed its correctness check")
        bundle = generate_trace_bundle(
            kernel.program,
            kernel.inputs,
            crypto_only=params.crypto_only,
            max_k=params.max_k,
            primary=result,
        )
        if cache is not None and digest is not None:
            cache.put("workload-artifacts", name, digest, (result.without_records(), bundle))
            cache.put("lowered-trace", name, lowered_trace_digest(digest), lower_execution(result))
    return WorkloadArtifacts(
        name=name,
        suite=suite,
        kernel=kernel,
        result=result,
        bundle=bundle,
        analysis=stats_from_bundle(bundle),
        cache=cache,
        content_digest=digest,
    )


def prepare_workload(
    name: str,
    cache: Optional["ArtifactCache"] = None,
    trace_params: Optional[TraceParameters] = None,
) -> WorkloadArtifacts:
    """Build, functionally execute, and trace-analyse one registry workload.

    The kernel is always rebuilt (it is cheap and holds unpicklable
    callbacks); the execution and tracing go through
    :func:`artifacts_for_kernel` and hence the artifact cache when one is
    attached.
    """
    workload = get_workload(name)
    return artifacts_for_kernel(
        workload.kernel(),
        suite=workload.suite,
        name=name,
        cache=cache,
        trace_params=trace_params,
    )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (used for the ``geomean`` column of Figure 7).

    Zeros are skipped (a zero factor would collapse the mean to zero and the
    paper's normalized-time columns treat empty cells as zero); negative
    inputs are an error — silently dropping them, as this function once did,
    skews the mean without any indication that the data is invalid.

    Raises
    ------
    ValueError
        If any value is negative.
    """
    values = list(values)
    negatives = [value for value in values if value < 0]
    if negatives:
        raise ValueError(f"geometric_mean got negative value(s): {negatives!r}")
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values) / len(values))


def format_table(rows: Sequence[Dict[str, object]], columns: Sequence[str]) -> str:
    """Render a list of dictionaries as an aligned text table.

    An empty ``rows`` list still renders the header and separator lines.
    """
    widths = {
        column: max(len(column), *(len(_fmt(row.get(column, ""))) for row in rows))
        if rows
        else len(column)
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    lines = [header, "  ".join("-" * widths[column] for column in columns)]
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
