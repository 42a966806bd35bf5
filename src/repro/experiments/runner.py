"""Shared experiment infrastructure: build, trace, and simulate workloads.

Artifact preparation (build + sequential execution + Algorithm 2 tracing) and
timing simulation both memoize their results in the artifact cache of
:mod:`repro.pipeline` (memory-only without a disk root).  The simulation cache
key covers *every* argument that changes the outcome — design, core
configuration, BTU flush interval, and warmup passes — so sweeping a parameter
never returns a stale result from an earlier point.
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

#: A simulation-cache key: (design, config digest, flush interval, warmups).
SimulationKey = Tuple[str, str, Optional[int], int]


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
    config's result for every subsequent config in a sweep.  The config
    enters as its digest (cached per config), which keeps the key's repr —
    and hence :meth:`WorkloadArtifacts.simulation_digest` — short.
    """
    return (design, config.digest(), btu_flush_interval, warmup_passes)


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


#: What :meth:`WorkloadArtifacts.simulate_batch` accepts as a point.
Point = Union[DesignPoint, "SimulationRequest"]


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

    No simulation result is kept here: ``cache`` is their one memo.  The
    scheduler probes it (:meth:`cached_simulation`) and persists into it
    what a backend computed through :meth:`simulate_batch`.
    """

    name: str
    suite: str
    kernel: KernelProgram
    result: ExecutionResult
    bundle: TraceBundle
    analysis: BranchAnalysisStats
    #: The artifact cache (memory-only without a disk root) and the
    #: workload's content digest its entries are keyed on.
    cache: "ArtifactCache" = field(repr=False)
    content_digest: str = field(repr=False)

    def simulate(
        self,
        design: str,
        config: CoreConfig = GOLDEN_COVE_LIKE,
        btu_flush_interval: Optional[int] = None,
        warmup_passes: int = 1,
    ) -> SimulationResult:
        """One design point: its cached result, or computed and persisted."""
        point = DesignPoint(design, config, btu_flush_interval, warmup_passes)
        result = self.cached_simulation(point)
        if result is None:
            [result] = self.simulate_batch([point])
            self.cache.put("simulation", self.name, self.simulation_digest(point), result)
        return result

    def simulation_digest(self, point: Point) -> str:
        """The artifact-cache digest of one simulation point."""
        from repro.pipeline.hashing import stable_digest

        return stable_digest(self.content_digest, point.key())

    def cached_simulation(self, point: Point) -> Optional[SimulationResult]:
        """The cached result of ``point`` (memo or disk), or ``None``."""
        return self.cache.get("simulation", self.name, self.simulation_digest(point))

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
        digest = lowered_trace_digest(self.content_digest)
        payload = self.cache.get("lowered-trace", self.name, digest)
        if payload is not None:
            self.result._lowered_trace = payload  # type: ignore[attr-defined]
            return payload
        trace = lower_execution(self.recorded_result())
        self.cache.put("lowered-trace", self.name, digest, trace)
        return trace

    def simulate_batch(
        self,
        points: Sequence[Point],
        batch_stats: Optional[BatchStats] = None,
    ) -> List[SimulationResult]:
        """Simulate design points over one shared lowering and warm state.

        ``points`` are :class:`DesignPoint`\\ s or
        :class:`~repro.api.request.SimulationRequest`\\ s (of this workload);
        only their design, config, flush interval and warm-up passes count.
        Returns one result per point, in point order.

        Every point is computed: nothing is probed or persisted here.  The
        points run through :func:`repro.engine.batch.simulate_batch`, which
        shares the columnar trace, the per-workload setup, and the warm-up
        component snapshots across them.  Results are bit-identical to
        calling :meth:`simulate` per point.
        """
        specs = [
            PointSpec(
                policy=DESIGN_BUILDERS[point.design](self.bundle),
                config=point.config,
                btu_flush_interval=point.btu_flush_interval,
                warmup_passes=point.warmup_passes,
            )
            for point in points
        ]
        needs_records = any(spec.policy.engine_spec() is None for spec in specs)
        return simulate_batch(
            self.recorded_result() if needs_records else self.result,
            self.bundle,
            specs,
            trace=self.lowered_trace(),
            program_name=self.kernel.program.name,
            batch_stats=batch_stats,
            cache_dir=self.cache.root,
        )


def artifacts_for_kernel(
    kernel: KernelProgram,
    suite: str,
    name: Optional[str] = None,
    cache: Optional["ArtifactCache"] = None,
    trace_params: Optional[TraceParameters] = None,
) -> WorkloadArtifacts:
    """Functionally execute and trace-analyse an already-built kernel.

    The expensive products (the sequential :class:`ExecutionResult`,
    record-free, and the :class:`TraceBundle`) are loaded from / stored to
    the content-addressed artifact cache (a memory-only one when ``cache``
    is not given), keyed on the program content, the confidential-input
    set, and the trace parameters.  The kernel's correctness check always re-runs, so a stale
    or corrupt cache entry cannot silently poison an experiment.  A cold
    preparation executes each input exactly once: the verified run of
    ``inputs[0]`` is Algorithm 2's primary execution, the returned artifacts
    keep it, and its lowered trace is persisted next to the record-free
    result.
    """
    name = name or kernel.name
    params = trace_params or TraceParameters()

    from repro.pipeline.artifacts import ArtifactCache
    from repro.pipeline.parallel import workload_artifact_digest

    cache = cache if cache is not None else ArtifactCache(root=None)
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
