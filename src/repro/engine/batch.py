"""Multi-point batched simulation over one shared lowering.

:func:`simulate_batch` is the engine's front door for sweeps: given one
workload's sequential execution and trace bundle, it times any number of
(policy × config × BTU-flush × warm-up) points while paying the
policy-independent work once —

* the columnar lowering is computed (or taken from the caller's artifact
  cache) a single time;
* warm-up state is built component-wise per (component class, passes, the
  config fields that component reads) by
  :class:`~repro.engine.warmup.WarmStateBuilder`, in one store shared by
  every config of the batch, and *restored* into each point's state instead
  of being re-simulated per policy or per config;
* only points whose warm-up is genuinely cycle-dependent (an active BTU
  flush interval under a trace-replaying policy, or forwarding-allowed
  policies on traces where the shared d-cache replay is not provably exact)
  run private full warm-up passes — and those run on the fast path too;
* the measured (and private warm-up) passes run on **generated kernels**
  (:mod:`repro.engine.kernels`) specialized per (policy spec × config) over
  the flat-array state of :mod:`repro.engine.state`, with the per-workload
  setup — BTU replay payload extraction, the crypto-PC table, warm-state
  conversion — shared across every point of the batch.

``REPRO_ENGINE_TIER`` selects the tier (``native`` / ``python``; see
:func:`repro.engine.kernels.engine_tier`).

Results are bit-identical to the object-based reference loop
(:meth:`~repro.uarch.core.CoreModel.run_reference`,
``tests/engine/test_parity.py``) on every tier: kernels are pinned to it
by ``tests/engine/test_kernel_parity.py`` and the native tier by
``tests/engine/test_native_parity.py``.  Policies without an engine spec
fall back to the reference loop itself, still inside the same batch call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.tracegen import TraceBundle
from repro.arch.executor import ExecutionResult
from repro.engine import native
from repro.engine.kernels import (
    classify_branch,
    crypto_pc_table,
    engine_tier,
    get_kernel,
    relevant_flag_mask,
)
from repro.engine.lowering import LoweredTrace, lower_execution
from repro.engine.state import BtuReplayData, FlatState
from repro.engine.warmup import WarmStateBuilder, WarmStore
from repro.uarch.btu import BranchTraceUnit
from repro.uarch.config import GOLDEN_COVE_LIKE, CoreConfig
from repro.uarch.defenses.base import DefensePolicy
from repro.uarch.stats import PipelineStats


@dataclass(frozen=True)
class PointSpec:
    """One simulation point of a batch (the workload is implied by the call).

    ``config=None`` selects the batch-level default config.
    """

    policy: DefensePolicy
    config: Optional[CoreConfig] = None
    btu_flush_interval: Optional[int] = None
    warmup_passes: int = 1


@dataclass
class BatchStats:
    """Work counters proving what the batch shared (asserted by tests)."""

    points: int = 0
    #: Columnar lowerings computed by this batch (0 when already memoized).
    lowerings: int = 0
    #: Measured passes (one per non-fallback point, whichever tier served it).
    measured_passes: int = 0
    #: Private full warm-up passes (cycle-dependent BTU-flush points, and
    #: forwarding-allowed points when the shared d-cache replay is not
    #: provably exact for this trace).
    full_warmup_passes: int = 0
    #: Component replay walks by the batch's warm store, each counted once
    #: however many points and configs share it.
    warmup_component_walks: int = 0
    #: Points warmed privately because store forwarding could skew the
    #: shared d-cache state (see WarmStateBuilder.forwarding_shareable).
    forwarding_private_points: int = 0
    #: Points that took the object-loop fallback (policy without a spec).
    fallback_points: int = 0
    #: Points whose counters came from a python-tier generated kernel —
    #: whether freshly measured or shared via the canonicalization memo.
    #: Partial on the ``native`` tier (compiled C points are counted under
    #: ``native_points`` instead).
    kernel_points: int = 0
    #: Points whose counters came from a compiled C kernel (native tier).
    native_points: int = 0
    #: Wall-clock seconds spent compiling C kernels during this batch (zero
    #: on warm runs — the ``.so`` comes from the ArtifactCache).
    native_compile_seconds: float = 0.0
    #: Compiled kernels this batch obtained without invoking the compiler
    #: (ArtifactCache reads + already-loaded shared objects).
    native_cache_hits: int = 0
    #: Kernel points whose measured pass was shared with an earlier point
    #: because their specs canonicalized identically for this trace (e.g.
    #: forwarding variants on a store-free trace, gated policies when no
    #: instruction carries a gate flag).
    deduped_points: int = 0
    #: Wall-clock seconds inside kernel invocations (measured + private
    #: warm-up); the batch's remaining time is per-point setup overhead,
    #: which the benchmark reports as ``overhead_seconds``.
    kernel_seconds: float = 0.0
    #: Always 0: the NumPy ``columns`` tier these counted is deleted.  Kept
    #: only because ``perfbench/traced.py`` still reads both fields.
    columns_points: int = 0
    columns_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "points": self.points,
            "lowerings": self.lowerings,
            "measured_passes": self.measured_passes,
            "full_warmup_passes": self.full_warmup_passes,
            "warmup_component_walks": self.warmup_component_walks,
            "forwarding_private_points": self.forwarding_private_points,
            "fallback_points": self.fallback_points,
            "kernel_points": self.kernel_points,
            "native_points": self.native_points,
            "native_compile_seconds": round(self.native_compile_seconds, 4),
            "native_cache_hits": self.native_cache_hits,
            "deduped_points": self.deduped_points,
            "kernel_seconds": round(self.kernel_seconds, 4),
        }


def _apply_kernel_counters(
    stats: PipelineStats,
    counters: Dict[str, int],
    n: int,
    base: Dict[str, int],
    plan_occ: Optional[Tuple[int, int, int, int]],
    allow_fwd: bool,
) -> None:
    """Write one kernel run's counters back into a ``PipelineStats``.

    Mirrors the statistics of :meth:`~repro.uarch.core.CoreModel.run_reference`
    after ``reset_stats``: monotone counters are incremented, absolute fields
    overwritten, and the measured-pass cache miss rates derive from this
    run's accesses alone.
    The statistics that are pure trace properties come from the batch's
    shared precomputation (``base`` and, for Cassandra-kind specs, the
    per-class branch occurrence counts ``plan_occ``) instead of per-loop
    increments; the genuinely dynamic ones come from the kernel.
    """
    stats.fetched_instructions += n
    stats.renamed_instructions += n
    stats.issued_instructions += n
    stats.committed_instructions += n
    loads = base["loads"]
    stores = base["stores"]
    stats.loads += loads
    stats.stores += stores
    stats.branches += base["branches"]
    stats.crypto_branches += base["crypto_branches"]
    forwards = counters["store_forwards"]
    stats.store_forwards += forwards
    stats.stl_blocked += counters["stl_blocked"]
    stats.delayed_instructions += counters["delayed_instructions"]
    stats.delay_cycles += counters["delay_cycles"]
    stats.squash_cycles += counters["squash_cycles"]
    stats.fetch_stall_cycles += counters["fetch_stall_cycles"]
    stats.integrity_stall_branches += counters["integrity_stall_branches"]
    stats.btu_misses += counters["btu_misses"]
    stats.btu_prefetches += counters["btu_prefetches"]
    if plan_occ is not None:
        bpu_flow, single_target, replayed, stalled = plan_occ
        stats.single_target_branches += single_target
        stats.btu_replayed += replayed
        stats.fetch_stall_branches += stalled
        stats.bpu_predicted = bpu_flow
    else:
        stats.bpu_predicted = base["branches"]
    stats.instructions = n
    stats.cycles = counters["cycles"]
    stats.bpu_mispredicted = counters["bpu_mispredicted"]
    # Every instruction fetches through the L1I; loads access the L1D unless
    # forwarded, stores always install.  Hits are accesses minus misses, so
    # the kernel only ever counts misses (zero under a residency proof).
    d_acc = (loads - forwards if allow_fwd else loads) + stores
    stats.extra["l1d_miss_rate"] = counters["l1d_miss"] / d_acc if d_acc else 0.0
    stats.extra["l1i_miss_rate"] = counters["l1i_miss"] / n if n else 0.0
    stats.extra["btu_occupancy"] = counters["btu_occupancy"]


def simulate_batch(
    result: Optional[ExecutionResult],
    bundle: Optional[TraceBundle],
    points: Sequence[PointSpec],
    config: CoreConfig = GOLDEN_COVE_LIKE,
    trace: Optional[LoweredTrace] = None,
    program_name: Optional[str] = None,
    batch_stats: Optional[BatchStats] = None,
    cache_dir: Optional[str] = None,
) -> List["SimulationResult"]:  # noqa: F821 - imported lazily (cycle guard)
    """Simulate every point over one shared lowering; results in point order.

    ``result`` may be ``None`` or record-free when an explicit ``trace`` is
    supplied (or memoized on the result) — the shard-worker wire format
    ships only the preserialized columns, and the artifact cache persists
    no ``DynamicInstruction`` records — in which case every point's policy
    must lower to an engine spec (the object-loop fallback replays
    ``result.dynamic``, and raises ``ValueError`` without it).

    ``cache_dir`` is the artifact-cache root the native tier keeps its
    compiled kernels under; ``None`` keeps them in memory only.
    """
    from repro.uarch.core import CoreModel, SimulationResult  # lazy: core imports the engine

    stats = batch_stats if batch_stats is not None else BatchStats()
    tier = engine_tier()
    use_native = tier == "native"
    native_snapshot = native.counters_snapshot() if use_native else None

    if trace is None:
        if result is None:
            raise ValueError("simulate_batch needs an ExecutionResult or an explicit trace")
        already_lowered = getattr(result, "_lowered_trace", None) is not None
        trace = lower_execution(result)
        if not already_lowered:
            stats.lowerings += 1
    elif result is not None:
        # Seed the memo so per-point paths sharing this result reuse it too.
        result._lowered_trace = trace  # type: ignore[attr-defined]

    hint_table = bundle.hint_table if bundle is not None else None
    default_program_name = bundle.program.name if bundle is not None else "program"
    builders: Dict[tuple, WarmStateBuilder] = {}
    warm_store = WarmStore(trace, hint_table)

    def builder_for(point_config: CoreConfig) -> WarmStateBuilder:
        key = point_config.identity()
        builder = builders.get(key)
        if builder is None:

            def btu_factory() -> BranchTraceUnit:
                traces = bundle.hardware_traces() if bundle is not None else {}
                return BranchTraceUnit(point_config.btu, traces, hint_table)

            builder = WarmStateBuilder(
                trace, point_config, hint_table, btu_factory, store=warm_store
            )
            builders[key] = builder
        return builder

    # Per-workload kernel-path setup, computed lazily and shared by every
    # point: the BTU replay payload (targets / element ids / long flags are
    # config-independent), the crypto-PC table, the static branch-flow plan,
    # the per-config resolved latency column, and the trace-property counts.
    batch_shared: Dict[object, object] = {}

    def shared_btu_data(point_config: CoreConfig) -> BtuReplayData:
        data = batch_shared.get("btu")
        if data is None:
            traces = bundle.hardware_traces() if bundle is not None else {}
            unit = BranchTraceUnit(point_config.btu, traces, hint_table)
            data = unit.replay_data()
            batch_shared["btu"] = data
        return data  # type: ignore[return-value]

    def shared_crypto_pcs() -> bytes:
        table = batch_shared.get("crypto_pcs")
        if table is None:
            table = bytes(crypto_pc_table(hint_table, trace.max_pc))
            batch_shared["crypto_pcs"] = table
        return table  # type: ignore[return-value]

    def shared_mfl_col(mask: int) -> List[int]:
        """The flags column premasked to the bits a kernel can read."""
        col = batch_shared.get(("mfl", mask))
        if col is None:
            col = list(map(mask.__and__, trace.flags))
            batch_shared[("mfl", mask)] = col
        return col  # type: ignore[return-value]

    def shared_lat_col(point_config: CoreConfig) -> List[int]:
        tab = (
            point_config.alu_latency,
            point_config.mul_latency,
            point_config.div_latency,
            point_config.store_latency,
            point_config.branch_resolve_latency,
        )
        col = batch_shared.get(("lat", tab))
        if col is None:
            col = list(map(tab.__getitem__, trace.lat_class))
            batch_shared[("lat", tab)] = col
        return col  # type: ignore[return-value]

    def shared_rows(point_config: CoreConfig, mask: int) -> List[tuple]:
        """The pre-zipped per-instruction row tuples a kernel iterates.

        Only the six columns every instruction reads are in the tuples
        (dst, sources, premasked flags, resolved latency); PCs, addresses,
        and branch classes are indexed on demand by the slow paths.
        Building the tuples once per (latency table, flag mask) means every
        kernel run unpacks ready-made tuples instead of re-driving a
        multi-column zip — the zip itself was a measurable share of short
        measured passes.
        """
        tab = (
            point_config.alu_latency,
            point_config.mul_latency,
            point_config.div_latency,
            point_config.store_latency,
            point_config.branch_resolve_latency,
        )
        rob = point_config.rob_size
        split = batch_shared.get(("rows", tab, mask, rob))
        if split is None:
            rows = batch_shared.get(("rows", tab, mask))
            if rows is None:
                rows = list(
                    zip(
                        trace.dst,
                        trace.src0,
                        trace.src1,
                        trace.src2,
                        shared_mfl_col(mask),
                        shared_lat_col(point_config),
                    )
                )
                batch_shared[("rows", tab, mask)] = rows
            # Pre-split at the ROB boundary: the kernels' head loop carries
            # no occupancy check, the tail loop reads it unconditionally.
            split = (rows[: rob], rows[rob:])
            batch_shared[("rows", tab, mask, rob)] = split
        return split  # type: ignore[return-value]

    def shared_base_counts() -> Dict[str, int]:
        counts = batch_shared.get("base")
        if counts is None:
            loads = stores = branches = crypto = 0
            for fl in trace.flags:
                if fl & 1:  # F_LOAD
                    loads += 1
                elif fl & 2:  # F_STORE
                    stores += 1
                if fl & 4:  # F_BRANCH
                    branches += 1
                    if fl & 8:  # F_CRYPTO
                        crypto += 1
            counts = {
                "loads": loads,
                "stores": stores,
                "branches": branches,
                "crypto_branches": crypto,
            }
            batch_shared["base"] = counts
        return counts  # type: ignore[return-value]

    def gate_mask_relevant(mask: int) -> bool:
        """Whether any instruction of this trace carries a gate-mask flag."""
        hit = batch_shared.get(("gate", mask))
        if hit is None:
            hit = any(fl & mask for fl in trace.flags)
            batch_shared[("gate", mask)] = hit
        return hit  # type: ignore[return-value]

    def canonical_spec(spec):
        """Project ``spec`` onto the dimensions this trace can observe.

        Two points whose specs canonicalize identically are provably
        bit-identical, so the batch runs one measured pass and shares the
        counters:

        * store-to-load forwarding (and its STL restriction) is only
          exercised when a load can find an in-flight store — impossible
          on a trace without loads or without stores;
        * an issue gate only fires on instructions carrying one of its
          flag bits — a mask no instruction matches is dead code.
        """
        base = shared_base_counts()
        if not spec.allow_store_forwarding and (
            base["loads"] == 0 or base["stores"] == 0
        ):
            spec = replace(spec, allow_store_forwarding=True)
        if spec.gate_mask and not gate_mask_relevant(spec.gate_mask):
            spec = replace(spec, gate_mask=0)
        return spec

    #: Counters of measured kernel runs already performed by this batch,
    #: keyed by everything that can influence them.
    measured_memo: Dict[tuple, Dict[str, int]] = {}
    #: Memo keys whose counters came from a compiled C kernel (attribution
    #: for ``BatchStats.native_points``).
    native_keys: Set[tuple] = set()

    def shared_plan(
        lite: bool, point_config: CoreConfig
    ) -> Tuple[bytes, Dict[int, int], Tuple[int, int, int, int], int]:
        """The static per-PC fetch-flow plan and its occurrence counts.

        ``classify_branch`` reads only hints and the immutable replay
        payload, so the class of every static branch — and hence the number
        of dynamic branches taking each flow — is a trace property shared
        by every point of the same (kind, lite) family.  The final element
        is the number of *distinct* traced static branches, which licenses
        the kernels' BTU no-eviction elision when it fits the BTU.
        """
        plan = batch_shared.get(("plan", lite))
        if plan is None:
            crypto_pcs = shared_crypto_pcs()
            btu_targets = None if lite else shared_btu_data(point_config)[0]
            plan_cls = bytearray(trace.max_pc + 2)
            plan_stp: Dict[int, int] = {}
            occ = [0, 0, 0, 0]
            traced_static = 0
            seen = set()
            for pc, fl in zip(trace.pcs, trace.flags):
                if fl & 4:  # F_BRANCH
                    if pc not in seen:
                        seen.add(pc)
                        cls, stp = classify_branch(
                            pc, fl, crypto_pcs, hint_table, btu_targets, lite
                        )
                        plan_cls[pc] = cls
                        if cls == 2:
                            traced_static += 1
                        if stp is not None:
                            plan_stp[pc] = stp
                    occ[plan_cls[pc]] += 1
            plan = (bytes(plan_cls), plan_stp, tuple(occ), traced_static)
            batch_shared[("plan", lite)] = plan
        return plan  # type: ignore[return-value]

    simulations: List = []
    for point in points:
        point_config = point.config if point.config is not None else config
        spec = point.policy.engine_spec()
        passes = max(point.warmup_passes, 0)
        stats.points += 1

        if spec is None:
            # Object-loop fallback: warm up and measure exactly like the
            # legacy per-point path.
            if result is None or not result.has_records:
                raise ValueError(
                    f"policy {point.policy.name!r} has no engine spec and the "
                    "object-loop fallback needs the ExecutionResult's dynamic "
                    "records, which a trace-only (wire) batch or a record-free "
                    "result does not carry"
                )
            stats.fallback_points += 1
            core = CoreModel(
                config=point_config,
                policy=point.policy,
                bundle=bundle,
                btu_flush_interval=point.btu_flush_interval,
            )
            for _ in range(passes):
                core.run_reference(result.dynamic)
                core.reset_stats()
            simulation = core.run_reference(result.dynamic)
            simulations.append(simulation)
            if program_name is not None:
                simulation.program_name = program_name
            continue

        # BTU flushes trigger on commit cycles, so a flush point's warm
        # BTU state depends on its own timing; and a policy that allows
        # store-to-load forwarding may skip forwarded loads' d-cache
        # accesses during warm-up, which the shared replay can only
        # reproduce when the trace provably has no access pattern where
        # the skip matters.  Either way the point warms up privately —
        # still on the fast path, still over the shared lowering.
        builder = builder_for(point_config)
        flush_private = (
            bool(point.btu_flush_interval) and spec.btu_warm_class == "replay"
        )

        spec = canonical_spec(spec)
        cassandra = spec.kind == "cassandra"
        if cassandra and hint_table is None:
            raise ValueError("cassandra-kind engine specs require a hint table")
        # The reference loop treats any falsy interval as "flushing
        # disabled"; normalize so the kernels do too (and so 0 and None
        # share one memo slot).
        flush_interval = point.btu_flush_interval or None
        memo_key = (spec, point_config, flush_interval, passes)
        counters = measured_memo.get(memo_key)
        if counters is None:
            # A warmed point under a residency proof cannot miss, so the
            # measured kernel drops that cache model entirely; the
            # d-cache proof also makes the shared warm state exact under
            # forwarding (no eviction ever consults the LRU order a
            # skipped access would have refreshed), sparing the private
            # warm-up passes.
            icache_ok = passes > 0 and builder.icache_resident()
            dcache_ok = passes > 0 and builder.dcache_resident()
            forwarding_private = (
                passes > 0
                and spec.allow_store_forwarding
                and not dcache_ok
                and not builder.forwarding_shareable()
            )
            if forwarding_private:
                stats.forwarding_private_points += 1
            btu_data = shared_btu_data(point_config) if cassandra else None
            crypto_pcs = shared_crypto_pcs() if cassandra else b""
            if cassandra:
                plan_cls, plan_stp, plan_occ, traced_static = shared_plan(
                    spec.lite, point_config
                )
            else:
                plan_cls, plan_stp = b"", {}
                traced_static = 0
            state = FlatState(point_config, btu_data)
            flush_active = flush_interval is not None
            # With no flush active and every traced branch fitting the
            # BTU, residency can never evict and the kernel elides the
            # LRU list.
            btu_elide = (
                cassandra
                and not spec.lite
                and not flush_active
                and traced_static <= point_config.btu.entries
            )
            # The native tier serves a point all-or-nothing: mixing a
            # native warm pass with a python measured pass (or vice
            # versa) would leave one side reading state the other only
            # wrote into its own representation.  Any missing variant —
            # no compiler, toolchain rejection — drops the whole point
            # back onto the python kernels.
            kernel = warm_kernel = None
            if use_native:
                kernel = native.get_native_kernel(
                    spec,
                    point_config,
                    flush_active,
                    icache_resident=icache_ok,
                    dcache_resident=dcache_ok,
                    btu_elide=btu_elide,
                    cache_dir=cache_dir,
                )
                if kernel is not None and (flush_private or forwarding_private):
                    warm_kernel = native.get_native_kernel(
                        spec,
                        point_config,
                        flush_active,
                        collect_stats=False,
                        cache_dir=cache_dir,
                    )
                    if warm_kernel is None:
                        kernel = None
            native_point = kernel is not None
            # Native kernels premask the flags column in compiled code,
            # so they skip the shared pre-zipped rows entirely.
            rows = (
                None
                if native_point
                else shared_rows(point_config, relevant_flag_mask(spec))
            )
            if flush_private or forwarding_private:
                # Private warm passes always model the caches in full:
                # the first pass runs cold, and its miss timing feeds
                # the cycle-triggered BTU flushes.
                if warm_kernel is None:
                    warm_kernel = get_kernel(
                        spec, point_config, flush_active, collect_stats=False
                    )
                for _ in range(passes):
                    start = time.perf_counter()
                    warm_kernel(
                        trace, state, rows, crypto_pcs, plan_cls, plan_stp,
                        flush_interval,
                    )
                    stats.kernel_seconds += time.perf_counter() - start
                    stats.full_warmup_passes += 1
            elif passes:
                builder.warm_flat(
                    spec,
                    passes,
                    state,
                    need_icache=not icache_ok,
                    need_dcache=not dcache_ok,
                )
            if kernel is None:
                kernel = get_kernel(
                    spec,
                    point_config,
                    flush_active,
                    icache_resident=icache_ok,
                    dcache_resident=dcache_ok,
                    btu_elide=btu_elide,
                )
            start = time.perf_counter()
            counters = kernel(
                trace, state, rows, crypto_pcs, plan_cls, plan_stp,
                flush_interval,
            )
            stats.kernel_seconds += time.perf_counter() - start
            measured_memo[memo_key] = counters
            if native_point:
                native_keys.add(memo_key)
        else:
            stats.deduped_points += 1
        stats.measured_passes += 1
        if memo_key in native_keys:
            stats.native_points += 1
        else:
            stats.kernel_points += 1
        plan_occ = (
            shared_plan(spec.lite, point_config)[2] if cassandra else None
        )
        point_stats = PipelineStats()
        _apply_kernel_counters(
            point_stats,
            counters,
            trace.n,
            shared_base_counts(),
            plan_occ,
            spec.allow_store_forwarding,
        )
        simulation = SimulationResult(
            program_name=default_program_name,
            policy_name=point.policy.name,
            stats=point_stats,
            config=point_config,
        )

        if program_name is not None:
            simulation.program_name = program_name
        simulations.append(simulation)

    stats.warmup_component_walks += sum(b.component_walks for b in builders.values())
    if native_snapshot is not None:
        _count0, seconds0, hits0 = native_snapshot
        _count1, seconds1, hits1 = native.counters_snapshot()
        stats.native_compile_seconds += seconds1 - seconds0
        stats.native_cache_hits += hits1 - hits0
    return simulations
