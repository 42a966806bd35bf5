"""The out-of-order core timing model.

The model is trace driven: it walks the architecturally correct dynamic
instruction stream produced by the sequential executor and assigns each
instruction a fetch, dispatch, issue, completion, and commit cycle subject to
the machine's structural constraints (pipeline widths, ROB occupancy, cache
latencies, store-to-load forwarding) and to the active defense policy's
constraints (fetch redirection mechanism per branch, issue gating, forwarding
restrictions).  Wrong-path work is not simulated; its first-order cost — the
squash-and-refill penalty after a misprediction, and frontend bubbles while a
branch that may not be predicted resolves — is charged explicitly, which is
the behaviour the paper's evaluation depends on (crypto branches under
Cassandra never pay it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tracegen import TraceBundle
from repro.arch.executor import DynamicInstruction, ExecutionResult, SequentialExecutor
from repro.isa.instructions import Opcode
from repro.isa.program import Program
from repro.uarch.bpu import BranchPredictionUnit
from repro.uarch.btu import BranchTraceUnit
from repro.uarch.caches import CacheHierarchy, InstructionCache
from repro.uarch.config import GOLDEN_COVE_LIKE, CoreConfig, compact_json
from repro.uarch.defenses.base import BranchFetchOutcome, DefensePolicy
from repro.uarch.defenses.unsafe import UnsafeBaseline
from repro.uarch.stats import PipelineStats

# ``repro.engine`` is imported inside ``simulate``: the engine modules import
# the unit models from ``repro.uarch``, whose package __init__ imports this
# module, so a top-level import here would be circular.


@dataclass
class SimulationResult:
    """Outcome of one timing simulation."""

    program_name: str
    policy_name: str
    stats: PipelineStats
    config: CoreConfig

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def normalized_time(self, baseline: "SimulationResult") -> float:
        """Execution time normalized to a baseline run (Figure 7's metric)."""
        if baseline.cycles == 0:
            return 0.0
        return self.cycles / baseline.cycles

    def as_dict(self) -> Dict[str, object]:
        """A JSON-able payload carrying the full result across the wire."""
        return {
            "program_name": self.program_name,
            "policy_name": self.policy_name,
            "stats": self.stats.as_dict(),
            "config": self.config.as_dict(),
        }

    def to_json(self) -> str:
        """:meth:`as_dict` as compact sorted JSON, byte for byte: one C
        encode of the other fields, with the config's memoized fragment
        spliced in front (``config`` is the first key in sorted order)."""
        rest = compact_json(
            {
                "policy_name": self.policy_name,
                "program_name": self.program_name,
                "stats": self.stats.as_dict(),
            }
        )
        return f'{{"config":{self.config.to_json()},{rest[1:]}'

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SimulationResult":
        """Rebuild a result from :meth:`as_dict` output (the wire inverse)."""
        return cls(
            program_name=payload["program_name"],
            policy_name=payload["policy_name"],
            stats=PipelineStats.from_dict(payload["stats"]),
            config=CoreConfig.from_dict(payload["config"]),
        )


class CoreModel:
    """Cycle-accounting model of the Golden-Cove-like out-of-order core."""

    def __init__(
        self,
        config: CoreConfig = GOLDEN_COVE_LIKE,
        policy: Optional[DefensePolicy] = None,
        bundle: Optional[TraceBundle] = None,
        btu_flush_interval: Optional[int] = None,
    ) -> None:
        self.config = config
        self.policy = policy or UnsafeBaseline()
        self.bundle = bundle
        self.btu_flush_interval = btu_flush_interval

        self.bpu = BranchPredictionUnit(config)
        self.caches = CacheHierarchy(config)
        self.icache = InstructionCache(config)
        traces = bundle.hardware_traces() if bundle is not None else {}
        hint_table = bundle.hint_table if bundle is not None else None
        self.btu = BranchTraceUnit(config.btu, traces, hint_table)
        self.stats = PipelineStats()
        self.policy.attach(self)

        if self.policy.requires_traces and bundle is None:
            raise ValueError(
                f"policy {self.policy.name!r} requires a TraceBundle with branch traces"
            )

    def reset_stats(self) -> None:
        """Clear accumulated counters while keeping warmed predictor/cache state.

        Used for warm-up passes: the paper simulates SimPoint regions of warm
        steady-state execution, so measured passes here start with trained
        BPU/caches/BTU contents but fresh statistics.  Cache counters are
        reset too: the measured pass's ``l1d_miss_rate`` / ``l1i_miss_rate``
        must describe the measured pass alone, not aggregate the warm-up
        accesses (historically they did — see the regression test in
        ``tests/uarch/test_core_and_defenses.py``).
        """
        self.stats = PipelineStats()
        self.bpu.stats = type(self.bpu.stats)()
        self.btu.reset_stats()
        self.caches.reset_stats()
        self.icache.reset_stats()

    # ------------------------------------------------------------------ #
    # Reference loop (object-based)
    # ------------------------------------------------------------------ #
    def run_reference(self, dynamic: Sequence[DynamicInstruction]) -> SimulationResult:
        """The object-based cycle-accounting loop (the engine's golden model).

        This is the original per-``DynamicInstruction`` implementation; it
        drives every policy through the full hook protocol and serves as the
        behavioural reference every engine tier is tested against, and as
        the fallback for policies without an engine spec.
        """
        config = self.config
        stats = self.stats
        policy = self.policy

        # Per-register availability (idealised renaming: no false dependencies).
        reg_ready: Dict[str, int] = {}
        # Commit cycle of every instruction, used for the ROB occupancy limit.
        commit_cycles: List[int] = []
        # In-flight stores for store-to-load forwarding: addr -> (data_ready, commit).
        store_inflight: Dict[int, Tuple[int, int]] = {}

        # Frontend state.
        fetch_cycle = 0
        fetched_this_cycle = 0
        fetch_not_before = 0

        # Issue / commit bandwidth bookkeeping.
        issue_busy: Dict[int, int] = {}
        last_commit_cycle = 0
        committed_this_cycle = 0

        # Speculation window tracking for issue-gating defenses.
        window_resolve_cycle = 0

        # Periodic BTU flush (the Q4 interrupt experiment).
        next_btu_flush = self.btu_flush_interval if self.btu_flush_interval else None

        for dyn in dynamic:
            # ---------------------------- FETCH ---------------------------- #
            candidate = max(fetch_cycle, fetch_not_before)
            icache_delay = self.icache.fetch_latency(dyn.pc)
            if icache_delay:
                candidate += icache_delay
            if candidate > fetch_cycle:
                fetch_cycle = candidate
                fetched_this_cycle = 0
            if fetched_this_cycle >= config.fetch_width:
                fetch_cycle += 1
                fetched_this_cycle = 0
            fetched_this_cycle += 1
            this_fetch = fetch_cycle
            stats.fetched_instructions += 1

            # ------------------------- DISPATCH ---------------------------- #
            dispatch_cycle = this_fetch + config.frontend_depth
            index = len(commit_cycles)
            if index >= config.rob_size:
                dispatch_cycle = max(dispatch_cycle, commit_cycles[index - config.rob_size])
            stats.renamed_instructions += 1

            # -------------------------- OPERANDS --------------------------- #
            ready = dispatch_cycle
            for src in dyn.srcs:
                producer_ready = reg_ready.get(src)
                if producer_ready is not None and producer_ready > ready:
                    ready = producer_ready

            # Memory access latency (loads) and store-to-load forwarding.
            exec_latency = self._latency(dyn)
            if dyn.is_load and dyn.mem_address is not None:
                stats.loads += 1
                inflight = store_inflight.get(dyn.mem_address)
                # A prior store only forwards while it still occupies the
                # store queue (it has not committed before this load reaches
                # the backend); older stores are served by the cache.
                if inflight is not None and inflight[1] <= dispatch_cycle:
                    inflight = None
                if inflight is not None:
                    data_ready, store_commit = inflight
                    if policy.allow_store_forwarding(dyn):
                        stats.store_forwards += 1
                        ready = max(ready, data_ready)
                        exec_latency = config.store_forward_latency
                    else:
                        stats.stl_blocked += 1
                        ready = max(ready, store_commit)
                        exec_latency = self.caches.load_latency(dyn.mem_address)
                else:
                    exec_latency = self.caches.load_latency(dyn.mem_address)
            elif dyn.is_store and dyn.mem_address is not None:
                stats.stores += 1

            # ------------------------ DEFENSE GATE -------------------------- #
            if policy.gates_issue(dyn) and window_resolve_cycle > ready:
                stats.delayed_instructions += 1
                stats.delay_cycles += window_resolve_cycle - ready
                ready = window_resolve_cycle

            # --------------------------- ISSUE ------------------------------ #
            issue_cycle = ready
            while issue_busy.get(issue_cycle, 0) >= config.issue_width:
                issue_cycle += 1
            issue_busy[issue_cycle] = issue_busy.get(issue_cycle, 0) + 1
            stats.issued_instructions += 1

            complete_cycle = issue_cycle + exec_latency

            if dyn.dst is not None:
                reg_ready[dyn.dst] = complete_cycle
            if dyn.is_store and dyn.mem_address is not None:
                self.caches.store_latency(dyn.mem_address)

            # --------------------------- COMMIT ----------------------------- #
            commit_cycle = max(complete_cycle + 1, last_commit_cycle)
            if commit_cycle == last_commit_cycle and committed_this_cycle >= config.commit_width:
                commit_cycle += 1
            if commit_cycle > last_commit_cycle:
                last_commit_cycle = commit_cycle
                committed_this_cycle = 0
            committed_this_cycle += 1
            commit_cycles.append(commit_cycle)
            stats.committed_instructions += 1
            if dyn.is_store and dyn.mem_address is not None:
                store_inflight[dyn.mem_address] = (complete_cycle, commit_cycle)
                if len(store_inflight) > config.sq_size:
                    store_inflight.pop(next(iter(store_inflight)))
            policy.on_commit(dyn)

            # -------------------------- BRANCHES ---------------------------- #
            if dyn.is_branch:
                stats.branches += 1
                if dyn.crypto:
                    stats.crypto_branches += 1
                resolve_cycle = complete_cycle
                outcome = policy.on_branch(dyn)
                self._account_branch(outcome, stats)

                if outcome.stall_until_resolve:
                    stall_target = resolve_cycle + 1
                    stats.fetch_stall_cycles += max(0, stall_target - this_fetch)
                    fetch_not_before = max(fetch_not_before, stall_target)
                elif outcome.mispredicted:
                    redirect = resolve_cycle + config.mispredict_penalty
                    stats.squash_cycles += max(0, redirect - this_fetch)
                    fetch_not_before = max(fetch_not_before, redirect)
                if outcome.extra_fetch_latency:
                    fetch_not_before = max(
                        fetch_not_before, this_fetch + outcome.extra_fetch_latency
                    )
                if outcome.creates_speculation_window:
                    window_resolve_cycle = max(window_resolve_cycle, resolve_cycle)

            # ----------------------- PERIODIC BTU FLUSH --------------------- #
            if next_btu_flush is not None and last_commit_cycle >= next_btu_flush:
                self.btu.flush()
                next_btu_flush += self.btu_flush_interval  # type: ignore[operator]

        stats.instructions = len(commit_cycles)
        stats.cycles = last_commit_cycle
        stats.bpu_predicted = self.bpu.stats.lookups
        stats.bpu_mispredicted = self.bpu.stats.total_mispredictions
        stats.extra["l1d_miss_rate"] = self.caches.l1d.stats.miss_rate
        stats.extra["l1i_miss_rate"] = self.icache.cache.stats.miss_rate
        stats.extra["btu_occupancy"] = self.btu.occupancy()

        program_name = self.bundle.program.name if self.bundle is not None else "program"
        return SimulationResult(
            program_name=program_name,
            policy_name=self.policy.name,
            stats=stats,
            config=self.config,
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _latency(self, dyn: DynamicInstruction) -> int:
        opcode = dyn.opcode
        config = self.config
        if opcode is Opcode.MUL:
            return config.mul_latency
        if opcode in (Opcode.DIV, Opcode.MOD):
            return config.div_latency
        if opcode is Opcode.STORE:
            return config.store_latency
        if dyn.is_branch:
            return config.branch_resolve_latency
        return config.alu_latency

    @staticmethod
    def _account_branch(outcome: BranchFetchOutcome, stats: PipelineStats) -> None:
        if outcome.integrity_stall:
            stats.integrity_stall_branches += 1


def simulate(
    program: Program,
    policy: Optional[DefensePolicy] = None,
    config: CoreConfig = GOLDEN_COVE_LIKE,
    bundle: Optional[TraceBundle] = None,
    result: Optional[ExecutionResult] = None,
    memory_overrides: Optional[Dict[int, int]] = None,
    btu_flush_interval: Optional[int] = None,
    warmup_passes: int = 1,
    max_steps: int = 5_000_000,
) -> SimulationResult:
    """Convenience wrapper: execute ``program`` sequentially, then time it.

    Parameters
    ----------
    program:
        The program to simulate.
    policy:
        Defense policy (defaults to the unsafe baseline).
    bundle:
        Pre-computed trace bundle; required by Cassandra-family policies.
    result:
        A pre-computed sequential execution (re-used across policies so the
        functional work is done once per workload).
    btu_flush_interval:
        When set, the BTU is flushed every this-many cycles (the Q4
        interrupt experiment).
    warmup_passes:
        Number of untimed passes over the dynamic stream before the measured
        pass, so predictors and caches reach the warm steady state the paper
        measures (its SimPoint regions execute long after warm-up).
    """
    if result is None:
        executor = SequentialExecutor(max_steps=max_steps)
        result = executor.run(program, memory_overrides=memory_overrides)
    # A one-point batch: the production tiers for policies with an engine
    # spec, the reference loop (via the batch fallback) for any other.
    from repro.engine.batch import PointSpec, simulate_batch

    point = PointSpec(
        policy=policy or UnsafeBaseline(),
        btu_flush_interval=btu_flush_interval,
        warmup_passes=warmup_passes,
    )
    [simulation] = simulate_batch(
        result, bundle, [point], config=config, program_name=program.name
    )
    return simulation
