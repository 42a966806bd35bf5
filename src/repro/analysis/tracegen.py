"""Automatic trace generation (Algorithm 2 of the paper).

The procedure runs the program with two different inputs, generates k-mers
traces per static branch for each run, and only keeps traces for branches
whose compressed trace is identical across the inputs — other branches are
marked *input dependent* and the hardware stalls fetch for them until they
resolve (the paper's stream-loop case).  The output is a
:class:`TraceBundle`: per-branch hardware traces, the hint table, and timing
of every analysis step (used to reproduce the Section 7.5 runtime breakdown).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.dna import encode_vanilla_trace
from repro.analysis.hints import BranchHint, HintTable
from repro.analysis.kmers import KmersResult, compress_sequence
from repro.analysis.raw_trace import RawTrace, collect_raw_traces
from repro.analysis.representation import HardwareTrace, build_hardware_trace
from repro.analysis.vanilla import VanillaTrace, to_vanilla_trace
from repro.arch.executor import ExecutionResult, SequentialExecutor
from repro.isa.program import Program

MemoryInput = Mapping[int, int]


@dataclass(frozen=True)
class TraceParameters:
    """The knobs of Algorithm 2 that change what a :class:`TraceBundle` holds.

    Bundles generated with different parameters are different artifacts; the
    pipeline's on-disk cache keys on this record (plus the program content)
    so a parameter change never returns a stale bundle.
    """

    crypto_only: bool = True
    max_k: int = 16

    def identity(self) -> tuple:
        return (self.crypto_only, self.max_k)


@dataclass
class BranchTraceData:
    """Everything the analysis produced for one static branch."""

    branch_pc: int
    raw: RawTrace
    vanilla: VanillaTrace
    kmers: Optional[KmersResult]
    hardware: Optional[HardwareTrace]
    hint: BranchHint

    @property
    def is_single_target(self) -> bool:
        return self.hint.single_target

    @property
    def is_input_dependent(self) -> bool:
        return self.hint.input_dependent


@dataclass
class StepTimings:
    """Wall-clock runtime of each step of Algorithm 2 (Section 7.5)."""

    detect_branches_s: float = 0.0
    collect_raw_s: float = 0.0
    vanilla_s: float = 0.0
    dna_s: float = 0.0
    kmers_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "A_detect_static_branches": self.detect_branches_s,
            "B_collect_raw_traces": self.collect_raw_s,
            "C_vanilla_traces": self.vanilla_s,
            "D_dna_encoding": self.dna_s,
            "E_kmers_compression": self.kmers_s,
        }


@dataclass
class TraceBundle:
    """The full product of the trace generation procedure for one program."""

    program: Program
    branches: Dict[int, BranchTraceData]
    hint_table: HintTable
    timings: StepTimings = field(default_factory=StepTimings)
    params: TraceParameters = field(default_factory=TraceParameters)

    def hardware_traces(self) -> Dict[int, HardwareTrace]:
        """Traces the BTU can load, keyed by branch PC."""
        return {
            pc: data.hardware
            for pc, data in self.branches.items()
            if data.hardware is not None
        }

    def input_dependent_branches(self) -> List[int]:
        return [pc for pc, data in self.branches.items() if data.is_input_dependent]

    def counts(self) -> Dict[str, int]:
        summary = self.hint_table.counts()
        summary["analyzed_branches"] = len(self.branches)
        return summary


def generate_kmers_trace(raw: RawTrace) -> Tuple[VanillaTrace, KmersResult]:
    """Steps C-E of Algorithm 2 for a single branch's raw trace."""
    vanilla = to_vanilla_trace(raw)
    sequence = encode_vanilla_trace(vanilla)
    return vanilla, compress_sequence(sequence)


def _kmers_signature(kmers: KmersResult) -> Tuple:
    """A comparable summary of a k-mers trace (the ``diff`` of Algorithm 2).

    Two runs are considered to agree when their compressed traces expand to
    the same pattern structure: same RLE'd trace of pattern expansions.
    """
    trace = []
    for symbol, count in kmers.kmers_trace:
        expansion = tuple(
            (element.target, element.count) for element in kmers.pattern_elements(symbol)
        )
        trace.append((expansion, count))
    return tuple(trace)


def generate_trace_bundle(
    program: Program,
    inputs: Sequence[MemoryInput],
    crypto_only: bool = True,
    executor: Optional[SequentialExecutor] = None,
    max_k: int = 16,
    primary: Optional[ExecutionResult] = None,
) -> TraceBundle:
    """Algorithm 2: produce hardware traces and hints for a program.

    Parameters
    ----------
    program:
        The constant-time program to analyse.
    inputs:
        At least two memory-override mappings providing different
        confidential inputs.  Branches whose compressed traces differ across
        the inputs are marked input-dependent and get no recorded trace.
    crypto_only:
        Restrict the analysis to branches inside crypto PC ranges.
    primary:
        An already computed run of ``program`` on ``inputs[0]``; it is used
        instead of executing that input again, and its
        :attr:`~repro.arch.executor.ExecutionResult.seconds` count towards
        step A.

    The diff inputs ``inputs[1:]`` run with ``record_dynamic=False``: the
    analysis reads only their branch outcomes.
    """
    if len(inputs) < 2:
        raise ValueError("Algorithm 2 requires at least two inputs to diff traces")
    if primary is not None and primary.program is not program:
        raise ValueError("the primary execution is not a run of this program")
    executor = executor or SequentialExecutor()
    diff_executor = SequentialExecutor(max_steps=executor.max_steps, record_dynamic=False)
    timings = StepTimings()

    # Step A: detect static branches by running every input.
    supplied_seconds = primary.seconds if primary is not None else 0.0
    start = time.perf_counter()
    if primary is None:
        primary = executor.run(program, memory_overrides=dict(inputs[0]))
    results: List[ExecutionResult] = [primary] + [
        diff_executor.run(program, memory_overrides=dict(input_map))
        for input_map in inputs[1:]
    ]
    raw_per_input: List[Dict[int, RawTrace]] = [
        collect_raw_traces(program, result=result, crypto_only=crypto_only)
        for result in results
    ]
    branch_pcs = sorted(raw_per_input[0].keys())
    timings.detect_branches_s = time.perf_counter() - start + supplied_seconds

    branches: Dict[int, BranchTraceData] = {}
    hint_table = HintTable(program)

    for branch_pc in branch_pcs:
        # Step B: raw traces (already collected per input above).
        start = time.perf_counter()
        raws = [per_input.get(branch_pc) for per_input in raw_per_input]
        timings.collect_raw_s += time.perf_counter() - start
        primary_raw = raws[0]
        assert primary_raw is not None

        # Single-target branches need no trace at all, only the hint.
        if primary_raw.is_single_target and all(
            raw is not None and raw.is_single_target and raw.unique_targets == primary_raw.unique_targets
            for raw in raws
        ):
            vanilla = to_vanilla_trace(primary_raw)
            hint = BranchHint(
                branch_pc=branch_pc,
                single_target=True,
                single_target_pc=primary_raw.unique_targets[0] if primary_raw.unique_targets else None,
                short_trace=True,
                has_trace=False,
            )
            hint_table.add(hint)
            branches[branch_pc] = BranchTraceData(
                branch_pc=branch_pc,
                raw=primary_raw,
                vanilla=vanilla,
                kmers=None,
                hardware=None,
                hint=hint,
            )
            continue

        # Steps C-E per input: vanilla -> DNA -> k-mers.
        per_input_kmers: List[KmersResult] = []
        primary_vanilla: Optional[VanillaTrace] = None
        for raw in raws:
            if raw is None:
                continue
            start = time.perf_counter()
            vanilla = to_vanilla_trace(raw)
            timings.vanilla_s += time.perf_counter() - start
            if primary_vanilla is None:
                primary_vanilla = vanilla
            start = time.perf_counter()
            sequence = encode_vanilla_trace(vanilla)
            timings.dna_s += time.perf_counter() - start
            start = time.perf_counter()
            per_input_kmers.append(compress_sequence(sequence, max_k=max_k))
            timings.kmers_s += time.perf_counter() - start
        assert primary_vanilla is not None

        # The diff of Algorithm 2: branches whose traces change with the
        # input are input-dependent and get no recorded trace.
        signatures = {_kmers_signature(kmers) for kmers in per_input_kmers}
        input_dependent = len(signatures) != 1 or len(per_input_kmers) != len(raws)

        if input_dependent:
            hint = BranchHint(
                branch_pc=branch_pc,
                single_target=False,
                input_dependent=True,
                has_trace=False,
            )
            hint_table.add(hint)
            branches[branch_pc] = BranchTraceData(
                branch_pc=branch_pc,
                raw=primary_raw,
                vanilla=primary_vanilla,
                kmers=per_input_kmers[0],
                hardware=None,
                hint=hint,
            )
            continue

        kmers = per_input_kmers[0]
        hardware = build_hardware_trace(kmers)
        hint = BranchHint(
            branch_pc=branch_pc,
            single_target=False,
            short_trace=hardware.is_short_trace,
            trace_address_delta=branch_pc & ((1 << 12) - 1),
            has_trace=True,
        )
        hint_table.add(hint)
        branches[branch_pc] = BranchTraceData(
            branch_pc=branch_pc,
            raw=primary_raw,
            vanilla=primary_vanilla,
            kmers=kmers,
            hardware=hardware,
            hint=hint,
        )

    return TraceBundle(
        program=program,
        branches=branches,
        hint_table=hint_table,
        timings=timings,
        params=TraceParameters(crypto_only=crypto_only, max_k=max_k),
    )
