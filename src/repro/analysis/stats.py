"""Aggregate branch-analysis statistics (the numbers behind Table 1).

For each program, Table 1 reports the average and maximum vanilla trace
size, the average and maximum k-mers size, and the average and maximum
compression rate, computed over static branches that are *not* single target
(their vanilla trace size is already 1 and the paper excludes them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.dna import encode_tiled_vanilla_trace
from repro.analysis.kmers import compress_sequence
from repro.analysis.tracegen import TraceBundle, generate_trace_bundle
from repro.arch.executor import SequentialExecutor
from repro.isa.program import Program


@dataclass
class BranchRow:
    """Per-branch metrics that feed the aggregation."""

    branch_pc: int
    vanilla_size: int
    kmers_size: int
    compression_rate: float
    single_target: bool
    input_dependent: bool


@dataclass
class BranchAnalysisStats:
    """Aggregated analysis statistics for one program (a Table 1 row)."""

    program_name: str
    rows: List[BranchRow] = field(default_factory=list)

    @property
    def analyzed_rows(self) -> List[BranchRow]:
        """Rows the paper includes: multi-target branches only."""
        return [row for row in self.rows if not row.single_target]

    @property
    def branch_count(self) -> int:
        return len(self.rows)

    @property
    def single_target_count(self) -> int:
        return sum(1 for row in self.rows if row.single_target)

    @property
    def vanilla_avg(self) -> float:
        rows = self.analyzed_rows
        return sum(row.vanilla_size for row in rows) / len(rows) if rows else 0.0

    @property
    def vanilla_max(self) -> int:
        rows = self.analyzed_rows
        return max((row.vanilla_size for row in rows), default=0)

    @property
    def kmers_avg(self) -> float:
        rows = self.analyzed_rows
        return sum(row.kmers_size for row in rows) / len(rows) if rows else 0.0

    @property
    def kmers_max(self) -> int:
        rows = self.analyzed_rows
        return max((row.kmers_size for row in rows), default=0)

    @property
    def compression_avg(self) -> float:
        rows = self.analyzed_rows
        return sum(row.compression_rate for row in rows) / len(rows) if rows else 0.0

    @property
    def compression_max(self) -> float:
        rows = self.analyzed_rows
        return max((row.compression_rate for row in rows), default=0.0)

    def as_table_row(self) -> Dict[str, float]:
        """The Table 1 row for this program."""
        return {
            "program": self.program_name,
            "vanilla_avg": self.vanilla_avg,
            "vanilla_max": self.vanilla_max,
            "kmers_avg": self.kmers_avg,
            "kmers_max": self.kmers_max,
            "compression_avg": self.compression_avg,
            "compression_max": self.compression_max,
            "branches": self.branch_count,
            "single_target": self.single_target_count,
        }


def stats_from_bundle(bundle: TraceBundle) -> BranchAnalysisStats:
    """Build Table 1 metrics from an existing trace bundle."""
    stats = BranchAnalysisStats(program_name=bundle.program.name)
    for branch_pc, data in sorted(bundle.branches.items()):
        vanilla_size = len(data.vanilla)
        if data.kmers is not None:
            kmers_size = data.kmers.size
            rate = data.kmers.compression_rate
        else:
            kmers_size = 1
            rate = float(vanilla_size)
        stats.rows.append(
            BranchRow(
                branch_pc=branch_pc,
                vanilla_size=vanilla_size,
                kmers_size=kmers_size,
                compression_rate=rate,
                single_target=data.is_single_target,
                input_dependent=data.is_input_dependent,
            )
        )
    return stats


def analyze_program(
    program: Program,
    inputs: Sequence[Mapping[int, int]],
    crypto_only: bool = True,
    executor: Optional[SequentialExecutor] = None,
) -> BranchAnalysisStats:
    """Run the full trace-generation procedure and aggregate Table 1 metrics."""
    bundle = generate_trace_bundle(
        program, inputs, crypto_only=crypto_only, executor=executor
    )
    return stats_from_bundle(bundle)


def stats_from_bundle_scaled(bundle: TraceBundle, invocations: int) -> BranchAnalysisStats:
    """Table 1 metrics for ``invocations`` back-to-back runs of the program.

    The paper's Table 1 traces come from full benchmark executions that
    invoke each primitive a large number of times (vanilla traces of up to
    90 M elements), whereas the timing experiments use short, simulable
    inputs.  Repeated invocations of a constant-time primitive simply repeat
    each branch's raw trace, so the scaled statistics tile each branch's
    vanilla trace ``invocations`` times (merging the runs that meet at each
    seam) and re-run the DNA/k-mers pipeline — which is exactly what a
    longer profiling run would have produced for these branches.
    """
    if invocations < 1:
        raise ValueError("invocations must be >= 1")
    stats = BranchAnalysisStats(program_name=bundle.program.name)
    for branch_pc, data in sorted(bundle.branches.items()):
        if data.is_single_target:
            stats.rows.append(
                BranchRow(
                    branch_pc=branch_pc,
                    vanilla_size=1,
                    kmers_size=1,
                    compression_rate=1.0,
                    single_target=True,
                    input_dependent=False,
                )
            )
            continue
        sequence = encode_tiled_vanilla_trace(data.vanilla, invocations)
        kmers = compress_sequence(sequence)
        stats.rows.append(
            BranchRow(
                branch_pc=branch_pc,
                vanilla_size=len(sequence),
                kmers_size=kmers.size,
                compression_rate=kmers.compression_rate,
                single_target=False,
                input_dependent=data.is_input_dependent,
            )
        )
    return stats


def combine_stats(all_stats: Sequence[BranchAnalysisStats]) -> BranchAnalysisStats:
    """Pool branches from several programs (the Table 1 ``All`` row)."""
    combined = BranchAnalysisStats(program_name="All")
    for stats in all_stats:
        combined.rows.extend(stats.rows)
    return combined
