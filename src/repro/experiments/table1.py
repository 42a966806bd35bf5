"""Table 1: branch analysis and k-mers compression statistics."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import BranchAnalysisStats, combine_stats, stats_from_bundle_scaled
from repro.api.service import ExperimentContext, default_context
from repro.experiments.registry import ExperimentSpec, register_experiment
from repro.experiments.runner import WorkloadArtifacts, format_table
from repro.pipeline.hashing import stable_digest

#: Number of back-to-back primitive invocations the Table 1 traces model.
#: The paper profiles full benchmark executions (traces of up to 90 M
#: elements); tiling the per-invocation traces reproduces that regime while
#: keeping the timing experiments on short, simulable inputs.
DEFAULT_INVOCATIONS = 256


def _scaled_stats(artifact: WorkloadArtifacts, invocations: int) -> BranchAnalysisStats:
    """One workload's Table 1 statistics at ``invocations`` (cached).

    The scaled statistics are a pure function of the prepared trace bundle,
    so they are stored as a ``table1-stats`` artifact keyed on the
    workload's content digest (which already covers the code fingerprint)
    and the invocation count.  Under ``--no-cache`` the entry lives in the
    service's memory-only cache, so a second run in the same process reads
    it back instead of recomputing.
    """
    return artifact.cache.load_or_compute(
        "table1-stats",
        artifact.name,
        stable_digest(artifact.content_digest, invocations),
        lambda: stats_from_bundle_scaled(artifact.bundle, invocations),
    )


def run_table1(
    ctx: Optional[ExperimentContext] = None,
    names: Optional[Sequence[str]] = None,
    invocations: int = DEFAULT_INVOCATIONS,
) -> List[Dict[str, object]]:
    """Compute the Table 1 rows (one per workload plus the ``All`` row).

    A pure trace-analysis study: no simulation requests, only the prepared
    artifacts' trace bundles.
    """
    ctx = default_context(ctx, names=names)
    all_stats = []
    rows: List[Dict[str, object]] = []
    for artifact in ctx.artifacts():
        stats = (
            _scaled_stats(artifact, invocations) if invocations > 1 else artifact.analysis
        )
        all_stats.append(stats)
        row = stats.as_table_row()
        row["suite"] = artifact.suite
        rows.append(row)
    combined = combine_stats(all_stats).as_table_row()
    combined["suite"] = "all"
    rows.append(combined)
    return rows


def format_table1(rows: Sequence[Dict[str, object]]) -> str:
    columns = [
        "program",
        "suite",
        "vanilla_avg",
        "vanilla_max",
        "kmers_avg",
        "kmers_max",
        "compression_avg",
        "compression_max",
    ]
    return format_table(rows, columns)


register_experiment(
    ExperimentSpec(
        name="table1",
        title="Table 1: branch analysis and k-mers compression statistics",
        run=run_table1,
        format=format_table1,
    )
)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_table1(run_table1()))
