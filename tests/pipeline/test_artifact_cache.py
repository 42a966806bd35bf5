"""The content-addressed on-disk artifact cache."""

import pickle
from pathlib import Path

import pytest

from repro.analysis.tracegen import TraceParameters
from repro.crypto.workloads import get_workload
from repro.experiments.runner import prepare_workload
from repro.pipeline import (
    ArtifactCache,
    default_cache_dir,
    inputs_fingerprint,
    program_fingerprint,
    stable_digest,
)
from repro.pipeline.parallel import workload_artifact_digest

WORKLOAD = "SHA-256"


def _bundles_equivalent(first, second) -> bool:
    if set(first.branches) != set(second.branches):
        return False
    if first.counts() != second.counts():
        return False
    if set(first.hardware_traces()) != set(second.hardware_traces()):
        return False
    return first.params == second.params


def test_cold_vs_warm_round_trip(artifact_cache, tmp_path):
    cold = prepare_workload(WORKLOAD, cache=artifact_cache)
    assert artifact_cache.stats.misses == 1
    # The record-free workload payload and the lowered trace of its run.
    assert artifact_cache.stats.stores == 2
    assert artifact_cache.entry_count() == 2

    # A fresh cache object over the same directory models a new process.
    warm_cache = ArtifactCache(root=artifact_cache.root)
    warm = prepare_workload(WORKLOAD, cache=warm_cache)
    assert warm_cache.stats.hits == 1
    assert warm_cache.stats.misses == 0

    assert _bundles_equivalent(cold.bundle, warm.bundle)
    assert cold.result.instruction_count == warm.result.instruction_count
    # The timing simulation over the reloaded artifacts is bit-identical.
    assert warm.simulate("cassandra").cycles == cold.simulate("cassandra").cycles


def test_simulation_results_persist_across_processes(artifact_cache):
    first = prepare_workload(WORKLOAD, cache=artifact_cache)
    cycles = first.simulate("cassandra").cycles
    # workload payload + lowered trace + simulation
    assert artifact_cache.entry_count() == 3

    warm_cache = ArtifactCache(root=artifact_cache.root)
    warm = prepare_workload(WORKLOAD, cache=warm_cache)
    result = warm.simulate("cassandra")
    assert result.cycles == cycles
    # artifact payload + simulation payload (the lowered trace is not even
    # loaded: the memoized simulation short-circuits before lowering).
    assert warm_cache.stats.hits == 2

    # A simulation point outside the persisted set reuses the lowered trace
    # from disk instead of re-lowering.
    warm.simulate("unsafe-baseline")
    assert warm_cache.stats.hits == 3


def test_trace_parameter_change_misses(artifact_cache):
    prepare_workload(WORKLOAD, cache=artifact_cache)
    assert artifact_cache.stats.stores == 2
    prepare_workload(WORKLOAD, cache=artifact_cache, trace_params=TraceParameters(max_k=8))
    # Different parameters are a different artifact, not a stale hit
    # (each preparation stores its payload and its lowered trace).
    assert artifact_cache.stats.stores == 4
    assert artifact_cache.entry_count() == 4


def test_corrupt_entry_is_a_miss_and_heals(artifact_cache):
    prepare_workload(WORKLOAD, cache=artifact_cache)
    kernel = get_workload(WORKLOAD).kernel()
    digest = workload_artifact_digest(kernel, TraceParameters())
    path = artifact_cache.path_for("workload-artifacts", WORKLOAD, digest)
    with open(path, "wb") as handle:
        handle.write(b"not a pickle")

    healing = ArtifactCache(root=artifact_cache.root)
    artifact = prepare_workload(WORKLOAD, cache=healing)
    assert healing.stats.misses >= 1
    assert artifact.analysis.branch_count > 0
    with open(path, "rb") as handle:
        payload = pickle.load(handle)  # healed entry is valid again
    assert payload[0].instruction_count == artifact.result.instruction_count


def test_corrupt_entry_is_quarantined_not_rereread(tmp_path):
    """A truncated pickle is renamed aside on first read — it must not be
    re-read and re-missed on every subsequent run — and the recompute
    re-stores a valid entry at the original path."""
    import os

    cache = ArtifactCache(root=str(tmp_path))
    cache.put("kind", "entry", "d" * 24, {"payload": 42})
    path = cache.path_for("kind", "entry", "d" * 24)
    with open(path, "rb") as handle:
        whole = handle.read()
    with open(path, "wb") as handle:
        handle.write(whole[: len(whole) // 2])  # a torn disk write

    reader = ArtifactCache(root=str(tmp_path))
    assert reader.get("kind", "entry", "d" * 24) is None
    assert reader.stats.quarantined == 1
    assert not os.path.exists(path)  # moved aside, not left to re-miss
    assert os.path.exists(path + ".corrupt")
    assert reader.entry_count() == 0  # .corrupt files are not entries

    # A second read is a plain miss, not another quarantine.
    assert reader.get("kind", "entry", "d" * 24) is None
    assert reader.stats.quarantined == 1

    # The heal path: recompute re-puts at the original path and hits again.
    reader.put("kind", "entry", "d" * 24, {"payload": 42})
    fresh = ArtifactCache(root=str(tmp_path))
    assert fresh.get("kind", "entry", "d" * 24) == {"payload": 42}
    assert fresh.stats.hits == 1


def test_memory_only_cache_memoizes(tmp_path):
    cache = ArtifactCache(root=None)
    assert cache.get("kind", "name", "digest") is None
    cache.put("kind", "name", "digest", {"payload": 1})
    assert cache.get("kind", "name", "digest") == {"payload": 1}
    assert cache.entry_count() == 0  # nothing on disk
    assert cache.path_for("kind", "name", "digest") is None


def test_fingerprints_are_stable_and_content_sensitive():
    first = get_workload("ChaCha20_ct").kernel()
    second = get_workload("ChaCha20_ct").kernel()
    assert program_fingerprint(first.program) == program_fingerprint(second.program)
    assert inputs_fingerprint(first.inputs) == inputs_fingerprint(second.inputs)
    other = get_workload("SHA-256").kernel()
    assert program_fingerprint(first.program) != program_fingerprint(other.program)
    assert stable_digest("a", (1, 2)) != stable_digest("a", (1, 3))
    assert stable_digest("a", (1, 2)) == stable_digest("a", (1, 2))


def test_prepare_reverifies_on_cache_hit(artifact_cache, monkeypatch):
    """A cache hit still runs the kernel's correctness check."""
    prepare_workload(WORKLOAD, cache=artifact_cache)
    workload = get_workload(WORKLOAD)
    kernel = workload.kernel()
    monkeypatch.setattr(kernel, "verify", lambda result: False)
    with pytest.raises(RuntimeError, match="correctness check"):
        prepare_workload(WORKLOAD, cache=artifact_cache)


def test_default_cache_dir_is_isolated(isolated_cache_root, tmp_path_factory):
    # The autouse conftest fixture keeps every default-root write in a temp dir.
    assert default_cache_dir() == str(isolated_cache_root)
    assert Path(default_cache_dir()).is_relative_to(tmp_path_factory.getbasetemp())
