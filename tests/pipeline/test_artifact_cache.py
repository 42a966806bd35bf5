"""The content-addressed on-disk artifact cache."""

import os
import pickle
import shutil
from pathlib import Path

import pytest

from repro.api import SimulationRequest, SimulationService
from repro.crypto.workloads import get_workload
from repro.experiments.runner import prepare_workload
from repro.pipeline import (
    ArtifactCache,
    default_cache_dir,
    inputs_fingerprint,
    program_fingerprint,
    stable_digest,
)
from repro.pipeline.artifacts import STORE_FILES
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
    request = SimulationRequest(WORKLOAD, "cassandra")
    [warm_result] = warm.simulate_batch([request])
    [cold_result] = cold.simulate_batch([request])
    assert warm_result.cycles == cold_result.cycles


def _service(cache):
    return SimulationService(names=[WORKLOAD], cache=cache, backend="serial")


def _served(service, design):
    """One point through ``service``: probed in its cache, else computed
    and persisted."""
    request = SimulationRequest(WORKLOAD, design)
    return service.run(request).get(request)


def test_simulation_results_persist_across_processes(artifact_cache):
    with _service(artifact_cache) as first:
        cycles = _served(first, "cassandra").cycles
    # workload payload + lowered trace + simulation
    assert artifact_cache.entry_count() == 3

    warm_cache = ArtifactCache(root=artifact_cache.root)
    with _service(warm_cache) as warm:
        assert _served(warm, "cassandra").cycles == cycles
        # artifact payload + simulation payload (the lowered trace is not
        # even loaded: the persisted simulation short-circuits before
        # lowering).
        assert warm_cache.stats.hits == 2

        # A simulation point outside the persisted set reuses the lowered
        # trace from disk instead of re-lowering.
        _served(warm, "unsafe-baseline")
        assert warm_cache.stats.hits == 3


def test_corrupt_entry_is_a_miss_and_heals(artifact_cache):
    prepare_workload(WORKLOAD, cache=artifact_cache)
    kernel = get_workload(WORKLOAD).kernel()
    digest = workload_artifact_digest(kernel)
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


# --------------------------------------------------------------------------- #
# The simulation store
# --------------------------------------------------------------------------- #
SWEEP_WORKLOADS = ["ChaCha20_ct", "Poly1305_ctmul"]


def _sweep_service(root):
    from repro.api import SimulationService

    return SimulationService(
        names=SWEEP_WORKLOADS, jobs=1, backend="serial", cache=ArtifactCache(root=root)
    )


def _sweep_matrix():
    from repro.api import ScenarioMatrix

    return ScenarioMatrix(designs=("unsafe-baseline", "cassandra", "spt"))


def _simulation_files(root):
    return sorted(os.listdir(os.path.join(root, "v1", "simulation")))


def test_a_serial_sweep_commits_once_per_batch(tmp_path):
    """Each workload's batch is one store commit, and no per-point file
    is written."""
    from repro.testing import FaultPlan, activate

    root = str(tmp_path)
    service = _sweep_service(root)
    service.artifacts()  # preparation's file puts happen before the count
    with activate(FaultPlan()) as active:
        answer = service.run(_sweep_matrix())
        assert active.visits("cache-put") == len(SWEEP_WORKLOADS)
        assert active.visits("cache-stored") == len(SWEEP_WORKLOADS)
    assert service.cache.stats.stores >= len(answer)
    assert all(name.startswith(STORE_FILES["simulation"]) for name in _simulation_files(root))
    assert ArtifactCache(root=root).entry_count() == service.cache.entry_count()


def test_deleting_the_simulation_directory_evicts_every_point(tmp_path):
    root = str(tmp_path)
    first = _sweep_service(root)
    answer = first.run(_sweep_matrix())
    assert first.points_simulated == len(answer)

    warm = _sweep_service(root)
    assert warm.run(_sweep_matrix()).to_json() == answer.to_json()
    assert warm.points_simulated == 0  # every point came from the store

    shutil.rmtree(os.path.join(root, "v1", "simulation"))
    evicted = _sweep_service(root)
    assert evicted.run(_sweep_matrix()).to_json() == answer.to_json()
    assert evicted.points_simulated == len(answer)


def test_a_deleted_store_is_not_read_through_an_open_connection(tmp_path):
    cache = ArtifactCache(root=str(tmp_path))
    cache.put_many("simulation", "w", [("d1", {"cycles": 1}), ("d2", {"cycles": 2})])
    cache._memo.clear()  # read the store, not the memo put_many seeded
    assert cache.get("simulation", "w", "d1") == {"cycles": 1}
    cache._memo.clear()
    shutil.rmtree(tmp_path / "v1" / "simulation")
    assert cache.get("simulation", "w", "d1") is None
    cache.put_many("simulation", "w", [("d3", {"cycles": 3})])
    assert ArtifactCache(root=str(tmp_path)).entry_count() == 1


def test_an_unreadable_store_is_set_aside_and_replaced(tmp_path):
    cache = ArtifactCache(root=str(tmp_path))
    cache.put_many("simulation", "w", [("d1", {"cycles": 1})])
    directory = tmp_path / "v1" / "simulation"
    for path in directory.iterdir():
        path.unlink()
    store = directory / STORE_FILES["simulation"]
    store.write_bytes(b"not a database" * 100)

    reader = ArtifactCache(root=str(tmp_path))
    assert reader.get("simulation", "w", "d1") is None
    assert reader.stats.quarantined == 1
    assert (directory / (store.name + ".corrupt")).exists()
    reader.put_many("simulation", "w", [("d1", {"cycles": 1})])
    assert ArtifactCache(root=str(tmp_path)).get("simulation", "w", "d1") == {"cycles": 1}


def test_a_forked_child_writes_through_its_own_connection(tmp_path):
    """The child neither uses nor closes the connection it inherited: its
    commit lands, and the parent's connection keeps working."""
    cache = ArtifactCache(root=str(tmp_path))
    cache.put_many("simulation", "w", [("parent", 1)])
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through its status
        try:
            cache.put_many("simulation", "w", [("child", 2)])
            cache._memo.clear()
            os._exit(0 if cache.get("simulation", "w", "parent") == 1 else 1)
        except BaseException:
            os._exit(2)
    _, status = os.waitpid(pid, 0)
    assert os.WEXITSTATUS(status) == 0
    cache.put_many("simulation", "w", [("after", 3)])
    fresh = ArtifactCache(root=str(tmp_path))
    assert [fresh.get("simulation", "w", d) for d in ("parent", "child", "after")] == [1, 2, 3]


def test_raw_entries_are_stored_verbatim_and_not_memoized(tmp_path):
    cache = ArtifactCache(root=str(tmp_path))
    cache.put("native-kernel", "unsafe", "d" * 24, b"\x7fELF...")
    path = cache.entry_file("native-kernel", "unsafe", "d" * 24)
    assert path.endswith(".so")
    with open(path, "rb") as handle:
        assert handle.read() == b"\x7fELF..."
    assert cache.entry_count() == 1
    memory = ArtifactCache(root=None)
    memory.put("native-kernel", "unsafe", "d" * 24, b"\x7fELF...")
    assert memory.entry_file("native-kernel", "unsafe", "d" * 24) is None
