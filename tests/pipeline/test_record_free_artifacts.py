"""Cached and shipped artifacts carry no dynamic records; they are rebuilt on demand.

The lowered trace is the only persisted form of the dynamic stream.  An
artifact rebuilds its records by re-executing its kernel — at most once —
only when that trace is unavailable or a policy needs the object loop.
"""

import os
import pickle
import shutil

import pytest

from repro.api import WorkloadRef
from repro.crypto.programs.common import KernelProgram
from repro.crypto.workloads import get_workload
from repro.engine import lowering
from repro.experiments.runner import (
    DESIGN_BUILDERS,
    DesignPoint,
    artifacts_for_kernel,
    prepare_workload,
)
from repro.pipeline import ArtifactCache
from repro.pipeline.parallel import prepare_kernels_parallel
from repro.uarch.core import CoreModel
from repro.uarch.defenses import CassandraPolicy

WORKLOAD = "Poly1305_ctmul"
POINTS = [DesignPoint("unsafe-baseline"), DesignPoint("cassandra")]


@pytest.fixture()
def counted_kernel_runs(monkeypatch):
    """Count every ``KernelProgram.run`` call in this process."""
    calls = []
    original = KernelProgram.run

    def run(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(KernelProgram, "run", run)
    return calls


def _prepare_counting_verifies(cache):
    """``prepare_workload`` with the kernel's correctness check counted."""
    workload = get_workload(WORKLOAD)
    kernel = workload.kernel()
    verifies = []
    original = kernel.verify

    def verify(result):
        verifies.append(result)
        return original(result)

    kernel.verify = verify
    artifact = artifacts_for_kernel(kernel, suite=workload.suite, name=WORKLOAD, cache=cache)
    return artifact, verifies


def _cold(cache):
    cold = prepare_workload(WORKLOAD, cache=cache)
    return {key: sim.as_dict() for key, sim in cold.simulate_batch(POINTS).items()}


def _evict(root, *kinds):
    for kind in kinds:
        shutil.rmtree(os.path.join(root, "v1", kind))


def _entry(root, kind):
    directory = os.path.join(root, "v1", kind)
    [name] = [name for name in os.listdir(directory) if name.endswith(".pkl")]
    return os.path.join(directory, name)


def test_persisted_payload_holds_no_records(artifact_cache):
    cold = prepare_workload(WORKLOAD, cache=artifact_cache)
    assert cold.result.has_records  # in-process preparation keeps its records
    with open(_entry(artifact_cache.root, "workload-artifacts"), "rb") as handle:
        result, _bundle = pickle.load(handle)
    assert result.dynamic == []
    assert result.instruction_count == cold.result.instruction_count
    assert not hasattr(result, "_lowered_trace")


@pytest.mark.parametrize("damage", ["deleted", "corrupt"])
def test_missing_lowered_trace_reexecutes_once(artifact_cache, counted_kernel_runs, damage):
    cold = _cold(artifact_cache)
    _evict(artifact_cache.root, "simulation")
    if damage == "deleted":
        _evict(artifact_cache.root, "lowered-trace")
    else:
        with open(_entry(artifact_cache.root, "lowered-trace"), "wb") as handle:
            handle.write(b"not a pickle")
    counted_kernel_runs.clear()

    warm_cache = ArtifactCache(root=artifact_cache.root)
    warm, verifies = _prepare_counting_verifies(warm_cache)
    assert verifies == [warm.result]  # the hit re-verified
    assert warm_cache.stats.hits == 1
    assert counted_kernel_runs == []
    assert not warm.result.has_records

    warm_results = warm.simulate_batch(POINTS)
    assert counted_kernel_runs == [WORKLOAD]
    assert {key: sim.as_dict() for key, sim in warm_results.items()} == cold
    assert warm_cache.stats.quarantined == (1 if damage == "corrupt" else 0)
    # The rebuilt lowering is stored again, and nothing re-executes twice.
    warm.simulate("spt")
    assert counted_kernel_runs == [WORKLOAD]
    assert os.path.exists(_entry(artifact_cache.root, "lowered-trace"))


def test_policy_without_engine_spec_on_record_free_artifact(
    artifact_cache, counted_kernel_runs, monkeypatch
):
    class CustomCassandra(CassandraPolicy):
        """Not the exact type, so it takes the object-loop fallback."""

    monkeypatch.setitem(DESIGN_BUILDERS, "custom", lambda bundle: CustomCassandra(bundle))
    prepare_workload(WORKLOAD, cache=artifact_cache).lowered_trace()
    warm = prepare_workload(WORKLOAD, cache=ArtifactCache(root=artifact_cache.root))
    assert not warm.result.has_records
    assert CustomCassandra(warm.bundle).engine_spec() is None
    counted_kernel_runs.clear()

    simulation = warm.simulate("custom")
    assert counted_kernel_runs == [WORKLOAD]

    fresh = warm.kernel.run(0)
    core = CoreModel(policy=CustomCassandra(warm.bundle), bundle=warm.bundle)
    core.run_reference(fresh.dynamic)
    core.reset_stats()
    reference = core.run_reference(fresh.dynamic)
    assert simulation.cycles == reference.cycles
    assert simulation.stats.as_dict() == reference.stats.as_dict()


def test_reexecution_must_reproduce_the_prepared_run(artifact_cache, monkeypatch):
    prepare_workload(WORKLOAD, cache=artifact_cache)
    _evict(artifact_cache.root, "lowered-trace")
    warm = prepare_workload(WORKLOAD, cache=ArtifactCache(root=artifact_cache.root))
    other_input = warm.kernel.run(1)
    monkeypatch.setattr(warm.kernel, "run", lambda index=0: other_input)
    assert other_input.state != warm.result.state
    with pytest.raises(RuntimeError, match="does not reproduce"):
        warm.recorded_result()
    with pytest.raises(RuntimeError, match="does not reproduce"):
        warm.lowered_trace()


def test_parallel_preparation_ships_record_free_results_and_lowered_traces(
    artifact_cache, monkeypatch
):
    lowered_in_parent = []
    original = lowering.lower_dynamic

    def lower_dynamic(*args, **kwargs):
        lowered_in_parent.append(os.getpid())
        return original(*args, **kwargs)

    monkeypatch.setattr(lowering, "lower_dynamic", lower_dynamic)
    names = ["ChaCha20_ct", WORKLOAD]
    refs = [WorkloadRef.registry(name) for name in names]
    artifacts = prepare_kernels_parallel(refs, cache=artifact_cache, jobs=2)
    shipped = {artifact.name: artifact.lowered_trace() for artifact in artifacts}
    for artifact in artifacts:
        assert not artifact.result.has_records
        artifact.simulate("cassandra")
    # The workers lowered the shipped traces (and persisted them); the
    # parent neither lowered nor re-executed.
    assert lowered_in_parent == []
    assert len(os.listdir(os.path.join(artifact_cache.root, "v1", "lowered-trace"))) == 2

    for artifact in artifacts:
        fresh = lowering.lower_execution(artifact.kernel.run(0))
        assert shipped[artifact.name].to_bytes() == fresh.to_bytes()
        path = artifact_cache.path_for(
            "workload-artifacts", artifact.name, artifact.content_digest
        )
        with open(path, "rb") as handle:
            assert pickle.load(handle)[0].dynamic == []
