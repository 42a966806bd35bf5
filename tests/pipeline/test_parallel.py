"""Parallel preparation and simulation must match the serial path exactly."""

import pytest

from repro.api import SimulationRequest, SimulationService, WorkloadRef
from repro.experiments.runner import prepare_workload
from repro.pipeline import ArtifactCache, prepare_kernels_parallel, simulate_points
from repro.pipeline.parallel import build_kernel
from repro.uarch.config import CoreConfig

NAMES = ["ChaCha20_ct", "SHA-256"]
REFS = [WorkloadRef.registry(name) for name in NAMES]
SMALL_CORE = CoreConfig(rob_size=64, fetch_width=4)


def test_parallel_prepare_matches_serial():
    parallel = prepare_kernels_parallel(REFS, cache=ArtifactCache(), jobs=2)
    serial = [prepare_workload(name) for name in NAMES]
    for par, ser in zip(parallel, serial):
        assert par.name == ser.name
        assert par.result.instruction_count == ser.result.instruction_count
        assert set(par.bundle.branches) == set(ser.bundle.branches)
        assert par.analysis.branch_count == ser.analysis.branch_count
        assert par.simulate("cassandra").cycles == ser.simulate("cassandra").cycles


def test_parallel_prepare_warms_shared_disk_cache(artifact_cache):
    prepare_kernels_parallel(REFS, cache=artifact_cache, jobs=2)
    # Workers persisted the payloads; a cold in-memory cache over the same
    # root must hit for every workload.
    warm = ArtifactCache(root=artifact_cache.root)
    for name in NAMES:
        prepare_workload(name, cache=warm)
    assert warm.stats.hits == len(NAMES)
    assert warm.stats.misses == 0


def test_simulate_points_parallel_matches_serial():
    points = [
        SimulationRequest(workload=name, design=design)
        for name in NAMES
        for design in ("unsafe-baseline", "cassandra")
    ] + [
        SimulationRequest(workload=NAMES[0], design="unsafe-baseline", config=SMALL_CORE),
        SimulationRequest(workload=NAMES[0], design="cassandra", btu_flush_interval=300),
    ]

    par_artifacts = [prepare_workload(name) for name in NAMES]
    parallel = simulate_points(par_artifacts, points, jobs=2)
    serial = simulate_points([prepare_workload(name) for name in NAMES], points, jobs=1)
    assert len(parallel) == len(serial) == len(points)
    for request, par, ser in zip(points, parallel, serial):
        assert par.program_name == ser.program_name
        assert par.cycles == ser.cycles, request
        assert par.stats.instructions == ser.stats.instructions
        assert par.stats.bpu_mispredicted == ser.stats.bpu_mispredicted

    # simulate_points only computes: nothing landed in the artifact cache.
    by_name = {artifact.name: artifact for artifact in par_artifacts}
    assert all(by_name[r.workload.name].cached_simulation(r) is None for r in points)
    # The non-default config got its own, slower result (stale-cache fix).
    assert parallel[4].config == SMALL_CORE
    assert parallel[4].cycles > parallel[0].cycles


def test_pipeline_single_artifact_prepares_only_that_workload(artifact_cache):
    service = SimulationService(names=NAMES, cache=artifact_cache, jobs=1)
    artifact = service.artifact(NAMES[0])
    assert artifact.name == NAMES[0]
    assert service.stats()["prepared"] == 1  # the other workload stayed cold


def test_service_prepares_registry_and_synthetic_refs_in_one_fan_out(monkeypatch):
    from repro.pipeline import parallel

    calls = []
    original = parallel.prepare_kernels_parallel

    def counting(refs, **kwargs):
        calls.append([ref.name for ref in refs])
        return original(refs, **kwargs)

    monkeypatch.setattr(parallel, "prepare_kernels_parallel", counting)
    synthetic = WorkloadRef.synthetic("chacha20", "90s/10c")
    service = SimulationService(names=NAMES[:1], jobs=2, backend="serial")
    service.run(
        [
            SimulationRequest(workload=NAMES[0], design="unsafe-baseline"),
            SimulationRequest(workload=synthetic, design="unsafe-baseline"),
        ]
    )
    assert calls == [[NAMES[0], synthetic.name]]
    assert service.artifact(synthetic.name) is service.artifact(synthetic)
    service.close()


def test_synthetic_kernel_specs_prepare_in_workers():
    """Figure 8's (primitive, mix) grid builds inside workers, not the parent."""
    refs = [WorkloadRef.synthetic("chacha20", mix) for mix in ("90s/10c", "all-crypto")]
    parallel = prepare_kernels_parallel(refs, cache=ArtifactCache(), jobs=2)
    serial = prepare_kernels_parallel(refs, cache=ArtifactCache(), jobs=1)
    assert [a.name for a in parallel] == [a.name for a in serial]
    for par, ser in zip(parallel, serial):
        assert par.suite == "synthetic"
        assert par.result.instruction_count == ser.result.instruction_count
        assert set(par.bundle.branches) == set(ser.bundle.branches)
        assert (
            par.simulate("cassandra+prospect").cycles
            == ser.simulate("cassandra+prospect").cycles
        )


def test_kernel_spec_rejects_unknown_kind():
    with pytest.raises(KeyError, match="unknown workload kind"):
        build_kernel(WorkloadRef(kind="nope", name="x"))


def test_lowered_trace_bytes_roundtrip():
    """The fork fan-out's preserialized payload reproduces every column."""
    from repro.engine.lowering import LOWERING_FORMAT_VERSION, LoweredTrace

    artifact = prepare_workload(NAMES[0])
    trace = artifact.lowered_trace()
    clone = LoweredTrace.from_bytes(trace.to_bytes())
    assert clone is not trace
    assert clone.columns() == trace.columns()
    assert clone.reg_names == trace.reg_names
    assert clone.max_pc == trace.max_pc
    assert clone.format_version == LOWERING_FORMAT_VERSION

    stale = LoweredTrace.from_bytes(trace.to_bytes())
    stale.format_version = LOWERING_FORMAT_VERSION + 1
    with pytest.raises(ValueError):
        LoweredTrace.from_bytes(stale.to_bytes())
    with pytest.raises(TypeError):
        import pickle

        LoweredTrace.from_bytes(pickle.dumps({"not": "a trace"}))


def test_code_fingerprint_is_stable_and_in_digests():
    from repro.analysis.tracegen import TraceParameters
    from repro.crypto.workloads import get_workload
    from repro.pipeline.hashing import code_fingerprint
    from repro.pipeline.parallel import workload_artifact_digest

    first = code_fingerprint()
    assert first == code_fingerprint()
    assert len(first) == 24 and int(first, 16) >= 0
    kernel = get_workload(NAMES[0]).kernel()
    digest = workload_artifact_digest(kernel, TraceParameters())
    assert digest == workload_artifact_digest(kernel, TraceParameters())
