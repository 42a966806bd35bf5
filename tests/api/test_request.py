"""SimulationRequest / WorkloadRef / ScenarioMatrix: value semantics + wire."""

import json

import pytest

from repro.api import (
    EMPTY_MATRIX,
    REQUEST_FORMAT_VERSION,
    ScenarioMatrix,
    SimulationRequest,
    WorkloadRef,
    expand_many,
)
from repro.uarch.config import GOLDEN_COVE_LIKE, BtuConfig, CacheConfig, CoreConfig

SMALL_CORE = CoreConfig(
    rob_size=64,
    fetch_width=4,
    btu=BtuConfig(entries=8),
    l1d=CacheConfig(32 * 1024, 64, 8, 5, name="L1D"),
)


# --------------------------------------------------------------------------- #
# CoreConfig serialization
# --------------------------------------------------------------------------- #
def test_core_config_dict_round_trip():
    for config in (GOLDEN_COVE_LIKE, SMALL_CORE):
        clone = CoreConfig.from_dict(config.as_dict())
        assert clone == config
        assert clone.identity() == config.identity()
        assert hash(clone) == hash(config)
    # The payload is genuinely JSON-serializable (nested dataclasses too).
    json.dumps(SMALL_CORE.as_dict())


def test_core_config_as_dict_returns_an_independent_copy():
    first = SMALL_CORE.as_dict()
    first["rob_size"] = -1
    first["l1d"]["size_bytes"] = -1
    second = SMALL_CORE.as_dict()
    assert second["rob_size"] == SMALL_CORE.rob_size
    assert second["l1d"]["size_bytes"] == SMALL_CORE.l1d.size_bytes
    # Equal configs built separately serialize alike.
    assert CoreConfig.from_dict(second).as_dict() == second


def test_core_config_from_dict_rejects_unknown_fields():
    payload = GOLDEN_COVE_LIKE.as_dict()
    payload["warp_drive"] = 9
    with pytest.raises(ValueError, match="warp_drive"):
        CoreConfig.from_dict(payload)


# --------------------------------------------------------------------------- #
# SimulationRequest
# --------------------------------------------------------------------------- #
def test_request_json_round_trip():
    request = SimulationRequest(
        workload=WorkloadRef.registry("SHA-256"),
        design="cassandra",
        config=SMALL_CORE,
        btu_flush_interval=300,
        warmup_passes=2,
    )
    clone = SimulationRequest.from_json(request.to_json())
    assert clone == request
    assert hash(clone) == hash(request)
    assert clone.key() == request.key()


def test_request_bytes_round_trip_and_synthetic_ref():
    request = SimulationRequest(
        workload=WorkloadRef.synthetic("chacha20", "90s/10c"),
        design="prospect",
    )
    clone = SimulationRequest.from_bytes(request.to_bytes())
    assert clone == request
    assert clone.workload.name == "synthetic-chacha20-90s/10c"
    assert clone.workload.kind == "synthetic"
    assert clone.workload.args == ("chacha20", "90s/10c")


def test_request_accepts_bare_workload_name():
    request = SimulationRequest(workload="ChaCha20_ct", design="spt")
    assert request.workload == WorkloadRef.registry("ChaCha20_ct")


def test_request_rejects_unknown_format_version():
    payload = SimulationRequest(workload="x", design="spt").as_dict()
    payload["version"] = REQUEST_FORMAT_VERSION + 1
    with pytest.raises(ValueError, match="format"):
        SimulationRequest.from_dict(payload)


def test_request_validation():
    with pytest.raises(ValueError):
        SimulationRequest(workload="x", design="")
    with pytest.raises(ValueError):
        WorkloadRef(name="")


# --------------------------------------------------------------------------- #
# ScenarioMatrix
# --------------------------------------------------------------------------- #
def test_matrix_cross_product_order_and_count():
    matrix = ScenarioMatrix(
        designs=("unsafe-baseline", "cassandra"),
        configs=(GOLDEN_COVE_LIKE, SMALL_CORE),
        warmup_passes=(1, 2),
    )
    requests = matrix.expand(["A", "B"])
    assert len(requests) == 2 * 2 * 2 * 2
    assert len(set(requests)) == len(requests)
    # Workload-major order keeps per-workload batches contiguous.
    assert [r.workload.name for r in requests[:8]] == ["A"] * 8
    assert requests[0].design == "unsafe-baseline"


def test_matrix_extend_override_and_dedup():
    matrix = ScenarioMatrix(designs=("unsafe-baseline", "cassandra")).extended(
        ScenarioMatrix(designs=("cassandra",), flush_intervals=(2000,)),
        # A fully overlapping override: every one of its points is already
        # in the main product and must not appear twice.
        ScenarioMatrix(designs=("cassandra",)),
    )
    requests = matrix.expand(["A"])
    assert len(requests) == 3
    assert len(set(requests)) == 3
    flushed = [r for r in requests if r.btu_flush_interval is not None]
    assert len(flushed) == 1 and flushed[0].design == "cassandra"


def test_matrix_pinned_workloads_ignore_defaults():
    matrix = ScenarioMatrix(
        workloads=(WorkloadRef.synthetic("chacha20", "all-crypto"),),
        designs=("prospect",),
    )
    requests = matrix.expand(["ignored-default"])
    assert [r.workload.name for r in requests] == ["synthetic-chacha20-all-crypto"]


def test_empty_matrix_and_summary():
    assert EMPTY_MATRIX.is_empty()
    assert EMPTY_MATRIX.expand(["A"]) == []
    summary = ScenarioMatrix(designs=("spt",)).summary()
    assert summary["designs"] == ["spt"]
    assert summary["requests_per_workload"] == 1


def test_expand_many_dedups_across_experiments():
    """The CLI's prefetch-union regression: experiments sharing designs must
    enqueue each (workload × design) point once, not once per experiment."""
    figure7 = ScenarioMatrix(designs=("unsafe-baseline", "cassandra", "cassandra+stl", "spt"))
    figure9 = ScenarioMatrix(designs=("unsafe-baseline", "cassandra"))
    lite = ScenarioMatrix(designs=("unsafe-baseline", "cassandra", "cassandra-lite"))
    union = expand_many([figure7, figure9, lite], default_workloads=["A", "B"])
    # 5 distinct designs per workload, not 4 + 2 + 3 = 9.
    assert len(union) == 5 * 2
    assert len(set(union)) == len(union)


def test_registry_matrices_expand_uniquely():
    """Every registered experiment's matrix — and their union — is duplicate-free."""
    from repro.experiments.registry import EXPERIMENT_REGISTRY

    names = ["ChaCha20_ct", "SHA-256"]
    for spec in EXPERIMENT_REGISTRY.values():
        requests = spec.matrix.expand(names)
        assert len(requests) == len(set(requests)), spec.name
    union = expand_many(
        [spec.matrix for spec in EXPERIMENT_REGISTRY.values()], default_workloads=names
    )
    assert len(union) == len(set(union))
    per_experiment = sum(
        len(spec.matrix.expand(names)) for spec in EXPERIMENT_REGISTRY.values()
    )
    # The union is strictly smaller than the per-experiment sum: the old
    # CLI prefetch enqueued those duplicates, the matrix union cannot.
    assert len(union) < per_experiment
