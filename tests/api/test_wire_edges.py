"""Wire edge cases the HTTP gateway now rides on.

The gateway serializes every :class:`JobEvent` into an SSE frame and every
answer through ``ResultSet.to_wire``, so the JSON round-trips must hold at
the edges: every event kind, non-ASCII workload names and args, empty
tags, and request batches that name the same point twice.
"""

import json

import pytest

from repro.api import SimulationRequest, SimulationService
from repro.api.jobs import EVENT_KINDS, JobEvent
from repro.api.request import WorkloadRef
from repro.api.results import ResultSet
from repro.uarch.config import CoreConfig
from repro.uarch.core import SimulationResult
from repro.uarch.stats import PipelineStats

WORKLOAD = "ChaCha20_ct"


def roundtrip(event: JobEvent) -> JobEvent:
    """as_dict → real JSON bytes → from_dict, like the SSE data line."""
    return JobEvent.from_dict(json.loads(json.dumps(event.as_dict())))


# --------------------------------------------------------------------------- #
# JobEvent round-trips
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", EVENT_KINDS)
def test_every_event_kind_roundtrips(kind):
    request = SimulationRequest(workload=WORKLOAD, design="cassandra")
    payloads = {
        "queued": {"points": 2, "priority": -3, "tags": ["smoke", "naïve-täg"]},
        "prepared": {"workloads": [WORKLOAD]},
        "point-done": {"cycles": 12345},
        "cache-hit": {"cycles": 0},
        "done": {"points": 2, "computed": 1, "cache_hits": 1},
        "failed": {"error": "boom: übel ☂"},
        "cancelled": {"completed": 1},
    }
    event = JobEvent(
        kind=kind,
        job_id="job-42",
        seq=7,
        request=request if kind.startswith(("point", "cache")) else None,
        payload=payloads.get(kind),
    )
    back = roundtrip(event)
    assert back == event
    assert back.terminal == (kind in ("done", "failed", "cancelled"))


def test_queued_event_with_empty_tags_roundtrips():
    event = JobEvent(
        kind="queued",
        job_id="job-1",
        seq=0,
        payload={"points": 0, "priority": 0, "tags": []},
    )
    back = roundtrip(event)
    assert back == event
    assert back.payload["tags"] == []


def test_event_without_payload_roundtrips():
    event = JobEvent(kind="prepared", job_id="job-1", seq=3)
    assert roundtrip(event) == event


# --------------------------------------------------------------------------- #
# ResultSet wire round-trips
# --------------------------------------------------------------------------- #
def result_for(request: SimulationRequest, cycles: int = 1000) -> SimulationResult:
    return SimulationResult(
        program_name=request.workload.name,
        policy_name=request.design,
        stats=PipelineStats(cycles=cycles, instructions=cycles // 2),
        config=CoreConfig(),
    )


def test_resultset_wire_with_non_ascii_workload():
    """Non-registry refs cross the wire unvalidated, so names and args can
    carry any unicode the client minted."""
    ref = WorkloadRef(kind="synthetic", name="sünthetic-Ω-混合", args=("Ω", "混合"))
    request = SimulationRequest(workload=ref, design="cassandra")
    original = ResultSet([(request, result_for(request))])
    wire = original.to_wire()
    back = ResultSet.from_wire(wire)
    assert back.to_json() == original.to_json()
    (entry,) = list(back)
    assert entry[0].workload.name == "sünthetic-Ω-混合"
    assert entry[0].workload.args == ("Ω", "混合")
    # And the wire survives another hop unchanged.
    assert ResultSet.from_wire(back.to_wire()).to_wire() == wire


def test_resultset_wire_empty_args_and_suite():
    ref = WorkloadRef(kind="registry", name=WORKLOAD, args=(), suite="")
    request = SimulationRequest(workload=ref, design="unsafe-baseline")
    original = ResultSet([(request, result_for(request, cycles=7))])
    back = ResultSet.from_wire(original.to_wire())
    (entry,) = list(back)
    assert entry[0].workload.args == ()
    assert entry[0].workload.suite == ""
    assert entry[1].cycles == 7


def test_empty_resultset_roundtrips():
    assert len(ResultSet.from_wire(ResultSet().to_wire())) == 0


# --------------------------------------------------------------------------- #
# Duplicate points in one batch
# --------------------------------------------------------------------------- #
def test_duplicate_points_collapse_on_expand_and_submit():
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    request = SimulationRequest(workload=WORKLOAD, design="unsafe-baseline")
    duplicated = [request, request, SimulationRequest(workload=WORKLOAD, design="unsafe-baseline")]

    assert service.expand(duplicated) == [request]

    before = service.points_simulated
    handle = service.submit(duplicated)
    results = handle.result(timeout=300)
    assert len(handle.requests) == 1
    assert len(results) == 1
    assert service.points_simulated - before == 1
    done = handle.history()[-1]
    assert done.payload == {"points": 1, "computed": 1, "cache_hits": 0}
    service.close()
