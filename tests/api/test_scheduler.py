"""Scheduler semantics: events, dedup, priority, cancellation, failure.

The job redesign's acceptance bar: submitting is non-blocking, every
lifecycle step is an observable typed event, a point an earlier job
computed is a cache hit, priorities order execution, and cancellation
never leaves the cache half-written.
"""

import pytest

from repro.api import (
    JobCancelled,
    JobEvent,
    ScenarioMatrix,
    SerialBackend,
    SimulationRequest,
    SimulationService,
)

WORKLOAD = "ChaCha20_ct"
SECOND_WORKLOAD = "SHA-256"


def make_service(**kwargs):
    kwargs.setdefault("names", [WORKLOAD])
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("backend", "serial")
    return SimulationService(**kwargs)


def kinds(events):
    return [event.kind for event in events]


def test_submit_streams_typed_events():
    service = make_service()
    handle = service.submit(
        ScenarioMatrix(designs=("unsafe-baseline", "cassandra")), tags=("smoke",)
    )
    results = handle.result()
    assert len(results) == 2
    assert handle.done and handle.state == "done"

    events = list(handle.events())  # full history replay after completion
    assert kinds(events) == [
        "queued",
        "prepared",
        "point-started",
        "point-started",
        "point-done",
        "point-done",
        "done",
    ]
    queued = events[0]
    assert queued.payload == {"points": 2, "priority": 0, "tags": ["smoke"]}
    assert events[1].payload == {"workloads": [WORKLOAD]}
    done = events[-1]
    assert done.payload == {"points": 2, "computed": 2, "cache_hits": 0}
    for event in events:
        clone = JobEvent.from_dict(event.as_dict())  # the wire round trip
        assert clone == event
    point_done = [event for event in events if event.kind == "point-done"]
    assert {event.request.design for event in point_done} == {
        "unsafe-baseline",
        "cassandra",
    }
    assert all(event.payload["cycles"] > 0 for event in point_done)


def test_cross_job_dedup_same_request_runs_once():
    service = make_service()
    request = SimulationRequest(workload=WORKLOAD, design="spt")
    first = service.submit(request)
    first.result()
    simulated = service.points_simulated
    assert simulated == 1

    second = service.submit(request)
    answer = second.result()
    assert service.points_simulated == simulated  # ran exactly once
    assert answer.one().cycles == first.result().one().cycles
    second_kinds = kinds(second.history())
    assert "cache-hit" in second_kinds
    assert "point-started" not in second_kinds


def test_priority_ordering_observable_in_event_stream():
    service = make_service()
    scheduler = service.scheduler
    order = []
    scheduler.add_listener(
        lambda event: order.append((event.job_id, event.kind))
    )
    scheduler.pause()
    try:
        low = service.submit(
            SimulationRequest(workload=WORKLOAD, design="prospect"), priority=0
        )
        high = service.submit(
            SimulationRequest(workload=WORKLOAD, design="cassandra-lite"),
            priority=10,
        )
    finally:
        scheduler.resume()
    low.result()
    high.result()
    started = [job for job, kind in order if kind == "point-done"]
    assert started == [high.job_id, low.job_id]


def test_ties_run_in_submission_order():
    service = make_service()
    scheduler = service.scheduler
    done_order = []
    scheduler.add_listener(
        lambda event: event.kind == "done" and done_order.append(event.job_id)
    )
    scheduler.pause()
    try:
        handles = [
            service.submit(
                SimulationRequest(workload=WORKLOAD, design="unsafe-baseline"),
                priority=3,
            )
            for _ in range(3)
        ]
    finally:
        scheduler.resume()
    for handle in handles:
        handle.result()
    assert done_order == [handle.job_id for handle in handles]


class CancelAfterFirstRound(SerialBackend):
    """Cancels a job from *inside* the backend after its first round —
    deterministically exercising the mid-job cancellation boundary."""

    def __init__(self):
        self.handle = None
        self.calls = 0

    def execute(self, artifacts, requests, jobs):
        results = super().execute(artifacts, requests, jobs)
        self.calls += 1
        if self.calls == 1 and self.handle is not None:
            self.handle.cancel()
        return results


def test_cancel_mid_job_leaves_cache_consistent():
    backend = CancelAfterFirstRound()
    service = SimulationService(
        names=[WORKLOAD, SECOND_WORKLOAD], jobs=1, backend=backend
    )
    scheduler = service.scheduler
    scheduler.pause()
    handle = service.submit(ScenarioMatrix(designs=("unsafe-baseline",)))
    backend.handle = handle
    scheduler.resume()

    with pytest.raises(JobCancelled):
        handle.result()
    assert handle.state == "cancelled"
    history_kinds = kinds(handle.history())
    assert history_kinds[-1] == "cancelled"
    # Exactly the first workload group ran; its points are memoized (the
    # cache is consistent), the second group never started.
    assert service.points_simulated == 1
    partial = handle.partial()
    assert len(partial) == 1
    assert partial.requests[0].workload.name == WORKLOAD

    # Resubmitting completes the job: the finished point is a cache hit,
    # only the unstarted one computes.
    backend.handle = None
    again = service.submit(ScenarioMatrix(designs=("unsafe-baseline",)))
    results = again.result()
    assert len(results) == 2
    assert service.points_simulated == 2
    again_kinds = kinds(again.history())
    assert again_kinds.count("cache-hit") == 1
    assert again_kinds.count("point-done") == 1


def test_cancel_queued_job_before_it_starts():
    service = make_service()
    scheduler = service.scheduler
    scheduler.pause()
    handle = service.submit(SimulationRequest(workload=WORKLOAD, design="cassandra"))
    assert handle.cancel() is True
    scheduler.resume()
    with pytest.raises(JobCancelled):
        handle.result(timeout=30)
    assert kinds(handle.history()) == ["queued", "cancelled"]
    assert service.points_simulated == 0
    assert handle.cancel() is False  # already finished


def test_empty_submission_completes_immediately():
    service = make_service()
    handle = service.submit([])
    assert handle.done
    assert len(handle.result()) == 0
    assert kinds(handle.history()) == ["queued", "done"]


def test_failed_job_raises_the_original_error():
    service = make_service()
    handle = service.submit(
        SimulationRequest(workload=WORKLOAD, design="no-such-design")
    )
    with pytest.raises(KeyError, match="no-such-design"):
        handle.result()
    assert handle.state == "failed"
    failed = handle.history()[-1]
    assert failed.kind == "failed"
    assert "no-such-design" in failed.payload["error"]
    # The scheduler survives a failed job.
    assert service.run(
        SimulationRequest(workload=WORKLOAD, design="unsafe-baseline")
    ).one().cycles > 0


def test_run_is_a_thin_wrapper_over_submit():
    service = make_service()
    matrix = ScenarioMatrix(designs=("unsafe-baseline",))
    assert service.run(matrix).one().cycles == service.submit(matrix).result().one().cycles


def test_close_cancels_queued_jobs_and_rejects_new_ones():
    service = make_service()
    scheduler = service.scheduler
    scheduler.pause()
    queued = service.submit(SimulationRequest(workload=WORKLOAD, design="spt"))
    scheduler.close()
    with pytest.raises(JobCancelled):
        queued.result(timeout=10)
    with pytest.raises(RuntimeError, match="closed"):
        scheduler.submit(SimulationRequest(workload=WORKLOAD, design="spt"))
    # The service makes a fresh scheduler after close().
    service._scheduler = None
    assert service.run(SimulationRequest(workload=WORKLOAD, design="spt"))


def test_scheduler_stats_snapshot():
    service = make_service()
    scheduler = service.scheduler
    stats = scheduler.stats()
    assert stats["jobs_total"] == 0
    assert stats["queue_depth"] == 0
    assert stats["paused"] is False
    assert stats["journal_path"] is None

    scheduler.pause()
    queued = service.submit(SimulationRequest(workload=WORKLOAD, design="spt"))
    stats = scheduler.stats()
    assert stats["jobs_total"] == 1
    assert stats["jobs_queued"] == 1
    assert stats["queue_depth"] == 1
    assert stats["paused"] is True

    scheduler.resume()
    queued.result(timeout=300)
    stats = scheduler.stats()
    assert stats["jobs_done"] == 1
    assert stats["jobs_queued"] == stats["queue_depth"] == 0
    service.close()


def test_service_stats_surfaces_scheduler_without_creating_one():
    service = make_service()
    # No scheduler yet: stats() must not be the thing that spins one up.
    assert "scheduler" not in service.stats()
    assert service._scheduler is None

    service.run(SimulationRequest(workload=WORKLOAD, design="unsafe-baseline"))
    report = service.stats()
    assert report["scheduler"]["jobs_done"] == 1
    assert report["backend"] == "serial"
    service.close()


def test_service_stats_surface_artifact_cache_counters(tmp_path):
    # Cache off: the key is present but null — operators can tell "no
    # cache" from "no quarantines".
    service = make_service()
    assert service.stats()["artifact_cache"] is None
    service.close()

    from repro.pipeline import ArtifactCache

    cached = make_service(cache=ArtifactCache(root=str(tmp_path)))
    assert cached.stats()["artifact_cache"] == {
        "disk_hits": 0,
        "disk_misses": 0,
        "disk_stores": 0,
        "memo_hits": 0,
        "quarantined": 0,
    }
    cached.run(SimulationRequest(workload=WORKLOAD, design="unsafe-baseline"))
    counters = cached.stats()["artifact_cache"]
    assert counters["disk_stores"] >= 1
    assert counters["quarantined"] == 0
    cached.close()


def test_pending_points_are_probed_on_disk_once(tmp_path):
    """The scheduler probes each point on disk once (the backend that
    computes the misses probes nothing); disk hits stream as cache hits."""
    from repro.pipeline import ArtifactCache

    matrix = ScenarioMatrix(designs=("unsafe-baseline", "cassandra", "spt"))
    cache = ArtifactCache(root=str(tmp_path))
    service = make_service(cache=cache)
    probes = []
    original_get = cache.get

    def counting_get(kind, name, digest):
        if kind == "simulation":
            probes.append(digest)
        return original_get(kind, name, digest)

    cache.get = counting_get
    handle = service.submit(matrix)
    handle.result()
    assert len(probes) == len(set(probes)) == 3
    assert kinds(handle.history()).count("point-done") == 3
    service.close()

    rerun = make_service(cache=ArtifactCache(root=str(tmp_path)))
    again = rerun.submit(matrix)
    assert again.result().to_json() == handle.result().to_json()
    assert kinds(again.history()).count("cache-hit") == 3
    assert again.history()[-1].payload["cache_hits"] == 3
    rerun.close()


def test_a_serial_job_probes_each_point_once_and_commits_once_per_group(
    tmp_path, monkeypatch
):
    """N fresh points over two workloads: exactly N ``simulation`` probes
    through ``ArtifactCache.get`` and one ``put_many`` per workload group."""
    from repro.pipeline import ArtifactCache

    probes, commits = [], []
    original_get, original_put_many = ArtifactCache.get, ArtifactCache.put_many

    def counting_get(self, kind, name, digest):
        if kind == "simulation":
            probes.append(digest)
        return original_get(self, kind, name, digest)

    def counting_put_many(self, kind, name, entries):
        entries = list(entries)
        if kind == "simulation":
            commits.append((name, len(entries)))
        return original_put_many(self, kind, name, entries)

    monkeypatch.setattr(ArtifactCache, "get", counting_get)
    monkeypatch.setattr(ArtifactCache, "put_many", counting_put_many)
    service = make_service(
        names=[WORKLOAD, SECOND_WORKLOAD], cache=ArtifactCache(root=str(tmp_path))
    )
    answer = service.run(ScenarioMatrix(designs=("unsafe-baseline", "cassandra", "spt")))
    assert len(answer) == 6
    assert len(probes) == len(set(probes)) == 6
    assert sorted(commits) == sorted([(WORKLOAD, 3), (SECOND_WORKLOAD, 3)])
    service.close()


def test_requests_leave_the_default_workload_set_alone():
    """A request naming another registry workload prepares it without
    widening the set open-axis matrices expand over (a gateway tenant's job
    must not change what another tenant's matrix means)."""
    service = make_service()
    matrix = ScenarioMatrix(designs=("unsafe-baseline",))
    assert len(service.expand(matrix)) == 1
    service.run(SimulationRequest(workload="Poly1305_ctmul", design="unsafe-baseline"))
    assert service.workloads == [WORKLOAD]
    assert len(service.expand(matrix)) == 1
    assert [artifact.name for artifact in service.artifacts()] == [WORKLOAD]
    service.close()


def test_service_stats_report_only_a_compiler_probe_already_made(monkeypatch):
    from repro.engine import native

    probes = []
    monkeypatch.setattr(native, "_TOOLCHAINS", {})
    monkeypatch.setattr(native, "_probe_compiler", lambda path: probes.append(path))
    service = make_service()
    assert service.stats()["native_compiler"] is None  # not probed
    monkeypatch.setenv(native.TOOLCHAIN_ENV, "/nonexistent/cc")
    native.find_toolchain()  # resolves nothing, so it compiles nothing
    assert service.stats()["native_compiler"] is False
    assert probes == []
    service.close()
