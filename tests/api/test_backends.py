"""Backend parity and the service facade.

The acceptance bar of the API redesign: ``SerialBackend``,
``ForkPoolBackend``, and ``SubprocessShardBackend`` produce bit-identical
``SimulationResult``s for the same request set, each returns them in
request order, and the service's artifact cache behaves identically in
front of each.
"""

import pickle

import pytest

from repro.api import (
    ScenarioMatrix,
    SimulationRequest,
    SimulationService,
    WorkloadRef,
    make_backend,
)
from repro.api.shard import ShardTask, run_task
from repro.uarch.config import CoreConfig

NAMES = ["ChaCha20_ct", "SHA-256"]
SMALL_CORE = CoreConfig(rob_size=64, fetch_width=4)

#: A deliberately mixed matrix: plain designs, a BTU-flush override, a
#: non-default config, and a 2-pass warm-up point.
PARITY_MATRIX = ScenarioMatrix(
    designs=("unsafe-baseline", "cassandra", "spt"),
).extended(
    ScenarioMatrix(designs=("cassandra",), flush_intervals=(300,)),
    ScenarioMatrix(designs=("unsafe-baseline", "cassandra"), configs=(SMALL_CORE,)),
    ScenarioMatrix(designs=("cassandra",), warmup_passes=(2,)),
)


#: The parity requests with the two workloads interleaved, for calling the
#: backends directly: each must answer in this order, not grouped.
DIRECT_REQUESTS = sorted(
    PARITY_MATRIX.expand(NAMES), key=lambda request: (request.design, request.workload.name)
)


@pytest.fixture(scope="module")
def backend_answers():
    """Per backend: the service's answer, and the backend's own
    ``execute`` over :data:`DIRECT_REQUESTS`."""
    answers = {}
    for backend in ("serial", "fork", "shard"):
        service = SimulationService(names=NAMES, jobs=2, backend=backend)
        answer = service.run(PARITY_MATRIX)
        artifacts = {name: service.artifact(name) for name in NAMES}
        direct = service.backend.execute(artifacts, DIRECT_REQUESTS, jobs=2)
        answers[backend] = (answer, direct)
    return answers


def test_three_way_backend_parity(backend_answers):
    serial, _ = backend_answers["serial"]
    assert len(serial) == len(PARITY_MATRIX.expand(NAMES))
    for other_name in ("fork", "shard"):
        other, _ = backend_answers[other_name]
        assert serial.requests == other.requests
        for (request, ours), (_, theirs) in zip(serial, other):
            assert ours.stats.as_dict() == theirs.stats.as_dict(), (
                other_name,
                request,
            )
            assert ours.policy_name == theirs.policy_name
            assert ours.program_name == theirs.program_name
    # Called directly, every backend returns one result per request, in
    # request order.
    for name, (_, direct) in backend_answers.items():
        assert len(direct) == len(DIRECT_REQUESTS), name
        for request, result in zip(DIRECT_REQUESTS, direct):
            expected = serial.get(request)
            assert result.program_name == expected.program_name, (name, request)
            assert result.stats.as_dict() == expected.stats.as_dict(), (name, request)


def test_rerun_is_pure_memo_lookup(backend_answers):
    service = SimulationService(names=NAMES, jobs=2, backend="shard")
    first = service.run(PARITY_MATRIX)
    simulated = service.points_simulated
    again = service.run(PARITY_MATRIX)
    assert service.points_simulated == simulated  # nothing recomputed
    for (_, before), (_, after) in zip(first, again):
        assert before is after  # the very same memoized objects


def test_shard_backend_persists_to_disk_cache(artifact_cache):
    matrix = ScenarioMatrix(designs=("unsafe-baseline", "cassandra"))
    shard = SimulationService(
        names=[NAMES[0]], cache=artifact_cache, jobs=2, backend="shard"
    )
    shard.run(matrix)

    # A cold service over the same cache resolves every point from disk.
    cold = SimulationService(
        names=[NAMES[0]], cache=artifact_cache, jobs=1, backend="serial"
    )
    cold.run(matrix)
    assert cold.points_simulated == 0


def test_shard_task_wire_round_trip():
    request = SimulationRequest(
        workload=WorkloadRef.registry(NAMES[0]), design="cassandra", warmup_passes=2
    )
    task = ShardTask(
        workload=NAMES[0],
        program_name="chacha20_blocks",
        request_payloads=(request.to_json(),),
        trace_bytes=b"\x00columns",
        bundle_bytes=b"\x01bundle",
    )
    clone = ShardTask.from_bytes(task.to_bytes())
    assert clone == task
    assert clone.requests() == [request]
    with pytest.raises(ValueError, match="shard task"):
        ShardTask.from_bytes(pickle.dumps((999, "bad")))


def test_shard_worker_runs_task_in_process():
    """run_task — the exact function the worker loop calls — needs only the
    wire payloads, never the parent's prepared objects."""
    from repro.experiments.runner import prepare_workload

    artifact = prepare_workload(NAMES[0])
    requests = [
        SimulationRequest(workload=WorkloadRef.registry(NAMES[0]), design=design)
        for design in ("unsafe-baseline", "cassandra")
    ]
    task = ShardTask(
        workload=NAMES[0],
        program_name=artifact.kernel.program.name,
        request_payloads=tuple(r.to_json() for r in requests),
        trace_bytes=artifact.lowered_trace().to_bytes(),
        bundle_bytes=pickle.dumps(artifact.bundle),
    )
    results = run_task(task)
    assert len(results) == 2
    expected = artifact.simulate_batch(requests)
    for ours, theirs in zip(results, expected):
        assert ours.stats.as_dict() == theirs.stats.as_dict()


def test_make_backend_names():
    assert make_backend(None).name == "fork"
    assert make_backend("shard").name == "shard"
    with pytest.raises(KeyError, match="unknown backend"):
        make_backend("teleport")
    with pytest.raises(KeyError, match="--connect"):
        make_backend("remote")  # the networked backend needs an address


#: A worker that reads its first frame header and dies — the mid-task
#: death the hardened shard backend must recover from.
CRASH_COMMAND = [
    __import__("sys").executable,
    "-c",
    "import sys; sys.stdin.buffer.read(8); sys.exit(3)",
]


def _mixed_worker_commands(monkeypatch, crash_first: int = 1):
    """Patch worker spawning: the first ``crash_first`` workers die on
    their first task, the rest run the real loop."""
    import threading

    from repro.api.backends import SubprocessShardBackend

    real = SubprocessShardBackend._worker_command
    lock = threading.Lock()
    calls = []

    def fake():
        with lock:
            calls.append(None)
            if len(calls) <= crash_first:
                return list(CRASH_COMMAND)
        return real()

    monkeypatch.setattr(
        SubprocessShardBackend, "_worker_command", staticmethod(fake)
    )
    return calls


def test_shard_worker_death_requeues_onto_survivors(monkeypatch):
    """One of two workers dies mid-task: its task is requeued onto the
    survivor and the answer still matches the serial backend's."""
    _mixed_worker_commands(monkeypatch, crash_first=1)
    matrix = ScenarioMatrix(designs=("unsafe-baseline", "cassandra"))
    shard = SimulationService(names=NAMES, jobs=2, backend="shard")
    answer = shard.run(matrix)  # two workload groups → one task per worker
    assert len(answer) == 4
    assert shard.points_simulated == 4
    serial = SimulationService(names=NAMES, jobs=1, backend="serial").run(matrix)
    for (request, ours), (_, theirs) in zip(answer, serial):
        assert ours.stats.as_dict() == theirs.stats.as_dict(), request


def test_shard_total_worker_loss_raises_typed_error(monkeypatch):
    """Every worker the pool ever had dies on the task: a ShardWorkerError
    naming the worker and the pending requests, not a hang or a silent
    partial answer."""
    from repro.api import ShardWorkerError

    _mixed_worker_commands(monkeypatch, crash_first=99)
    service = SimulationService(names=[NAMES[0]], jobs=2, backend="shard")
    with pytest.raises(ShardWorkerError) as excinfo:
        service.run(ScenarioMatrix(designs=("unsafe-baseline",)))
    error = excinfo.value
    assert error.worker.startswith("pipe-")
    assert error.workload == NAMES[0]
    assert [request.design for request in error.requests] == ["unsafe-baseline"]
    assert "pending request" in str(error)


def test_service_runs_bare_requests_outside_its_workload_set():
    service = SimulationService(names=[NAMES[0]], backend="serial")
    request = SimulationRequest(workload=NAMES[1], design="unsafe-baseline")
    answer = service.run(request)
    assert answer.cycles(workload=NAMES[1]) > 0
    assert service.workloads == [NAMES[0]]  # the default set stays fixed


def test_context_accumulates_results():
    service = SimulationService(names=[NAMES[0]], backend="serial")
    ctx = service.context()
    ctx.run(ScenarioMatrix(designs=("unsafe-baseline",)))
    ctx.run(ScenarioMatrix(designs=("cassandra",)))
    assert len(ctx.results) == 2
    assert ctx.results.normalized_time("cassandra") < 1.0
