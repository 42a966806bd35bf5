"""The open server and its client: serve/client parity and job control.

Pins ``remote ≡ serial`` bit parity through ``repro serve`` — a
:class:`GatewayServer` with no tenant store — consumed by
``RemoteServiceClient``/``RemoteBackend`` over HTTP + Server-Sent Events,
plus job control (ping / submit / events / result / cancel), stream
resume, and the server's hygiene: forked children drop its sockets, and a
served job writes nothing outside the state dir.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.api import (
    JobCancelled,
    ScenarioMatrix,
    SimulationRequest,
    SimulationService,
)
from repro.api.gateway.http import GatewayServer
from repro.api.remote import (
    RemoteBackend,
    RemoteJobError,
    RemoteServiceClient,
    parse_address,
)
from repro.testing import FAULT_PLAN_ENV

WORKLOAD = "ChaCha20_ct"

MATRIX = ScenarioMatrix(designs=("unsafe-baseline", "cassandra")).extended(
    ScenarioMatrix(designs=("cassandra",), flush_intervals=(300,)),
)


@pytest.fixture(scope="module")
def server():
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    job_server = GatewayServer(service).start()
    yield job_server
    job_server.close()
    service.close()


@pytest.fixture(scope="module")
def client(server):
    return RemoteServiceClient(server.address)


def test_parse_address():
    assert parse_address("localhost:8765") == ("localhost", 8765)
    # The banner form both server commands print pastes into --connect.
    assert parse_address("http://127.0.0.1:8765") == ("127.0.0.1", 8765)
    assert parse_address(("10.0.0.1", 99)) == ("10.0.0.1", 99)
    with pytest.raises(ValueError, match="host:port"):
        parse_address("8765")
    with pytest.raises(ValueError, match="http://"):
        parse_address("https://localhost:8765")


def test_ping_and_workloads(client):
    answer = client.ping()
    assert answer["ok"] is True
    assert answer["server"] == "repro-serve"
    assert answer["workloads"] == 1
    assert answer["backend"] == "serial"
    assert client.workloads == [WORKLOAD]


def test_remote_run_matches_serial_bit_for_bit(client):
    """The full loop — expand on the server's workload set, execute there,
    rehydrate here — answers exactly what an independent local serial
    service answers."""
    remote = client.run(MATRIX)  # open matrix → server's workload set
    local = SimulationService(names=[WORKLOAD], jobs=1, backend="serial").run(MATRIX)
    assert remote.requests == local.requests
    for (request, ours), (_, theirs) in zip(remote, local):
        assert ours.stats.as_dict() == theirs.stats.as_dict(), request
        assert ours.policy_name == theirs.policy_name
        assert ours.program_name == theirs.program_name
    assert remote.to_json() == local.to_json()


def test_remote_events_stream_and_attach(client):
    handle = client.submit(MATRIX, tags=("remote-test",))
    events = list(handle.events())
    assert events[0].kind == "queued"
    assert events[0].payload["tags"] == ["remote-test"]
    assert events[-1].kind == "done"
    assert {event.job_id for event in events} == {handle.job_id}
    results = handle.result()
    assert len(results) == len(MATRIX.expand([WORKLOAD]))

    # events op: re-attaching replays the finished job's whole stream and
    # final payload on a fresh connection.
    replay = client.attach(handle.job_id)
    replay_events = list(replay.events())
    assert [event.kind for event in replay_events] == [event.kind for event in events]
    assert replay.result().to_json() == results.to_json()


def test_attach_unknown_job_errors(client):
    with pytest.raises(RemoteJobError, match="unknown job"):
        client.attach("job-424242")


def test_remote_cancel_in_band(server, client):
    scheduler = server.service.scheduler
    scheduler.pause()
    try:
        handle = client.submit(
            SimulationRequest(workload=WORKLOAD, design="prospect")
        )
        assert handle.cancel() is True
        # The cancel frame is processed by the server's watcher thread;
        # wait for it to land before letting the scheduler move.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            job = scheduler.get_job(handle.job_id)
            if job is not None and job.cancel_requested:
                break
            time.sleep(0.01)
        assert scheduler.get_job(handle.job_id).cancel_requested
    finally:
        scheduler.resume()
    with pytest.raises(JobCancelled):
        handle.result(timeout=30)
    assert handle.state == "cancelled"
    assert len(handle.partial()) == 0


def test_cancel_op_by_job_id(server, client):
    scheduler = server.service.scheduler
    scheduler.pause()
    try:
        handle = client.submit(SimulationRequest(workload=WORKLOAD, design="spt"))
        assert client.cancel(handle.job_id) is True  # separate connection
    finally:
        scheduler.resume()
    with pytest.raises(JobCancelled):
        handle.result(timeout=30)
    assert client.cancel("job-999999") is False


def test_remote_backend_persists_results_locally(server, artifact_cache):
    """--backend remote: points execute on the server, land in the local
    memo *and* disk cache, and a later cold local service reads them."""
    backend = RemoteBackend(server.address)
    events = []
    backend.listener = events.append
    local = SimulationService(
        names=[WORKLOAD], cache=artifact_cache, jobs=1, backend=backend
    )
    matrix = ScenarioMatrix(designs=("unsafe-baseline", "cassandra-lite"))
    answer = local.run(matrix)
    assert len(answer) == 2
    assert [event.kind for event in events if event.kind == "point-done"] or [
        event.kind for event in events if event.kind == "cache-hit"
    ]
    cold = SimulationService(
        names=[WORKLOAD], cache=artifact_cache, jobs=1, backend="serial"
    )
    cold.run(matrix)
    assert cold.points_simulated == 0  # all resolved from disk


def test_observer_disconnect_does_not_cancel_the_job(server, client):
    """An 'events' attach is read-only: closing it must not cancel work the
    submitter is still waiting on (only the owning connection's EOF does)."""
    scheduler = server.service.scheduler
    scheduler.pause()
    try:
        handle = client.submit(
            SimulationRequest(workload=WORKLOAD, design="cassandra+prospect")
        )
        observer = client.attach(handle.job_id)
        observer._close()  # observer walks away mid-job
        time.sleep(0.2)    # let the server's watcher thread see the EOF
        assert not scheduler.get_job(handle.job_id).cancel_requested
    finally:
        scheduler.resume()
    assert len(handle.result(timeout=60)) == 1  # the job still completes


def test_attach_after_seq_replays_only_the_gap(client):
    handle = client.submit(SimulationRequest(workload=WORKLOAD, design="cassandra"))
    handle.result(timeout=120)
    full = list(client.attach(handle.job_id).events())
    assert len(full) >= 3 and full[-1].kind == "done"

    # Resuming after the second event replays exactly the suffix.
    resumed = client.attach(handle.job_id, after_seq=full[1].seq)
    suffix = list(resumed.events())
    assert [event.seq for event in suffix] == [event.seq for event in full[2:]]
    assert resumed.result().to_json() == handle.result().to_json()


def test_result_timeout_raises_then_handle_still_answers(server, client):
    """``result(timeout=...)`` bounds the wait with a TimeoutError — and the
    override must not linger: a later untimed ``result()`` on the same
    handle blocks under the connection's own policy and succeeds."""
    scheduler = server.service.scheduler
    scheduler.pause()
    try:
        handle = client.submit(
            SimulationRequest(workload=WORKLOAD, design="cassandra-lite")
        )
        before = time.monotonic()
        with pytest.raises(TimeoutError, match=handle.job_id):
            handle.result(timeout=0.4)
        assert time.monotonic() - before < 5
        # Nothing of the timed-out call lingers on the handle.
        assert handle._response is None
    finally:
        scheduler.resume()
    results = handle.result(timeout=60)  # reconnects by job id under the hood
    assert len(results) == 1
    local = SimulationService(names=[WORKLOAD], jobs=1, backend="serial").run(
        SimulationRequest(workload=WORKLOAD, design="cassandra-lite")
    )
    assert results.to_json() == local.to_json()


def test_stream_reconnects_transparently_after_socket_loss(server, client):
    """Killing the handle's socket mid-stream is healed by attach-by-id:
    the stream resumes from the last seen seq with no gaps or duplicates
    and the job itself survives (the submit said on_disconnect=keep)."""
    scheduler = server.service.scheduler
    scheduler.pause()
    try:
        handle = client.submit(
            SimulationRequest(workload=WORKLOAD, design="cassandra+stl")
        )
        stream = handle.events()
        first = next(stream)
        assert first.kind == "queued"
        handle._response.close()  # the network "fails" under the iterator
    finally:
        scheduler.resume()
    rest = list(stream)
    seqs = [first.seq] + [event.seq for event in rest]
    assert seqs == sorted(set(seqs))  # strictly increasing, no duplicates
    assert rest[-1].kind == "done"
    assert not scheduler.get_job(handle.job_id).cancel_requested
    assert len(handle.result()) == 1


def test_forked_children_do_not_inherit_server_sockets(server):
    """Fork-backend workers inherit every open fd; an orphan surviving a
    server crash must not keep the listen port alive (new clients would
    dial into a backlog nobody accepts) nor hold established client
    connections open past the server's death.  The at-fork hook closes
    the server's sockets in every forked child."""
    probe = socket.create_connection((server.host, server.port))
    try:
        deadline = time.monotonic() + 5
        while not server._httpd.connections and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._httpd.connections  # the accept loop registered it
        pid = os.fork()
        if pid == 0:  # the child reports through its exit status only
            closed = server._httpd.socket.fileno() == -1 and all(
                conn.fileno() == -1 for conn in list(server._httpd.connections)
            )
            os._exit(0 if closed else 1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        # the parent's sockets are untouched
        assert server._httpd.socket.fileno() != -1
        assert all(conn.fileno() != -1 for conn in list(server._httpd.connections))
    finally:
        probe.close()


def call(server, method, path, body=None):
    """One raw HTTP exchange with ``server`` → ``(status, JSON body)``."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        conn.request(
            method,
            path,
            body=None if body is None else json.dumps(body),
            headers={} if body is None else {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_malformed_submit_answers_an_error(server):
    """A bad submit body gets a typed 400 reply, never a silent hang."""
    for body in ({}, {"requests": [{"bogus": True}]}):
        status, answer = call(server, "POST", "/v1/jobs", body)
        assert status == 400
        assert answer["ok"] is False and answer["error"] == "bad-request"


def test_unknown_op_answers_error(server):
    """Unknown routes 404 — and so does ``/v1/usage``: the open server
    keeps no usage ledger."""
    for method, path in (("GET", "/v1/teleport"), ("GET", "/v1/usage")):
        status, answer = call(server, method, path)
        assert status == 404
        assert answer["ok"] is False and answer["error"] == "not-found"


def test_unknown_workload_fails_at_submit(client):
    with pytest.raises(RemoteJobError, match="unknown workload"):
        client.submit(SimulationRequest(workload="NoSuchKernel", design="cassandra"))


def test_serve_writes_nothing_outside_its_state_dir(tmp_path):
    """``repro serve --state-dir D`` serves a job and drains on SIGTERM
    without writing a byte outside D: HOME, TMPDIR and REPRO_CACHE_DIR,
    each an empty directory, stay empty."""
    import repro

    strays = {name: tmp_path / name for name in ("home", "tmp", "cache")}
    for path in strays.values():
        path.mkdir()
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env.pop(FAULT_PLAN_ENV, None)
    env.update(
        HOME=str(strays["home"]),
        TMPDIR=str(strays["tmp"]),
        REPRO_CACHE_DIR=str(strays["cache"]),
        PYTHONPATH=os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        ),
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--state-dir",
            str(tmp_path / "state"),
            "--workloads",
            WORKLOAD,
            "--backend",
            "serial",
            "--jobs",
            "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        banner = process.stdout.readline()
        address = banner.split("listening on ")[1].split()[0]
        answer = RemoteServiceClient(address).run(
            SimulationRequest(workload=WORKLOAD, design="cassandra")
        )
        assert len(answer) == 1
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 0
    assert "drained, exiting" in output
    assert {name: os.listdir(path) for name, path in strays.items()} == {
        name: [] for name in strays
    }
