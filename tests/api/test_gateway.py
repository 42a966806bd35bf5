"""The HTTP gateway end to end, in-process: auth, quotas, SSE, ownership.

One module-scoped gateway (serial backend, ephemeral port) serves every
test; isolation comes from tenancy — each test mints its own tenant and
key, so quota and ownership assertions never interfere.  The flagship
assertion is the acceptance bar: the HTTP flow (auth → submit → SSE with
``Last-Event-ID`` resume → result) yields tables byte-identical to a
direct :class:`SimulationService` run.
"""

import http.client
import json
import logging
import os
import socket
import sqlite3
import threading
import time

import pytest

from repro.api import ScenarioMatrix, SimulationRequest, SimulationService
from repro.api.gateway import GatewayServer, GatewayStore, QuotaDefaults
from repro.api.results import ResultSet
from repro.cli import gateway_main, serve_main
from repro.testing import Fault, FaultPlan, activate

WORKLOAD = "ChaCha20_ct"
MATRIX = ScenarioMatrix(designs=("unsafe-baseline", "cassandra"))
RESULT_TIMEOUT = 300


@pytest.fixture(scope="module")
def baseline():
    """The direct, gateway-free answer HTTP results must match byte-for-byte."""
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    try:
        return service.run(MATRIX).to_json()
    finally:
        service.close()


@pytest.fixture(scope="module")
def gateway(tmp_path_factory):
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    store = GatewayStore(str(tmp_path_factory.mktemp("gateway-state")))
    server = GatewayServer(service, store, port=0).start()
    yield server
    server.close()
    service.close()
    store.close()


@pytest.fixture()
def tenant_key(gateway, request):
    """A fresh (tenant, plaintext key) per test."""
    tenant = gateway.store.create_tenant(request.node.name[:40])
    plaintext, _meta = gateway.store.issue_key(tenant.tenant_id)
    return tenant, plaintext


def call(gateway, method, path, key=None, body=None, headers=None,
         timeout=RESULT_TIMEOUT, raw=False):
    """One request → (status, headers, decoded JSON or raw text)."""
    conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=timeout)
    try:
        all_headers = dict(headers or {})
        if key is not None:
            all_headers["Authorization"] = f"Bearer {key}"
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload, headers=all_headers)
        response = conn.getresponse()
        text = response.read().decode("utf-8")
        content_type = response.getheader("Content-Type", "")
        decoded = (
            json.loads(text)
            if "application/json" in content_type and not raw
            else text
        )
        return response.status, dict(response.getheaders()), decoded
    finally:
        conn.close()


def sse_frames(text):
    """Parse an SSE body into (id, event, data-dict) triples."""
    frames = []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        fields = dict(line.split(": ", 1) for line in block.splitlines())
        frames.append((int(fields["id"]), fields["event"], json.loads(fields["data"])))
    return frames


def submit_matrix(gateway, key, **extra):
    requests = [
        SimulationRequest(workload=WORKLOAD, design=design).as_dict()
        for design in ("unsafe-baseline", "cassandra")
    ]
    status, _headers, body = call(
        gateway, "POST", "/v1/jobs", key=key, body={"requests": requests, **extra}
    )
    assert status == 202, body
    return body["job"]


def wait_for_usage_row(gateway, tenant_id, jobs=1, timeout=60):
    """The ledger row lands a beat after result() unblocks — poll for it."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        totals = gateway.store.usage_totals(tenant_id)
        if totals["jobs"] >= jobs:
            return totals
        time.sleep(0.02)
    raise AssertionError(f"no usage row for {tenant_id} after {timeout}s")


# --------------------------------------------------------------------------- #
# Auth
# --------------------------------------------------------------------------- #
def test_healthz_is_unauthenticated_and_reports_scheduler(gateway):
    status, _headers, body = call(gateway, "GET", "/healthz")
    assert status == 200
    assert body["ok"] and body["server"] == "repro-gateway"
    assert body["backend"] == "serial"
    assert body["store"].endswith("gateway.sqlite3")
    assert body["scheduler"]["paused"] is False
    assert "queue_depth" in body["scheduler"]
    assert isinstance(body["usage_ledger_failures"], int)
    # Artifact-cache counters ride along (null here: the disk cache is off).
    assert "artifact_cache" in body


@pytest.mark.parametrize(
    "headers",
    [
        {},
        {"Authorization": "Bearer rk_" + "0" * 64},
        {"Authorization": "Basic dXNlcjpwYXNz"},
        {"Authorization": "Bearer"},
    ],
)
def test_bad_credentials_get_401(gateway, headers):
    status, response_headers, body = call(
        gateway, "GET", "/v1/workloads", headers=headers
    )
    assert status == 401
    assert body["error"] == "unauthorized"
    assert "Bearer" in response_headers.get("WWW-Authenticate", "")


def test_revoked_key_gets_401(gateway, tenant_key):
    tenant, key = tenant_key
    status, _h, _b = call(gateway, "GET", "/v1/workloads", key=key)
    assert status == 200
    (meta,) = gateway.store.list_keys(tenant.tenant_id)
    gateway.store.revoke_key(meta.key_id)
    status, _h, body = call(gateway, "GET", "/v1/workloads", key=key)
    assert status == 401 and body["error"] == "unauthorized"


def test_workloads_lists_the_service_set(gateway, tenant_key):
    _tenant, key = tenant_key
    status, _h, body = call(gateway, "GET", "/v1/workloads", key=key)
    assert status == 200 and body["workloads"] == [WORKLOAD]


# --------------------------------------------------------------------------- #
# The flagship flow: submit → SSE (with resume) → result
# --------------------------------------------------------------------------- #
def test_http_flow_is_byte_identical_to_direct_run(gateway, tenant_key, baseline):
    tenant, key = tenant_key
    job = submit_matrix(gateway, key, tags=["sweep", "tenant:spoofed"])

    status, headers, text = call(gateway, "GET", f"/v1/jobs/{job}/events", key=key)
    assert status == 200
    assert headers["Content-Type"].startswith("text/event-stream")
    frames = sse_frames(text)
    kinds = [event for _id, event, _data in frames]
    assert kinds[0] == "queued" and kinds[-1] == "done"
    assert kinds.count("point-done") + kinds.count("cache-hit") == 2
    ids = [frame_id for frame_id, _event, _data in frames]
    assert ids == sorted(ids)  # monotonic seq = usable Last-Event-ID
    # The asserted ownership tag is the gateway's; the spoof was stripped.
    tags = frames[0][2]["payload"]["tags"]
    assert f"tenant:{tenant.tenant_id}" in tags
    assert "tenant:spoofed" not in tags and "sweep" in tags

    # Reconnect with Last-Event-ID: only the gap replays.
    status, _h, text = call(
        gateway, "GET", f"/v1/jobs/{job}/events", key=key,
        headers={"Last-Event-ID": str(ids[1])},
    )
    resumed = sse_frames(text)
    assert [frame_id for frame_id, _e, _d in resumed] == ids[2:]
    # ?after_seq is the header-less spelling of the same resume.
    status, _h, text = call(
        gateway, "GET", f"/v1/jobs/{job}/events?after_seq={ids[-2]}", key=key
    )
    assert [event for _id, event, _d in sse_frames(text)] == ["done"]

    status, _h, wire = call(
        gateway, "GET", f"/v1/jobs/{job}/result?wait=60", key=key, raw=True
    )
    assert status == 200
    assert ResultSet.from_wire(wire).to_json() == baseline

    totals = wait_for_usage_row(gateway, tenant.tenant_id)
    assert totals["points"] == 2
    assert totals["computed"] + totals["cache_hits"] == 2

    status, _h, body = call(gateway, "GET", "/v1/usage", key=key)
    assert status == 200
    assert body["totals"] == totals
    assert body["active"] == {"jobs": 0, "queued_points": 0}


def test_result_before_done_is_409(gateway, tenant_key):
    _tenant, key = tenant_key
    gateway.service.scheduler.pause()
    try:
        job = submit_matrix(gateway, key)
        status, _h, body = call(gateway, "GET", f"/v1/jobs/{job}/result", key=key)
        assert status == 409 and body["error"] == "not-ready"
    finally:
        gateway.service.scheduler.resume()
    status, _h, _wire = call(gateway, "GET", f"/v1/jobs/{job}/result?wait=120", key=key)
    assert status == 200


def test_duplicate_points_collapse_over_http(gateway, tenant_key):
    _tenant, key = tenant_key
    request = SimulationRequest(workload=WORKLOAD, design="cassandra").as_dict()
    status, _h, body = call(
        gateway, "POST", "/v1/jobs", key=key, body={"requests": [request, request]}
    )
    assert status == 202 and body["points"] == 1


# --------------------------------------------------------------------------- #
# Ownership
# --------------------------------------------------------------------------- #
def test_foreign_and_unknown_jobs_are_404(gateway, tenant_key):
    _tenant, key = tenant_key
    rival = gateway.store.create_tenant("rival-" + _tenant.tenant_id[-6:])
    rival_key, _meta = gateway.store.issue_key(rival.tenant_id)
    job = submit_matrix(gateway, key)

    for method, path in [
        ("GET", f"/v1/jobs/{job}/events"),
        ("GET", f"/v1/jobs/{job}/result"),
        ("DELETE", f"/v1/jobs/{job}"),
    ]:
        status, _h, body = call(gateway, method, path, key=rival_key)
        assert status == 404, (method, path)
        assert body["error"] == "not-found"

    status, _h, _body = call(gateway, "GET", "/v1/jobs/job-999999/result", key=key)
    assert status == 404


def test_cancel_own_job(gateway, tenant_key):
    _tenant, key = tenant_key
    gateway.service.scheduler.pause()
    try:
        job = submit_matrix(gateway, key)
        status, _h, body = call(gateway, "DELETE", f"/v1/jobs/{job}", key=key)
        assert status == 200 and body["cancelled"]
    finally:
        gateway.service.scheduler.resume()
    handle = gateway.service.scheduler.get_job(job)
    handle._finished.wait(RESULT_TIMEOUT)
    status, _h, body = call(gateway, "GET", f"/v1/jobs/{job}/result", key=key)
    assert status == 409 and body["error"] == "cancelled"
    assert body["partial"]["entries"] == []


# --------------------------------------------------------------------------- #
# Quotas
# --------------------------------------------------------------------------- #
def test_concurrent_job_quota_429(gateway, tenant_key):
    tenant, key = tenant_key
    gateway.store.set_quotas(tenant.tenant_id, max_concurrent_jobs=1)
    gateway.service.scheduler.pause()  # keep the first job live, deterministically
    try:
        submit_matrix(gateway, key)
        requests = [SimulationRequest(workload=WORKLOAD, design="spt").as_dict()]
        status, headers, body = call(
            gateway, "POST", "/v1/jobs", key=key, body={"requests": requests}
        )
        assert status == 429
        assert body["error"] == "quota-exceeded"
        assert int(headers["Retry-After"]) >= 1
    finally:
        gateway.service.scheduler.resume()


def test_queued_points_quota_429(gateway, tenant_key):
    tenant, key = tenant_key
    gateway.store.set_quotas(tenant.tenant_id, max_queued_points=1)
    requests = [
        SimulationRequest(workload=WORKLOAD, design=d).as_dict()
        for d in ("unsafe-baseline", "cassandra")
    ]
    status, _h, body = call(
        gateway, "POST", "/v1/jobs", key=key, body={"requests": requests}
    )
    assert status == 429 and "queued point" in body["message"]


def test_points_per_day_quota_429_with_retry_after(gateway, tenant_key):
    tenant, key = tenant_key
    gateway.store.set_quotas(tenant.tenant_id, points_per_day=2)
    job = submit_matrix(gateway, key)
    status, _h, _wire = call(gateway, "GET", f"/v1/jobs/{job}/result?wait=120", key=key)
    assert status == 200
    wait_for_usage_row(gateway, tenant.tenant_id)

    requests = [SimulationRequest(workload=WORKLOAD, design="spt").as_dict()]
    status, headers, body = call(
        gateway, "POST", "/v1/jobs", key=key, body={"requests": requests}
    )
    assert status == 429
    assert "window" in body["message"]
    # The 2 ledger points age out a usage-window from now.
    assert int(headers["Retry-After"]) >= 1


def test_stale_job_row_in_an_old_store_holds_no_quota_slot(tmp_path):
    """An older gateway kept a ``jobs`` table of owner and state in its
    store.  A row left ``queued`` for a job no scheduler holds (its ledger
    write failed, or the gateway died before that commit) must not count as
    live load: a restarted gateway admits the tenant's next job."""
    state_dir = str(tmp_path)
    with GatewayStore(state_dir) as store:
        tenant = store.create_tenant("acme")
        key, _meta = store.issue_key(tenant.tenant_id)
    with sqlite3.connect(os.path.join(state_dir, "gateway.sqlite3")) as conn:
        conn.execute(
            "CREATE TABLE IF NOT EXISTS jobs (job_id TEXT PRIMARY KEY, "
            "tenant_id TEXT NOT NULL, submitted REAL NOT NULL, "
            "points INTEGER NOT NULL, state TEXT NOT NULL)"
        )
        conn.execute(
            "INSERT INTO jobs VALUES ('job-7', ?, 0.0, 2, 'queued')",
            (tenant.tenant_id,),
        )
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    store = GatewayStore(state_dir)
    server = GatewayServer(
        service, store, port=0, defaults=QuotaDefaults(max_concurrent_jobs=1)
    ).start()
    try:
        job = submit_matrix(server, key)
        status, _h, _wire = call(
            server, "GET", f"/v1/jobs/{job}/result?wait=120", key=key
        )
        assert status == 200
    finally:
        server.close()
        service.close()
        store.close()


# --------------------------------------------------------------------------- #
# Malformed input
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "body,needle",
    [
        (None, "JSON body"),
        ({"requests": []}, "non-empty"),
        ({"requests": [{"nonsense": 1}]}, "bad request entry"),
        ({"requests": "nope"}, "non-empty"),
        ({"requests": [1], "priority": "high"}, "bad request entry"),
    ],
)
def test_malformed_submissions_get_400(gateway, tenant_key, body, needle):
    _tenant, key = tenant_key
    status, _h, payload = call(gateway, "POST", "/v1/jobs", key=key, body=body)
    assert status == 400
    assert needle in payload["message"]


def test_unknown_workload_is_400_not_500(gateway, tenant_key):
    _tenant, key = tenant_key
    request = SimulationRequest(workload=WORKLOAD, design="cassandra").as_dict()
    request["workload"] = {"kind": "registry", "name": "no-such-workload"}
    status, _h, body = call(
        gateway, "POST", "/v1/jobs", key=key, body={"requests": [request]}
    )
    assert status == 400 and body["error"] == "bad-request"


def test_unrouted_paths_are_404(gateway, tenant_key):
    _tenant, key = tenant_key
    for method, path in [
        ("GET", "/v1/nope"),
        ("POST", "/v1/workloads"),
        ("DELETE", "/v1/jobs"),
        ("GET", "/v1/jobs/job-1/other"),
    ]:
        status, _h, body = call(gateway, method, path, key=key)
        assert status == 404, (method, path)


# --------------------------------------------------------------------------- #
# Fault injection at the request site
# --------------------------------------------------------------------------- #
def test_gateway_request_crash_fault_is_a_typed_500(gateway, tenant_key):
    _tenant, key = tenant_key
    plan = FaultPlan.scripted(Fault("gateway-request", 0, "crash"))
    with activate(plan) as active:
        status, _h, body = call(gateway, "GET", "/v1/workloads", key=key)
        assert status == 500
        assert body["error"] == "internal-error"
        assert [fault.site for fault in active.fired] == ["gateway-request"]
    # The gateway survives: the next request routes normally.
    status, _h, _body = call(gateway, "GET", "/v1/workloads", key=key)
    assert status == 200


def test_a_failed_ledger_write_is_counted_and_logged(gateway, tenant_key, caplog):
    """The job's ledger row is lost when its store write fails; the loss
    shows in ``/healthz`` and in one log line instead of vanishing."""
    tenant, key = tenant_key
    before = call(gateway, "GET", "/healthz")[2]["usage_ledger_failures"]
    plan = FaultPlan.scripted(Fault("store-write", 0, "crash"))
    with caplog.at_level(logging.WARNING, logger="repro.api.gateway.usage"):
        with activate(plan) as active:
            job = submit_matrix(gateway, key)
            status, _h, _wire = call(
                gateway, "GET", f"/v1/jobs/{job}/result?wait=120", key=key
            )
            assert status == 200
            # The listener runs a beat after result() unblocks: poll.
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                health = call(gateway, "GET", "/healthz")[2]
                if health["usage_ledger_failures"] > before:
                    break
                time.sleep(0.02)
            assert [fault.site for fault in active.fired] == ["store-write"]
    assert health["usage_ledger_failures"] == before + 1
    assert gateway.store.usage_totals(tenant.tenant_id)["jobs"] == 0
    lost = [r for r in caplog.records if job in r.getMessage()]
    assert len(lost) == 1 and tenant.tenant_id in lost[0].getMessage()


def test_close_without_a_serve_loop_returns():
    """``close()`` on a server whose loop never ran (neither ``start()`` nor
    ``serve_forever()``) releases the port instead of waiting forever."""
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    server = GatewayServer(service, port=0)
    closer = threading.Thread(target=server.close, daemon=True)
    closer.start()
    closer.join(timeout=10)
    try:
        assert not closer.is_alive(), "close() hung"
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((server.host, server.port), timeout=5).close()
    finally:
        service.close()


# --------------------------------------------------------------------------- #
# Port-in-use regression (repro serve / repro gateway)
# --------------------------------------------------------------------------- #
@pytest.fixture()
def occupied_port():
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    yield sock.getsockname()[1]
    sock.close()


def test_serve_port_in_use_is_a_one_line_exit_2(occupied_port, capsys):
    code = serve_main(
        ["--port", str(occupied_port), "--workloads", WORKLOAD, "--backend",
         "serial", "--jobs", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "repro serve: cannot bind" in err
    assert "address already in use" in err
    assert "Traceback" not in err


def test_gateway_port_in_use_is_a_one_line_exit_2(occupied_port, tmp_path, capsys):
    code = gateway_main(
        ["--port", str(occupied_port), "--state-dir", str(tmp_path / "state"),
         "--workloads", WORKLOAD, "--backend", "serial", "--jobs", "1"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "repro gateway: cannot bind" in err
    assert "address already in use" in err
    assert "Traceback" not in err
