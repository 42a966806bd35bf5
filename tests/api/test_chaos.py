"""Deterministic chaos: every fault plan ends in byte-identical tables or
a typed error — never a hang, never a corrupted cache.

Each test arms a :class:`repro.testing.faults.FaultPlan` (in-process via
``activate`` or across process boundaries via :data:`FAULT_PLAN_ENV`) and
asserts the stack's recovery contract: delayed and torn frames, dying
workers, crashes inside the artifact cache's atomic-rename window, corrupt
stores, and — the flagship — ``kill -9`` of a ``repro serve --state-dir``
process mid-sweep followed by a restart that resumes the journaled job to
the same final tables.  Every blocking wait carries a timeout.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.api import ScenarioMatrix, ShardWorkerError, SimulationService
from repro.api.journal import JOURNAL_NAME, JobJournal
from repro.api.remote import RemoteServiceClient
from repro.pipeline import ArtifactCache
from repro.testing import (
    DIE_STATUS,
    FAULT_PLAN_ENV,
    Fault,
    FaultPlan,
    InjectedFault,
    activate,
)
from repro.warehouse import WAREHOUSE_NAME, WarehouseStore, attach_ingestor
from repro.warehouse.ingest import FINGERPRINT_ENV

WORKLOAD = "ChaCha20_ct"

MATRIX = ScenarioMatrix(designs=("unsafe-baseline", "cassandra"))

#: Enough points that a mid-sweep kill lands mid-sweep, not after the end.
BIG_MATRIX = ScenarioMatrix(
    designs=("unsafe-baseline", "cassandra", "spt", "cassandra-lite")
).extended(
    ScenarioMatrix(designs=("cassandra",), flush_intervals=tuple(range(200, 1400, 50)))
)

RESULT_TIMEOUT = 300


def serial_service(names=(WORKLOAD,), cache_root=None):
    return SimulationService(
        names=list(names),
        jobs=1,
        backend="serial",
        cache=ArtifactCache(root=cache_root),
    )


@pytest.fixture(scope="module")
def big_baseline():
    """The uninterrupted serial answer the killed-and-resumed runs must match."""
    return serial_service().run(BIG_MATRIX).to_json()


def repro_env(fault_plan=None):
    """A subprocess environment with ``repro`` importable (plus a plan)."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop(FAULT_PLAN_ENV, None)
    if fault_plan is not None:
        env[FAULT_PLAN_ENV] = fault_plan.to_json()
    return env


# --------------------------------------------------------------------------- #
# Frame faults on the shard backends
# --------------------------------------------------------------------------- #
def test_delayed_frames_answer_bit_identically():
    plan = FaultPlan.scripted(
        Fault("frame-write", 0, "delay", delay=0.1),
        Fault("frame-read", 1, "delay", delay=0.1),
    )
    with activate(plan, env=True) as active:
        service = SimulationService(names=[WORKLOAD], jobs=1, backend="shard")
        answer = service.submit(MATRIX).result(timeout=RESULT_TIMEOUT)
        assert active.fired  # the plan really did stall frames
    serial = serial_service().run(MATRIX)
    assert answer.to_json() == serial.to_json()


def test_worker_death_with_no_survivor_is_a_typed_error(monkeypatch):
    plan = FaultPlan.scripted(Fault("worker-task", 0, "die"))
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="shard")
    with pytest.raises(ShardWorkerError) as excinfo:
        service.submit(MATRIX).result(timeout=RESULT_TIMEOUT)
    assert excinfo.value.workload == WORKLOAD
    assert excinfo.value.requests  # the pending work is named, not lost


def test_truncated_result_frame_is_a_typed_error_not_a_hang(monkeypatch):
    """The worker writes a torn result frame (true header, half payload):
    the parent must surface a ShardWorkerError, never block on the rest."""
    plan = FaultPlan.scripted(Fault("frame-write", 0, "truncate"))
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="shard")
    with pytest.raises(ShardWorkerError):
        service.submit(MATRIX).result(timeout=RESULT_TIMEOUT)


# --------------------------------------------------------------------------- #
# Cache faults
# --------------------------------------------------------------------------- #
def test_cache_put_crash_leaves_no_partial_entry(tmp_path):
    """A crash between the cache's temp write and its atomic rename is the
    classic torn-write window: the put must fail loudly, leave neither a
    partial entry nor a stray temp file, and a clean rerun heals."""
    root = str(tmp_path)
    # Put order is deterministic under the serial backend: workload
    # artifacts, lowered trace, then one entry per simulation point.
    plan = FaultPlan.scripted(Fault("cache-put", 2, "crash"))
    with activate(plan) as active:
        service = serial_service(cache_root=root)
        with pytest.raises(InjectedFault):
            service.submit(MATRIX).result(timeout=RESULT_TIMEOUT)
        assert [fault.site for fault in active.fired] == ["cache-put"]
    leftovers = [
        name
        for _dir, _sub, names in os.walk(root)
        for name in names
        if not name.endswith(".pkl")
    ]
    assert leftovers == []  # no temp files, no partial entries

    healed = serial_service(cache_root=root)
    answer = healed.submit(MATRIX).result(timeout=RESULT_TIMEOUT)
    assert answer.to_json() == serial_service().run(MATRIX).to_json()


def test_corrupt_store_is_quarantined_and_recomputed(tmp_path):
    """An entry torn on disk *after* its atomic rename (bit rot, torn
    write-back) is quarantined on the next read and recomputed to the
    same bytes."""
    root = str(tmp_path)
    plan = FaultPlan.scripted(Fault("cache-stored", 2, "corrupt"))
    with activate(plan) as active:
        first = serial_service(cache_root=root)
        answer = first.submit(MATRIX).result(timeout=RESULT_TIMEOUT)
        assert [fault.action for fault in active.fired] == ["corrupt"]

    rerun_cache = ArtifactCache(root=root)
    rerun = SimulationService(
        names=[WORKLOAD], jobs=1, backend="serial", cache=rerun_cache
    )
    again = rerun.submit(MATRIX).result(timeout=RESULT_TIMEOUT)
    assert again.to_json() == answer.to_json()
    assert rerun_cache.stats.quarantined == 1
    quarantined = [
        name
        for _dir, _sub, names in os.walk(root)
        for name in names
        if name.endswith(".corrupt")
    ]
    assert len(quarantined) == 1


# --------------------------------------------------------------------------- #
# kill -9 / SIGTERM of `repro serve --state-dir`, then resume
# --------------------------------------------------------------------------- #
class ServeProcess:
    """A ``repro serve --state-dir`` subprocess with captured stdout."""

    def __init__(self, state_dir, env=None):
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--state-dir",
                state_dir,
                "--workloads",
                WORKLOAD,
                "--backend",
                "serial",
                "--jobs",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env if env is not None else repro_env(),
            text=True,
        )
        self.lines = []
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        self.address = self.wait_for_line("listening on").split("listening on ")[1].split()[0]

    def _pump(self):
        for line in self.process.stdout:
            self.lines.append(line.rstrip("\n"))

    def wait_for_line(self, needle, timeout=60):
        deadline = time.monotonic() + timeout
        seen = 0
        while time.monotonic() < deadline:
            while seen < len(self.lines):
                line = self.lines[seen]
                seen += 1
                if needle in line:
                    return line
            if self.process.poll() is not None and seen >= len(self.lines):
                break
            time.sleep(0.02)
        raise AssertionError(f"serve never printed {needle!r}; got {self.lines}")

    def kill9(self):
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=30)

    def terminate(self):
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=120)


def cached_point_count(state_dir):
    """Completed simulation points in the state dir's disk cache.

    The serial backend persists each point the moment it computes (the
    atomic-rename cache), and the journal records no per-point state — so
    *this* is the signal that a sweep is mid-round.
    """
    cache_root = os.path.join(state_dir, "cache")
    return sum(
        1
        for dirpath, _subdirs, names in os.walk(cache_root)
        if "simulation" in dirpath
        for name in names
        if name.endswith(".pkl")
    )


def wait_for_cached_points(state_dir, count, timeout=120):
    """Block until ``count`` simulation points are on disk (sweep mid-round)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cached_point_count(state_dir) >= count:
            return
        time.sleep(0.005)
    raise AssertionError(f"cache never reached {count} simulation points")


def journal_records(state_dir):
    return list(JobJournal.read_records(os.path.join(state_dir, JOURNAL_NAME)))


def test_kill9_mid_sweep_then_restart_resumes_to_identical_tables(
    tmp_path, big_baseline
):
    state_dir = str(tmp_path / "state")

    first = ServeProcess(state_dir)
    try:
        client = RemoteServiceClient(first.address)
        handle = client.submit(BIG_MATRIX, tags=("sweep",))
        wait_for_cached_points(state_dir, 3)
    finally:
        first.kill9()  # no drain, no checkpoint: the crash case

    second = ServeProcess(state_dir)
    try:
        resumed_line = second.wait_for_line("resumed")
        assert handle.job_id in resumed_line

        attached = RemoteServiceClient(second.address).attach(handle.job_id)
        kinds = [event.kind for event in attached.events()]
        results = attached.result(timeout=RESULT_TIMEOUT)
        assert results.to_json() == big_baseline

        # The pre-kill completions replayed as cache hits on resume...
        assert kinds.count("cache-hit") >= 3
        records = journal_records(state_dir)
        # ...and the resumed job reached a durable terminal state.
        assert any(
            record.get("record") == "state"
            and record.get("state") == "done"
            and record.get("job") == handle.job_id
            for record in records
        )
        assert second.terminate() == 0
        second.wait_for_line("drained, exiting")
    finally:
        if second.process.poll() is None:
            second.kill9()


def test_sigterm_drains_cleanly_and_restart_resumes(tmp_path, big_baseline):
    state_dir = str(tmp_path / "state")

    first = ServeProcess(state_dir)
    try:
        client = RemoteServiceClient(first.address)
        handle = client.submit(BIG_MATRIX)
        wait_for_cached_points(state_dir, 2)
        assert first.terminate() == 0  # SIGTERM: drain, checkpoint, exit 0
        first.wait_for_line("draining")
        first.wait_for_line("drained, exiting")
    finally:
        if first.process.poll() is None:
            first.kill9()

    records = journal_records(state_dir)
    # The drain suppressed the induced cancel (the job must stay pending)
    # and stamped a clean checkpoint.
    assert not any(record.get("record") == "state" for record in records)
    assert any(record.get("record") == "checkpoint" for record in records)

    second = ServeProcess(state_dir)
    try:
        assert handle.job_id in second.wait_for_line("resumed")
        attached = RemoteServiceClient(second.address).attach(handle.job_id)
        assert attached.result(timeout=RESULT_TIMEOUT).to_json() == big_baseline
        assert second.terminate() == 0
    finally:
        if second.process.poll() is None:
            second.kill9()


def test_kill9_mid_warehouse_ingest_then_resume_reingests_identical_store(
    tmp_path,
):
    """Die at the Nth warehouse write; the journal-driven resume must
    re-ingest to the exact store an uninterrupted run produces."""
    # The uninterrupted reference: the same sweep ingested in-process
    # under a pinned fingerprint.
    reference_store = WarehouseStore(str(tmp_path / "reference.sqlite3"))
    service = serial_service()
    attach_ingestor(service, reference_store, fingerprint="chaos-fp")
    expected = len(service.expand(BIG_MATRIX))
    service.run(BIG_MATRIX)
    deadline = time.monotonic() + 60
    while reference_store.count() < expected and time.monotonic() < deadline:
        time.sleep(0.02)
    service.close()
    reference = reference_store.content_rows()
    reference_store.close()
    assert len(reference) == expected

    state_dir = str(tmp_path / "state")
    store_path = os.path.join(state_dir, WAREHOUSE_NAME)
    plan = FaultPlan.scripted(Fault("warehouse-write", 6, "die"))
    env = repro_env(plan)
    env[FINGERPRINT_ENV] = "chaos-fp"
    first = ServeProcess(state_dir, env=env)
    try:
        client = RemoteServiceClient(first.address)
        handle = client.submit(BIG_MATRIX, tags=("sweep",))
        # The 7th warehouse write fires `die`: the server stops mid-ingest.
        assert first.process.wait(timeout=RESULT_TIMEOUT) == DIE_STATUS
    finally:
        if first.process.poll() is None:
            first.kill9()

    with WarehouseStore(store_path) as partial_store:
        partial = partial_store.content_rows()
    # Genuinely mid-ingest: some rows landed, the sweep did not finish,
    # and nothing that landed disagrees with the reference.
    assert 0 < len(partial) < expected
    assert set(partial) <= set(reference)

    env = repro_env()
    env[FINGERPRINT_ENV] = "chaos-fp"
    second = ServeProcess(state_dir, env=env)
    try:
        assert handle.job_id in second.wait_for_line("resumed")
        attached = RemoteServiceClient(second.address).attach(handle.job_id)
        attached.result(timeout=RESULT_TIMEOUT)
        # The ingest listener trails the result by a beat — poll for
        # convergence to the byte-exact reference rows.
        deadline = time.monotonic() + 60
        rows = []
        while time.monotonic() < deadline:
            with WarehouseStore(store_path) as resumed_store:
                rows = resumed_store.content_rows()
            if rows == reference:
                break
            time.sleep(0.05)
        assert rows == reference
        assert second.terminate() == 0
    finally:
        if second.process.poll() is None:
            second.kill9()


# --------------------------------------------------------------------------- #
# kill -9 the HTTP gateway mid-request, then resume with ownership intact
# --------------------------------------------------------------------------- #
class GatewayProcess:
    """A ``repro gateway --state-dir`` subprocess with captured stdout."""

    def __init__(self, state_dir, fault_plan=None):
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "gateway",
                "--state-dir",
                state_dir,
                "--workloads",
                WORKLOAD,
                "--backend",
                "serial",
                "--jobs",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=repro_env(fault_plan),
            text=True,
        )
        self.lines = []
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        address = self.wait_for_line("listening on").split("listening on http://")[1]
        host, port = address.split()[0].rsplit(":", 1)
        self.host, self.port = host, int(port)

    _pump = ServeProcess._pump
    wait_for_line = ServeProcess.wait_for_line
    kill9 = ServeProcess.kill9
    terminate = ServeProcess.terminate

    def request(self, method, path, key=None, body=None, headers=None, timeout=300):
        import http.client
        import json as jsonlib

        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            all_headers = dict(headers or {})
            if key is not None:
                all_headers["Authorization"] = f"Bearer {key}"
            payload = jsonlib.dumps(body) if body is not None else None
            conn.request(method, path, body=payload, headers=all_headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()


def gateway_admin(state_dir, *args):
    """Run ``repro gateway admin`` as the CI smoke does: a subprocess."""
    return subprocess.run(
        [sys.executable, "-m", "repro", "gateway", "admin", "--state-dir", state_dir]
        + list(args),
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout


def test_gateway_die_mid_request_then_restart_keeps_ownership(
    tmp_path, big_baseline
):
    """The gateway process dies (an injected ``os._exit``) mid-HTTP-request
    while a tenant's sweep is mid-round.  The restart must resume the
    journaled job under the same id *and the same owner*: the tenant's key
    still streams and fetches it, a foreign key still gets 404, and the
    final tables match the uninterrupted serial run byte for byte."""
    import json as jsonlib

    from repro.api import expand_many
    from repro.api.gateway.store import GatewayStore

    state_dir = str(tmp_path / "state")
    out = gateway_admin(state_dir, "create-tenant", "acme")
    gateway_admin(state_dir, "create-tenant", "rival")
    out = gateway_admin(state_dir, "create-key", "acme")
    key = next(l.split(": ")[1] for l in out.splitlines() if l.startswith("api-key:"))
    out = gateway_admin(state_dir, "create-key", "rival")
    foreign = next(
        l.split(": ")[1] for l in out.splitlines() if l.startswith("api-key:")
    )

    batch = [
        request.as_dict()
        for request in expand_many([BIG_MATRIX], default_workloads=[WORKLOAD])
    ]

    # Request 0 (the submit) passes; request 1 kills the process mid-dispatch.
    first = GatewayProcess(
        state_dir, FaultPlan.scripted(Fault("gateway-request", 1, "die"))
    )
    try:
        status, body = first.request("POST", "/v1/jobs", key=key,
                                     body={"requests": batch})
        assert status == 202
        job_id = jsonlib.loads(body)["job"]
        wait_for_cached_points(state_dir, 3)
        with pytest.raises(Exception):
            first.request("GET", "/healthz", timeout=30)  # dies mid-request
        first.process.wait(timeout=30)
        assert first.process.returncode == DIE_STATUS  # the injected death
    finally:
        if first.process.poll() is None:
            first.kill9()

    second = GatewayProcess(state_dir)
    try:
        assert job_id in second.wait_for_line("resumed")

        # Ownership survived: the owner streams the resumed job's events...
        status, text = second.request(
            "GET", f"/v1/jobs/{job_id}/events", key=key, timeout=RESULT_TIMEOUT
        )
        assert status == 200
        kinds = [
            line.split(": ", 1)[1]
            for line in text.splitlines()
            if line.startswith("event: ")
        ]
        assert kinds[-1] == "done"
        assert "cache-hit" in kinds  # pre-kill points replayed from disk

        # ...and fetches tables byte-identical to the uninterrupted run.
        status, wire = second.request(
            "GET", f"/v1/jobs/{job_id}/result", key=key, timeout=RESULT_TIMEOUT
        )
        assert status == 200
        from repro.api.results import ResultSet

        assert ResultSet.from_wire(wire).to_json() == big_baseline

        # A foreign tenant still cannot see it.
        status, _text = second.request(
            "GET", f"/v1/jobs/{job_id}/result", key=foreign
        )
        assert status == 404

        # The usage ledger metered the resumed job for its owner.
        with GatewayStore(state_dir) as store:
            acme = store.tenant_by_name("acme")
            assert store.job_owner(job_id) == acme.tenant_id
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                totals = store.usage_totals(acme.tenant_id)
                if totals["jobs"]:
                    break
                time.sleep(0.05)
            assert totals["jobs"] == 1
            assert totals["points"] == len(batch)
            assert store.usage_totals(store.tenant_by_name("rival").tenant_id)[
                "jobs"
            ] == 0

        assert second.terminate() == 0
        second.wait_for_line("drained, exiting")
    finally:
        if second.process.poll() is None:
            second.kill9()
