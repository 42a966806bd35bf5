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

import contextlib
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.api import ScenarioMatrix, ShardWorkerError, SimulationService
from repro.api.journal import JOURNAL_NAME, JobJournal
from repro.api.remote import RemoteServiceClient
from repro.pipeline import ArtifactCache
from repro.pipeline.artifacts import STORE_FILES
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

#: Two workloads: a serial job over them runs two rounds.
TWO_WORKLOADS = (WORKLOAD, "Poly1305_ctmul")

#: Served runs hold the simulation batch open this long after its commit
#: (the third cache store: preparation stores the workload's artifacts and
#: lowered trace first).  The whole batch lands in one commit, so a kill or
#: a signal timed on the committed rows must still find the job mid-round.
HOLD_BATCH = Fault("cache-stored", 2, "delay", delay=2.0)

SIMULATION_STORE = STORE_FILES["simulation"]


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
    # artifacts, lowered trace, then one commit for the simulation batch.
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
        if not name.endswith(".pkl") and not name.startswith(SIMULATION_STORE)
    ]
    assert leftovers == []  # no temp files, no partial entries
    assert cached_point_count(root) == 0  # the batch's rows rolled back

    healed = serial_service(cache_root=root)
    answer = healed.submit(MATRIX).result(timeout=RESULT_TIMEOUT)
    assert answer.to_json() == serial_service().run(MATRIX).to_json()


def test_corrupt_store_is_quarantined_and_recomputed(tmp_path):
    """Entries torn on disk *after* their commit (bit rot, torn write-back)
    are quarantined on the next read and recomputed to the same bytes."""
    root = str(tmp_path)
    # The third store is the simulation batch's commit: it tears every
    # point the batch stored.
    plan = FaultPlan.scripted(Fault("cache-stored", 2, "corrupt"))
    with activate(plan) as active:
        first = serial_service(cache_root=root)
        answer = first.submit(MATRIX).result(timeout=RESULT_TIMEOUT)
        assert [fault.action for fault in active.fired] == ["corrupt"]
    points = len(first.expand(MATRIX))
    assert cached_point_count(root) == points

    rerun_cache = ArtifactCache(root=root)
    rerun = SimulationService(
        names=[WORKLOAD], jobs=1, backend="serial", cache=rerun_cache
    )
    again = rerun.submit(MATRIX).result(timeout=RESULT_TIMEOUT)
    assert again.to_json() == answer.to_json()
    # Each torn row was deleted on read; the recompute stored it again.
    assert rerun_cache.stats.quarantined == points
    assert cached_point_count(root) == points
    healed = ArtifactCache(root=root)
    assert SimulationService(
        names=[WORKLOAD], jobs=1, backend="serial", cache=healed
    ).run(MATRIX).to_json() == answer.to_json()
    assert healed.stats.quarantined == 0


# --------------------------------------------------------------------------- #
# kill -9 / SIGTERM of `repro serve --state-dir`, then resume
# --------------------------------------------------------------------------- #
class ServeProcess:
    """A ``repro serve --state-dir`` subprocess with captured stdout, leading
    its own session (and so its own process group)."""

    def __init__(self, state_dir, env=None, workloads=WORKLOAD, backend="serial", jobs=1):
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--state-dir",
                state_dir,
                "--workloads",
                workloads,
                "--backend",
                backend,
                "--jobs",
                str(jobs),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env if env is not None else repro_env(),
            text=True,
            start_new_session=True,
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


def cached_point_count(cache_root):
    """Simulation points committed to the disk cache under ``cache_root``.

    A batch of points lands in one commit of the cache's simulation store,
    and the journal records no per-point state — so *this* is the signal
    that a job has committed work.
    """
    path = os.path.join(cache_root, "v1", "simulation", SIMULATION_STORE)
    if not os.path.exists(path):
        return 0
    with contextlib.closing(sqlite3.connect(path, timeout=60)) as conn:
        try:
            return conn.execute("SELECT count(*) FROM entries").fetchone()[0]
        except sqlite3.OperationalError as error:
            if "no such table" not in str(error):
                raise
            return 0  # the store is being created


def wait_for_cached_points(state_dir, count, timeout=120):
    """Block until ``count`` simulation points of the state dir's cache are
    committed (a job is under way)."""
    cache_root = os.path.join(state_dir, "cache")
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if cached_point_count(cache_root) >= count:
            return
        time.sleep(0.005)
    raise AssertionError(f"cache never reached {count} simulation points")


def journal_records(state_dir):
    return list(JobJournal.read_records(os.path.join(state_dir, JOURNAL_NAME)))


def test_kill9_mid_sweep_then_restart_resumes_to_identical_tables(
    tmp_path, big_baseline
):
    state_dir = str(tmp_path / "state")

    first = ServeProcess(state_dir, env=repro_env(FaultPlan.scripted(HOLD_BATCH)))
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

    first = ServeProcess(state_dir, env=repro_env(FaultPlan.scripted(HOLD_BATCH)))
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


def live_children(pid):
    """The pids of ``pid``'s live child processes, forked by any of its
    threads (Linux ``/proc``)."""
    children = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return children
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children.extend(int(child) for child in handle.read().split())
        except OSError:
            pass
    return children


def busy_pool_workers(server, deadline):
    """Submit a long sweep to ``server`` and return its fork-pool workers
    once they are mid-task: rounds of a few seconds, even on a host several
    times faster than the one this was tuned on, and pool workers take
    their tasks as they start, so workers alive 0.3 s are computing."""
    matrix = ScenarioMatrix(designs=("cassandra",), flush_intervals=tuple(range(200, 3800, 50)))
    RemoteServiceClient(server.address).submit(matrix)
    born = {}
    while not born or time.monotonic() - min(born.values()) < 0.3:
        assert time.monotonic() < deadline, "no pool worker lived long enough"
        now = time.monotonic()
        born = {pid: born.get(pid, now) for pid in live_children(server.process.pid)}
        time.sleep(0.005)
    return list(born)


def running(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


needs_proc_children = pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<tid>/children",
)


@needs_proc_children
def test_group_sigterm_drains_a_fork_backend_server(tmp_path):
    """A SIGTERM to the server's whole process group (a terminal's ^C, a
    service manager's stop) drains as promptly as one to the server alone:
    the fork pool's workers lead their own groups, so the signal cannot
    kill one and strand its share of the pool's work."""
    server = ServeProcess(
        str(tmp_path / "state"),
        workloads=f"{WORKLOAD},Poly1305_ctmul",
        backend="fork",
        jobs=2,
    )
    deadline = time.monotonic() + 60
    try:
        born = busy_pool_workers(server, deadline)
        os.killpg(server.process.pid, signal.SIGTERM)
        assert server.process.wait(timeout=15) == 0
        server.wait_for_line("drained, exiting")
        for pid in born:  # no worker outlives the server
            while os.path.exists(f"/proc/{pid}"):
                assert time.monotonic() < deadline, f"pool worker {pid} outlived the server"
                time.sleep(0.01)
    finally:
        if server.process.poll() is None:
            # A stalled drain: take the server's pool workers down with it.
            for pid in live_children(server.process.pid):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            server.kill9()


@needs_proc_children
def test_kill9_of_a_fork_backend_server_takes_its_pool_workers_down(tmp_path):
    """``kill -9`` of a fork-backend server mid-round leaves no pool worker
    behind.  The workers are stopped first, so nothing they do themselves
    can end them: like a worker blocked on the task queue's lock that a
    killed sibling held (ppid 1, forever), only their parent's death can."""
    server = ServeProcess(
        str(tmp_path / "state"),
        workloads=f"{WORKLOAD},Poly1305_ctmul",
        backend="fork",
        jobs=2,
    )
    workers = []
    try:
        workers = busy_pool_workers(server, time.monotonic() + 60)
        for pid in workers:
            os.kill(pid, signal.SIGSTOP)
        server.kill9()
        deadline = time.monotonic() + 5
        while any(running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not [pid for pid in workers if running(pid)], "pool workers outlived the server"
    finally:
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        if server.process.poll() is None:
            server.kill9()


def test_kill9_mid_warehouse_ingest_then_resume_reingests_identical_store(
    tmp_path,
):
    """Die in the second round's warehouse commit; the store holds exactly
    the first round's rows, and the journal-driven resume must re-ingest
    to the exact store an uninterrupted run produces."""
    # The uninterrupted reference: the same sweep ingested in-process
    # under a pinned fingerprint.  The serial backend runs one round per
    # workload, and each round's rows land in one commit.
    reference_store = WarehouseStore(str(tmp_path / "reference.sqlite3"))
    service = serial_service(names=TWO_WORKLOADS)
    attach_ingestor(service, reference_store, fingerprint="chaos-fp")
    requests = service.expand(BIG_MATRIX)
    first_round = requests[0].workload.name
    first_rows = sum(request.workload.name == first_round for request in requests)
    service.run(BIG_MATRIX)
    deadline = time.monotonic() + 60
    while reference_store.count() < len(requests) and time.monotonic() < deadline:
        time.sleep(0.02)
    service.close()
    reference = reference_store.content_rows()
    reference_store.close()
    assert len(reference) == len(requests)
    assert 0 < first_rows < len(requests)

    state_dir = str(tmp_path / "state")
    store_path = os.path.join(state_dir, WAREHOUSE_NAME)
    # upsert_many trips the site once per row before it commits, so the
    # first trip past the first round's rows is the second round's commit.
    plan = FaultPlan.scripted(Fault("warehouse-write", first_rows, "die"))
    env = repro_env(plan)
    env[FINGERPRINT_ENV] = "chaos-fp"
    first = ServeProcess(state_dir, env=env, workloads=",".join(TWO_WORKLOADS))
    try:
        client = RemoteServiceClient(first.address)
        handle = client.submit(BIG_MATRIX, tags=("sweep",))
        assert first.process.wait(timeout=RESULT_TIMEOUT) == DIE_STATUS
    finally:
        if first.process.poll() is None:
            first.kill9()

    with WarehouseStore(store_path) as partial_store:
        partial = partial_store.content_rows()
    # Genuinely mid-ingest, and a round is all or nothing: the store holds
    # exactly the first round's rows.
    assert partial == [row for row in reference if row[2] == first_round]
    assert len(partial) == first_rows

    env = repro_env()
    env[FINGERPRINT_ENV] = "chaos-fp"
    second = ServeProcess(state_dir, env=env, workloads=",".join(TWO_WORKLOADS))
    try:
        assert handle.job_id in second.wait_for_line("resumed")
        attached = RemoteServiceClient(second.address).attach(handle.job_id)
        attached.result(timeout=RESULT_TIMEOUT)
        # Poll for convergence to the byte-exact reference rows.
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
        state_dir, FaultPlan.scripted(Fault("gateway-request", 1, "die"), HOLD_BATCH)
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
