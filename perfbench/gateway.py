"""The gateway workload's server lifecycle and its one HTTP/SSE client.

The client speaks plain ``http.client``: one connection per request, at
most one open at a time.  A job is ``POST /v1/jobs`` → the SSE stream of
``/v1/jobs/{id}/events`` read until its terminal event → ``/result``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import select
import signal
import subprocess
import time
from typing import Dict, List, Optional, Tuple

import common

#: Jobs a burst never exceeds, whatever its duration.
MAX_JOBS = 3000
#: Fewest jobs a burst runs, so its 90th percentile has ten jobs beyond it.
MIN_JOBS = 100

_BANNER = re.compile(rb"listening on http://([^:\s]+):(\d+)")


def flush_intervals(seed: int, count: int) -> List[int]:
    """``count`` distinct BTU flush intervals drawn from ``seed``.

    Distinct within a run, so no job's points are cache hits, and never the
    interval the build compiled with.
    """
    rng = random.Random(seed)
    draws = rng.sample(range(3_000, 3_000_000), count + 1)
    return [d for d in draws if d != common.BUILD_FLUSH_INTERVAL][:count]


def job_bodies(intervals: List[int]) -> List[Tuple[int, list, bytes]]:
    """``(interval, requests, POST body)`` per job, built before any timing."""
    jobs = []
    for interval in intervals:
        requests = common.gateway_requests(interval)
        body = json.dumps({"requests": [r.as_dict() for r in requests]}).encode()
        jobs.append((interval, requests, body))
    return jobs


def provision(env: Dict[str, str], state_dir: str) -> str:
    """Create a tenant and mint its API key with ``repro gateway admin``."""
    admin = common.python_argv("-m", "repro", "gateway", "admin", "--state-dir", state_dir)
    for args in (("create-tenant", "bench"), ("create-key", "bench")):
        _wall, code, stdout, stderr, _rss = common.timed_child([*admin, *args], env)
        if code != 0:
            raise RuntimeError(f"gateway admin {args[0]} failed: {stderr[-2000:]!r}")
    match = re.search(rb"api-key: (\S+)", stdout)
    if match is None:
        raise RuntimeError("gateway admin printed no api-key")
    return match.group(1).decode()


class ServerProcess:
    """``repro gateway`` as a child in its own process group (so a failing
    benchmark run can kill the whole group and leave no orphan)."""

    def __init__(self, env: Dict[str, str], state_dir: str, cache_dir: str) -> None:
        self._log = open(os.path.join(env["TMPDIR"], "gateway.err"), "wb")
        self.proc = subprocess.Popen(
            common.python_argv(
                "-m", "repro", "gateway",
                "--state-dir", state_dir, "--cache-dir", cache_dir,
                "--workloads", "quick", "--backend", "serial", "--jobs", "1",
                "--engine-tier", "native",
            ),
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=common.CHECKOUT,
            start_new_session=True,
        )
        try:
            self.host, self.port = self._read_banner(timeout=60.0)
        except BaseException:
            self.kill()
            raise

    def _read_banner(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                seen += line
                match = _BANNER.search(line)
                if match:
                    return match.group(1).decode(), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"gateway printed no banner: {seen[-500:]!r}")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the gateway process")

    def drain(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait for the drain, and return the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout)
        finally:
            self.kill()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
        self._log.close()


class JobTimes:
    __slots__ = ("submit_ms", "first_event_ms", "events_ms", "result_ms", "total_ms")

    def __init__(self) -> None:
        self.submit_ms = self.first_event_ms = self.events_ms = 0.0
        self.result_ms = self.total_ms = 0.0


class Client:
    def __init__(self, host: str, port: int, key: str) -> None:
        self.host, self.port = host, port
        self.headers = {"Authorization": f"Bearer {key}"}

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def get_json(self, path: str) -> dict:
        conn = self._connect()
        try:
            conn.request("GET", path, headers=self.headers)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path} -> {response.status}: {body[:300]!r}")
            return json.loads(body)
        finally:
            conn.close()

    def run_job(self, body: bytes) -> Tuple[JobTimes, List[str], bytes]:
        """One closed-loop job; ``(times, SSE event kinds, result wire)``."""
        times = JobTimes()
        start = time.perf_counter()
        conn = self._connect()
        try:
            conn.request(
                "POST", "/v1/jobs", body=body,
                headers={**self.headers, "Content-Type": "application/json"},
            )
            response = conn.getresponse()
            reply = response.read()
        finally:
            conn.close()
        if response.status != 202:
            raise RuntimeError(f"submit -> {response.status}: {reply[:300]!r}")
        job_id = json.loads(reply)["job"]
        submitted = time.perf_counter()
        times.submit_ms = (submitted - start) * 1e3

        kinds: List[str] = []
        conn = self._connect()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events", headers=self.headers)
            response = conn.getresponse()
            if response.status != 200:
                raise RuntimeError(f"events -> {response.status}")
            while True:
                line = response.readline()
                if not line:
                    break
                if line.startswith(b"data:"):
                    if not kinds:
                        times.first_event_ms = (time.perf_counter() - start) * 1e3
                    kinds.append(json.loads(line[5:])["kind"])
                    if kinds[-1] in ("done", "failed", "cancelled"):
                        break
        finally:
            conn.close()
        streamed = time.perf_counter()
        times.events_ms = (streamed - submitted) * 1e3

        conn = self._connect()
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/result?wait=60", headers=self.headers)
            response = conn.getresponse()
            wire = response.read()
        finally:
            conn.close()
        end = time.perf_counter()
        if response.status != 200:
            raise RuntimeError(f"result -> {response.status}: {wire[:300]!r}")
        times.result_ms = (end - streamed) * 1e3
        times.total_ms = (end - start) * 1e3
        return times, kinds, wire


def check_job(requests: list, kinds: List[str], wire: bytes) -> Optional[str]:
    """Why a job's answer is wrong, or ``None`` when it is right."""
    from repro.api import ResultSet

    if not kinds or kinds[-1] != "done":
        return f"SSE stream ended in {kinds[-1:]!r}, not 'done'"
    answer = ResultSet.from_wire(wire.decode())
    if len(answer) != len(requests) or set(answer.requests) != set(requests):
        return "result does not cover exactly the submitted requests"
    return None


def burst(
    client: Client,
    jobs: List[Tuple[int, list, bytes]],
    seconds: float,
    min_jobs: int = MIN_JOBS,
) -> Tuple[float, List[JobTimes], List[Tuple[int, list, List[str], bytes]]]:
    """Closed loop: one job after another until ``seconds`` and ``min_jobs``."""
    times: List[JobTimes] = []
    answers = []
    start = time.perf_counter()
    for interval, requests, body in jobs:
        job_times, kinds, wire = client.run_job(body)
        times.append(job_times)
        answers.append((interval, requests, kinds, wire))
        if len(times) >= min_jobs and time.perf_counter() - start >= seconds:
            break
    return time.perf_counter() - start, times, answers
