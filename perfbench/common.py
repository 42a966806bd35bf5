"""Paths, child-process environments and checks shared by the benchmark.

Every process the benchmark starts runs from the checkout's ``src/`` tree
(``PYTHONPATH``) with its artifact cache, ``HOME``, ``TMPDIR`` and bytecode
cache pointed inside the checkout, so a run reads and writes nothing outside
it.  ``HOME`` points at a per-run directory so that a write to the default
cache (``~/.cache/repro-cassandra``) lands where the isolation check sees it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
#: Scratch and build outputs; listed in the root ``.gitignore``.
BUILD_ROOT = os.path.join(CHECKOUT, ".bench_build")

#: The quick-suite command the ``quick-cold`` workload times (after ``-m repro``).
QUICK_ARGS = ("all", "--workloads", "quick", "--jobs", "2")
#: The sweep workload set: SHA-256 has a long trace, Poly1305 a 685-instruction
#: one, so the sweep sees both a dominant measured pass and dominant overhead.
SWEEP_WORKLOADS = "SHA-256,Poly1305_ctmul"
SWEEP_DESIGNS = ("cassandra", "spt")
#: Workloads and designs of one gateway job (12 points per job).
GATEWAY_WORKLOADS = ("ChaCha20_ct", "Poly1305_ctmul", "ModPow_i31")
GATEWAY_DESIGNS = ("cassandra", "cassandra+stl", "cassandra-lite", "cassandra+prospect")
#: BTU flush interval the build compiles the gateway's flush-active kernels
#: with.  The interval is a runtime argument of the kernels, so every job's
#: interval shares them; the gateway's seed-drawn intervals never use it.
BUILD_FLUSH_INTERVAL = 1_000_003

#: Environment variables the program reads that must not leak in from the
#: caller (fault plans, pretend fingerprints, tier or compiler overrides).
_PROGRAM_ENV_PREFIX = "REPRO_"


def sweep_grid():
    """The 144-config grid of ``benchmarks/bench_engine.py``'s columns sweep.

    Copied, not imported, so the workload stays fixed when that script
    changes: ROB size × pipeline width × predictor size × mispredict
    penalty × store-forward latency, caches and BTU at their defaults.
    """
    import itertools

    from repro.uarch.config import CoreConfig

    return tuple(
        CoreConfig(
            rob_size=rob,
            fetch_width=width,
            issue_width=width,
            commit_width=width,
            pht_bits=pht,
            global_history_bits=pht,
            mispredict_penalty=penalty,
            store_forward_latency=forward,
        )
        for rob, width, pht, penalty, forward in itertools.product(
            (512, 384, 300, 256), (8, 6, 4), (14, 12, 10), (13, 9), (1, 3)
        )
    )


def sweep_matrix():
    from repro.api import ScenarioMatrix

    return ScenarioMatrix(designs=SWEEP_DESIGNS, configs=sweep_grid())


def gateway_requests(flush_interval: int) -> list:
    """One gateway job: the Cassandra family × the gateway workloads."""
    from repro.api import ScenarioMatrix

    matrix = ScenarioMatrix(
        workloads=GATEWAY_WORKLOADS,
        designs=GATEWAY_DESIGNS,
        flush_intervals=(flush_interval,),
    )
    return matrix.expand()


#: Benchmark files whose content the build depends on.
BUILD_INPUTS = ("build.py", "child.py", "common.py")


def source_key() -> str:
    """Digest of the program sources and the build's own files (keys the build)."""
    paths = [os.path.join(HERE, name) for name in BUILD_INPUTS]
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths.extend(
            os.path.join(dirpath, name)
            for name in sorted(filenames)
            if not name.endswith((".pyc", ".pyo"))
        )
    h = hashlib.sha256(sys.version.encode())
    for path in paths:
        h.update(os.path.relpath(path, CHECKOUT).encode() + b"\0")
        with open(path, "rb") as handle:
            h.update(hashlib.sha256(handle.read()).digest())
    return h.hexdigest()[:16]


def build_dir(key: str) -> str:
    return os.path.join(BUILD_ROOT, f"build-{key}")


def child_env(
    run_root: str,
    cache_dir: str,
    pycache: str,
    tier: Optional[str] = None,
) -> Dict[str, str]:
    """The environment of every program process the benchmark starts."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(_PROGRAM_ENV_PREFIX)
        and key not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONHOME")
    }
    home = os.path.join(run_root, "home")
    tmp = os.path.join(run_root, "tmp")
    os.makedirs(home, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env.update(
        PYTHONPATH=SRC,
        PYTHONPYCACHEPREFIX=pycache,
        REPRO_CACHE_DIR=cache_dir,
        HOME=home,
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        TMPDIR=tmp,
    )
    if tier is not None:
        env["REPRO_ENGINE_TIER"] = tier
    return env


def files_under(root: str, skip: Sequence[str] = ()) -> Set[str]:
    """Relative paths of every file below ``root`` (``skip``: top-level names)."""
    found: Set[str] = set()
    if not os.path.isdir(root):
        return found
    for dirpath, dirnames, filenames in os.walk(root):
        if dirpath == root:
            dirnames[:] = [d for d in dirnames if d not in skip]
        for filename in filenames:
            found.add(os.path.relpath(os.path.join(dirpath, filename), root))
    return found


class IsolationCheck:
    """Detects files an op writes outside the directories it was given.

    Watches the checkout (minus the benchmark's own build root) and the
    per-run ``HOME``, where the program's default cache would live.
    """

    def __init__(self, run_root: str) -> None:
        self.home = os.path.join(run_root, "home")

    def snapshot(self) -> Tuple[Set[str], Set[str]]:
        return (
            files_under(CHECKOUT, skip=(os.path.basename(BUILD_ROOT), ".git")),
            files_under(self.home),
        )

    def new_files(self, before: Tuple[Set[str], Set[str]]) -> List[str]:
        tree, home = self.snapshot()
        return sorted(tree - before[0]) + sorted(
            os.path.join("~", path) for path in home - before[1]
        )


def timed_child(
    argv: Sequence[str], env: Dict[str, str], timeout: float = 170.0
) -> Tuple[float, int, bytes, bytes, float]:
    """Run one child; ``(wall_s, returncode, stdout, stderr, peak_rss_mb)``.

    Output goes to files in ``TMPDIR`` rather than pipes, so the wall time
    is the child's own and no reader thread competes with it.
    """
    tmp = env["TMPDIR"]
    out_path = os.path.join(tmp, "child.out")
    err_path = os.path.join(tmp, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=out, stderr=err, env=env, cwd=CHECKOUT
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read()
    return wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0


_TRACE_RUNTIME = re.compile(rb"(== trace-runtime:.*?\n)(.*?)(\n\n|\Z)", re.S)
_SECONDS = re.compile(rb"\b\d+\.\d+\b")


def comparable_tables(stdout: bytes) -> bytes:
    """The quick suite's stdout with its one host-time table masked.

    The trace-runtime section reports how long trace generation took on
    this host, so a cold run's figures differ from run to run (a warm run
    replays the cached ones).  Every other byte must match exactly.
    """
    return _TRACE_RUNTIME.sub(
        lambda m: m.group(1) + _SECONDS.sub(b"#", m.group(2)) + m.group(3), stdout
    )


def checked_child(argv: Sequence[str], env: Dict[str, str], what: str, timeout: float = 170.0):
    """A program step that must succeed (set-up, references, the build):
    ``(its last-line JSON answer, or None if it printed nothing; wall_s)``."""
    wall, code, stdout, stderr, _rss = timed_child(argv, env, timeout)
    if code != 0:
        raise RuntimeError(
            f"{what} exited with {code}: {stderr.decode(errors='replace')[-2000:]}"
        )
    return (last_json_line(stdout) if stdout.strip() else None), wall


def last_json_line(stdout: bytes):
    """The JSON object a benchmark child prints as its last stdout line."""
    lines = stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        raise ValueError("child printed nothing")
    return json.loads(lines[-1])


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (``statistics.quantiles``, exclusive method)."""
    return statistics.quantiles(sorted(values), n=100)[pct - 1]


def copy_tree(src: str, dst: str, kinds: Optional[Sequence[str]] = None) -> None:
    """Copy an artifact-cache root, optionally only some entry kinds."""
    for version in os.listdir(src):
        for kind in os.listdir(os.path.join(src, version)):
            if kinds is not None and kind not in kinds:
                continue
            shutil.copytree(
                os.path.join(src, version, kind),
                os.path.join(dst, version, kind),
                dirs_exist_ok=True,
            )


def read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def write_json(path: str, payload) -> None:
    temp = f"{path}.{os.getpid()}.tmp"
    with open(temp, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    os.replace(temp, path)
