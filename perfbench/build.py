"""The per-checkout build: everything runs reuse and no run times.

Built once per source tree (keyed by :func:`common.source_key`) under
``.bench_build/build-<key>/``:

* ``seed-cache/`` — an artifact cache holding every compiled native kernel
  the ``sweep-native`` and ``gateway-durable`` ops load (runs copy only the
  ``native-kernel`` entries).  Compiling the 216 sweep units, split over two
  processes, dominates the build.
* ``pycache/`` — the children's bytecode cache (``PYTHONPYCACHEPREFIX``).
* ``quick.out`` — stdout of a cold ``repro all --workloads quick --jobs 2``,
  the reference every ``quick-cold`` op must reproduce (outside the
  host-timed trace-runtime table).
* ``build.json`` — the python-tier reference digest of the sweep's
  ``ResultSet.to_wire()``, and what the build compiled.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import common


def _child(args, env, what: str) -> dict:
    payload, wall = common.checked_child(args, env, f"build step {what!r}", timeout=1500)
    payload["seconds"] = round(wall, 3)
    return payload


def _parallel_children(steps, what: str) -> list:
    """Run ``(argv, env)`` steps at once (one per core) and wait for all."""
    procs = []
    try:
        for argv, env in steps:
            out = open(os.path.join(env["TMPDIR"], "build.out"), "w+b")
            procs.append(
                (subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                  env=env, cwd=common.CHECKOUT), out)
            )
        results = []
        for proc, out in procs:
            if proc.wait(timeout=1500) != 0:
                raise RuntimeError(f"build step {what!r} exited with {proc.returncode}")
            out.seek(0)
            results.append(common.last_json_line(out.read()))
        return results
    finally:
        for proc, out in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            out.close()


def _build(target: str) -> None:
    work = f"{target}.tmp-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    seed = os.path.join(work, "seed-cache")
    pycache = os.path.join(work, "pycache")
    os.makedirs(seed)
    child = os.path.join(common.HERE, "child.py")

    def env(name: str, cache: str, tier=None):
        return common.child_env(os.path.join(work, "scratch", name), cache, pycache, tier)

    names = common.SWEEP_WORKLOADS.split(",")
    report = {}
    report["sweep_compile"] = _parallel_children(
        [
            (common.python_argv(child, "sweep-compile", name), env(f"sweep{i}", seed, "native"))
            for i, name in enumerate(names)
        ],
        "sweep-compile",
    )
    report["gateway_compile"] = _child(
        common.python_argv(child, "gateway-compile"), env("gw", seed, "native"), "gateway-compile"
    )
    shutil.rmtree(os.path.join(seed, "v1", "simulation"), ignore_errors=True)
    report["sweep_reference"] = _child(
        common.python_argv(child, "sweep-reference"),
        env("ref", os.path.join(work, "scratch", "ref", "unused-cache"), "python"),
        "sweep-reference",
    )
    if report["sweep_reference"]["points"] != 576:
        raise RuntimeError(f"sweep reference has {report['sweep_reference']['points']} points")

    quick_cache = os.path.join(work, "scratch", "quick", "cache")
    wall, code, stdout, stderr, _rss = common.timed_child(
        common.python_argv("-m", "repro", *common.QUICK_ARGS, "--cache-dir", quick_cache),
        env("quick", quick_cache),
    )
    if code != 0 or not stdout:
        sys.stderr.write(stderr.decode(errors="replace")[-4000:])
        raise RuntimeError(f"quick-suite reference run exited with {code}")
    with open(os.path.join(work, "quick.out"), "wb") as handle:
        handle.write(stdout)
    report["quick_reference"] = {"sha256": common.sha256(stdout), "seconds": round(wall, 3)}

    shutil.rmtree(os.path.join(work, "scratch"))
    common.write_json(os.path.join(work, "build.json"), report)
    os.replace(work, target)


def ensure_build() -> str:
    """The build directory for this source tree, building it if missing."""
    key = common.source_key()
    target = common.build_dir(key)
    if not os.path.isfile(os.path.join(target, "build.json")):
        os.makedirs(common.BUILD_ROOT, exist_ok=True)
        for stale in os.listdir(common.BUILD_ROOT):
            if stale.startswith("build-") and stale != os.path.basename(target):
                shutil.rmtree(os.path.join(common.BUILD_ROOT, stale), ignore_errors=True)
        _build(target)
    return target
