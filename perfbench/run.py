#!/usr/bin/env python3
"""The repository's end-to-end benchmark (workloads and metrics: README.md).

    python3 perfbench/run.py --workload quick-cold --seed 1 --seconds 25 --trace 0

Run from the checkout root.  The first run in a checkout builds
``.bench_build/`` (compiled kernels, reference outputs); later runs reuse
it.  The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer split from an in-process traced run with ``--trace 1``.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

import build  # noqa: E402
import common  # noqa: E402

CHILD = os.path.join(common.HERE, "child.py")
TRACED = os.path.join(common.HERE, "traced.py")
#: Fewest timed ops of a CLI or sweep workload in one run.
MIN_OPS = 2
#: Points one quick-suite op answers.
QUICK_POINTS = 174
SWEEP_POINTS = 576


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


class Run:
    """One benchmark run: its scratch root, its checks, its op counts."""

    def __init__(self, args, build_dir: str) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.build_dir = build_dir
        self.seed_cache = os.path.join(build_dir, "seed-cache")
        self.pycache = os.path.join(build_dir, "pycache")
        self.report = common.read_json(os.path.join(build_dir, "build.json"))
        with open(os.path.join(build_dir, "quick.out"), "rb") as handle:
            self.quick_reference = handle.read()
        for entry in os.listdir(common.BUILD_ROOT):
            # Scratch roots of runs that were killed before cleaning up.
            pid = entry[4:]
            if entry.startswith("run-") and pid.isdigit() and not _alive(int(pid)):
                shutil.rmtree(os.path.join(common.BUILD_ROOT, entry), ignore_errors=True)
        self.root = os.path.join(common.BUILD_ROOT, f"run-{os.getpid()}")
        os.makedirs(self.root)
        self.isolation = common.IsolationCheck(self.root)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def env(self, cache: str, tier=None, pycache=None):
        return common.child_env(self.root, cache, pycache or self.pycache, tier)

    def problem(self, what: str) -> None:
        self.problems.append(what)
        print(f"perfbench: {what}", file=sys.stderr)

    def op(self, argv, env, check):
        """One timed op in a fresh process: ``(wall_s, peak_rss_mb)``.

        ``check(stdout, stderr)`` returns why the output is wrong, or None.
        A file the op leaves in the checkout or the default cache also
        fails it.
        """
        before = self.isolation.snapshot()
        wall, code, stdout, stderr, rss = common.timed_child(argv, env)
        self.attempted += 1
        if code != 0:
            why = f"exit {code}: {stderr.decode(errors='replace')[-1000:]}"
        else:
            try:
                why = check(stdout, stderr)
            except (ValueError, KeyError) as exc:
                why = f"unreadable output ({exc!r})"
        stray = self.isolation.new_files(before)
        if stray:
            why = f"{why + '; ' if why else ''}wrote outside its directories: {stray[:5]}"
        if why:
            self.failed += 1
            self.problem(f"op {self.attempted} failed: {why}")
        return wall, rss

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


# --------------------------------------------------------------------------- #
# Workloads.  Each has set-up (timed as setup_s), untimed checks, and ops.
# --------------------------------------------------------------------------- #
def _quick_argv(cache: str):
    return common.python_argv("-m", "repro", *common.QUICK_ARGS, "--cache-dir", cache, "--stats")


def _quick_check(run: Run):
    """Tables identical to the reference outside the host-time table, and
    every point simulated (the op's cache starts empty)."""
    reference = common.comparable_tables(run.quick_reference)

    def check(stdout: bytes, stderr: bytes):
        if common.comparable_tables(stdout) != reference:
            return "stdout differs from the reference tables"
        match = re.search(rb"(\d+) points simulated", stderr)
        if match is None or int(match.group(1)) != QUICK_POINTS:
            found = match.group(1).decode() if match else "?"
            return f"{found} points simulated, expected {QUICK_POINTS}"
        return None

    return check


def quick_cold_setup(run: Run, repeats: int = 5):
    """Byte-compile the program into a fresh bytecode cache, as installing
    it does (the op's artifact cache starts empty, so there is nothing to
    fill); repeated, and the median reported.  Returns the last cache."""
    seconds = []
    for attempt in range(repeats):
        pycache = run.path(f"pycache{attempt}")
        env = run.env(run.path("unused-cache"), pycache=pycache)
        start = time.perf_counter()
        common.checked_child(common.python_argv("-m", "compileall", "-q", common.SRC), env,
                             "compileall")
        seconds.append(time.perf_counter() - start)
        if attempt + 1 < repeats:
            shutil.rmtree(pycache)
    return common.median(seconds), pycache


def quick_cold(run: Run) -> dict:
    setup_s, pycache = quick_cold_setup(run)

    def op(index):
        cache = run.path(f"cache{index}")
        env = run.env(cache, pycache=pycache)
        try:
            return run.op(_quick_argv(cache), env, _quick_check(run))
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    return _metrics(_closed_loop(run, op), QUICK_POINTS, setup_s)


def sweep_setup(run: Run, repeats: int = 5):
    """Prepare and lower the sweep workloads into a fresh cache and add the
    build's compiled kernels; repeated, and the median reported."""
    seconds = []
    for attempt in range(repeats):
        cache = run.path(f"sweep-cache{attempt}")
        env = run.env(cache, tier="native")
        start = time.perf_counter()
        common.checked_child(common.python_argv(CHILD, "sweep-setup"), env, "sweep set-up")
        common.copy_tree(run.seed_cache, cache, kinds=("native-kernel",))
        seconds.append(time.perf_counter() - start)
        if attempt + 1 < repeats:
            shutil.rmtree(cache)
    return common.median(seconds), cache, env


def _sweep_check(run: Run):
    reference = run.report["sweep_reference"]["sha256"]

    def check(stdout: bytes, _stderr: bytes):
        answer = common.last_json_line(stdout)
        if answer["sha256"] != reference:
            return "ResultSet.to_wire() differs from the python-tier reference"
        if answer["tier"] != "native" or answer["compiles"] != 0:
            return f"{answer['compiles']} native compiles in the timed op (steady-state guard)"
        return None

    return check


def sweep_native(run: Run) -> dict:
    setup_s, cache, env = sweep_setup(run)

    def op(_index):
        shutil.rmtree(os.path.join(cache, "v1", "simulation"), ignore_errors=True)
        return run.op(common.python_argv(CHILD, "sweep-op"), env, _sweep_check(run))

    return _metrics(_closed_loop(run, op), SWEEP_POINTS, setup_s)


def gateway_state(run: Run, name: str):
    """A fresh state dir whose cache holds the build's compiled kernels."""
    state = run.path(name)
    cache = os.path.join(state, "cache")
    common.copy_tree(run.seed_cache, cache, kinds=("native-kernel",))
    return state, cache


def _drain(run: Run, server) -> None:
    exit_code = server.drain()
    if exit_code != 0:
        run.problem(f"gateway exited {exit_code} after SIGTERM, expected a clean drain")


def gateway_setup(run: Run, gateway, warmup, attempt: int):
    """Fresh state dir, tenant and key, a started server, one warm-up job:
    ``(seconds, server, client)``."""
    start = time.perf_counter()
    state, cache = gateway_state(run, f"state{attempt}")
    env = run.env(cache)
    key = gateway.provision(env, state)
    server = gateway.ServerProcess(env, state, cache)
    try:
        client = gateway.Client(server.host, server.port, key)
        _times, kinds, wire = client.run_job(warmup[2])
        seconds = time.perf_counter() - start
    except BaseException:
        server.kill()
        raise
    why = gateway.check_job(warmup[1], kinds, wire)
    if why:
        run.problem(f"warm-up job: {why}")
    return seconds, server, client


def gateway_durable(run: Run, setups: int = 3) -> dict:
    """Set up ``setups`` times (each server but the last is drained at once;
    the median is reported), then burst against the last server."""
    sys.path.insert(0, common.SRC)
    import gateway

    jobs = gateway.job_bodies(gateway.flush_intervals(run.seed, gateway.MAX_JOBS + 1))
    seconds = []
    for attempt in range(setups):
        setup_s, server, client = gateway_setup(run, gateway, jobs[0], attempt)
        seconds.append(setup_s)
        if attempt + 1 < setups:
            _drain(run, server)
    try:
        usage_before = client.get_json("/v1/usage")["totals"]
        before = run.isolation.snapshot()
        wall, times, answers = gateway.burst(client, jobs[1:], 0.0)
        # The server keeps every job's handle, so its peak grows with the
        # jobs served: read it after a fixed count, not after a fixed time.
        rss = server.peak_rss_mb()
        more_wall, more_times, more_answers = gateway.burst(
            client, jobs[1 + len(times):], run.seconds - wall, min_jobs=0
        )
        wall += more_wall
        times += more_times
        answers += more_answers
        stray = run.isolation.new_files(before)
        usage_after = client.get_json("/v1/usage")["totals"]
        _drain(run, server)
    finally:
        server.kill()
    if stray:
        run.problem(f"the burst wrote outside its directories: {stray[:5]}")
    compile_s = usage_after["native_compile_seconds"] - usage_before["native_compile_seconds"]
    computed = usage_after["computed"] - usage_before["computed"]
    points = sum(len(requests) for _i, requests, _k, _w in answers)
    if compile_s != 0 or computed != points:
        run.problem(
            f"burst compiled for {compile_s}s and computed {computed}/{points} points "
            "(steady-state guard)"
        )

    sample = sorted({0, len(answers) // 2, len(answers) - 1})
    reference = common.checked_child(
        common.python_argv(CHILD, "gateway-reference", *(str(answers[i][0]) for i in sample)),
        run.env(run.path("reference-cache"), tier="python"),
        "gateway reference",
    )[0]["digests"]
    for index, (interval, requests, kinds, wire) in enumerate(answers):
        run.attempted += 1
        why = gateway.check_job(requests, kinds, wire)
        if why is None and index in sample and common.sha256(wire) != reference[str(interval)]:
            why = "result differs from a direct in-process python-tier run"
        if why:
            run.failed += 1
            run.problem(f"job {index}: {why}")

    totals = [t.total_ms for t in times]
    print(
        f"perfbench: gateway {len(times)} jobs in {wall:.2f}s, job p50 "
        f"{common.median(totals):.1f} ms, p90 {common.percentile(totals, 90):.1f} ms, "
        f"first event p50 {common.median(t.first_event_ms for t in times):.1f} ms",
        file=sys.stderr,
    )
    return {
        "op_p50_ms": common.median(totals),
        "points_per_s": points / wall,
        "peak_rss_mb": rss,
        "setup_s": common.median(seconds),
    }


def _closed_loop(run: Run, op):
    """``op(index)`` one after another for ``--seconds`` and ``MIN_OPS``:
    ``[(wall_s, peak_rss_mb), ...]``."""
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_OPS or time.perf_counter() - start < run.seconds:
        samples.append(op(len(samples)))
    return samples


def _metrics(samples, points_per_op: int, setup_s: float) -> dict:
    walls = [wall for wall, _rss in samples]
    print(
        f"perfbench: {len(walls)} ops, walls {', '.join(f'{w:.3f}' for w in walls)} s",
        file=sys.stderr,
    )
    return {
        "op_p50_ms": common.median(walls) * 1e3,
        "points_per_s": points_per_op * len(walls) / sum(walls),
        "peak_rss_mb": common.median(rss for _wall, rss in samples),
        "setup_s": setup_s,
    }


WORKLOADS = {
    "quick-cold": quick_cold,
    "sweep-native": sweep_native,
    "gateway-durable": gateway_durable,
}

UNITS = {"op_p50_ms": "ms", "points_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


# --------------------------------------------------------------------------- #
# The traced run: the same op in-process, serial, once plain and once traced.
# --------------------------------------------------------------------------- #
def traced(run: Run, workload: str) -> dict:
    """Set up as the workload does, then run its op in-process in fresh
    processes — plain, traced, plain — and return the traced layer split
    with the overhead against the mean plain wall."""
    modes = ("plain", "traced", "plain2")
    if workload == "sweep-native":
        cache = sweep_setup(run, repeats=1)[1]
        caches = {mode: cache for mode in modes}
    elif workload == "quick-cold":
        caches = {mode: run.path(f"cache-{mode}") for mode in modes}
    else:
        caches = {mode: gateway_state(run, f"state-{mode}")[1] for mode in modes}
    tier = "native" if workload in ("sweep-native", "gateway-durable") else None

    answers = {}
    for label in modes:
        cache = caches[label]
        if workload == "sweep-native":
            shutil.rmtree(os.path.join(cache, "v1", "simulation"), ignore_errors=True)
        run.op(
            common.python_argv(
                TRACED, "--workload", workload, "--seed", str(run.seed),
                "--mode", "traced" if label == "traced" else "plain",
                "--cache-dir", cache, "--reference", run.build_dir,
            ),
            run.env(cache, tier),
            lambda stdout, _stderr, label=label: _traced_check(answers, label, stdout),
        )
    if set(answers) != set(modes):
        raise RuntimeError("the traced run produced no layer split")
    layers = dict(answers["traced"]["layers"])
    plain_s = (answers["plain"]["wall_s"] + answers["plain2"]["wall_s"]) / 2
    layers["trace.overhead.pct"] = (answers["traced"]["wall_s"] / plain_s - 1.0) * 100.0
    return layers


def _traced_check(answers: dict, mode: str, stdout: bytes):
    answer = common.last_json_line(stdout)
    answers[mode] = answer
    return "; ".join(answer["problems"]) or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print("perfbench: no program sources under src/repro", file=sys.stderr)
        return 2

    run = Run(args, build.ensure_build())
    try:
        if args.trace:
            import traced as traced_module

            values = traced(run, args.workload)
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in traced_module.PER_LAYER_UNITS.items()
            }
        else:
            values = WORKLOADS[args.workload](run)
            metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    finally:
        run.close()
    print(
        json.dumps(
            {
                "correct": not run.problems,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
