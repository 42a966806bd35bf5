"""The ``python -m repro`` command line interface.

Runs any subset of the paper's experiments in one pass over a shared
:class:`~repro.api.service.SimulationService`::

    python -m repro --list
    python -m repro --list --format json
    python -m repro table1 figure7 --workloads quick --jobs 4
    python -m repro all --format json > results.json
    python -m repro figure7 --workloads quick --backend shard --jobs 2

Each workload is built, sequentially executed, and trace-analysed exactly
once per invocation regardless of how many experiments consume it; with the
on-disk cache (the default) that work persists across invocations, so a
warm rerun skips straight to the timing simulations.  Every selected
experiment declares its simulation points as a
:class:`~repro.api.matrix.ScenarioMatrix`; the CLI expands the set-ordered
unique union — experiments sharing designs prefetch each point once — and
submits it as one tagged scheduler job through the selected execution
backend (``--backend serial|fork|shard|remote``) before the experiments
render over warm memos.  Job events feed a live progress line on stderr
(``--progress``, automatic on a tty).

The server, open::

    python -m repro serve --port 8765 --workloads quick --jobs 4
    python -m repro figure7 --backend remote --connect localhost:8765

``serve`` keeps one service (artifact cache, scheduler, backend) alive for
any number of remote callers over HTTP, with every ``/v1`` route open;
``--backend remote`` runs every simulation point on that server while
preparation-independent rendering stays local.

The same server, keyed — the untrusted-client front door::

    python -m repro gateway --port 8080 --state-dir state
    python -m repro gateway admin --state-dir state create-key TENANT

``gateway`` adds API-key auth, quotas and usage accounting in front of
the same routes and durable journaled scheduler — see
:mod:`repro.api.gateway`.

The result warehouse::

    python -m repro figure7 --workloads quick --warehouse wh.sqlite3
    python -m repro warehouse query --design cassandra --format csv
    python -m repro warehouse regressions --threshold 0.02

``--warehouse`` (and every serve/gateway ``--state-dir``) records answered
points into the queryable result warehouse — see :mod:`repro.warehouse`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

from repro import __version__
from repro.api import build_service, expand_many, make_backend
from repro.api.backends import BACKENDS
from repro.engine.kernels import ENGINE_TIERS, TIER_ENV
from repro.experiments import resolve_experiments
from repro.experiments.registry import EXPERIMENT_REGISTRY
from repro.pipeline import default_cache_dir


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures over a shared, "
        "disk-cached, parallel simulation service.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiments to run (see --list); 'all' or nothing runs every one",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments and exit"
    )
    parser.add_argument(
        "--workloads",
        default="all",
        help="'all' (22 workloads), 'quick' (6), or a comma-separated list of names",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for preparation and simulation (default: auto)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS) + ["remote"],
        default="fork",
        help="execution backend for simulation points (default: fork); "
        "'remote' needs --connect",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="address of a running 'repro serve', as host:port or the "
        "http://host:port it prints (required by --backend remote)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stream a live job-progress line to stderr (automatic on a tty)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"artifact cache directory (default: $REPRO_CACHE_DIR or {default_cache_dir()})",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk artifact cache"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format; 'csv' prints every simulated point as one "
        "stable-sorted row table (ResultSet.export_csv)",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print pipeline/cache statistics"
    )
    parser.add_argument(
        "--warehouse",
        default=None,
        metavar="PATH",
        help="record every simulated point into this result-warehouse "
        "SQLite file (see 'python -m repro warehouse')",
    )
    _add_engine_tier_argument(parser)
    return parser


def _add_engine_tier_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine-tier",
        choices=ENGINE_TIERS,
        default=None,
        metavar="TIER",
        help="measured-pass execution tier: 'native' (C kernels compiled "
        "through the system toolchain, cached as shared objects; falls back "
        "per point when no compiler works) or 'python' (generated kernels, one "
        "per policy shape; the default); "
        f"equivalent to setting {TIER_ENV}",
    )


def _apply_engine_tier(tier: Optional[str]) -> None:
    """Propagate ``--engine-tier`` through the environment.

    The environment variable is the one switch every layer — in-process
    batches, forked workers, shard subprocesses — already honors, so the
    flag simply pins it for this process tree (without clobbering an
    explicit setting when the flag is absent).
    """
    if tier is not None:
        os.environ[TIER_ENV] = tier


def _list_experiments(fmt: str) -> str:
    if fmt == "json":
        return json.dumps(
            [spec.describe() for spec in EXPERIMENT_REGISTRY.values()], indent=2
        )
    width = max(len(name) for name in EXPERIMENT_REGISTRY)
    lines = ["available experiments:"]
    for name, spec in EXPERIMENT_REGISTRY.items():
        lines.append(f"  {name.ljust(width)}  {spec.title}")
    lines.append(f"  {'all'.ljust(width)}  every experiment above, sharing one service")
    return "\n".join(lines)


class ProgressLine:
    """A one-line live progress display fed by scheduler job events.

    Tracks every job it observes (local scheduler jobs *and* the remote
    backend's forwarded server-side jobs) and repaints one stderr line per
    event; terminal events finalize the line.  Quiet on non-tty runs
    unless ``--progress`` forces it.
    """

    def __init__(self, out=None) -> None:
        self._out = out or sys.stderr
        self._lock = threading.Lock()
        self._jobs: Dict[str, Dict[str, Any]] = {}

    def __call__(self, event) -> None:  # a scheduler/remote JobEvent
        with self._lock:
            job = self._jobs.setdefault(
                event.job_id, {"total": 0, "done": 0, "hits": 0, "tag": event.job_id}
            )
            payload = event.payload or {}
            if event.kind == "queued":
                job["total"] = payload.get("points", 0)
                tags = payload.get("tags") or []
                if tags:
                    job["tag"] = tags[0]
            elif event.kind == "point-done":
                job["done"] += 1
            elif event.kind == "cache-hit":
                job["hits"] += 1
            if event.kind in ("done", "failed", "cancelled"):
                self._out.write(
                    f"\r{job['tag']}: {job['done']} computed, {job['hits']} cached "
                    f"/ {job['total']} points — {event.kind}\n"
                )
            else:
                answered = job["done"] + job["hits"]
                self._out.write(
                    f"\r{job['tag']}: {answered}/{job['total']} points "
                    f"({job['hits']} cached)"
                )
            self._out.flush()


def _build_server_parser(
    prog: str, description: str, state_dir_help: str, state_dir_required: bool
) -> argparse.ArgumentParser:
    """The flags ``serve`` and ``gateway`` share."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=0, metavar="N",
                        help="HTTP port (default: an ephemeral port, printed)")
    parser.add_argument(
        "--workloads",
        default="all",
        help="workload set open matrices expand over ('all', 'quick', or names)",
    )
    parser.add_argument("--jobs", type=int, default=0, metavar="N",
                        help="worker processes (default: auto)")
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default="fork",
        help="execution backend the server computes with (default: fork)",
    )
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact cache directory (default: DIR/cache "
                        "with --state-dir DIR, else the user cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk artifact cache")
    parser.add_argument(
        "--state-dir",
        default=None,
        required=state_dir_required,
        metavar="DIR",
        help=state_dir_help,
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    _add_engine_tier_argument(parser)
    return parser


def _build_serve_parser() -> argparse.ArgumentParser:
    return _build_server_parser(
        "python -m repro serve",
        "Serve a long-lived SimulationService over HTTP with every /v1 route "
        "open (no API keys, quotas or usage ledger): clients submit jobs "
        "(python -m repro ... --backend remote --connect HOST:PORT or "
        "repro.api.remote.RemoteServiceClient), stream typed job events as "
        "Server-Sent Events, and fetch full-fidelity result payloads.  The "
        "same server as 'repro gateway', without tenants.",
        "durable state directory: jobs are recorded in an append-only "
        "write-ahead journal (DIR/journal.jsonl) so a crashed or killed "
        "server resumes interrupted jobs on restart, re-executing only "
        "their unfinished points (completed points replay as disk-cache "
        "hits).  SIGTERM/SIGINT drain running jobs at the next round "
        "boundary, checkpoint the journal, and exit 0.  Unless --cache-dir "
        "is given, the artifact cache lives in DIR/cache, making the "
        "state dir self-contained.  Every answered point is also recorded "
        "in the result warehouse (DIR/warehouse.sqlite3 — see 'python -m "
        "repro warehouse').",
        state_dir_required=False,
    )


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro serve --port N`` — the open HTTP job server."""
    return _run_server("repro serve", _build_serve_parser().parse_args(argv))


def _run_server(prog: str, args, open_store=None, **gateway_options) -> int:
    """The one server body of ``serve_main`` and ``gateway_main``.

    Builds the service (journaled when ``--state-dir`` is given) and a
    :class:`~repro.api.gateway.http.GatewayServer` over it — keyed by the
    store ``open_store(state_dir)`` returns, open when ``open_store`` is
    ``None`` — attaches the result warehouse, resumes journaled jobs, and
    serves until drained.  Exit 2 on a bad workload set or an unbindable
    address.
    """
    from repro.api.gateway.http import GatewayServer
    from repro.api.journal import JobJournal, resume_jobs
    from repro.testing.faults import activate_from_env

    _apply_engine_tier(args.engine_tier)
    # Arm any REPRO_FAULT_PLAN schedule, like the worker entry points do:
    # the chaos suite kills the server at a chosen request or warehouse
    # write (or other site) this way.
    activate_from_env()
    journal = None
    cache_dir = args.cache_dir
    if args.state_dir is not None:
        journal = JobJournal(args.state_dir)
        if cache_dir is None:
            # Self-contained state dir: journal and artifact cache travel
            # together, so "resume = journal + disk cache" needs one path.
            cache_dir = os.path.join(args.state_dir, "cache")
    store = open_store(args.state_dir) if open_store is not None else None
    closers = [opened.close for opened in (store, journal) if opened is not None]
    try:
        service = build_service(
            workloads=args.workloads,
            cache_dir=cache_dir,
            use_cache=not args.no_cache,
            jobs=args.jobs,
            backend=args.backend,
            journal=journal,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        for close in closers:
            close()
        return 2
    try:
        # Server (and a keyed server's usage listener) before resume: a
        # resumed job's re-queued event then starts its usage meter.
        server = GatewayServer(
            service, store, host=args.host, port=args.port, **gateway_options
        )
    except OSError as exc:
        print(_bind_diagnosis(prog, args.host, args.port, exc), file=sys.stderr)
        service.close()
        for close in closers:
            close()
        return 2
    warehouse_store = None
    if args.state_dir is not None:
        from repro.warehouse import WarehouseStore, attach_ingestor

        # Ingestor before resume: a resumed job's completed points replay
        # as cache-hit events through this listener, so a crash mid-ingest
        # converges back to the exact store (idempotent upserts).
        warehouse_store = WarehouseStore(args.state_dir)
        attach_ingestor(service, warehouse_store)
    # Before resume: a resumed job may fork its pool at once.
    _contain_fork_workers()
    resumed = resume_jobs(service, journal) if journal is not None else []
    return _serve_until_drained(
        prog,
        server,
        service,
        resumed,
        stores=[warehouse_store] if warehouse_store is not None else [],
    )


#: ``prctl`` option: the signal a process gets when its parent dies.
_PR_SET_PDEATHSIG = 1


def _contain_fork_workers() -> None:
    """Register the at-fork hook each worker a server forks runs first.

    Fork-based backend workers must NOT inherit the drain handlers:
    multiprocessing.Pool.terminate() stops stragglers with SIGTERM, and a
    worker that swallows that signal into the drain handler never exits —
    the parent's join() inside Pool.__exit__ then wedges the dispatcher
    thread (and with it the drain) forever.  Each worker also leads its
    own process group, so a signal to the server's group (a terminal's ^C,
    a service manager's stop) reaches only the server, which drains; a
    worker killed by it would strand its pool task.

    Each worker dies with the server, too: on Linux ``PR_SET_PDEATHSIG``
    sends it SIGKILL when the thread that forked it exits.  That thread is
    the scheduler's dispatcher, or the pool's own handler thread replacing
    a lost worker; both outlive the pool's work, and a ``kill -9`` of the
    server ends them all, so no worker is left blocked on the pool's task
    pipe.  The ``getppid`` check covers a server that died before the
    ``prctl`` took effect.
    """
    import ctypes
    import signal

    libc = ctypes.CDLL(None, use_errno=True) if sys.platform.startswith("linux") else None
    forker = os.getpid()

    def _in_parent() -> None:
        nonlocal forker
        forker = os.getpid()

    def _in_child() -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_DFL)
        os.setpgid(0, 0)
        if libc is not None:
            libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != forker:
            os._exit(1)

    os.register_at_fork(before=_in_parent, after_in_child=_in_child)


def _serve_until_drained(
    prog: str, server, service, resumed: Sequence, stores: Sequence
) -> int:
    """Serve until SIGTERM / SIGINT, then drain.

    Prints the banner and one line per resumed job, serves until SIGTERM /
    SIGINT, then drains: jobs stop at their round boundary and the journal
    is checkpointed (``server.drain()``), the service closes, and so does
    every store in ``stores``.  Always returns exit status 0.
    """
    import signal

    print(
        f"{prog}: listening on http://{server.address} "
        f"(backend {service.backend.name}, {len(service.workloads)} workloads, "
        f"{service.jobs} jobs)",
        flush=True,
    )
    for handle in resumed:
        print(
            f"{prog}: resumed {handle.job_id} "
            f"({len(handle.requests)} points) from the journal",
            flush=True,
        )

    # The handler stops the jobs at once — a round that ends while the
    # listen loop winds down would otherwise finish its job — and then the
    # listen loop, from a thread: the HTTP server's shutdown() blocks until
    # serve_forever returns, which cannot happen while the handler holds
    # the main thread.  The drain runs below, in the main thread, after
    # serve_forever returns.
    def _stop() -> None:
        server.stop_jobs()
        server.close()

    def _request_shutdown(signum, _frame):
        print(f"{prog}: caught signal {signum}, draining", flush=True)
        threading.Thread(target=_stop, daemon=True).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _request_shutdown)

    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.drain()
        service.close()
        for store in stores:
            store.close()
    print(f"{prog}: drained, exiting", flush=True)
    return 0


def _bind_diagnosis(prog: str, host: str, port: int, exc: OSError) -> str:
    """One line saying why the listen socket could not bind (exit 2)."""
    import errno

    if exc.errno == errno.EADDRINUSE:
        why = "address already in use (is another server listening there?)"
    else:
        why = exc.strerror or str(exc)
    return f"{prog}: cannot bind {host}:{port}: {why}"


def _env_number(name: str, cast):
    """``REPRO_GATEWAY_*`` fallback for a quota/window flag (None = unset)."""
    raw = os.environ.get(name)
    if raw is None or raw.strip() == "":
        return None
    try:
        return cast(raw)
    except ValueError:
        print(f"warning: ignoring non-numeric {name}={raw!r}", file=sys.stderr)
        return None


def _build_gateway_parser() -> argparse.ArgumentParser:
    parser = _build_server_parser(
        "python -m repro gateway",
        "Serve the multi-tenant HTTP/JSON gateway: API-key "
        "authenticated job submission (POST /v1/jobs), Server-Sent-Events "
        "job streaming with Last-Event-ID resume, quotas, and a usage "
        "ledger, all over the same durable journaled scheduler as 'repro "
        "serve'.  Provision tenants and keys with 'repro gateway admin'.",
        "durable state directory: the job journal (DIR/journal.jsonl), "
        "the tenant/key/usage store (DIR/gateway.sqlite3), the result "
        "warehouse (DIR/warehouse.sqlite3), and — unless --cache-dir is "
        "given — the artifact cache (DIR/cache).  Interrupted jobs resume "
        "on restart with their tenant ownership intact.",
        state_dir_required=True,
    )
    parser.add_argument(
        "--max-concurrent-jobs",
        type=int,
        default=_env_number("REPRO_GATEWAY_MAX_CONCURRENT_JOBS", int),
        metavar="N",
        help="default per-tenant live-job cap (env: "
        "REPRO_GATEWAY_MAX_CONCURRENT_JOBS; default: unlimited)",
    )
    parser.add_argument(
        "--max-queued-points",
        type=int,
        default=_env_number("REPRO_GATEWAY_MAX_QUEUED_POINTS", int),
        metavar="N",
        help="default per-tenant cap on points across live jobs (env: "
        "REPRO_GATEWAY_MAX_QUEUED_POINTS; default: unlimited)",
    )
    parser.add_argument(
        "--points-per-day",
        type=int,
        default=_env_number("REPRO_GATEWAY_POINTS_PER_DAY", int),
        metavar="N",
        help="default per-tenant points per rolling usage window (env: "
        "REPRO_GATEWAY_POINTS_PER_DAY; default: unlimited)",
    )
    window = _env_number("REPRO_GATEWAY_USAGE_WINDOW", float)
    parser.add_argument(
        "--usage-window",
        type=float,
        default=86400.0 if window is None else window,
        metavar="SECONDS",
        help="rolling usage window behind --points-per-day, positive (env: "
        "REPRO_GATEWAY_USAGE_WINDOW; default: 86400)",
    )
    return parser


def gateway_main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro gateway`` — the multi-tenant HTTP front door."""
    from repro.api.gateway.admin import admin_main
    from repro.api.gateway.quota import QuotaDefaults
    from repro.api.gateway.store import GatewayStore

    argv = list(argv or ())
    if argv and argv[0] == "admin":
        return admin_main(argv[1:])
    args = _build_gateway_parser().parse_args(argv)
    # A window of zero or less would match no ledger rows and so quietly
    # switch the points-per-day quota off.
    if not args.usage_window > 0:
        print(
            f"repro gateway: the usage window must be positive seconds, got "
            f"{args.usage_window:g} (from --usage-window or "
            "REPRO_GATEWAY_USAGE_WINDOW)",
            file=sys.stderr,
        )
        return 2
    return _run_server(
        "repro gateway",
        args,
        GatewayStore,
        usage_window=args.usage_window,
        defaults=QuotaDefaults(
            max_concurrent_jobs=args.max_concurrent_jobs,
            max_queued_points=args.max_queued_points,
            points_per_day=args.points_per_day,
        ),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "gateway":
        return gateway_main(argv[1:])
    if argv and argv[0] == "warehouse":
        from repro.warehouse.cli import warehouse_main

        return warehouse_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.list:
        print(_list_experiments(args.format))
        return 0
    _apply_engine_tier(args.engine_tier)

    progress = ProgressLine() if (args.progress or sys.stderr.isatty()) else None
    try:
        specs = resolve_experiments(args.experiments)
        backend = make_backend(args.backend, connect=args.connect, listener=progress)
        service = build_service(
            workloads=args.workloads,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            jobs=args.jobs,
            backend=backend,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if progress is not None:
        service.scheduler.add_listener(progress)
    warehouse_store = None
    if args.warehouse is not None:
        from repro.warehouse import WarehouseStore, attach_ingestor

        # Attached before any job runs, so the prefetch and every
        # experiment's points land in the warehouse as they complete.
        warehouse_store = WarehouseStore(args.warehouse)
        attach_ingestor(service, warehouse_store)

    started = time.perf_counter()
    ctx = service.context()
    # Prefetch the set-ordered unique union of every selected experiment's
    # declared points through the backend; the experiments' own ctx.run
    # calls below then resolve from warm memos.
    union = expand_many(
        [spec.matrix for spec in specs], default_workloads=service.workloads
    )
    if union:
        ctx.run(union, tags=("prefetch",))

    report: Dict[str, Any] = {}
    for spec in specs:
        ctx.tag = spec.name
        data = spec.run(ctx)
        if args.format == "text":
            print(f"== {spec.name}: {spec.title} ==")
            print(spec.format(data))
            print()
        elif args.format == "json":
            report[spec.name] = spec.jsonify(data) if spec.jsonify else data

    elapsed = time.perf_counter() - started
    stats: Dict[str, Any] = {}
    if args.stats or args.format == "json":
        stats = dict(service.stats())
        stats["total_seconds"] = round(elapsed, 3)
    if args.format == "json":
        payload: Dict[str, Any] = {
            "workloads": list(service.workloads),
            "experiments": report,
            "stats": stats,
        }
        json.dump(payload, sys.stdout, indent=2, default=str)
        print()
    elif args.format == "csv":
        # One stable-sorted row per simulated point — everything the
        # prefetch and the selected experiments ran this invocation.
        sys.stdout.write(ctx.results.export_csv())
    if args.stats:
        print(f"pipeline: {_summarize_stats(stats)}", file=sys.stderr)
    service.close()
    if warehouse_store is not None:
        warehouse_store.close()
    return 0


def _summarize_stats(stats: Dict[str, Any]) -> str:
    parts = [
        f"{stats['workloads']} workloads",
        f"{stats['points_simulated']} points simulated",
        f"{stats['jobs']} jobs",
        f"backend {stats['backend']}",
        f"{stats['total_seconds']}s total",
        f"prepare {stats['prepare_seconds']}s",
    ]
    if "disk_hits" in stats:
        parts.append(f"cache {stats['disk_hits']} hits / {stats['disk_misses']} misses")
    return ", ".join(parts)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
