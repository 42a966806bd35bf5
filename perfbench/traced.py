"""One workload op, in-process and serial, with or without the layer split.

    python perfbench/traced.py --workload W --seed N --mode plain|traced \\
        --cache-dir DIR --reference BUILD_DIR

The op runs in this process with the serial backend and one job, so no
layer hides in a fork (the gateway is embedded as a ``GatewayServer``).
With ``--mode traced`` each layer's public entry points are wrapped in
spans (see :func:`install`); ``--mode plain`` runs the same op unwrapped,
and the two walls give the tracing overhead.  Prints one JSON object:
``wall_s``, ``problems`` and, when traced, ``layers``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time

import common
import spans

#: Per-layer metrics and units, in report order.  Every ``.s`` is a self
#: time: the span's duration minus the spans nested in it.
PER_LAYER_UNITS = {
    "import.s": "s",
    "prepare.s": "s",
    "prepare.calls": "count",
    "prepare.execute.s": "s",
    "prepare.verify.s": "s",
    "prepare.tracegen.s": "s",
    "prepare.analysis.s": "s",
    "table1.s": "s",
    "table1.count_kmers.calls": "count",
    "cache.get.s": "s",
    "cache.get.calls": "count",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.put.s": "s",
    "cache.put.calls": "count",
    "cache.quarantined": "count",
    "lowering.s": "s",
    "lowering.calls": "count",
    "warmup.s": "s",
    "kernels.acquire.s": "s",
    "kernels.compiles": "count",
    "native.acquire.s": "s",
    "native.render.s": "s",
    "native.compile.count": "count",
    "native.cache_hits": "count",
    "batch.s": "s",
    "batch.calls": "count",
    "batch.measured.s": "s",
    "batch.points.native": "count",
    "batch.points.python": "count",
    "batch.points.columns": "count",
    "batch.points.fallback": "count",
    "batch.deduped_points": "count",
    "backend.s": "s",
    "backend.calls": "count",
    "scheduler.s": "s",
    "scheduler.jobs": "count",
    "scheduler.events": "count",
    "results.s": "s",
    "journal.s": "s",
    "journal.records": "count",
    "journal.fsyncs": "count",
    "warehouse.s": "s",
    "warehouse.rows": "count",
    "warehouse.commits": "count",
    "gateway.store.s": "s",
    "gateway.submit.ms": "ms",
    "gateway.events.ms": "ms",
    "gateway.result.ms": "ms",
    "gateway.job_p50.ms": "ms",
    "gateway.job_p90.ms": "ms",
    "gateway.first_event.ms": "ms",
    "experiments.s": "s",
    "other.s": "s",
    "wall.s": "s",
    "sim.points": "count",
    "sim.cycles": "count",
    "trace.overhead.pct": "%",
}

#: Spans whose self time and call count are reported as ``<name>.s`` /
#: ``<name>.calls`` (the calls only where listed above).
SPAN_NAMES = (
    "prepare", "prepare.execute", "prepare.verify", "prepare.tracegen",
    "prepare.analysis", "table1", "cache.get", "cache.put", "lowering", "warmup",
    "kernels.acquire", "native.acquire", "native.render", "batch", "backend",
    "scheduler", "results", "journal", "warehouse", "gateway.store", "experiments",
)

BATCH_COUNTERS = {
    "native_points": "batch.points.native",
    "kernel_points": "batch.points.python",
    "columns_points": "batch.points.columns",
    "fallback_points": "batch.points.fallback",
    "deduped_points": "batch.deduped_points",
}


def install(rec: spans.Recorder, simulated: dict) -> None:
    """Wrap each layer's public entry points (benchmark-side, ``src/``
    untouched).  ``simulated`` collects request → cycles of finished jobs."""
    from repro.analysis import kmers, stats, tracegen
    from repro.api import backends, results, scheduler
    from repro.api.gateway.store import GatewayStore
    from repro.api.journal import JobJournal
    from repro.crypto.programs.common import KernelProgram
    from repro.engine import batch, kernels, lowering, native
    from repro.engine.warmup import WarmStateBuilder
    from repro.experiments import runner
    from repro.experiments.registry import EXPERIMENT_REGISTRY
    from repro.pipeline.artifacts import ArtifactCache
    from repro.warehouse.ingest import WarehouseIngestor
    from repro.warehouse.store import WarehouseStore

    span = lambda name: spans.spanned(rec, name)  # noqa: E731

    # pipeline: preparation and its child steps.  The correctness callback
    # is a per-kernel attribute, so it is wrapped on each prepared kernel.
    def prepare(fn):
        def wrapper(kernel, *args, **kwargs):
            kernel.verify = spans.wrap(rec, "prepare.verify", kernel.verify)
            return rec.call("prepare", fn, (kernel, *args), kwargs)

        return wrapper

    spans.patch_function(runner, "artifacts_for_kernel", prepare)
    spans.patch_method(KernelProgram, "run", span("prepare.execute"))
    spans.patch_function(tracegen, "generate_trace_bundle", span("prepare.tracegen"))
    spans.patch_function(stats, "stats_from_bundle", span("prepare.analysis"))

    # analysis: Table 1.
    spans.patch_function(stats, "stats_from_bundle_scaled", span("table1"))
    spans.patch_function(
        kmers, "count_kmers", spans.counted(rec, "table1.count_kmers.calls", inside="table1")
    )

    # pipeline.artifacts: the disk cache, with hit/miss/quarantine deltas.
    def cache_get(fn):
        def wrapper(self, *args, **kwargs):
            before = (self.stats.hits, self.stats.misses, self.stats.quarantined)
            try:
                return rec.call("cache.get", fn, (self, *args), kwargs)
            finally:
                rec.count("cache.hits", self.stats.hits - before[0])
                rec.count("cache.misses", self.stats.misses - before[1])
                rec.count("cache.quarantined", self.stats.quarantined - before[2])

        return wrapper

    spans.patch_method(ArtifactCache, "get", cache_get)
    spans.patch_method(ArtifactCache, "put", span("cache.put"))

    # engine: lowering, warm state, python kernels, native kernels, batches.
    spans.patch_function(lowering, "lower_execution", span("lowering"))
    spans.patch_method(WarmStateBuilder, "warm_flat", span("warmup"))
    spans.patch_method(WarmStateBuilder, "warm_units", span("warmup"))
    spans.patch_function(kernels, "get_kernel", span("kernels.acquire"))
    spans.patch_function(native, "get_native_kernel", span("native.acquire"))
    # Only where native looks the renderer up, so the span is the render a
    # native kernel lookup pays.
    native.c_kernel_source = spans.wrap(rec, "native.render", native.c_kernel_source)

    def simulate_batch(fn):
        def wrapper(*args, **kwargs):
            if kwargs.get("batch_stats") is None:
                kwargs["batch_stats"] = batch.BatchStats()
            stats_ = kwargs["batch_stats"]
            try:
                return rec.call("batch", fn, args, kwargs)
            finally:
                for field, name in BATCH_COUNTERS.items():
                    rec.count(name, getattr(stats_, field))
                rec.count("batch.measured.s", stats_.kernel_seconds + stats_.columns_seconds)

        return wrapper

    spans.patch_function(batch, "simulate_batch", simulate_batch)

    # api: backends, scheduler, results, journal.
    for cls in (backends.SerialBackend, backends.ForkPoolBackend, backends.SubprocessShardBackend):
        spans.patch_method(cls, "execute", span("backend"))
    spans.patch_method(scheduler.Scheduler, "submit", span("scheduler"))

    def emit(fn):
        def wrapper(*args, **kwargs):
            rec.count("scheduler.events")
            return rec.call("scheduler", fn, args, kwargs)

        return wrapper

    spans.patch_method(scheduler.Scheduler, "_emit", emit)

    def run_job(fn):
        def wrapper(self, handle):
            # Decided at job start: the client can see a job finish (and
            # close the measured window) before this thread gets here.
            measured = rec.enabled
            rec.count("scheduler.jobs")
            try:
                return rec.call("scheduler", fn, (self, handle), {})
            finally:
                if measured and handle.state == "done":
                    for request, result in handle.result(timeout=0):
                        simulated[request] = result.cycles

        return wrapper

    spans.patch_method(scheduler.Scheduler, "_run_job", run_job)
    spans.patch_method(results.ResultSet, "to_wire", span("results"))
    spans.patch_method(results.ResultSet, "merged", span("results"))
    from_wire = results.ResultSet.__dict__["from_wire"].__func__
    results.ResultSet.from_wire = classmethod(spans.wrap(rec, "results", from_wire))
    for name in ("job_submitted", "job_event", "checkpoint"):
        spans.patch_method(JobJournal, name, span("journal"))
    spans.patch_method(JobJournal, "_append", spans.counted(rec, "journal.records"))
    os.fsync = spans.counted(rec, "journal.fsyncs", inside="journal")(os.fsync)

    # warehouse: ingest and upserts (each upsert call commits once).
    spans.patch_method(WarehouseIngestor, "on_event", span("warehouse"))

    def upsert(fn, many: bool):
        def wrapper(self, rows):
            rows = list(rows) if many else rows
            rec.count("warehouse.rows", len(rows) if many else 1)
            rec.count("warehouse.commits")
            return rec.call("warehouse", fn, (self, rows), {})

        return wrapper

    spans.patch_method(WarehouseStore, "upsert", lambda fn: upsert(fn, False))
    spans.patch_method(WarehouseStore, "upsert_many", lambda fn: upsert(fn, True))

    # api.gateway: every store write goes through _write.
    spans.patch_method(GatewayStore, "_write", span("gateway.store"))

    # experiments: each spec's run and format.
    for spec in EXPERIMENT_REGISTRY.values():
        object.__setattr__(spec, "run", spans.wrap(rec, "experiments", spec.run))
        object.__setattr__(spec, "format", spans.wrap(rec, "experiments", spec.format))


def import_layers() -> float:
    """Import the CLI (timed, as ``import.s``) and every wrapped module."""
    start = time.perf_counter()
    import repro.cli  # noqa: F401

    seconds = time.perf_counter() - start
    import repro.api.gateway.http  # noqa: F401
    import repro.engine.native  # noqa: F401
    import repro.warehouse  # noqa: F401

    return seconds


# --------------------------------------------------------------------------- #
# The ops
# --------------------------------------------------------------------------- #
class Window:
    """The measured part of an op: the recorder on (when traced), the wall
    clock, and the engine's compile/cache-hit counters as deltas."""

    def __init__(self, rec: spans.Recorder, traced: bool) -> None:
        self.rec, self.traced = rec, traced
        self.seconds = 0.0
        self.counters: dict = {}

    @staticmethod
    def _counters() -> dict:
        from repro.engine import kernels, native

        return {
            "kernels.compiles": kernels.compile_count,
            "native.compile.count": native.compile_count,
            "native.cache_hits": native.cache_hits,
        }

    @contextlib.contextmanager
    def measure(self):
        before = self._counters()
        self.rec.enabled = self.traced
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds = time.perf_counter() - start
            self.rec.enabled = False
            after = self._counters()
            self.counters = {name: after[name] - before[name] for name in after}


def quick_op(args, window, problems, client_ms) -> None:
    import repro.cli

    out, err = io.StringIO(), io.StringIO()
    with window.measure(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = repro.cli.main(
            [*common.QUICK_ARGS[:3], "--jobs", "1", "--backend", "serial",
             "--cache-dir", args.cache_dir]
        )
    with open(os.path.join(args.reference, "quick.out"), "rb") as handle:
        reference = common.comparable_tables(handle.read())
    if code != 0 or common.comparable_tables(out.getvalue().encode()) != reference:
        problems.append("in-process quick suite differs from the reference tables")


def sweep_op(args, window, problems, client_ms) -> None:
    from repro.api import build_service

    with window.measure(), build_service(
        workloads=common.SWEEP_WORKLOADS, cache_dir=args.cache_dir, backend="serial", jobs=1
    ) as service:
        wire = service.run(common.sweep_matrix()).to_wire()
    reference = common.read_json(os.path.join(args.reference, "build.json"))
    if hashlib.sha256(wire.encode()).hexdigest() != reference["sweep_reference"]["sha256"]:
        problems.append("in-process sweep differs from the python-tier reference")


def gateway_op(args, window, problems, client_ms):
    """Embed the gateway as ``repro gateway`` wires it, then run a fixed
    burst; only the burst is measured, not provisioning or the warm-up job."""
    import gateway
    from repro.api import build_service
    from repro.api.gateway.http import GatewayServer
    from repro.api.gateway.store import GatewayStore
    from repro.api.journal import JobJournal, resume_jobs
    from repro.warehouse import WarehouseStore, attach_ingestor

    state = os.path.dirname(args.cache_dir)
    journal = JobJournal(state)
    store = GatewayStore(state)
    service = build_service(
        workloads="quick", cache_dir=args.cache_dir, jobs=1, backend="serial", journal=journal
    )
    server = GatewayServer(service, store)
    warehouse = WarehouseStore(state)
    attach_ingestor(service, warehouse)
    resume_jobs(service, journal)
    server.start()
    try:
        tenant = store.create_tenant("bench")
        key, _record = store.issue_key(tenant.tenant_id)
        jobs = gateway.job_bodies(gateway.flush_intervals(args.seed, gateway.MIN_JOBS + 1))
        client = gateway.Client(server.host, server.port, key)
        client.run_job(jobs[0][2])
        with window.measure():
            _wall, times, answers = gateway.burst(client, jobs[1:], 0.0)
    finally:
        server.drain()
        service.close()
        warehouse.close()
    for index, (_interval, requests, kinds, wire) in enumerate(answers):
        why = gateway.check_job(requests, kinds, wire)
        if why:
            problems.append(f"job {index}: {why}")
    totals = [t.total_ms for t in times]
    client_ms.update(
        {
            "gateway.submit.ms": common.median(t.submit_ms for t in times),
            "gateway.events.ms": common.median(t.events_ms for t in times),
            "gateway.result.ms": common.median(t.result_ms for t in times),
            "gateway.job_p50.ms": common.median(totals),
            "gateway.job_p90.ms": common.percentile(totals, 90),
            "gateway.first_event.ms": common.median(t.first_event_ms for t in times),
        }
    )


OPS = {
    "quick-cold": quick_op,
    "sweep-native": sweep_op,
    "gateway-durable": gateway_op,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("plain", "traced"))
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--reference", required=True, help="the benchmark's build directory")
    args = parser.parse_args(argv)

    rec = spans.Recorder()
    simulated: dict = {}
    import_s = import_layers()
    if args.mode == "traced":
        install(rec, simulated)
    window = Window(rec, traced=args.mode == "traced")
    problems: list = []
    client_ms: dict = {}
    OPS[args.workload](args, window, problems, client_ms)
    wall = import_s + window.seconds

    answer = {"wall_s": wall, "problems": problems}
    if args.mode == "traced":
        self_s = rec.self_seconds()
        calls = {}
        for span in rec.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        layers = {name: 0.0 for name in PER_LAYER_UNITS}
        layers.update(rec.counts)
        for name in SPAN_NAMES:
            layers[f"{name}.s"] = self_s.get(name, 0.0)
            if f"{name}.calls" in layers:
                layers[f"{name}.calls"] = calls.get(name, 0)
        layers.update(client_ms)
        layers.update(window.counters)
        layers["import.s"] = import_s
        layers["other.s"] = wall - import_s - sum(self_s.values())
        layers["wall.s"] = wall
        layers["sim.points"] = len(simulated)
        layers["sim.cycles"] = sum(simulated.values())
        layers.pop("trace.overhead.pct")
        answer["layers"] = layers
    print(json.dumps(answer, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
