#!/usr/bin/env python
"""Benchmark the engine stack: legacy reference loop vs generated kernels.

Times the *simulation phase* of the quick suite over the evaluation's point
product — every built-in design at one and two warm-up passes, plus the
interrupt study's BTU-flush point — two ways:

* **legacy** — the seed per-point path: the object-based reference loop
  (:meth:`CoreModel.run_reference`) with full per-policy warm-up passes;
* **kernels** — one :func:`repro.engine.batch.simulate_batch` call per
  workload on the python tier (``REPRO_ENGINE_TIER=python``): shared
  lowering and component warm-up, generated per-policy-shape kernels
  over flat-array state, residency proofs, static counters, measured-pass
  dedup.  Their ratio is ``speedup``, gated with ``--min-speedup``.

A third timed phase, **service**, answers "what does the declarative
``repro.api`` layer cost?": the same per-workload point set expressed as
:class:`~repro.api.request.SimulationRequest` batches through a
:class:`~repro.api.service.SimulationService` with the serial backend
(a fresh memory-only artifact cache per repetition, kernels active).
Since the job redesign, ``service.run`` *is* a scheduler job, so this
phase already pays the submit → dispatch → result round trip.  Its
difference against the direct ``simulate_batch`` kernel phase of the same
repetition — the median over repetitions, summed over workloads — is
reported as ``service_overhead_seconds`` / ``service_overhead_pct`` and can
be gated with ``--max-service-overhead-pct`` (the CI bound asserts the
facade adds under 2%).

A fourth phase, **scheduler**, prices the full job machinery end to end:
``service.submit(...)`` with a live ``events()`` consumer draining every
typed :class:`~repro.api.jobs.JobEvent` (queued / prepared / per-point /
done) before ``result()``.  Its paired delta over the same direct kernel
phase, taken the same way, is ``scheduler_overhead_seconds`` /
``scheduler_overhead_pct``, gated with ``--max-scheduler-overhead-pct``
(CI: 2%) — streaming progress must stay effectively free.

A fifth phase, **native**, times the same quick-suite point set under
``REPRO_ENGINE_TIER=native``: the generated C kernels compiled through the
system toolchain (:mod:`repro.engine.native`), artifact-cached as shared
objects under ``--cache-dir`` so only the first run with that cache pays
the compiler (without ``--cache-dir`` they stay in memory).  Compilation happens
during the (untimed) parity pass — the same treatment the python kernels
get — so the timed phase measures steady-state execution; the compile cost
and artifact-cache hit split are reported as ``native_compile_seconds`` /
``native_cache_hits``, and the C units rendered as ``native_render_count``
(one per kernel shape the suite uses; on a warm rerun every rendered unit
is a cache hit, so it equals ``native_cache_hits``).  The aggregate ``native_speedup`` (over the python
kernel phase) can be gated with ``--min-native-speedup``; the phase is
skipped with a note when no working C compiler exists, and the gate then
fails loudly rather than vacuously passing.

Preparation (sequential execution + trace generation) is shared and
untimed.  The columnar lowering — byte-identical shared input for every
batch phase — is timed once per workload and reported as
``lowering_seconds`` instead of being charged to any of them; kernel
compilation happens during the (untimed) parity pass and is a
process-constant cost (``compile_count`` kernels).  Every phase runs
``--repeat`` cold repetitions (each repetition rebuilds warm state and
re-simulates every point; only the lowering memo persists), in an order
reversed every other repetition; the reported walls and ratios take each
phase's best, the overheads the paired medians above.

The script verifies bit-for-bit parity of every batch path against the
legacy reference loop on every point and **exits non-zero on any
mismatch**, which is the CI gate; the timing JSON (written to ``--output``)
records every speedup::

    PYTHONPATH=src python benchmarks/bench_engine.py --output BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.engine import kernels as kernels_module
from repro.engine import native as native_module
from repro.engine.batch import BatchStats, PointSpec, clear_trace_setups, simulate_batch
from repro.engine.kernels import TIER_ENV
from repro.experiments.interrupts import DEFAULT_FLUSH_INTERVAL
from repro.api import SerialBackend, SimulationService
from repro.experiments.runner import DESIGN_BUILDERS, QUICK_WORKLOADS
from repro.pipeline.artifacts import ArtifactCache
from repro.uarch.core import CoreModel

#: Schema of the report (and of trajectory entries).  Bump on layout change.
BENCH_SCHEMA_VERSION = 9

ALL_DESIGNS = tuple(DESIGN_BUILDERS)

#: (design, btu_flush_interval, warmup_passes) simulation points per
#: workload: the full design set on the warm-up axis the evaluation sweeps,
#: plus the interrupt study's BTU-flush point.
POINTS: List[Tuple[str, Optional[int], int]] = (
    [(design, None, 1) for design in ALL_DESIGNS]
    + [("cassandra", DEFAULT_FLUSH_INTERVAL, 1)]
    + [(design, None, 2) for design in ALL_DESIGNS]
)

def run_legacy(artifact) -> Dict[tuple, Dict[str, object]]:
    results = {}
    for design, flush, warmups in POINTS:
        core = CoreModel(
            policy=DESIGN_BUILDERS[design](artifact.bundle),
            bundle=artifact.bundle,
            btu_flush_interval=flush,
        )
        for _ in range(warmups):
            core.run_reference(artifact.result.dynamic)
            core.reset_stats()
        results[(design, flush, warmups)] = core.run_reference(
            artifact.result.dynamic
        ).stats.as_dict()
    return results


def run_batch(
    artifact,
    tier: str,
    batch_stats: Optional[BatchStats] = None,
    cache_dir: Optional[str] = None,
) -> Dict[tuple, Dict[str, object]]:
    """The point set through ``simulate_batch``; native kernels are cached
    under ``cache_dir`` (memory only without one)."""
    os.environ[TIER_ENV] = tier
    specs = [
        PointSpec(
            policy=DESIGN_BUILDERS[design](artifact.bundle),
            btu_flush_interval=flush,
            warmup_passes=warmups,
        )
        for design, flush, warmups in POINTS
    ]
    simulations = simulate_batch(
        artifact.result, artifact.bundle, specs, batch_stats=batch_stats, cache_dir=cache_dir
    )
    return {point: sim.stats.as_dict() for point, sim in zip(POINTS, simulations)}


def run_service(service, artifact) -> Dict[tuple, Dict[str, object]]:
    """The same point set through the declarative request surface.

    One :class:`SimulationRequest` batch per workload, serial backend,
    kernels active — so the delta against :func:`run_batch` on the python
    tier is purely the api layer: request expansion, cache bookkeeping, and
    ResultSet assembly.
    """
    from repro.api import SimulationRequest

    os.environ[TIER_ENV] = "python"
    requests = [
        SimulationRequest(
            workload=artifact.name,
            design=design,
            btu_flush_interval=flush,
            warmup_passes=warmups,
        )
        for design, flush, warmups in POINTS
    ]
    results = service.run(requests)
    return {
        point: result.stats.as_dict()
        for point, (_request, result) in zip(POINTS, results)
    }


def run_scheduler(service, artifact) -> Dict[tuple, Dict[str, object]]:
    """The same point set as one scheduler job with a live event consumer.

    ``submit`` → drain ``events()`` (every queued / prepared /
    point-started / point-done frame) → ``result()``: the delta against
    :func:`run_batch` on the python tier is the whole job-oriented machinery —
    queueing, dispatch threads, per-point event emission, and stream
    delivery.
    """
    from repro.api import SimulationRequest

    os.environ[TIER_ENV] = "python"
    requests = [
        SimulationRequest(
            workload=artifact.name,
            design=design,
            btu_flush_interval=flush,
            warmup_passes=warmups,
        )
        for design, flush, warmups in POINTS
    ]
    handle = service.submit(requests, tags=("bench",))
    events = 0
    for _event in handle.events():
        events += 1
    results = handle.result()
    assert events >= len(POINTS)  # at least one event per point arrived
    return {
        point: result.stats.as_dict()
        for point, (_request, result) in zip(POINTS, results)
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_engine.json", metavar="PATH")
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="artifact cache for preparation (cold on first run, warm after)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="cold repetitions per timed phase; the best is reported",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless the kernels-over-legacy speedup reaches this (0 disables)",
    )
    parser.add_argument(
        "--max-service-overhead-pct",
        type=float,
        default=0.0,
        help="fail if the SimulationService layer adds more than this percent "
        "over calling simulate_batch directly (0 disables)",
    )
    parser.add_argument(
        "--max-scheduler-overhead-pct",
        type=float,
        default=0.0,
        help="fail if the job scheduler (submit + streamed events + result) "
        "adds more than this percent over calling simulate_batch directly "
        "(0 disables)",
    )
    parser.add_argument(
        "--min-native-speedup",
        type=float,
        default=0.0,
        help="fail unless the native-over-kernels speedup reaches this "
        "(0 disables; fails loudly if no C toolchain works)",
    )
    parser.add_argument(
        "--trajectory",
        default=None,
        metavar="PATH",
        help="append a schema-versioned summary entry to this JSON list file",
    )
    args = parser.parse_args(argv)

    cache = ArtifactCache(root=args.cache_dir) if args.cache_dir else None
    repeat = max(args.repeat, 1)
    saved_tier = os.environ.get(TIER_ENV)

    # One serial-backend service prepares the artifacts every phase below
    # shares, the service phase included.
    service = SimulationService(
        names=QUICK_WORKLOADS, cache=cache, jobs=1, backend=SerialBackend()
    )
    prepare_start = time.perf_counter()
    artifacts = service.artifacts()
    prepare_seconds = time.perf_counter() - prepare_start
    # Cached artifacts hold no dynamic records; the legacy loop and the
    # timed lowering below replay them, so rebuild them untimed.
    for artifact in artifacts:
        artifact.recorded_result()

    # Verify parity against the legacy loop on every point; this pass also
    # compiles every kernel the suite needs, so the timed phases below
    # measure the steady state (compilation is a process-constant cost; its
    # magnitude is visible as ``compile_count`` kernels).
    parity_start = time.perf_counter()
    native_ok = native_module.compiler_available()
    mismatches = []
    for artifact in artifacts:
        legacy = run_legacy(artifact)
        others = [("kernels", run_batch(artifact, "python"))]
        if native_ok:
            native_stats = BatchStats()
            others.append(
                ("native", run_batch(artifact, "native", native_stats, args.cache_dir))
            )
            if native_stats.native_points != len(POINTS):
                mismatches.append(
                    {
                        "workload": artifact.name,
                        "path": "native",
                        "point": None,
                        "diffs": f"only {native_stats.native_points}/{len(POINTS)} "
                        f"points ran natively ({native_module.last_error})",
                    }
                )
        for point in POINTS:
            for other_name, other in others:
                if legacy[point] != other[point]:
                    diffs = {
                        key: (legacy[point][key], other[point][key])
                        for key in legacy[point]
                        if legacy[point][key] != other[point][key]
                    }
                    mismatches.append(
                        {
                            "workload": artifact.name,
                            "path": other_name,
                            "point": list(point),
                            "diffs": repr(diffs),
                        }
                    )
    parity_seconds = time.perf_counter() - parity_start

    # The service phase drives the same artifacts through the declarative
    # layer (the service prepared them above), swapping a fresh memory-only
    # artifact cache in before every repetition so each run recomputes
    # exactly what run_batch recomputes.
    per_workload = []
    legacy_total = kernel_total = lowering_total = 0.0
    service_total = scheduler_total = native_total = 0.0
    service_extra_total = scheduler_extra_total = 0.0
    for artifact in artifacts:
        # The lowering is byte-identical shared input for every batch path:
        # timed once, then left memoized for the phase timings below.
        if hasattr(artifact.result, "_lowered_trace"):
            del artifact.result._lowered_trace
        start = time.perf_counter()
        from repro.engine.lowering import lower_execution

        lower_execution(artifact.result)
        lowering_seconds = time.perf_counter() - start

        legacy_seconds = min(
            _timed(lambda: run_legacy(artifact)) for _ in range(repeat)
        )
        # The kernel, service, and scheduler phases are interleaved within
        # each repetition: the service/scheduler overheads are small
        # differences between large timings, so each is gated on the
        # median over repetitions of its paired difference against the
        # same repetition's kernel phase (a difference of two minima let
        # one fast kernel run fail both gates), and the phase order is
        # reversed every other repetition so neither side of a pair always
        # runs first.
        # The artifact's cache is the simulation results' one memo: it is
        # replaced by a fresh memory-only one before each service and
        # scheduler phase, so no phase is a cache hit (and a --cache-dir
        # run does not short-circuit the comparison).  Each timed phase
        # also starts without the trace's kept batch setup, so every phase
        # rebuilds its warm state and plans, as one batch alone would.
        saved_cache = artifact.cache
        walls: Dict[str, List[float]] = {
            "kernel": [], "native": [], "service": [], "scheduler": []
        }
        stats_of: Dict[str, List[BatchStats]] = {"kernel": [], "native": []}

        def batch_phase(name: str, tier: str, cache_dir: Optional[str]) -> None:
            batch_stats = BatchStats()
            walls[name].append(
                _timed(lambda: run_batch(artifact, tier, batch_stats, cache_dir))
            )
            stats_of[name].append(batch_stats)

        def job_phase(name: str, run) -> None:
            artifact.cache = ArtifactCache(root=None)
            walls[name].append(_timed(lambda: run(service, artifact)))

        phases = [lambda: batch_phase("kernel", "python", None)]
        if native_ok:
            # Adjacent to the kernel phase for the same reason the
            # service/scheduler pairs are: native_speedup is a ratio of
            # these two timings.
            phases.append(lambda: batch_phase("native", "native", args.cache_dir))
        phases.append(lambda: job_phase("service", run_service))
        phases.append(lambda: job_phase("scheduler", run_scheduler))
        try:
            for rep in range(repeat):
                for phase in phases if rep % 2 == 0 else phases[::-1]:
                    clear_trace_setups()
                    phase()
        finally:
            artifact.cache = saved_cache
        best = walls["kernel"].index(min(walls["kernel"]))
        kernel_seconds, inner_kernel = walls["kernel"][best], stats_of["kernel"][best]
        native_seconds = inner_native = None
        if native_ok:
            best = walls["native"].index(min(walls["native"]))
            native_seconds, inner_native = walls["native"][best], stats_of["native"][best]
        service_seconds = min(walls["service"])
        scheduler_seconds = min(walls["scheduler"])
        service_extra = _median_paired_difference(walls["service"], walls["kernel"])
        scheduler_extra = _median_paired_difference(walls["scheduler"], walls["kernel"])

        legacy_total += legacy_seconds
        kernel_total += kernel_seconds
        if native_seconds is not None:
            native_total += native_seconds
        service_total += service_seconds
        scheduler_total += scheduler_seconds
        service_extra_total += service_extra
        scheduler_extra_total += scheduler_extra
        lowering_total += lowering_seconds
        per_workload.append(
            {
                "workload": artifact.name,
                "instructions": artifact.result.instruction_count,
                "points": len(POINTS),
                "lowering_seconds": round(lowering_seconds, 4),
                "legacy_seconds": round(legacy_seconds, 4),
                "kernel_seconds": round(kernel_seconds, 4),
                "native_seconds": round(native_seconds, 4)
                if native_seconds is not None
                else None,
                "native_speedup": round(kernel_seconds / native_seconds, 2)
                if native_seconds
                else None,
                "native_batch": inner_native.as_dict() if inner_native else None,
                "service_seconds": round(service_seconds, 4),
                "scheduler_seconds": round(scheduler_seconds, 4),
                # What the declarative request layer adds on top of the
                # direct simulate_batch call for the same points (median
                # paired difference; negative when within noise).
                "service_overhead_seconds": round(service_extra, 4),
                # What the full job machinery (submit, dispatch, streamed
                # per-point events, result assembly) adds on top of it.
                "scheduler_overhead_seconds": round(scheduler_extra, 4),
                # The kernel path's time outside generated-kernel execution:
                # warm-state restores, shared column/plan construction,
                # result assembly.  This is the short-trace overhead floor
                # the batch amortizes across its points.
                "overhead_seconds": round(
                    max(kernel_seconds - inner_kernel.kernel_seconds, 0.0), 4
                ),
                "speedup": round(legacy_seconds / kernel_seconds, 2)
                if kernel_seconds
                else None,
                "batch": inner_kernel.as_dict(),
            }
        )

    if saved_tier is None:
        os.environ.pop(TIER_ENV, None)
    else:
        os.environ[TIER_ENV] = saved_tier

    speedup = legacy_total / kernel_total if kernel_total else 0.0
    native_speedup = kernel_total / native_total if native_total else 0.0
    service_overhead = max(service_extra_total, 0.0)
    service_overhead_pct = (
        service_overhead / kernel_total * 100.0 if kernel_total else 0.0
    )
    scheduler_overhead = max(scheduler_extra_total, 0.0)
    scheduler_overhead_pct = (
        scheduler_overhead / kernel_total * 100.0 if kernel_total else 0.0
    )
    report = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": "quick",
        "workloads": list(QUICK_WORKLOADS),
        "points_per_workload": len(POINTS),
        "repeat": repeat,
        "prepare_seconds": round(prepare_seconds, 3),
        "prepare_cache": "warm"
        if cache is not None and cache.stats.hits
        else ("cold" if cache is not None else "uncached"),
        "compile_count": kernels_module.compile_count,
        "parity_check_seconds": round(parity_seconds, 3),
        "lowering_seconds": round(lowering_total, 3),
        "legacy_seconds": round(legacy_total, 3),
        "kernel_seconds": round(kernel_total, 3),
        # The native phase (absent numbers mean no working C toolchain).
        "native_available": native_ok,
        "native_seconds": round(native_total, 3) if native_ok else None,
        "native_speedup": round(native_speedup, 2) if native_ok else None,
        "native_compile_count": native_module.compile_count,
        "native_compile_seconds": round(native_module.compile_seconds, 3),
        "native_cache_hits": native_module.cache_hits,
        "native_render_count": native_module.render_count,
        "service_seconds": round(service_total, 3),
        "scheduler_seconds": round(scheduler_total, 3),
        "service_overhead_seconds": round(service_overhead, 4),
        "service_overhead_pct": round(service_overhead_pct, 2),
        "scheduler_overhead_seconds": round(scheduler_overhead, 4),
        "scheduler_overhead_pct": round(scheduler_overhead_pct, 2),
        "speedup": round(speedup, 2),
        "parity": "ok" if not mismatches else "MISMATCH",
        "mismatches": mismatches,
        "per_workload": per_workload,
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    if args.trajectory:
        entry = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "legacy_seconds": report["legacy_seconds"],
            "kernel_seconds": report["kernel_seconds"],
            "native_seconds": report["native_seconds"],
            "native_speedup": report["native_speedup"],
            "service_seconds": report["service_seconds"],
            "scheduler_seconds": report["scheduler_seconds"],
            "service_overhead_pct": report["service_overhead_pct"],
            "scheduler_overhead_pct": report["scheduler_overhead_pct"],
            "speedup": report["speedup"],
            "parity": report["parity"],
        }
        trajectory = []
        if os.path.exists(args.trajectory):
            with open(args.trajectory) as handle:
                trajectory = json.load(handle)
            if not isinstance(trajectory, list):
                raise SystemExit(f"{args.trajectory} is not a JSON list")
        trajectory.append(entry)
        with open(args.trajectory, "w") as handle:
            json.dump(trajectory, handle, indent=2)
            handle.write("\n")

    native_line = (
        f"native {native_total:.2f}s ({native_speedup:.2f}x)"
        if native_ok
        else "native skipped (no C toolchain)"
    )
    print(
        f"legacy {legacy_total:.2f}s  kernels {kernel_total:.2f}s  "
        f"{native_line}  service {service_total:.2f}s "
        f"(+{service_overhead_pct:.2f}%)  scheduler {scheduler_total:.2f}s "
        f"(+{scheduler_overhead_pct:.2f}%)  speedup {speedup:.2f}x  "
        f"parity {'ok' if not mismatches else 'MISMATCH'}"
    )
    if mismatches:
        print(f"{len(mismatches)} parity mismatch(es); see {args.output}", file=sys.stderr)
        return 1
    if args.min_speedup and speedup < args.min_speedup:
        print(
            f"kernel speedup {speedup:.2f}x below required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if args.min_native_speedup:
        if not native_ok:
            print(
                "native tier unavailable (no working C toolchain) but "
                "--min-native-speedup was requested",
                file=sys.stderr,
            )
            return 1
        if native_speedup < args.min_native_speedup:
            print(
                f"native speedup {native_speedup:.2f}x below required "
                f"{args.min_native_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    if (
        args.max_service_overhead_pct
        and service_overhead_pct > args.max_service_overhead_pct
    ):
        print(
            f"service overhead {service_overhead_pct:.2f}% above allowed "
            f"{args.max_service_overhead_pct:.2f}%",
            file=sys.stderr,
        )
        return 1
    if (
        args.max_scheduler_overhead_pct
        and scheduler_overhead_pct > args.max_scheduler_overhead_pct
    ):
        print(
            f"scheduler overhead {scheduler_overhead_pct:.2f}% above allowed "
            f"{args.max_scheduler_overhead_pct:.2f}%",
            file=sys.stderr,
        )
        return 1
    return 0


def _median_paired_difference(walls: List[float], baseline: List[float]) -> float:
    """The median over repetitions of ``walls[i] - baseline[i]``."""
    return statistics.median(wall - base for wall, base in zip(walls, baseline))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(main())
