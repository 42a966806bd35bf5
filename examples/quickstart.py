#!/usr/bin/env python3
"""Quickstart: analyse and protect one cryptographic kernel with Cassandra.

The script walks through the full stack on the BearSSL-style ChaCha20
workload, through the declarative ``repro.api`` surface:

1. build a disk-cached :class:`SimulationService` and prepare the
   workload (build the constant-time ISA kernel, check it against RFC
   8439, sequentially execute it, and run the paper's Algorithm 2 branch
   analysis) — all of which lands in the on-disk artifact cache, so a rerun of this script (or of ``python -m repro``)
   skips the heavy work entirely;
2. inspect the compressed branch traces and per-branch hints;
3. declare a two-design :class:`ScenarioMatrix`, run it, and compare the
   unsafe baseline against Cassandra through the typed :class:`ResultSet`.

Run with::

    python examples/quickstart.py

then run it again and watch the preparation time drop to the cache-load
cost.  ``python -m repro --list`` shows the full experiment suite that
shares the same service.
"""

import time

from repro.api import ScenarioMatrix, SimulationService
from repro.pipeline import ArtifactCache, default_cache_dir


def main() -> None:
    # 1. Prepare the workload through the shared, disk-cached service.
    service = SimulationService(
        names=["ChaCha20_ct"],
        cache=ArtifactCache(root=default_cache_dir()),
    )
    started = time.perf_counter()
    artifact = service.artifact("ChaCha20_ct")
    prepare_seconds = time.perf_counter() - started
    kernel, result = artifact.kernel, artifact.result
    cached = service.cache.stats.hits > 0
    print(f"workload          : {kernel.name} ({kernel.description})")
    print(f"prepared in       : {prepare_seconds:.3f}s "
          f"({'warm artifact cache' if cached else 'cold: executed + traced'})")
    print(f"correct output    : {kernel.verify(result)}")
    print(f"dynamic instrs    : {result.instruction_count}")
    print(f"static branches   : {len(kernel.program.static_branches())}")

    # 2. Branch analysis: record, compress, and package the sequential traces.
    bundle = artifact.bundle
    counts = bundle.counts()
    print("\n--- branch analysis (Algorithm 2) ---")
    print(f"analysed branches : {counts['analyzed_branches']}")
    print(f"single-target     : {counts['single_target']}")
    print(f"with k-mers trace : {counts['with_trace']}")
    print(f"input dependent   : {counts['input_dependent']}")
    for pc, data in sorted(bundle.branches.items()):
        if data.kmers is None:
            continue
        print(
            f"  branch @ PC {pc:4d}: vanilla {len(data.vanilla):4d} elements"
            f" -> k-mers {data.kmers.size:3d}"
            f" (compression {data.kmers.compression_rate:6.1f}x)"
        )

    # 3. Timing simulation: one declarative matrix, one typed result set
    # (each point memoized and persisted in the same artifact cache).
    results = service.run(ScenarioMatrix(designs=("unsafe-baseline", "cassandra")))
    baseline = results.one(design="unsafe-baseline")
    cassandra = results.one(design="cassandra")
    print("\n--- timing simulation (Golden-Cove-like core) ---")
    print(f"unsafe baseline   : {baseline.cycles} cycles (IPC {baseline.ipc:.2f}, "
          f"{baseline.stats.bpu_mispredicted} mispredictions)")
    print(f"cassandra         : {cassandra.cycles} cycles (IPC {cassandra.ipc:.2f}, "
          f"{cassandra.stats.btu_replayed} BTU replays, 0 mispredictions)")
    delta = (1 - results.normalized_time("cassandra")) * 100
    print(f"speedup           : {delta:.2f}% while enforcing sequential execution")


if __name__ == "__main__":
    main()
