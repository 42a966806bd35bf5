"""Program-side steps the benchmark runs in child processes.

Each subcommand imports the program from the checkout, does one step, and
prints one JSON object as its last stdout line::

    python perfbench/child.py sweep-compile NAME # native sweep of one workload (compiles)
    python perfbench/child.py gateway-compile    # the gateway jobs' native kernels
    python perfbench/child.py sweep-reference    # python-tier sweep, no disk cache
    python perfbench/child.py gateway-reference F [F ...]
    python perfbench/child.py sweep-setup        # prepare + lower the sweep workloads
    python perfbench/child.py sweep-op           # the timed sweep-native op

The cache is ``REPRO_CACHE_DIR`` and the tier ``REPRO_ENGINE_TIER``, both
set by the caller.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import common


def _service(workloads: str, use_cache: bool = True):
    from repro.api import build_service

    return build_service(
        workloads=workloads,
        cache_dir=os.environ["REPRO_CACHE_DIR"] if use_cache else None,
        use_cache=use_cache,
        backend="serial",
        jobs=1,
    )


def _digest(result_set) -> dict:
    wire = result_set.to_wire()
    return {
        "sha256": hashlib.sha256(wire.encode()).hexdigest(),
        "points": len(result_set),
        "cycles": sum(result.cycles for _request, result in result_set),
    }


def _native_counters() -> dict:
    from repro.engine import native
    from repro.engine.kernels import engine_tier

    return {
        "tier": engine_tier(),
        "compiles": native.compile_count,
        "native_cache_hits": native.cache_hits,
    }


def sweep_compile(workload: str) -> dict:
    with _service(workload) as service:
        answer = service.run(common.sweep_matrix())
    return {**_digest(answer), **_native_counters()}


def gateway_compile() -> dict:
    with _service(",".join(common.GATEWAY_WORKLOADS)) as service:
        answer = service.run(common.gateway_requests(common.BUILD_FLUSH_INTERVAL))
    return {**_digest(answer), **_native_counters()}


def sweep_reference() -> dict:
    with _service(common.SWEEP_WORKLOADS, use_cache=False) as service:
        answer = service.run(common.sweep_matrix())
    return {**_digest(answer), "tier": _native_counters()["tier"]}


def gateway_reference(intervals) -> dict:
    digests = {}
    with _service(",".join(common.GATEWAY_WORKLOADS), use_cache=False) as service:
        for interval in intervals:
            answer = service.run(common.gateway_requests(int(interval)))
            digests[str(interval)] = _digest(answer)["sha256"]
    return {"digests": digests, "tier": _native_counters()["tier"]}


def sweep_setup() -> dict:
    with _service(common.SWEEP_WORKLOADS) as service:
        artifacts = service.artifacts()
        for artifact in artifacts:
            artifact.lowered_trace()
    return {"workloads": len(artifacts)}


def sweep_op() -> dict:
    with _service(common.SWEEP_WORKLOADS) as service:
        answer = service.run(common.sweep_matrix())
    return {**_digest(answer), **_native_counters()}


def main(argv) -> int:
    step, args = argv[0], argv[1:]
    steps = {
        "sweep-compile": lambda: sweep_compile(args[0]),
        "gateway-compile": gateway_compile,
        "sweep-reference": sweep_reference,
        "gateway-reference": lambda: gateway_reference(args),
        "sweep-setup": sweep_setup,
        "sweep-op": sweep_op,
    }
    print(json.dumps(steps[step](), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
