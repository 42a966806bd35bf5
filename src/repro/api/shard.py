"""The shard wire format and worker: simulation batches over pipes.

This module defines the task/wire shape of the subprocess shard backend:
one :class:`ShardTask` per workload carries the preserialized columnar
trace (:meth:`LoweredTrace.to_bytes`), the pickled :class:`TraceBundle`
the Cassandra-family policies replay, and the JSON
:class:`~repro.api.request.SimulationRequest` batch to time over it.  A
worker needs *nothing* from the parent's address space — no fork
copy-on-write, no shared memory — everything it computes from crosses its
stdin pipe.

Framing is length-prefixed (8-byte big-endian size, then the payload); a
worker (``python -m repro.api.shard``) loops read-task → simulate →
write-results until EOF on stdin.  Responses are the pickled
:class:`~repro.uarch.core.SimulationResult` list in task-request order.
"""

from __future__ import annotations

import os
import pickle
import struct
import sys
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Tuple

#: Framing header: payload byte count as an unsigned 64-bit big-endian int.
_HEADER = struct.Struct(">Q")

#: Fault-injection hook (see :mod:`repro.testing.faults`).  ``None`` in
#: production; when armed it is called as ``FAULT_HOOK(site, **context)``
#: at every framing/worker site and may raise or kill the process.
FAULT_HOOK = None

#: Bump when the task layout changes; workers reject other versions.
SHARD_FORMAT_VERSION = 1


class ShardWorkerError(RuntimeError):
    """A shard worker died (EOF / truncated frame) with work outstanding.

    Names the worker and carries the requests that were pending on it so
    the owning backend can requeue them onto surviving workers.
    """

    def __init__(
        self,
        worker: str,
        workload: Optional[str],
        requests: Tuple["SimulationRequest", ...] = (),  # noqa: F821
        reason: str = "exited unexpectedly",
    ) -> None:
        self.worker = worker
        self.workload = workload
        self.requests = tuple(requests)
        scope = f" while computing workload {workload!r}" if workload else ""
        pending = f" ({len(self.requests)} pending request(s))" if self.requests else ""
        super().__init__(f"shard worker {worker} {reason}{scope}{pending}")


@dataclass(frozen=True)
class ShardTask:
    """One worker task: every request of one workload, plus its inputs."""

    workload: str
    program_name: str
    #: JSON-serialized :class:`SimulationRequest`\ s (the portable half of
    #: the wire format; see :meth:`SimulationRequest.to_json`).
    request_payloads: Tuple[str, ...]
    #: The workload's columnar trace, preserialized by the parent.
    trace_bytes: bytes
    #: The pickled :class:`TraceBundle` (hint table + hardware traces).
    bundle_bytes: bytes

    def requests(self) -> List["SimulationRequest"]:  # noqa: F821
        from repro.api.request import SimulationRequest

        return [SimulationRequest.from_json(text) for text in self.request_payloads]

    def to_bytes(self) -> bytes:
        return pickle.dumps(
            (
                SHARD_FORMAT_VERSION,
                self.workload,
                self.program_name,
                self.request_payloads,
                self.trace_bytes,
                self.bundle_bytes,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "ShardTask":
        decoded = pickle.loads(payload)
        if not isinstance(decoded, tuple) or decoded[0] != SHARD_FORMAT_VERSION:
            raise ValueError(
                f"unsupported shard task payload (want version {SHARD_FORMAT_VERSION})"
            )
        _, workload, program_name, request_payloads, trace_bytes, bundle_bytes = decoded
        return cls(
            workload=workload,
            program_name=program_name,
            request_payloads=tuple(request_payloads),
            trace_bytes=trace_bytes,
            bundle_bytes=bundle_bytes,
        )


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
def write_frame(stream: BinaryIO, payload: bytes) -> None:
    if FAULT_HOOK is not None:
        FAULT_HOOK("frame-write", stream=stream, payload=payload)
    stream.write(_HEADER.pack(len(payload)))
    stream.write(payload)
    stream.flush()


def read_frame(stream: BinaryIO) -> Optional[bytes]:
    """The next frame's payload, or ``None`` on a clean EOF."""
    if FAULT_HOOK is not None:
        FAULT_HOOK("frame-read", stream=stream)
    header = stream.read(_HEADER.size)
    if not header:
        return None
    if len(header) != _HEADER.size:
        raise EOFError("truncated shard frame header")
    (size,) = _HEADER.unpack(header)
    payload = b""
    while len(payload) < size:
        chunk = stream.read(size - len(payload))
        if not chunk:
            raise EOFError("truncated shard frame payload")
        payload += chunk
    return payload


# --------------------------------------------------------------------------- #
# Worker
# --------------------------------------------------------------------------- #
def run_task(task: ShardTask) -> List["SimulationResult"]:  # noqa: F821
    """Simulate one task's request batch from its wire payloads alone."""
    from repro.engine.batch import PointSpec, simulate_batch
    from repro.engine.lowering import LoweredTrace
    from repro.experiments.runner import DESIGN_BUILDERS
    from repro.pipeline.artifacts import CACHE_DIR_ENV

    bundle = pickle.loads(task.bundle_bytes) if task.bundle_bytes else None
    trace = LoweredTrace.from_bytes(task.trace_bytes)
    requests = task.requests()
    specs = [
        PointSpec(
            policy=DESIGN_BUILDERS[request.design](bundle),
            config=request.config,
            btu_flush_interval=request.btu_flush_interval,
            warmup_passes=request.warmup_passes,
        )
        for request in requests
    ]
    # The parent hands its cache root down in the environment (see
    # ``SubprocessShardBackend._worker_env``); without one, kernels stay in
    # memory.
    return simulate_batch(
        None,
        bundle,
        specs,
        trace=trace,
        program_name=task.program_name,
        cache_dir=os.environ.get(CACHE_DIR_ENV) or None,
    )


def main() -> int:
    """The worker loop: framed tasks on stdin, framed result lists on stdout."""
    from repro.testing.faults import activate_from_env

    activate_from_env()
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    while True:
        payload = read_frame(stdin)
        if payload is None:
            return 0
        if FAULT_HOOK is not None:
            FAULT_HOOK("worker-task")
        results = run_task(ShardTask.from_bytes(payload))
        write_frame(stdout, pickle.dumps(results, protocol=pickle.HIGHEST_PROTOCOL))


if __name__ == "__main__":  # pragma: no cover - exercised via the shard backend
    sys.exit(main())
