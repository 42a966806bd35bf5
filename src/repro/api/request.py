"""The declarative simulation request: one point, fully specified, portable.

:class:`SimulationRequest` is the atom of the public API: a frozen,
hashable value naming one (workload × design × :class:`CoreConfig` ×
BTU-flush × warm-up) simulation.  It round-trips through JSON (and hence
UTF-8 bytes), so the same object that drives an in-process
:class:`~repro.api.service.SimulationService` call is also the task half of
the shard backend's wire format and the body of an HTTP job submission.
The batch engine takes requests as they are: a fork or serial batch reads
their design, config, flush interval and warm-up passes directly, and
:meth:`SimulationRequest.key` is what the scheduler keys a point's cached
result on.

Workloads are named by :class:`WorkloadRef`, which covers both the
22-workload registry (``WorkloadRef.registry("SHA-256")``) and kernels
built from arguments, like the Figure 8 synthetic mixes
(``WorkloadRef.synthetic("chacha20", "90s/10c")``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.uarch.config import GOLDEN_COVE_LIKE, CoreConfig, compact_json

#: Bump when the JSON layout changes; ``from_json`` rejects other versions,
#: so a request never deserializes silently wrong across mixed deployments.
REQUEST_FORMAT_VERSION = 1


@dataclass(frozen=True)
class WorkloadRef:
    """A picklable, JSON-able name for one workload.

    ``kind`` selects the builder in
    :data:`repro.pipeline.parallel.KERNEL_BUILDERS`, ``name`` is the unique
    workload name artifacts and results are keyed by, and ``args`` are the
    builder's positional arguments for non-registry kinds.
    """

    kind: str = "registry"
    name: str = ""
    args: Tuple[str, ...] = ()
    suite: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("WorkloadRef requires a workload name")
        # JSON round-trips lists; normalize so equality and hashing hold.
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    @classmethod
    def registry(cls, name: str) -> "WorkloadRef":
        return cls(kind="registry", name=name)

    @classmethod
    def synthetic(cls, primitive: str, mix: str) -> "WorkloadRef":
        """A Figure 8 (primitive, mix) synthetic workload."""
        return cls(
            kind="synthetic",
            name=f"synthetic-{primitive}-{mix}",
            args=(primitive, mix),
            suite="synthetic",
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "args": list(self.args),
            "suite": self.suite,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "WorkloadRef":
        return cls(
            kind=payload["kind"],
            name=payload["name"],
            args=tuple(payload.get("args", ())),
            suite=payload.get("suite", ""),
        )


@dataclass(frozen=True)
class SimulationRequest:
    """One fully specified simulation point.

    Frozen and hashable — request sets deduplicate by value — and
    JSON-round-trippable via :meth:`to_json`/:meth:`from_json`, so requests
    cross process and host boundaries as plain text.
    """

    workload: WorkloadRef
    design: str
    config: CoreConfig = GOLDEN_COVE_LIKE
    btu_flush_interval: Optional[int] = None
    warmup_passes: int = 1

    def __post_init__(self) -> None:
        if isinstance(self.workload, str):
            object.__setattr__(self, "workload", WorkloadRef.registry(self.workload))
        if not self.design:
            raise ValueError("SimulationRequest requires a design name")

    # ------------------------------------------------------------------ #
    # Bridges into the execution layers
    # ------------------------------------------------------------------ #
    def key(self) -> Tuple[str, str, Optional[int], int]:
        """The simulation-cache key of this point, without its workload.

        Every field that changes the timing result participates: a key of
        (design, flush interval) alone once returned the first config's
        result for every later config of a sweep.  The config enters as
        its (per-config cached) digest, which keeps the key's repr — and
        so the cache digest hashed from it — short.  The workload enters
        that digest through its artifacts' content digest.
        """
        return (
            self.design, self.config.digest(), self.btu_flush_interval, self.warmup_passes
        )

    def sort_key(self) -> Tuple:
        """A total order over requests (stable export/table ordering).

        Sorts by workload name, then design, then config digest, with
        flush-disabled (``None``) points before flushed ones and warm-up
        passes last — so exported rows are deterministic regardless of the
        insertion (or cross-job completion) order that produced them.
        """
        return (
            self.workload.name,
            self.design,
            self.config.digest(),
            self.btu_flush_interval is not None,
            self.btu_flush_interval or 0,
            self.warmup_passes,
        )

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def as_dict(self) -> Dict[str, Any]:
        return {
            "version": REQUEST_FORMAT_VERSION,
            "workload": self.workload.as_dict(),
            "design": self.design,
            "config": self.config.as_dict(),
            "btu_flush_interval": self.btu_flush_interval,
            "warmup_passes": self.warmup_passes,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimulationRequest":
        version = payload.get("version", REQUEST_FORMAT_VERSION)
        if version != REQUEST_FORMAT_VERSION:
            raise ValueError(
                f"unsupported SimulationRequest format {version!r} "
                f"(this build speaks {REQUEST_FORMAT_VERSION})"
            )
        return cls(
            workload=WorkloadRef.from_dict(payload["workload"]),
            design=payload["design"],
            config=CoreConfig.from_dict(payload["config"]),
            btu_flush_interval=payload["btu_flush_interval"],
            warmup_passes=payload["warmup_passes"],
        )

    def to_json(self) -> str:
        """:meth:`as_dict` as compact sorted JSON, byte for byte.

        One C encode of the small fields, with the config's memoized
        fragment (:meth:`CoreConfig.to_json`) spliced into its slot: in
        sorted key order ``config`` follows ``btu_flush_interval`` and
        precedes the rest, so the slot's position is known exactly.
        """
        rest = compact_json(
            {
                "design": self.design,
                "version": REQUEST_FORMAT_VERSION,
                "warmup_passes": self.warmup_passes,
                "workload": self.workload.as_dict(),
            }
        )
        flush = self.btu_flush_interval
        flush = "null" if flush is None else compact_json(flush)
        return f'{{"btu_flush_interval":{flush},"config":{self.config.to_json()},{rest[1:]}'

    @classmethod
    def from_json(cls, text: str) -> "SimulationRequest":
        return cls.from_dict(json.loads(text))

    def to_bytes(self) -> bytes:
        return self.to_json().encode("utf-8")

    @classmethod
    def from_bytes(cls, payload: bytes) -> "SimulationRequest":
        return cls.from_json(payload.decode("utf-8"))
