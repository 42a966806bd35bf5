"""Pipeline statistics collected by the timing model.

The counters double as the event inputs of the power model (Section 7.4):
BPU lookups avoided, BTU accesses added, fetch/rename/issue/commit activity,
and cache accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class PipelineStats:
    """Aggregate counters for one simulation."""

    cycles: int = 0
    instructions: int = 0

    # Branch behaviour.
    branches: int = 0
    crypto_branches: int = 0
    bpu_predicted: int = 0
    bpu_mispredicted: int = 0
    btu_replayed: int = 0
    btu_misses: int = 0
    btu_prefetches: int = 0
    single_target_branches: int = 0
    fetch_stall_branches: int = 0
    integrity_stall_branches: int = 0
    squash_cycles: int = 0
    fetch_stall_cycles: int = 0

    # Memory behaviour.
    loads: int = 0
    stores: int = 0
    store_forwards: int = 0
    stl_blocked: int = 0

    # Defense activity.
    delayed_instructions: int = 0
    delay_cycles: int = 0

    # Structure activity (power model inputs).
    fetched_instructions: int = 0
    renamed_instructions: int = 0
    issued_instructions: int = 0
    committed_instructions: int = 0

    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    # ``COUNTER_FIELDS`` — the counter names in declaration order (the
    # ``as_dict`` layout) — is attached right after the class body, derived
    # from the dataclass fields so a counter added later participates in
    # serialization automatically.  (It cannot be declared here: an
    # annotated class attribute would itself become a dataclass field.)

    def as_dict(self) -> Dict[str, float]:
        result = {name: getattr(self, name) for name in self.COUNTER_FIELDS}
        result["ipc"] = self.ipc
        result.update(self.extra)
        return result

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "PipelineStats":
        """Rebuild stats from :meth:`as_dict` output (the wire inverse).

        ``ipc`` is derived and ignored; unknown keys land back in
        :attr:`extra`, mirroring how ``as_dict`` flattened them out.
        """
        stats = cls()
        for key, value in payload.items():
            if key == "ipc":
                continue
            if key in cls.COUNTER_FIELDS:
                setattr(stats, key, value)
            else:
                stats.extra[key] = value
        return stats


#: Every plain counter (everything but the ``extra`` dict), in declaration
#: order — computed from the dataclass itself so the wire layout can never
#: silently drift from the fields.
PipelineStats.COUNTER_FIELDS = tuple(
    f.name for f in fields(PipelineStats) if f.name != "extra"
)
