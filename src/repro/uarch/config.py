"""Core, cache, and BTU configuration (the paper's Table 3).

Defaults model the Golden-Cove-like configuration of the paper: an 8-wide
machine with a 512-entry ROB, large load/store queues, an LTAGE-class branch
predictor (modelled as a generously sized gshare + BTB + RSB), 48 KB L1D,
32 KB L1I, 1.25 MB L2, and 30 MB L3.  The BTU has 16 entries in each of its
three tables with 16 elements per entry (1.74 KiB of storage).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Any, Dict


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    size_bytes: int
    line_bytes: int
    associativity: int
    latency: int
    name: str = "cache"

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.line_bytes * self.associativity)
        return max(sets, 1)


@dataclass(frozen=True)
class BtuConfig:
    """Branch Trace Unit sizing (Section 5.3 / Table 3)."""

    entries: int = 16
    elements_per_entry: int = 16
    #: Cycles to load a missing trace from the memory hierarchy into the BTU.
    miss_latency: int = 20
    #: Cycles to prefetch the next chunk of a long (>16 element) trace.
    prefetch_latency: int = 4

    @property
    def storage_bits(self) -> int:
        """Approximate storage: PAT (20b) + TRC (32b) + CPT (~52b) elements."""
        pattern_bits = self.entries * self.elements_per_entry * 20
        trace_bits = self.entries * self.elements_per_entry * 32
        checkpoint_bits = self.entries * 52
        return pattern_bits + trace_bits + checkpoint_bits


@dataclass(frozen=True)
class CoreConfig:
    """The simulated out-of-order core (Golden-Cove-like, Table 3)."""

    # Pipeline widths.
    fetch_width: int = 8
    decode_width: int = 8
    issue_width: int = 8
    commit_width: int = 8

    # Structure sizes.
    rob_size: int = 512
    iq_size: int = 96
    lq_size: int = 192
    sq_size: int = 114

    # Frontend depth: cycles between fetch and dispatch (rename included).
    frontend_depth: int = 6
    #: Extra cycles to restart fetch after a squash (redirect + refill).
    mispredict_penalty: int = 12
    #: Cycles from issue to resolution for a conditional branch.
    branch_resolve_latency: int = 1

    # Execution latencies by operation class.
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12
    store_latency: int = 1
    store_forward_latency: int = 2

    # Branch predictor sizing.
    pht_bits: int = 14
    btb_entries: int = 4096
    rsb_entries: int = 32
    global_history_bits: int = 14

    # Memory hierarchy.
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 64, 8, 5, name="L1I")
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(48 * 1024, 64, 12, 5, name="L1D")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(1280 * 1024, 64, 16, 14, name="L2")
    )
    l3: CacheConfig = field(
        default_factory=lambda: CacheConfig(30 * 1024 * 1024, 64, 16, 40, name="L3")
    )
    memory_latency: int = 200

    # Branch Trace Unit.
    btu: BtuConfig = field(default_factory=BtuConfig)

    #: Word size of the ISA in bytes (used to map word addresses to cache lines).
    word_bytes: int = 8

    def identity(self) -> tuple:
        """A stable, hashable tuple covering every configuration field.

        Used as (part of) cache keys: two configs with equal identity must
        produce identical simulation results.  Frozen dataclasses already
        hash, but their ``hash()`` is not stable across processes; this tuple
        of plain values is, which the on-disk pipeline cache relies on.

        Computed once per instance: the fields are frozen, so the flattened
        tuple cannot change, and identity participates in every simulation
        key — point memos, scheduler claims, request sorting — where the
        recursive field walk would otherwise dominate the bookkeeping cost.
        """
        try:
            return object.__getattribute__(self, "_identity_cache")
        except AttributeError:
            value = config_identity(self)
            object.__setattr__(self, "_identity_cache", value)
            return value

    def digest(self) -> str:
        """A short stable hex digest of :meth:`identity` (cache-key material)."""
        try:
            return object.__getattribute__(self, "_digest_cache")
        except AttributeError:
            payload = repr(self.identity()).encode("utf-8")
            value = hashlib.sha256(payload).hexdigest()[:16]
            object.__setattr__(self, "_digest_cache", value)
            return value

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-serializable dict covering every field (nested configs too).

        The inverse of :meth:`from_dict`; the pair is what lets a
        :class:`~repro.api.request.SimulationRequest` round-trip through
        JSON (and hence cross process/host boundaries as plain text).

        A served point serializes its config several times (submit record,
        events, warehouse row, wire) and a run holds few distinct configs, so
        the field walk runs once per distinct config: the flattened dict is
        memoized module-wide on :meth:`identity` (not per instance, which
        would cost memory for every deserialized request a server keeps),
        and each call returns a fresh copy the caller may mutate.
        """
        identity = self.identity()
        flat = _AS_DICT_MEMO.get(identity)
        if flat is None:
            flat = config_as_dict(self)
            if len(_AS_DICT_MEMO) >= _AS_DICT_MEMO_LIMIT:
                _AS_DICT_MEMO.clear()
            _AS_DICT_MEMO[identity] = flat
        return {
            name: dict(value) if isinstance(value, dict) else value
            for name, value in flat.items()
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CoreConfig":
        """Rebuild a config from :meth:`as_dict` output (strict on keys)."""
        return config_from_dict(cls, payload)


#: :meth:`CoreConfig.as_dict` results by config identity (cleared when full).
_AS_DICT_MEMO: Dict[tuple, Dict[str, Any]] = {}
_AS_DICT_MEMO_LIMIT = 256

#: CoreConfig fields holding nested config dataclasses, and their types.
_NESTED_CONFIG_FIELDS = {
    "l1i": CacheConfig,
    "l1d": CacheConfig,
    "l2": CacheConfig,
    "l3": CacheConfig,
    "btu": BtuConfig,
}


def config_as_dict(config: object) -> Dict[str, Any]:
    """Recursively flatten a config dataclass into plain JSON types."""
    payload: Dict[str, Any] = {}
    for f in fields(config):  # type: ignore[arg-type]
        value = getattr(config, f.name)
        if hasattr(value, "__dataclass_fields__"):
            value = config_as_dict(value)
        payload[f.name] = value
    return payload


def config_from_dict(cls, payload: Dict[str, Any]):
    """Rebuild ``cls`` from :func:`config_as_dict` output.

    Unknown keys are an error (a mistyped field must not silently become
    the default), and nested cache/BTU payloads are rebuilt into their
    frozen dataclasses so the result compares and hashes equal to the
    original.
    """
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} field(s): {unknown!r}")
    kwargs: Dict[str, Any] = {}
    for name, value in payload.items():
        nested = _NESTED_CONFIG_FIELDS.get(name) if cls is CoreConfig else None
        if nested is not None and isinstance(value, dict):
            value = nested(**value)
        kwargs[name] = value
    return cls(**kwargs)


def config_identity(config: object) -> tuple:
    """Recursively flatten a (possibly nested) config dataclass to a tuple."""
    items = []
    for f in fields(config):  # type: ignore[arg-type]
        value = getattr(config, f.name)
        if hasattr(value, "__dataclass_fields__"):
            value = config_identity(value)
        items.append((f.name, value))
    return tuple(items)


#: The default configuration used throughout the evaluation.
GOLDEN_COVE_LIKE = CoreConfig()
