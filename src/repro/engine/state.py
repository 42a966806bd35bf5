"""Flat-array microarchitectural state for the generated kernels.

The object models in :mod:`repro.uarch` (``Cache``, ``BranchPredictionUnit``,
``BranchTraceUnit``) are the golden reference: every behavioural question is
settled by them.  The generated kernels of :mod:`repro.engine.kernels` do not
call them — they iterate over the flat representations defined here, chosen
so that

* the hot per-instruction structures are plain integer lists a kernel indexes
  with geometry read once from the point's config table (no per-access dict
  hashing for the L1s, no attribute lookups, no per-branch method calls);
  and
* snapshot / restore for warm-up sharing is a handful of C-level
  ``list(...)`` / ``dict(...)`` copies instead of rebuilding unit objects.

Representations (all bit-equivalent to the object models by construction;
``tests/engine/test_kernel_parity.py`` asserts it end to end):

* **L1I / L1D** — one flat ``array('q')`` of ``num_sets * associativity``
  tags.  Each
  set owns the segment ``[set*assoc, (set+1)*assoc)`` kept in LRU→MRU order
  and left-padded with ``-1`` (tags are non-negative, so the padding can
  never match).  A hit deletes the tag and re-inserts it at the segment's
  MRU end; a miss shifts the whole segment left by one — which drops either
  a pad or the true LRU victim — and installs at the MRU end.  Both are two
  C-level ``del``/``insert`` memmoves and reproduce ``Cache.access`` exactly.
* **L2 / L3** — sparse ``{set_index: [tags LRU→MRU]}`` dicts, the same shape
  ``Cache`` uses internally (these levels are touched only on L1D misses,
  and dense arrays for a 30 MB L3 would make per-point restore the dominant
  cost again).
* **BPU** — the PHT as a flat ``array('q')``, the history register as an
  int, the BTB
  as a ``{pc: target}`` dict, the RSB as a list, and the loop predictor as
  ``{pc: [current_run, last_trip, confidence]}`` rows (a list per branch
  instead of a ``_LoopEntry`` object, so the kernel mutates indices, not
  attributes).
* **BTU** — the immutable replay payload (targets / element ids / long-trace
  flags, extracted once per workload via
  :meth:`repro.uarch.btu.BranchTraceUnit.replay_data`) is shared read-only by
  every point; the mutable part is two ``{pc: int}`` position dicts plus the
  residency list.

The hot flat-int structures (L1I / L1D / PHT) are ``array('q')`` rather
than plain lists: a Python kernel indexes and mutates them exactly like a
list, while the native tier (:mod:`repro.engine.native`) obtains their
machine addresses via ``buffer_info()`` and lets the compiled kernel mutate
the same memory in place — no per-call marshalling for the largest state
components.  Snapshot restore also gets cheaper: ``array(...)`` from
another array is a single memcpy.
"""

from __future__ import annotations

from array import array
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.uarch.config import CoreConfig

#: The ``CoreConfig`` fields a kernel reads, in the order of the per-point
#: config table (:func:`config_table`).  Kernels of both tiers bind each one
#: to a local named after it, dots replaced by underscores
#: (``l1d.num_sets`` → ``l1d_num_sets``), so one compiled kernel serves
#: every config.  The five latencies come first and in latency-class order:
#: the C kernels index them as one table.
TABLE_FIELDS: Tuple[str, ...] = (
    "alu_latency",
    "mul_latency",
    "div_latency",
    "store_latency",
    "branch_resolve_latency",
    "fetch_width",
    "issue_width",
    "commit_width",
    "frontend_depth",
    "rob_size",
    "sq_size",
    "mispredict_penalty",
    "store_forward_latency",
    "memory_latency",
    "pht_bits",
    "global_history_bits",
    "btb_entries",
    "rsb_entries",
    "word_bytes",
    "l1i.line_bytes",
    "l1i.num_sets",
    "l1i.associativity",
    "l1d.line_bytes",
    "l1d.num_sets",
    "l1d.associativity",
    "l1d.latency",
    "l2.line_bytes",
    "l2.num_sets",
    "l2.associativity",
    "l2.latency",
    "l3.line_bytes",
    "l3.num_sets",
    "l3.associativity",
    "l3.latency",
    "btu.entries",
    "btu.elements_per_entry",
    "btu.miss_latency",
    "btu.prefetch_latency",
)

#: Kernel local names of :data:`TABLE_FIELDS`, and each one's table slot.
TABLE_NAMES: Tuple[str, ...] = tuple(f.replace(".", "_") for f in TABLE_FIELDS)
TABLE_SLOT: Dict[str, int] = {name: slot for slot, name in enumerate(TABLE_NAMES)}

_TABLE_GETTER = attrgetter(*TABLE_FIELDS)


def config_table(config: CoreConfig) -> Tuple[int, ...]:
    """The per-point config table: the :data:`TABLE_FIELDS` values of ``config``."""
    return _TABLE_GETTER(config)

#: Immutable per-workload BTU replay payload:
#: ``(targets, element_ids, long_trace)`` keyed by branch PC.
BtuReplayData = Tuple[Dict[int, List[int]], Dict[int, List[int]], Dict[int, bool]]

#: The empty payload used when a point has no trace bundle.
EMPTY_BTU_DATA: BtuReplayData = ({}, {}, {})


# --------------------------------------------------------------------------- #
# Flat cache conversions
# --------------------------------------------------------------------------- #
def flat_cache_new(num_sets: int, associativity: int) -> "array":
    """An empty flat cache: every segment all padding."""
    # b"\xff" * 8 is int64 -1; one bytes fill beats a Python-level loop.
    return array("q", b"\xff" * (8 * num_sets * associativity))


def flat_cache_from_sets(
    sets: Dict[int, List[int]], num_sets: int, associativity: int
) -> "array":
    """Convert a ``Cache.snapshot_state()`` dict into the flat layout.

    Ways arrive LRU→MRU and are right-aligned into their segment so that the
    kernel's shift-left-install keeps exactly the object model's eviction
    order.
    """
    flat = flat_cache_new(num_sets, associativity)
    for index, ways in sets.items():
        n = len(ways)
        if n > associativity:  # pragma: no cover - snapshot invariant
            raise ValueError(f"set {index} holds {n} ways > associativity")
        end = index * associativity + associativity
        flat[end - n : end] = array("q", ways)
    return flat


def flat_cache_to_sets(
    flat: "array", num_sets: int, associativity: int
) -> Dict[int, List[int]]:
    """The inverse conversion (occupied sets only), for tests and snapshots."""
    sets: Dict[int, List[int]] = {}
    for index in range(num_sets):
        base = index * associativity
        ways = [tag for tag in flat[base : base + associativity] if tag >= 0]
        if ways:
            sets[index] = ways
    return sets


def copy_sparse_sets(sets: Dict[int, List[int]]) -> Dict[int, List[int]]:
    """A point-private copy of a sparse L2/L3 snapshot."""
    return {index: list(ways) for index, ways in sets.items()}


# --------------------------------------------------------------------------- #
# Flat BPU conversions
# --------------------------------------------------------------------------- #
#: ``(pht, history, btb, rsb, loops_rows)`` — the kernel-side BPU state
#: (the PHT is an ``array('q')``; see the module docstring).
FlatBpu = Tuple["array", int, Dict[int, int], List[int], Dict[int, List[int]]]


def flat_bpu_new(config: CoreConfig) -> FlatBpu:
    """A freshly constructed predictor (weakly-taken PHT, empty tables)."""
    return (array("q", [2]) * (1 << config.pht_bits), 0, {}, [], {})


def flat_bpu_from_snapshot(snapshot: Tuple) -> FlatBpu:
    """Convert a ``BranchPredictionUnit.snapshot_state()`` tuple."""
    pht, history, btb, rsb, loops = snapshot
    rows = {pc: [run, trip, conf] for pc, (run, trip, conf) in loops.items()}
    return (array("q", pht), history, dict(btb), list(rsb), rows)


def copy_flat_bpu(bpu: FlatBpu) -> FlatBpu:
    pht, history, btb, rsb, loops = bpu
    return (array("q", pht), history, dict(btb), list(rsb), {pc: list(row) for pc, row in loops.items()})


# --------------------------------------------------------------------------- #
# Flat BTU conversions
# --------------------------------------------------------------------------- #
#: ``(positions, committed, resident)`` — the mutable per-point BTU state.
FlatBtu = Tuple[Dict[int, int], Dict[int, int], List[int]]


def flat_btu_new(data: BtuReplayData) -> FlatBtu:
    targets, _eids, _long = data
    return ({pc: 0 for pc in targets}, {pc: 0 for pc in targets}, [])


def flat_btu_from_snapshot(snapshot: Tuple) -> FlatBtu:
    """Convert a ``BranchTraceUnit.snapshot_state()`` tuple."""
    positions, resident = snapshot
    pos = {pc: position for pc, (position, _committed) in positions.items()}
    committed = {pc: comm for pc, (_position, comm) in positions.items()}
    return (pos, committed, list(resident))


def copy_flat_btu(btu: FlatBtu) -> FlatBtu:
    pos, committed, resident = btu
    return (dict(pos), dict(committed), list(resident))


# --------------------------------------------------------------------------- #
# The per-point state bundle
# --------------------------------------------------------------------------- #
class FlatState:
    """All mutable microarchitectural state one kernel invocation touches.

    Everything here is plain lists / dicts / ints; the kernel binds each
    field to a local once and mutates in place (``history`` is written back
    at the end of the run).  The BTU replay payload fields are shared
    read-only across every point of a workload.  ``table`` is the point's
    config table (:func:`config_table`), the only config a kernel sees.
    """

    __slots__ = (
        "l1i",
        "l1d",
        "l2",
        "l3",
        "pht",
        "history",
        "btb",
        "rsb",
        "loops",
        "btu_targets",
        "btu_eids",
        "btu_long",
        "btu_pos",
        "btu_committed",
        "btu_resident",
        "table",
        # The native tier's per-point buffer session (opaque to this module;
        # owned by repro.engine.native).  ``None`` whenever no compiled
        # kernel holds live views over this state.
        "native_session",
    )

    def __init__(self, config: CoreConfig, btu_data: Optional[BtuReplayData] = None) -> None:
        data = btu_data if btu_data is not None else EMPTY_BTU_DATA
        self.l1i = flat_cache_new(config.l1i.num_sets, config.l1i.associativity)
        self.l1d = flat_cache_new(config.l1d.num_sets, config.l1d.associativity)
        self.l2: Dict[int, List[int]] = {}
        self.l3: Dict[int, List[int]] = {}
        self.pht, self.history, self.btb, self.rsb, self.loops = flat_bpu_new(config)
        self.btu_targets, self.btu_eids, self.btu_long = data
        self.btu_pos, self.btu_committed, self.btu_resident = flat_btu_new(data)
        self.table = config_table(config)
        self.native_session = None

    # ------------------------------------------------------------------ #
    # Warm-state restore (cheap array copies)
    # ------------------------------------------------------------------ #
    def restore_icache(self, flat) -> None:
        self.native_session = None
        self.l1i[:] = flat if isinstance(flat, array) else array("q", flat)

    def restore_dcache(
        self, l1d, l2: Dict[int, List[int]], l3: Dict[int, List[int]]
    ) -> None:
        self.native_session = None
        self.l1d[:] = l1d if isinstance(l1d, array) else array("q", l1d)
        self.l2 = copy_sparse_sets(l2)
        self.l3 = copy_sparse_sets(l3)

    def restore_bpu(self, bpu: FlatBpu) -> None:
        self.native_session = None
        self.pht, self.history, self.btb, self.rsb, self.loops = copy_flat_bpu(bpu)

    def restore_btu(self, btu: FlatBtu) -> None:
        self.native_session = None
        self.btu_pos, self.btu_committed, self.btu_resident = copy_flat_btu(btu)

    def btu_occupancy(self) -> int:
        return len(self.btu_resident)
