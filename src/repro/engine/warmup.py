"""Shared warm-state construction for batched simulation.

The legacy path re-simulates the full timing model once per policy just to
warm the predictors and caches before the measured pass.  But the warm state
a warm-up pass leaves behind decomposes into four independent components,
each of which evolves as a pure function of the *program-order* event
sequence — not of cycle timing:

* **L1I** — accessed once per instruction, in program order, by every
  policy: one shared replay serves all points.
* **L1D/L2/L3** — accessed per load and store in program order.  Timing
  enters only through store-to-load forwarding, which may skip a forwarded
  load's cache access.  Skipping is invisible to the warm state unless some
  *other* access touches the same L1D set between the store and the
  forwarded load (only then can the skipped recency refresh change an LRU
  eviction).  :meth:`WarmStateBuilder.forwarding_shareable` detects that
  condition exactly, in program order, once per (workload × L1D geometry ×
  store-queue size); when
  it triggers, forwarding-allowed policies fall back to private full
  warm-up passes (on the kernels) instead of the shared snapshot, so the
  bit-parity guarantee holds for arbitrary programs, not just the quick
  suite.
* **BPU** — trained on the branch subsequence a policy predicts: every
  branch for BPU-kind policies, the non-crypto subsequence for the
  Cassandra family.  Two shared replays cover all built-in policies.
* **BTU** — advanced per traced crypto branch by the Cassandra fetch flow
  (commit checkpoint, then trace replay), untouched by everything else.

Each component also reads only a few :class:`~repro.uarch.config.CoreConfig`
fields (:data:`KEY_FIELDS`).  :class:`WarmStateBuilder` computes each
(component, class, passes) snapshot at most once per workload and *value of
those fields*, in a :class:`WarmStore` shared by every config of one batch,
and restores it into any number of per-point unit instances: a sweep that
varies only ROB size, widths and latencies replays each component once, not
once per config.  The only warm-up that cannot be shared is a BTU whose
periodic flush interval is active — flush points are cycle-triggered, so
those points run private full warm-up passes on the kernels instead (see
:mod:`repro.engine.batch`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.hints import HintTable
from repro.engine.kernels import classify_branch, crypto_pc_table
from repro.engine.lowering import F_BRANCH, F_CRYPTO, F_LOAD, F_TAKEN, LoweredTrace
from repro.engine.state import (
    FlatState,
    flat_bpu_from_snapshot,
    flat_btu_from_snapshot,
    flat_cache_from_sets,
)
from repro.uarch.bpu import BranchPredictionUnit
from repro.uarch.btu import BranchTraceUnit
from repro.uarch.caches import CacheHierarchy, InstructionCache
from repro.uarch.config import CoreConfig
from repro.uarch.defenses.base import EnginePolicySpec


#: The ``CoreConfig`` fields each warm component's replay and each residency
#: or forwarding proof reads.  Snapshots (object and flat forms alike) and
#: proofs are keyed on the values of exactly these fields, so every
#: config of a batch that agrees on them shares one replay: the 144-config
#: sweep grid varies no cache or BTU field and three PHT sizes.  A field a
#: replay reads but its row omits would share state between configs that
#: differ in it, so ``tests/engine/test_warmup.py`` fails on any
#: ``CoreConfig`` field this table and its list of unread fields miss.
KEY_FIELDS: Dict[str, Tuple[str, ...]] = {
    "icache": ("l1i",),
    "dcache": ("l1d", "l2", "l3", "word_bytes"),
    "bpu": ("pht_bits", "global_history_bits", "btb_entries", "rsb_entries"),
    "btu": ("btu",),
    "icache_resident": ("l1i",),
    "dcache_resident": ("l1d", "word_bytes"),
    "forwarding_shareable": ("l1d", "word_bytes", "sq_size"),
}


class WarmStore:
    """The warm state one batch shares across its configs.

    Holds the trace's event rows and every component snapshot and proof any
    :class:`WarmStateBuilder` over it computed, keyed on the
    :data:`KEY_FIELDS` values of the builder's config.  It lives as long as
    the batch that made it; nothing is cached across batches.
    """

    def __init__(self, trace: LoweredTrace, hint_table: Optional[HintTable] = None) -> None:
        self.trace = trace
        self.hint_table = hint_table
        self.entries: Dict[tuple, object] = {}
        self._rows: Optional[Tuple[bytearray, list, list]] = None

    def rows(self) -> Tuple[bytearray, List[Tuple[int, int, int, bool, bool]], List[Tuple[bool, int]]]:
        """``(crypto_pcs, branch_rows, mem_rows)``: one pass over the columns."""
        if self._rows is None:
            trace = self.trace
            crypto_pcs = crypto_pc_table(self.hint_table, trace.max_pc)
            branch_rows = []
            for pc, npc, fl, bc in zip(trace.pcs, trace.next_pcs, trace.flags, trace.bclass):
                if fl & F_BRANCH:
                    is_crypto = bool(fl & F_CRYPTO) or bool(crypto_pcs[pc])
                    branch_rows.append((bc, pc, npc, (fl & F_TAKEN) != 0, is_crypto))
            mem_rows = [
                ((fl & F_LOAD) != 0, addr)
                for fl, addr in zip(trace.flags, trace.mem)
                if addr >= 0
            ]
            self._rows = (crypto_pcs, branch_rows, mem_rows)
        return self._rows


class WarmStateBuilder:
    """Shared warm-up components for one config over a lowered trace.

    ``store`` is the :class:`WarmStore` of the batch the builder serves; the
    builders of every config in that batch share it.  Without one the
    builder keeps a private store.
    """

    def __init__(
        self,
        trace: LoweredTrace,
        config: CoreConfig,
        hint_table: Optional[HintTable] = None,
        btu_factory: Optional[Callable[[], BranchTraceUnit]] = None,
        store: Optional[WarmStore] = None,
    ) -> None:
        if store is None:
            store = WarmStore(trace, hint_table)
        elif store.trace is not trace or store.hint_table is not hint_table:
            raise ValueError("a WarmStore serves one (trace, hint table) pair")
        self.trace = trace
        self.config = config
        self.hint_table = hint_table
        self.btu_factory = btu_factory
        self.store = store
        #: Trace-order replay walks this builder executed.  A walk another
        #: builder of the same store already ran is not repeated, so the
        #: sum over a batch's builders counts each shared walk once.
        self.component_walks = 0
        self._field_values: Dict[str, tuple] = {}

    def _shared(self, name: str, compute: Callable[[], object], *detail) -> object:
        """``compute()``, run once per store for ``detail`` and this config's
        values of the :data:`KEY_FIELDS` of ``name``."""
        values = self._field_values.get(name)
        if values is None:
            config = self.config
            values = tuple(getattr(config, field) for field in KEY_FIELDS[name])
            self._field_values[name] = values
        key = (name, *detail, values)
        entries = self.store.entries
        if key not in entries:
            entries[key] = compute()
        return entries[key]

    # ------------------------------------------------------------------ #
    # Component snapshots
    # ------------------------------------------------------------------ #
    def _icache_state(self, passes: int):
        def compute():
            unit = InstructionCache(self.config)
            fetch = unit.fetch_latency
            pcs = self.trace.pcs
            for _ in range(passes):
                self.component_walks += 1
                for pc in pcs:
                    fetch(pc)
            return unit.snapshot_state()

        return self._shared("icache", compute, "seq", passes)

    def _dcache_state(self, passes: int):
        def compute():
            rows = self.store.rows()[2]
            unit = CacheHierarchy(self.config)
            load = unit.load_latency
            store = unit.store_latency
            for _ in range(passes):
                self.component_walks += 1
                for is_load, addr in rows:
                    if is_load:
                        load(addr)
                    else:
                        store(addr)
            return unit.snapshot_state()

        return self._shared("dcache", compute, "seq", passes)

    def _bpu_state(self, cls: str, passes: int):
        def compute():
            rows = self.store.rows()[1]
            unit = BranchPredictionUnit(self.config)
            predict = unit.predict_class
            update = unit.update_class
            crypto_filtered = cls == "noncrypto"
            for _ in range(passes):
                self.component_walks += 1
                for bc, pc, npc, taken, is_crypto in rows:
                    if crypto_filtered and is_crypto:
                        continue
                    update(bc, pc, npc, taken, predict(bc, pc, npc))
            return unit.snapshot_state()

        return self._shared("bpu", compute, cls, passes)

    def _btu_state(self, passes: int):
        def compute():
            if self.btu_factory is None or self.hint_table is None:
                raise ValueError("BTU warm-up needs a btu_factory and a hint table")
            crypto_pcs, rows, _mem_rows = self.store.rows()
            unit = self.btu_factory()
            hint_table = self.hint_table
            btu_targets = unit.replay_data()[0]
            plans: Dict[int, int] = {}
            for _ in range(passes):
                self.component_walks += 1
                for bc, pc, npc, taken, is_crypto in rows:
                    if not is_crypto:
                        continue
                    # The reference loop checkpoints at commit *before* the
                    # fetch flow replays the branch.
                    unit.commit(pc)
                    plan = plans.get(pc)
                    if plan is None:
                        plan, _ = classify_branch(
                            pc, F_CRYPTO, crypto_pcs, hint_table, btu_targets, lite=False
                        )
                        plans[pc] = plan
                    if plan == 2:  # traced
                        unit.lookup(pc)
            return unit.snapshot_state()

        return self._shared("btu", compute, "replay", passes)

    # ------------------------------------------------------------------ #
    # Flat conversions (the generated-kernel path)
    # ------------------------------------------------------------------ #
    # Each flat snapshot is derived from the corresponding object snapshot
    # (so the golden replay logic runs exactly once either way) and cached
    # under its own key; per-point restoration is then just array copies.
    def _flat_icache(self, passes: int):
        cfg = self.config.l1i
        return self._shared(
            "icache",
            lambda: flat_cache_from_sets(
                self._icache_state(passes), cfg.num_sets, cfg.associativity
            ),
            "flat",
            passes,
        )

    def _flat_dcache(self, passes: int):
        def compute():
            l1d_sets, l2_sets, l3_sets = self._dcache_state(passes)
            cfg = self.config.l1d
            flat = flat_cache_from_sets(l1d_sets, cfg.num_sets, cfg.associativity)
            return (flat, l2_sets, l3_sets)

        return self._shared("dcache", compute, "flat", passes)

    def _flat_bpu(self, cls: str, passes: int):
        return self._shared(
            "bpu",
            lambda: flat_bpu_from_snapshot(self._bpu_state(cls, passes)),
            "flat-" + cls,
            passes,
        )

    def _flat_btu(self, passes: int):
        return self._shared(
            "btu",
            lambda: flat_btu_from_snapshot(self._btu_state(passes)),
            "flat",
            passes,
        )

    def warm_flat(
        self,
        spec: EnginePolicySpec,
        passes: int,
        state: FlatState,
        need_icache: bool = True,
        need_dcache: bool = True,
    ) -> None:
        """Restore the shared warm state into a kernel's :class:`FlatState`.

        The flat counterpart of :meth:`warm_units`: identical component
        selection, identical snapshots underneath, restoration by cheap
        array/dict copies.  ``need_icache`` / ``need_dcache`` are cleared
        for residency-proved kernels, whose measured pass never reads the
        corresponding arrays — the warm replay for that component is then
        skipped entirely.
        """
        if passes <= 0:
            return
        if need_icache:
            state.restore_icache(self._flat_icache(passes))
        if need_dcache:
            l1d, l2_sets, l3_sets = self._flat_dcache(passes)
            state.restore_dcache(l1d, l2_sets, l3_sets)
        state.restore_bpu(self._flat_bpu(spec.bpu_warm_class, passes))
        if spec.btu_warm_class == "replay":
            state.restore_btu(self._flat_btu(passes))

    # ------------------------------------------------------------------ #
    # Residency proofs (the generated kernels' cache-elision licence)
    # ------------------------------------------------------------------ #
    # Both proofs are static per (trace, geometry): if every cache set is
    # asked to hold at most ``associativity`` distinct lines over the whole
    # trace, no eviction can ever happen — so once a warm pass has touched
    # every line, a measured pass cannot miss, and the kernel may drop the
    # cache model entirely (miss counters are analytically zero).  The
    # d-cache proof additionally makes the shared warm state exact under
    # store forwarding: a skipped forwarded-load access can only change LRU
    # *order*, which is unobservable when no eviction ever consults it (the
    # forwarded-from store already installed the line at every level).

    def icache_resident(self) -> bool:
        """No L1I eviction is possible for this program (4-byte slots)."""

        def compute() -> bool:
            cfg = self.config.l1i
            per_set: Dict[int, set] = {}
            for pc in set(self.trace.pcs):
                line = (pc * 4) // cfg.line_bytes
                per_set.setdefault(line % cfg.num_sets, set()).add(line // cfg.num_sets)
            return all(len(tags) <= cfg.associativity for tags in per_set.values())

        return self._shared("icache_resident", compute)

    def dcache_resident(self) -> bool:
        """No L1D eviction is possible for this trace's data footprint."""

        def compute() -> bool:
            cfg = self.config.l1d
            word_bytes = self.config.word_bytes
            per_set: Dict[int, set] = {}
            for addr in set(self.trace.mem):
                if addr < 0:
                    continue
                line = (addr * word_bytes) // cfg.line_bytes
                per_set.setdefault(line % cfg.num_sets, set()).add(line // cfg.num_sets)
            return all(len(tags) <= cfg.associativity for tags in per_set.values())

        return self._shared("dcache_resident", compute)

    # ------------------------------------------------------------------ #
    # Exactness guard for forwarding-allowed policies
    # ------------------------------------------------------------------ #
    def forwarding_shareable(self) -> bool:
        """Whether the shared d-cache replay is exact under store forwarding.

        A forwarded load skips its d-cache access.  The store it forwards
        from accessed the same line moments earlier, so the skip can only
        matter when another access touches the same L1D **set** between the
        (most recent) store to that address and the load — only then does
        the load's recency refresh participate in a later LRU decision.
        This scans the memory-access sequence once, mirroring the reference
        loop's store-queue membership discipline (same-address stores keep
        their queue position; the oldest entry beyond ``sq_size`` is
        evicted), and reports whether any *possibly*-forwarded load has such
        an intervening same-set access.  The check is conservative in the
        timing dimension (every in-queue store counts as forwardable, every
        access counts as intervening), so ``True`` is a proof of exactness
        while ``False`` merely triggers the private warm-up fallback.
        """

        def compute() -> bool:
            config = self.config
            word_bytes = config.word_bytes
            line_bytes = config.l1d.line_bytes
            num_sets = config.l1d.num_sets
            sq_size = config.sq_size

            inflight: Dict[int, None] = {}
            last_store_position: Dict[int, int] = {}
            last_set_access: Dict[int, int] = {}
            for position, (is_load, addr) in enumerate(self.store.rows()[2]):
                set_index = (addr * word_bytes // line_bytes) % num_sets
                if is_load:
                    if addr in inflight and last_set_access.get(set_index, -1) > last_store_position[addr]:
                        return False
                else:
                    last_store_position[addr] = position
                    inflight[addr] = None
                    if len(inflight) > sq_size:
                        del inflight[next(iter(inflight))]
                last_set_access[set_index] = position
            return True

        return self._shared("forwarding_shareable", compute)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    # Unused in src/; kept because perfbench/traced.py patches it via cls.__dict__ (KeyError without it).
    def warm_units(
        self,
        spec: EnginePolicySpec,
        passes: int,
        bpu: BranchPredictionUnit,
        caches: CacheHierarchy,
        icache: InstructionCache,
        btu: BranchTraceUnit,
    ) -> None:
        """Restore the shared warm state for ``passes`` warm-up passes.

        Components a policy never exercises (e.g. the BTU under BPU-kind
        policies) are left in their freshly-constructed state, exactly as
        the policy's own warm-up would.
        """
        if passes <= 0:
            return
        icache.restore_state(self._icache_state(passes))
        caches.restore_state(self._dcache_state(passes))
        bpu.restore_state(self._bpu_state(spec.bpu_warm_class, passes))
        if spec.btu_warm_class == "replay":
            btu.restore_state(self._btu_state(passes))
