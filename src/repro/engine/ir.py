"""The typed kernel IR behind the generated measured-pass kernels.

:mod:`repro.engine.kernels` used to build its specialized source by string
concatenation, which welded the *what* (the measured pass's structure and
its specializations) to the *how* (rendering CPython source).  This module
is the *what*: a small statement tree plus the specialization decisions as
explicit, unit-testable transforms.  Emitters — today
:mod:`repro.engine.emit.python` (exec-compiled kernel source) and
:mod:`repro.engine.emit.c` (C translation units for the native tier) — are
the *how*.

The IR is deliberately thin: kernel code is straight-line source, so
statements are literal lines (:class:`Line`) grouped by :class:`Block`
indentation.  No config value is ever written into a line: geometry,
widths, latencies and sizes are locals the kernel binds from the point's
config table (:data:`~repro.engine.state.TABLE_FIELDS`) in its prologue.
Two node kinds carry the specialization decisions:

* :class:`Guard` — a generation-time conditional on one boolean *feature*
  (``flush`` / ``icache_resident`` / ``dcache_resident`` / ``btu_elide`` /
  ``stats``), resolved by :func:`specialize`;
* :class:`Stat` — statements that exist only in statistics-collecting
  kernels, resolved by :func:`strip_stats` (warm-up kernels drop them).

:func:`build_kernel_ir` constructs one tree per policy spec — the tree
still contains every Guard/Stat variant, so one build serves all 2⁵
specializations — and :func:`lower_kernel` runs the transform
pipeline for one :class:`KernelFeatures` point, checking each transform's
postcondition:

    specialize   →  no Guard nodes remain
    strip_stats  →  no Stat nodes remain

A kernel unit is therefore fixed by its *shape* — the spec plus the
feature point — and serves every config; the golden snapshots under
``tests/engine/golden/`` pin one rendering per shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.engine.state import TABLE_NAMES
from repro.uarch.defenses.base import EnginePolicySpec

#: The boolean features a :class:`Guard` may test.
FEATURES = ("flush", "icache_resident", "dcache_resident", "btu_elide", "stats")


# --------------------------------------------------------------------------- #
# Statements
# --------------------------------------------------------------------------- #
class Stmt:
    """Base class for IR statements."""


@dataclass(frozen=True)
class Line(Stmt):
    """One source line."""

    text: str


@dataclass(frozen=True)
class Block(Stmt):
    """A statement group rendered ``indent`` levels deeper than its parent."""

    body: Tuple[Stmt, ...]
    indent: int = 0


@dataclass(frozen=True)
class Stat(Stmt):
    """Statements present only when the kernel collects statistics."""

    body: Tuple[Stmt, ...]


@dataclass(frozen=True)
class Guard(Stmt):
    """A generation-time conditional on one boolean feature."""

    feature: str
    then: Tuple[Stmt, ...]
    orelse: Tuple[Stmt, ...] = ()

    def __post_init__(self) -> None:
        if self.feature not in FEATURES:
            raise ValueError(f"unknown kernel feature {self.feature!r}")


def L(text: str) -> Line:
    return Line(text)


def lines(*texts: str) -> List[Stmt]:
    return [Line(text) for text in texts]


def stat(*texts: str) -> Stat:
    return Stat(tuple(lines(*texts)))


# --------------------------------------------------------------------------- #
# Features
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelFeatures:
    """The resolved specialization point one emitted kernel implements.

    Derivation (not construction) is the API: :meth:`derive` applies the
    same semantics the string generator enforced — only trace-replaying
    (non-lite Cassandra) kernels have observable flush behaviour, and the
    BTU elision is only legal for a traced kernel without flushes.
    """

    flush: bool
    icache_resident: bool
    dcache_resident: bool
    btu_elide: bool
    stats: bool

    @classmethod
    def derive(
        cls,
        spec: EnginePolicySpec,
        flush_active: bool,
        icache_resident: bool = False,
        dcache_resident: bool = False,
        btu_elide: bool = False,
        collect_stats: bool = True,
    ) -> "KernelFeatures":
        traced = spec.kind == "cassandra" and not spec.lite
        flush = bool(flush_active) and traced
        if btu_elide and (not traced or flush):
            raise ValueError("btu_elide requires a traced kernel without flushes")
        return cls(
            flush=flush,
            icache_resident=bool(icache_resident),
            dcache_resident=bool(dcache_resident),
            btu_elide=bool(btu_elide),
            stats=bool(collect_stats),
        )

    def as_mapping(self) -> Dict[str, bool]:
        return {
            "flush": self.flush,
            "icache_resident": self.icache_resident,
            "dcache_resident": self.dcache_resident,
            "btu_elide": self.btu_elide,
            "stats": self.stats,
        }


# --------------------------------------------------------------------------- #
# Transforms
# --------------------------------------------------------------------------- #
def specialize(body: Sequence[Stmt], features: Dict[str, bool]) -> List[Stmt]:
    """Resolve every :class:`Guard` against ``features``.

    Postcondition: :func:`guard_features` of the result is empty.
    """
    out: List[Stmt] = []
    for stmt in body:
        if isinstance(stmt, Guard):
            arm = stmt.then if features[stmt.feature] else stmt.orelse
            out.extend(specialize(arm, features))
        elif isinstance(stmt, Block):
            out.append(Block(tuple(specialize(stmt.body, features)), stmt.indent))
        elif isinstance(stmt, Stat):
            out.append(Stat(tuple(specialize(stmt.body, features))))
        else:
            out.append(stmt)
    return out


def strip_stats(body: Sequence[Stmt], collect_stats: bool) -> List[Stmt]:
    """Unwrap (or drop) every :class:`Stat` marker.

    Postcondition: :func:`has_stats` of the result is False.
    """
    out: List[Stmt] = []
    for stmt in body:
        if isinstance(stmt, Stat):
            if collect_stats:
                out.extend(strip_stats(stmt.body, collect_stats))
        elif isinstance(stmt, Block):
            out.append(Block(tuple(strip_stats(stmt.body, collect_stats)), stmt.indent))
        elif isinstance(stmt, Guard):
            out.append(
                Guard(
                    stmt.feature,
                    tuple(strip_stats(stmt.then, collect_stats)),
                    tuple(strip_stats(stmt.orelse, collect_stats)),
                )
            )
        else:
            out.append(stmt)
    return out


# --------------------------------------------------------------------------- #
# Postcondition probes (used by lower_kernel and the unit tests)
# --------------------------------------------------------------------------- #
def guard_features(body: Sequence[Stmt]) -> List[str]:
    """Every Guard feature present in ``body`` (pre/postcondition probe)."""
    found: List[str] = []
    for stmt in body:
        if isinstance(stmt, Guard):
            found.append(stmt.feature)
            found.extend(guard_features(stmt.then))
            found.extend(guard_features(stmt.orelse))
        elif isinstance(stmt, Block):
            found.extend(guard_features(stmt.body))
        elif isinstance(stmt, Stat):
            found.extend(guard_features(stmt.body))
    return found


def has_stats(body: Sequence[Stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, Stat):
            return True
        if isinstance(stmt, Block) and has_stats(stmt.body):
            return True
        if isinstance(stmt, Guard) and (
            has_stats(stmt.then) or has_stats(stmt.orelse)
        ):
            return True
    return False


def lower_kernel(body: Sequence[Stmt], features: KernelFeatures) -> List[Stmt]:
    """Run the full transform pipeline for one specialization point."""
    specialized = specialize(body, features.as_mapping())
    remaining = guard_features(specialized)
    if remaining:  # pragma: no cover - transform invariant
        raise RuntimeError(f"specialize left guards behind: {remaining}")
    stripped = strip_stats(specialized, features.stats)
    if has_stats(stripped):  # pragma: no cover - transform invariant
        raise RuntimeError("strip_stats left Stat nodes behind")
    return stripped


# --------------------------------------------------------------------------- #
# The kernel tree
# --------------------------------------------------------------------------- #
def _table_unpack(names: Sequence[str], source: str) -> List[Stmt]:
    """``(name, ...) = source`` over several lines, four names a line."""
    out: List[Stmt] = [L("(")]
    for start in range(0, len(names), 4):
        out.append(L("    " + ", ".join(names[start : start + 4]) + ","))
    out.append(L(f") = {source}"))
    return out


def build_kernel_ir(spec: EnginePolicySpec) -> List[Stmt]:
    """The full measured-pass tree for one policy spec.

    Spec-level structure (Cassandra vs BPU flow, gate mask, forwarding) is
    resolved at build time — it changes which code exists.  Geometry,
    widths, latencies and sizes are not: the kernel binds them to locals
    from the point's config table (:data:`~repro.engine.state.TABLE_FIELDS`)
    in its prologue, so one kernel serves every config.  The five boolean
    axes stay in the tree as Guard/Stat variants, so one build serves
    every :class:`KernelFeatures` point.
    """
    cassandra = spec.kind == "cassandra"
    lite = spec.lite
    traced = cassandra and not lite
    gate_mask = spec.gate_mask
    allow_fwd = spec.allow_store_forwarding
    # The memory/gate section only concerns loads and gated instructions:
    # store bookkeeping is post-commit and store counts are static, so the
    # umbrella test is F_LOAD plus the policy's gate bits.
    mg_mask = 1 | gate_mask

    body: List[Stmt] = []

    # ------------------------------ prologue ------------------------------ #
    body.extend(_table_unpack(TABLE_NAMES, "state.table"))
    body.extend(
        lines(
            "pht_mask = (1 << pht_bits) - 1",
            "hist_mask = (1 << global_history_bits) - 1",
        )
    )
    body.append(
        Guard(
            "icache_resident",
            (),
            tuple(lines("l1i = state.l1i", "l1i_index = l1i.index")),
        )
    )
    body.append(
        Guard(
            "dcache_resident",
            (),
            tuple(
                lines(
                    "l1d = state.l1d",
                    "l1d_index = l1d.index",
                    "l2_sets = state.l2",
                    "l3_sets = state.l3",
                    "l2_get = l2_sets.get",
                    "l3_get = l3_sets.get",
                )
            ),
        )
    )
    body.extend(
        lines(
            "mem_col = trace.mem",
            "pcs_col = trace.pcs",
            "npcs_col = trace.next_pcs",
            "bcs_col = trace.bclass",
            "pht = state.pht",
            "history = state.history",
            "btb = state.btb",
            "btb_get = btb.get",
            "rsb = state.rsb",
            "loops = state.loops",
            "loops_get = loops.get",
        )
    )
    # The BTU checkpoint table (``btu_committed``) is never read by a
    # measured or warm-up pass — checkpoints only serve squash recovery and
    # eviction write-back inspection, neither of which is observable here —
    # so kernels do not maintain it at all.
    if cassandra:
        body.extend(lines("crypto_pcs_len = len(crypto_pcs)"))
        if not lite:
            body.extend(lines("stp_get = plan_stp.get"))
    if traced:
        body.extend(
            lines(
                "btu_pos = state.btu_pos",
                "btu_targets = state.btu_targets",
                "btu_eids = state.btu_eids",
                "btu_long = state.btu_long",
            )
        )
        body.append(
            Guard("btu_elide", (), tuple(lines("btu_resident = state.btu_resident")))
        )
    body.extend(
        lines(
            # One extra slot: dst == -1 writes reg_ready[-1] (never read).
            "reg_ready = [0] * (trace.num_regs + 1)",
            "commit_ring = [0] * rob_size",
            "store_inflight = {}",
            "si_get = store_inflight.get",
            # defaultdict: a missed probe reads 0 via C-level __missing__, which
            # is cheaper than a bound .get call (absent and zero are equivalent).
            "issue_busy = __defaultdict_int()",
            "fetch_cycle = 0",
            "fetched_this_cycle = 0",
            "fetch_not_before = 0",
            "last_commit_cycle = 0",
            "committed_this_cycle = 0",
            "window_resolve_cycle = 0",
            "index = 0",
            # The tail loop's commit-ring slot: index % rob_size, kept as a
            # wrapping counter so the loop divides nothing.
            "ri = 0",
        )
    )
    body.append(Guard("flush", tuple(lines("next_btu_flush = btu_flush_interval"))))
    body.append(Guard("icache_resident", (), (stat("l1i_miss = 0"),)))
    body.append(Guard("dcache_resident", (), (stat("l1d_miss = 0"),)))
    if allow_fwd:
        body.append(stat("n_forwards = 0"))
    else:
        body.append(stat("n_stl_blocked = 0"))
    if gate_mask:
        body.append(stat("n_delayed = delay_cycles = 0"))
    body.append(stat("squash_cycles = fetch_stall_cycles = 0"))
    body.append(stat("n_cond_mis = n_rsb_mis = n_ind_mis = 0"))
    if cassandra:
        body.append(stat("n_integrity = 0"))
    if traced:
        body.append(stat("n_btu_misses = n_btu_prefetches = 0"))
    body.extend(lines("rows_head, rows_tail = rows"))

    # --------------------------- stage builders ---------------------------- #
    def fetch_stage() -> List[Stmt]:
        # Residency variant: no miss is possible, pure width bookkeeping.
        resident = lines(
            "if fetch_not_before > fetch_cycle:",
            "    fetch_cycle = fetch_not_before",
            "    fetched_this_cycle = 1",
            "elif fetched_this_cycle >= fetch_width:",
            "    fetch_cycle += 1",
            "    fetched_this_cycle = 1",
            "else:",
            "    fetched_this_cycle += 1",
        )
        # InstructionCache uses 4-byte instruction slots.
        full: List[Stmt] = [
            L("pc = pcs_col[index]"),
            L(
                "candidate = fetch_cycle if fetch_cycle > fetch_not_before"
                " else fetch_not_before"
            ),
            L("line = (pc * 4) // l1i_line_bytes"),
            L("seg_end = (line % l1i_num_sets) * l1i_associativity + l1i_associativity"),
            L("tag = line // l1i_num_sets"),
            L("try:"),
            L("    i = l1i_index(tag, seg_end - l1i_associativity, seg_end)"),
            L("    del l1i[i]"),
            L("    l1i.insert(seg_end - 1, tag)"),
            L("except ValueError:"),
            Block((stat("l1i_miss += 1"),), 1),
            L("    del l1i[seg_end - l1i_associativity]"),
            L("    l1i.insert(seg_end - 1, tag)"),
            L("    candidate += l2_latency"),
        ]
        full.extend(
            lines(
                "if candidate > fetch_cycle:",
                "    fetch_cycle = candidate",
                "    fetched_this_cycle = 0",
                "if fetched_this_cycle >= fetch_width:",
                "    fetch_cycle += 1",
                "    fetched_this_cycle = 0",
                "fetched_this_cycle += 1",
            )
        )
        return [Guard("icache_resident", tuple(resident), tuple(full))]

    def dispatch_stage(rob_active: bool) -> List[Stmt]:
        # ``ready`` starts as the dispatch cycle (fetch + frontend depth,
        # bounded by ROB occupancy).  The head loop covers the first
        # ``rob_size`` instructions, where the bound cannot apply and the
        # ring index is just ``index``; the tail reads the bound
        # unconditionally through the wrapping ring slot ``ri``.
        out: List[Stmt] = [L("ready = fetch_cycle + frontend_depth")]
        if rob_active:
            out.extend(
                lines(
                    "bound = commit_ring[ri]",
                    "if bound > ready:",
                    "    ready = bound",
                )
            )
        return out

    def operand_stage() -> List[Stmt]:
        return lines(
            "if s0 >= 0:",
            "    t = reg_ready[s0]",
            "    if t > ready:",
            "        ready = t",
            "    if s1 >= 0:",
            "        t = reg_ready[s1]",
            "        if t > ready:",
            "            ready = t",
            "        if s2 >= 0:",
            "            t = reg_ready[s2]",
            "            if t > ready:",
            "                ready = t",
        )

    # ------------------------ cache-model builders -------------------------- #
    def sparse_level(level: str, miss: List[Stmt]) -> List[Stmt]:
        """One sparse-dict cache level; ``miss`` statements run on a miss."""
        return [
            L(f"{level}_line = (addr * word_bytes) // {level}_line_bytes"),
            L(f"{level}_ways = {level}_get({level}_line % {level}_num_sets)"),
            L(f"{level}_tag = {level}_line // {level}_num_sets"),
            L(f"if {level}_ways is None:"),
            L(f"    {level}_sets[{level}_line % {level}_num_sets] = [{level}_tag]"),
            Block(tuple(miss), 1),
            L(f"elif {level}_tag in {level}_ways:"),
            L(f"    {level}_ways.remove({level}_tag)"),
            L(f"    {level}_ways.append({level}_tag)"),
            L("else:"),
            L(f"    {level}_ways.append({level}_tag)"),
            L(f"    if len({level}_ways) > {level}_associativity:"),
            L(f"        del {level}_ways[0]"),
            Block(tuple(miss), 1),
        ]

    def l2_l3_stage(load: bool) -> List[Stmt]:
        """L2 access whose miss arms charge L3 latency and fall to the L3."""
        l2_miss: List[Stmt] = []
        if load:
            l2_miss.extend(lines("exec_latency += l3_latency"))
        l3_miss = lines("exec_latency += memory_latency") if load else []
        l2_miss.extend(sparse_level("l3", l3_miss))
        return sparse_level("l2", l2_miss)

    def l1d_stage(load: bool) -> List[Stmt]:
        """One L1D access: residency-proved constant, or the full model."""
        resident = lines("exec_latency = l1d_latency") if load else []
        full: List[Stmt] = [
            L("line = (addr * word_bytes) // l1d_line_bytes"),
            L("seg_end = (line % l1d_num_sets) * l1d_associativity + l1d_associativity"),
            L("tag = line // l1d_num_sets"),
            L("try:"),
            L("    i = l1d_index(tag, seg_end - l1d_associativity, seg_end)"),
            L("    del l1d[i]"),
            L("    l1d.insert(seg_end - 1, tag)"),
        ]
        if load:
            full.append(Block(tuple(lines("exec_latency = l1d_latency")), 1))
        full.append(L("except ValueError:"))
        miss_arm: List[Stmt] = [stat("l1d_miss += 1")]
        miss_arm.extend(
            lines(
                "del l1d[seg_end - l1d_associativity]",
                "l1d.insert(seg_end - 1, tag)",
            )
        )
        if load:
            miss_arm.extend(lines("exec_latency = l1d_latency + l2_latency"))
        miss_arm.extend(l2_l3_stage(load))
        full.append(Block(tuple(miss_arm), 1))
        return [Guard("dcache_resident", tuple(resident), tuple(full))]

    # --------------------------- pipeline stages ----------------------------- #
    def mem_gate_stage() -> List[Stmt]:
        """Load latency / forwarding / STL blocking and the issue gate."""
        out: List[Stmt] = [L(f"if fl & {mg_mask}:")]
        inner: List[Stmt] = [L("if fl & 1:")]  # F_LOAD
        load_body: List[Stmt] = lines(
            "addr = mem_col[index]",
            "inflight = si_get(addr)",
            "if inflight is not None and inflight[1] <= dispatch_cycle:",
            "    inflight = None",
        )
        if allow_fwd:
            load_body.append(L("if inflight is not None:"))
            fwd_arm: List[Stmt] = [stat("n_forwards += 1")]
            fwd_arm.extend(
                lines(
                    "t = inflight[0]",
                    "if t > ready:",
                    "    ready = t",
                    "exec_latency = store_forward_latency",
                )
            )
            load_body.append(Block(tuple(fwd_arm), 1))
            load_body.append(L("else:"))
            load_body.append(Block(tuple(l1d_stage(load=True)), 1))
        else:
            load_body.append(L("if inflight is not None:"))
            stl_arm: List[Stmt] = [stat("n_stl_blocked += 1")]
            stl_arm.extend(
                lines(
                    "t = inflight[1]",
                    "if t > ready:",
                    "    ready = t",
                )
            )
            load_body.append(Block(tuple(stl_arm), 1))
            load_body.extend(l1d_stage(load=True))
        inner.append(Block(tuple(load_body), 1))
        if gate_mask:
            inner.append(L(f"if fl & {gate_mask} and window_resolve_cycle > ready:"))
            gate_arm: List[Stmt] = [
                stat(
                    "n_delayed += 1",
                    "delay_cycles += window_resolve_cycle - ready",
                )
            ]
            gate_arm.extend(lines("ready = window_resolve_cycle"))
            inner.append(Block(tuple(gate_arm), 1))
        out.append(Block(tuple(inner), 1))
        return out

    def issue_commit_stage(latency: str, rob_active: bool) -> List[Stmt]:
        """Issue bandwidth, register write-back, and commit bandwidth."""
        out = lines(
            "issue_cycle = ready",
            "busy = issue_busy[issue_cycle]",
            "while busy >= issue_width:",
            "    issue_cycle += 1",
            "    busy = issue_busy[issue_cycle]",
            "issue_busy[issue_cycle] = busy + 1",
            f"complete_cycle = issue_cycle + {latency}",
            "reg_ready[dst] = complete_cycle",
            "commit_cycle = complete_cycle + 1",
            "if commit_cycle > last_commit_cycle:",
            "    last_commit_cycle = commit_cycle",
            "    committed_this_cycle = 1",
            "elif committed_this_cycle >= commit_width:",
            "    last_commit_cycle = commit_cycle = last_commit_cycle + 1",
            "    committed_this_cycle = 1",
            "else:",
            "    commit_cycle = last_commit_cycle",
            "    committed_this_cycle += 1",
        )
        if rob_active:
            out.extend(
                lines(
                    "commit_ring[ri] = commit_cycle",
                    "ri += 1",
                    "if ri == rob_size:",
                    "    ri = 0",
                )
            )
        else:
            out.extend(lines("commit_ring[index] = commit_cycle"))
        out.extend(lines("index += 1"))
        return out

    def store_stage() -> List[Stmt]:
        """Store install + store-queue update under a single F_STORE test.

        The reference installs the store's line between register write-back
        and commit; nothing in between observes the caches, so merging the
        install with the store-queue update is state-equivalent.
        """
        inner: List[Stmt] = [L("addr = mem_col[i0]")]
        inner.extend(l1d_stage(load=False))
        inner.extend(
            lines(
                "store_inflight[addr] = (complete_cycle, commit_cycle)",
                "if len(store_inflight) > sq_size:",
                "    del store_inflight[next(iter(store_inflight))]",
            )
        )
        return [L("if fl & 2:"), Block(tuple(inner), 1)]  # F_STORE

    def bpu_flow() -> List[Stmt]:
        """Inline BPU predict+update (flat state); leaves ``predicted``."""
        out: List[Stmt] = [L("taken = fl & 64")]  # F_TAKEN
        # B_COND — by far the most frequent class.
        out.extend(
            lines(
                "if bc == 1:",
                "    pidx = (pc ^ history) & pht_mask",
                "    counter = pht[pidx]",
                "    loop = loops_get(pc)",
                "    if loop is not None and loop[2] >= 2 and loop[1] >= 0:",
                "        taken_pred = loop[0] >= loop[1]",
                "    else:",
                "        taken_pred = counter >= 2",
                "    if taken_pred:",
                "        predicted = btb_get(pc, -1)",
                "        if predicted < 0:",
                "            predicted = pc + 1",
                "    else:",
                "        predicted = pc + 1",
                # The reference updates the PHT, then the history, then the loop
                # entry; both taken arms preserve that order, merged so ``taken``
                # is tested once.
                "    if loop is None:",
                "        loop = loops[pc] = [0, -1, 0]",
                "    if taken:",
                "        pht[pidx] = counter + 1 if counter < 3 else 3",
                "        history = ((history << 1) | 1) & hist_mask",
                "        if loop[1] == loop[0]:",
                "            c = loop[2]",
                "            loop[2] = c + 1 if c < 7 else 7",
                "        else:",
                "            loop[2] = 0",
                "            loop[1] = loop[0]",
                "        loop[0] = 0",
                "        if pc not in btb and len(btb) >= btb_entries:",
                "            del btb[next(iter(btb))]",
                "        btb[pc] = npc",
                "    else:",
                "        pht[pidx] = counter - 1 if counter > 0 else 0",
                "        history = (history << 1) & hist_mask",
                "        loop[0] += 1",
            )
        )
        out.append(
            stat(
                "    if predicted != npc:",
                "        n_cond_mis += 1",
            )
        )
        # B_JMP / B_CALL — direct targets, always correct.
        out.extend(
            lines(
                "elif bc == 2:",
                "    predicted = npc",
                "elif bc == 3:",
                "    if len(rsb) >= rsb_entries:",
                "        del rsb[0]",
                "    rsb.append(pc + 1)",
                "    predicted = npc",
                # B_RET — pop the RSB.
                "elif bc == 6:",
                "    predicted = rsb.pop() if rsb else pc + 1",
            )
        )
        out.append(
            stat(
                "    if predicted != npc:",
                "        n_rsb_mis += 1",
            )
        )
        # B_CALLI — BTB lookup, RSB push, then BTB training.
        out.extend(
            lines(
                "elif bc == 4:",
                "    predicted = btb_get(pc, -1)",
                "    if len(rsb) >= rsb_entries:",
                "        del rsb[0]",
                "    rsb.append(pc + 1)",
                "    if predicted < 0:",
                "        predicted = pc + 1",
                "    if pc not in btb and len(btb) >= btb_entries:",
                "        del btb[next(iter(btb))]",
                "    btb[pc] = npc",
            )
        )
        out.append(
            stat(
                "    if predicted != npc:",
                "        n_ind_mis += 1",
            )
        )
        # B_JMPI — BTB lookup + training.
        out.extend(
            lines(
                "elif bc == 5:",
                "    predicted = btb_get(pc, -1)",
                "    if predicted < 0:",
                "        predicted = pc + 1",
                "    if pc not in btb and len(btb) >= btb_entries:",
                "        del btb[next(iter(btb))]",
                "    btb[pc] = npc",
            )
        )
        out.append(
            stat(
                "    if predicted != npc:",
                "        n_ind_mis += 1",
            )
        )
        out.extend(
            lines(
                "else:",
                "    predicted = pc + 1",
            )
        )
        return out

    def bpu_outcome() -> List[Stmt]:
        """Mispredict redirect + speculation-window bookkeeping."""
        out: List[Stmt] = lines(
            "if predicted != npc:",
            "    redirect = resolve_cycle + mispredict_penalty",
        )
        out.append(
            stat(
                "    d = redirect - fetch_cycle",
                "    if d > 0:",
                "        squash_cycles += d",
            )
        )
        out.extend(
            lines(
                "    if redirect > fetch_not_before:",
                "        fetch_not_before = redirect",
                "if resolve_cycle > window_resolve_cycle:",
                "    window_resolve_cycle = resolve_cycle",
            )
        )
        return out

    def fetch_stall() -> List[Stmt]:
        out: List[Stmt] = [L("stall_target = resolve_cycle + 1")]
        out.append(
            stat(
                "d = stall_target - fetch_cycle",
                "if d > 0:",
                "    fetch_stall_cycles += d",
            )
        )
        out.extend(
            lines(
                "if stall_target > fetch_not_before:",
                "    fetch_not_before = stall_target",
            )
        )
        return out

    def branch_stage() -> List[Stmt]:
        base: List[Stmt] = []
        base.append(
            Guard("icache_resident", tuple(lines("pc = pcs_col[i0]")), ())
        )
        base.extend(
            lines(
                "npc = npcs_col[i0]",
                "bc = bcs_col[i0]",
                "resolve_cycle = complete_cycle",
            )
        )
        if not cassandra:
            base.extend(bpu_flow())
            base.extend(bpu_outcome())
            return [L("if fl & 4:"), Block(tuple(base), 1)]  # F_BRANCH
        # The fetch-flow class is a static per-PC property, resolved by the
        # batch layer into ``plan_cls``.  The reference also checkpoints
        # crypto branches' BTU state at commit here, but the checkpoint
        # table is unobservable in a measured pass, so kernels omit it.
        base.extend(
            lines(
                "cls = plan_cls[pc]",
                "if cls == 0:",
            )
        )
        bpu_arm: List[Stmt] = list(bpu_flow())
        bpu_arm.append(
            L(
                "if (predicted < crypto_pcs_len and crypto_pcs[predicted])"
                " or crypto_pcs[npc]:"
            )
        )
        integrity_arm: List[Stmt] = [stat("n_integrity += 2")]
        integrity_arm.extend(fetch_stall())
        bpu_arm.append(Block(tuple(integrity_arm), 1))
        bpu_arm.append(L("else:"))
        bpu_arm.append(Block(tuple(bpu_outcome()), 1))
        base.append(Block(tuple(bpu_arm), 1))
        base.append(L("elif cls == 1:"))
        if not lite:
            base.append(
                Block(
                    tuple(
                        lines(
                            "stp = stp_get(pc)",
                            "if stp is not None and stp != npc:",
                            "    raise ReplayMismatchError(",
                            '        "single-target hint for PC %d points at %r but "',
                            '        "execution went to %d" % (pc, stp, npc)',
                            "    )",
                        )
                    ),
                    1,
                )
            )
        else:
            base.append(Block(tuple(lines("pass")), 1))
        if traced:
            # No eviction is possible (distinct traced branches fit the
            # BTU) and no flush is active, so a branch misses exactly
            # once — on its first lookup, recognizable as replay
            # position zero — and the LRU residency list needs no
            # maintenance at all.
            elide_arm: List[Stmt] = lines(
                "elif cls == 2:",
                "    pos = btu_pos[pc]",
                "    if pos:",
                "        extra = 0",
                "    else:",
            )
            elide_arm.append(Block((stat("n_btu_misses += 1"),), 2))
            elide_arm.append(
                Block(tuple(lines("extra = btu_miss_latency")), 2)
            )
            # Full residency model; evictions drop the LRU entry (the
            # reference also checkpoints the victim, which kernels omit
            # as unobservable).
            full_arm: List[Stmt] = lines(
                "elif cls == 2:",
                "    extra = 0",
                "    if pc in btu_resident:",
                "        btu_resident.remove(pc)",
                "        btu_resident.append(pc)",
                "    else:",
            )
            full_arm.append(Block((stat("n_btu_misses += 1"),), 2))
            full_arm.append(
                Block(
                    tuple(
                        lines(
                            "extra = btu_miss_latency",
                            "if len(btu_resident) >= btu_entries:",
                            "    del btu_resident[0]",
                            "btu_resident.append(pc)",
                        )
                    ),
                    2,
                )
            )
            full_arm.append(Block(tuple(lines("pos = btu_pos[pc]")), 1))
            base.append(Guard("btu_elide", tuple(elide_arm), tuple(full_arm)))
            replay: List[Stmt] = lines(
                "targets = btu_targets[pc]",
                "tidx = pos % len(targets)",
                "target = targets[tidx]",
                "btu_pos[pc] = pos + 1",
                "if btu_long[pc]:",
                "    eid = btu_eids[pc][tidx]",
            )
            replay.append(
                L(
                    "    if eid >= btu_elements_per_entry"
                    " and eid % btu_elements_per_entry == 0:"
                )
            )
            replay.append(Block((stat("n_btu_prefetches += 1"),), 2))
            replay.extend(
                lines(
                    "        extra += btu_prefetch_latency",
                    "if target != npc:",
                    "    raise ReplayMismatchError(",
                    '        "BTU replay for PC %d produced target %d but the "',
                    '        "sequential execution went to %d" % (pc, target, npc)',
                    "    )",
                    "if extra:",
                    "    t = fetch_cycle + extra",
                    "    if t > fetch_not_before:",
                    "        fetch_not_before = t",
                )
            )
            base.append(Block(tuple(replay), 1))
        base.append(L("else:"))
        base.append(Block(tuple(fetch_stall()), 1))
        return [L("if fl & 4:"), Block(tuple(base), 1)]  # F_BRANCH

    # -------------------------- instruction body ---------------------------- #
    # The premasked flags word is zero for pure ALU work, which skips the
    # memory, gate, store, and branch stages entirely; the operand-merge and
    # issue/commit blocks are duplicated into both arms so the fast path
    # carries no dead assignments (``dispatch_cycle`` and ``exec_latency``
    # exist only where the memory stage can read them).
    def instruction_body(rob_active: bool) -> List[Stmt]:
        out: List[Stmt] = []
        out.extend(fetch_stage())
        out.extend(dispatch_stage(rob_active))
        out.append(L("if fl:"))
        slow: List[Stmt] = [L("dispatch_cycle = ready")]
        slow.extend(operand_stage())
        slow.append(L("exec_latency = lat"))
        slow.extend(mem_gate_stage())
        slow.append(L("i0 = index"))
        slow.extend(issue_commit_stage("exec_latency", rob_active))
        slow.extend(store_stage())
        slow.extend(branch_stage())
        out.append(Block(tuple(slow), 1))
        out.append(L("else:"))
        fast: List[Stmt] = list(operand_stage())
        fast.extend(issue_commit_stage("lat", rob_active))
        out.append(Block(tuple(fast), 1))
        # The reference also checkpoints every resident branch on a flush;
        # only the residency clear is observable (it re-triggers misses).
        out.append(
            Guard(
                "flush",
                tuple(
                    lines(
                        "if last_commit_cycle >= next_btu_flush:",
                        "    del btu_resident[:]",
                        "    next_btu_flush += btu_flush_interval",
                    )
                ),
            )
        )
        return out

    # ``rows`` arrives pre-split at the ROB boundary: the head loop needs no
    # ROB-occupancy bound (nothing has committed ``rob_size`` back yet), the
    # tail reads it unconditionally.  Both unpack pre-zipped 6-tuples of the
    # per-instruction-hot columns; PC / next-PC / address / branch-class
    # columns are indexed on demand in the slow paths.  ``fl`` is the
    # premasked flags word (see :func:`repro.engine.kernels.relevant_flag_mask`):
    # zero means "pure ALU work", the loop's fast path.
    body.append(L("for dst, s0, s1, s2, fl, lat in rows_head:"))
    body.append(Block(tuple(instruction_body(rob_active=False)), 1))
    body.append(L("for dst, s0, s1, s2, fl, lat in rows_tail:"))
    body.append(Block(tuple(instruction_body(rob_active=True)), 1))

    # ------------------------------ epilogue -------------------------------- #
    body.append(L("state.history = history"))

    def counter_line(name: str, value: str) -> Line:
        return L(f'    "{name}": {value},')

    return_block: List[Stmt] = [L("return {")]
    return_block.append(counter_line("cycles", "last_commit_cycle"))
    return_block.append(
        counter_line("store_forwards", "n_forwards" if allow_fwd else "0")
    )
    return_block.append(
        counter_line("stl_blocked", "0" if allow_fwd else "n_stl_blocked")
    )
    return_block.append(
        counter_line("delayed_instructions", "n_delayed" if gate_mask else "0")
    )
    return_block.append(
        counter_line("delay_cycles", "delay_cycles" if gate_mask else "0")
    )
    return_block.append(counter_line("squash_cycles", "squash_cycles"))
    return_block.append(counter_line("fetch_stall_cycles", "fetch_stall_cycles"))
    return_block.append(
        counter_line("integrity_stall_branches", "n_integrity" if cassandra else "0")
    )
    return_block.append(
        counter_line("btu_misses", "n_btu_misses" if traced else "0")
    )
    return_block.append(
        counter_line("btu_prefetches", "n_btu_prefetches" if traced else "0")
    )
    return_block.append(
        counter_line("bpu_mispredicted", "n_cond_mis + n_rsb_mis + n_ind_mis")
    )
    return_block.append(
        Guard(
            "icache_resident",
            (counter_line("l1i_miss", "0"),),
            (counter_line("l1i_miss", "l1i_miss"),),
        )
    )
    return_block.append(
        Guard(
            "dcache_resident",
            (counter_line("l1d_miss", "0"),),
            (counter_line("l1d_miss", "l1d_miss"),),
        )
    )
    # Occupancy = branches looked up and never evicted/flushed; in the
    # elided variant that is exactly "replay position advanced".
    if traced:
        return_block.append(
            Guard(
                "btu_elide",
                (counter_line("btu_occupancy", "sum(1 for v in btu_pos.values() if v)"),),
                (counter_line("btu_occupancy", "len(btu_resident)"),),
            )
        )
    else:
        return_block.append(counter_line("btu_occupancy", "0"))
    return_block.append(L("}"))
    body.append(
        Guard("stats", tuple(return_block), tuple(lines("return None")))
    )

    return [
        L(
            "def kernel(trace, state, rows, crypto_pcs, plan_cls, plan_stp,"
            " btu_flush_interval):"
        ),
        Block(tuple(body), 1),
    ]
