"""The C emitter: kernel IR → a self-contained native measured-pass kernel.

This is the native-tier sibling of :mod:`repro.engine.emit.python`.  It does
not translate the python tree — C has no exceptions, dicts, or lists — it
builds its *own* statement tree with :func:`build_c_kernel_ir`, mirroring
:func:`repro.engine.ir.build_kernel_ir` stage by stage, out of the same IR
node types: the same :class:`~repro.engine.ir.Guard` features in the same
positions, statistics lines included (:func:`~repro.engine.ir.stat`) — so
one build per policy spec serves every
:class:`~repro.engine.ir.KernelFeatures` point through the unchanged
:func:`~repro.engine.ir.lower_kernel`.  Like the python
kernels, a C unit holds no config value: its prologue binds geometry,
widths, latencies and sizes from the point's config table (the ``table``
slot), so one compiled unit serves every config.  Its cache arithmetic is
the python kernels' with ``/`` for ``//``: every operand is non-negative,
where C's truncating ``/`` and ``%`` agree with Python's.

The generated kernel is one C function::

    int64_t kernel(int64_t *a);

``a`` is a flat argument vector (:data:`ARG_SLOTS`): scalars, machine
addresses of int64/uint8 buffers, and one output slot per dynamic counter.
:mod:`repro.engine.native` owns packing Python state into those buffers and
compiling/caching the shared library; nothing is read back but the
counters and the scalars that chain a session's calls.  Python container
state maps onto C-friendly layouts whose observable behaviour is
bit-identical to the flat models of :mod:`repro.engine.state`:

* **L1I / L1D / PHT** — the ``array('q')`` buffers of
  :class:`~repro.engine.state.FlatState`, mutated *in place* (hits and
  misses are the same segment memmoves the list model performs);
* **BTB** — a dense ``pc → target`` table (``-1`` absent) plus a FIFO ring
  of insertion order, reproducing the dict's oldest-key eviction;
* **RSB** — a bounded ring; **loop predictor** — dense per-PC rows plus a
  presence byte per PC;
* **store queue** — a small ring with linear scan in the per-call
  ``si_buf`` scratch (capacity ``sq_size + 1``, the dict's transient
  overfull state);
* **issue port map** — an open-addressed hash (counts, 0 = empty) sized to
  load factor ≤ ½, replacing the defaultdict;
* **L2 / L3** — dense per-set way counts + tag rows; the tag rows are
  pooled garbage-tolerant scratch (a set's count says how many of its ways
  are live), so session setup writes only the *occupied* sets.

``ReplayMismatchError`` surfaces as a nonzero return code with the
offending PCs parked in the ``err_*`` slots; the wrapper re-raises with the
exact message the python kernels produce.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

from repro.engine.emit.python import render
from repro.engine.ir import (
    Block,
    Guard,
    KernelFeatures,
    L,
    Line,
    Stmt,
    lines,
    lower_kernel,
    stat,
)
from repro.engine.kernels import DYNAMIC_COUNTERS, relevant_flag_mask
from repro.engine.state import TABLE_NAMES, TABLE_SLOT
from repro.uarch.defenses.base import EnginePolicySpec

#: Bumped whenever the argument layout or prelude changes incompatibly —
#: part of the compiled-artifact cache key, so stale ``.so`` files can never
#: be loaded against a new ABI.
C_ABI_VERSION = 6

#: Scalar slots (plain int64 values).  ``history``, ``btb_head`` /
#: ``btb_count``, ``rsb_head`` / ``rsb_len`` and ``res_len`` are read at
#: entry and written back at exit so a session's calls chain; ``err_*`` are
#: written only on a replay mismatch.
_SCALARS = (
    "n",
    "num_regs",
    "flush_interval",
    "history",
    "crypto_pcs_len",
    "btb_head",
    "btb_count",
    "rsb_head",
    "rsb_len",
    "res_len",
    "ib_mask",
    "err_a",
    "err_b",
    "err_c",
)

#: Buffer slots (machine addresses stored as int64).
_POINTERS = (
    # Trace columns (read-only).
    "pcs",
    "npcs",
    "mem",
    "bcs",
    "dst",
    "src0",
    "src1",
    "src2",
    "flags",
    "lat_cls",
    # The point's config table (repro.engine.state.TABLE_FIELDS).
    "table",
    # Per-workload read-only tables.
    "crypto_pcs",  # uint8
    "plan_cls",  # uint8
    "plan_stp",  # dense int64, -1 = absent
    "tgt_off",
    "tgt_len",
    "tgt_data",
    "eid_data",
    "btu_long",  # uint8
    # Mutable state buffers.
    "l1i",
    "l1d",
    "pht",
    "btb_val",
    "btb_fifo",
    "rsb_buf",
    "loop_run",
    "loop_trip",
    "loop_conf",
    "loop_present",  # uint8
    "btu_pos",
    "res_buf",
    "l2_cnt",
    "l2_data",
    "l3_cnt",
    "l3_data",
    # Per-call scratch (zeroed by the kernel at entry where it must be).
    "reg_ready",
    "commit_ring",
    "si_buf",  # 3 * (sq_size + 1): store-queue addresses, completes, commits
    "ib_keys",
    "ib_vals",
)

#: The full argument vector layout, by slot name.
ARG_SLOTS: Tuple[str, ...] = (
    _SCALARS + _POINTERS + tuple("counter_" + name for name in DYNAMIC_COUNTERS)
)
ARG: Dict[str, int] = {name: index for index, name in enumerate(ARG_SLOTS)}

#: Compiler flags the native module passes (part of the artifact cache key).
C_FLAGS: Tuple[str, ...] = ("-O2", "-fPIC", "-shared", "-w")

_PRELUDE = """\
#include <stdint.h>
#include <string.h>

#define PI64(v) ((int64_t *)(intptr_t)(v))
#define PU8(v) ((uint8_t *)(intptr_t)(v))

static int64_t seg_find(const int64_t *buf, int64_t lo, int64_t hi,
                        int64_t needle) {
    int64_t i;
    for (i = lo; i < hi; i++) {
        if (buf[i] == needle) {
            return i;
        }
    }
    return -1;
}
"""

_INDENT = "    "


def c_kernel_source(
    spec: EnginePolicySpec,
    flush_active: bool,
    icache_resident: bool = False,
    dcache_resident: bool = False,
    collect_stats: bool = True,
) -> str:
    """The complete C translation unit for one kernel shape.

    Rendered by the python emitter's line renderer: the lowered C tree is
    plain lines and blocks, exactly like the python one.
    """
    features = KernelFeatures.derive(
        spec,
        flush_active,
        icache_resident=icache_resident,
        dcache_resident=dcache_resident,
        collect_stats=collect_stats,
    )
    return _PRELUDE + "\n" + render(
        lower_kernel(build_c_kernel_ir(spec), features)
    )


def source_digest(source: str) -> str:
    """Content digest of one generated translation unit (ABI-versioned)."""
    h = hashlib.sha256()
    h.update(f"c-kernel-abi-{C_ABI_VERSION}\n".encode())
    h.update(source.encode())
    return h.hexdigest()


# --------------------------------------------------------------------------- #
# The C kernel tree
# --------------------------------------------------------------------------- #
def _a(name: str) -> str:
    """The argument-vector access expression for one slot."""
    return f"a[{ARG[name]}]"


def build_c_kernel_ir(spec: EnginePolicySpec) -> List[Stmt]:
    """The full native measured-pass tree for one policy spec.

    Mirrors :func:`repro.engine.ir.build_kernel_ir` stage by stage — same
    Guard placement, same config locals bound from the point's config
    table — over the C data-structure mappings described in the module
    docstring.  One build serves all 2⁴ feature points.
    """
    cassandra = spec.kind == "cassandra"
    lite = spec.lite
    traced = cassandra and not lite
    gate_mask = spec.gate_mask
    allow_fwd = spec.allow_store_forwarding
    mg_mask = 1 | gate_mask
    flag_mask = relevant_flag_mask(spec)

    body: List[Stmt] = []

    # ------------------------------ prologue ------------------------------ #
    body.extend(
        lines(
            f"const int64_t n = {_a('n')};",
            f"const int64_t *pcs_col = PI64({_a('pcs')});",
            f"const int64_t *npcs_col = PI64({_a('npcs')});",
            f"const int64_t *mem_col = PI64({_a('mem')});",
            f"const int64_t *bcs_col = PI64({_a('bcs')});",
            f"const int64_t *dst_col = PI64({_a('dst')});",
            f"const int64_t *s0_col = PI64({_a('src0')});",
            f"const int64_t *s1_col = PI64({_a('src1')});",
            f"const int64_t *s2_col = PI64({_a('src2')});",
            f"const int64_t *fl_col = PI64({_a('flags')});",
            f"const int64_t *lc_col = PI64({_a('lat_cls')});",
            f"const int64_t *cfg = PI64({_a('table')});",
        )
    )
    body.extend(
        L(f"const int64_t {name} = cfg[{slot}];")
        for slot, name in enumerate(TABLE_NAMES)
    )
    body.extend(
        lines(
            # The latency classes' five latencies, in class order.
            f"const int64_t *lat_tab = cfg + {TABLE_SLOT['alu_latency']};",
            "const int64_t pht_mask = ((int64_t)1 << pht_bits) - 1;",
            "const int64_t hist_mask = ((int64_t)1 << global_history_bits) - 1;",
            # One slot beyond the store queue: the dict model goes
            # transiently overfull between insert and evict.
            "const int64_t sq_cap = sq_size + 1;",
        )
    )
    body.append(
        Guard(
            "icache_resident",
            (),
            tuple(lines(f"int64_t *l1i = PI64({_a('l1i')});")),
        )
    )
    body.append(
        Guard(
            "dcache_resident",
            (),
            tuple(
                lines(
                    f"int64_t *l1d = PI64({_a('l1d')});",
                    f"int64_t *l2_cnt = PI64({_a('l2_cnt')});",
                    f"int64_t *l2_data = PI64({_a('l2_data')});",
                    f"int64_t *l3_cnt = PI64({_a('l3_cnt')});",
                    f"int64_t *l3_data = PI64({_a('l3_data')});",
                    "int64_t l2_line, l2_set, l2_tag, l3_line, l3_set, l3_tag;",
                    "int64_t sbase, scnt;",
                )
            ),
        )
    )
    body.extend(
        lines(
            f"int64_t *pht = PI64({_a('pht')});",
            f"int64_t history = {_a('history')};",
            f"int64_t *btb_val = PI64({_a('btb_val')});",
            f"int64_t *btb_fifo = PI64({_a('btb_fifo')});",
            f"int64_t btb_head = {_a('btb_head')};",
            f"int64_t btb_count = {_a('btb_count')};",
            f"int64_t *rsb_buf = PI64({_a('rsb_buf')});",
            f"int64_t rsb_head = {_a('rsb_head')};",
            f"int64_t rsb_len = {_a('rsb_len')};",
            f"int64_t *loop_run = PI64({_a('loop_run')});",
            f"int64_t *loop_trip = PI64({_a('loop_trip')});",
            f"int64_t *loop_conf = PI64({_a('loop_conf')});",
            f"uint8_t *loop_present = PU8({_a('loop_present')});",
        )
    )
    if cassandra:
        body.extend(
            lines(
                f"const uint8_t *crypto_pcs = PU8({_a('crypto_pcs')});",
                f"const int64_t crypto_pcs_len = {_a('crypto_pcs_len')};",
                f"const uint8_t *plan_cls = PU8({_a('plan_cls')});",
                "int64_t cls;",
            )
        )
        if not lite:
            body.extend(
                lines(
                    f"const int64_t *plan_stp = PI64({_a('plan_stp')});",
                    "int64_t stp;",
                )
            )
    if traced:
        body.extend(
            lines(
                f"int64_t *btu_pos = PI64({_a('btu_pos')});",
                f"const int64_t *tgt_off = PI64({_a('tgt_off')});",
                f"const int64_t *tgt_len = PI64({_a('tgt_len')});",
                f"const int64_t *tgt_data = PI64({_a('tgt_data')});",
                f"const int64_t *eid_data = PI64({_a('eid_data')});",
                f"const uint8_t *btu_long = PU8({_a('btu_long')});",
                "int64_t pos, extra, tl, tidx, target, eid;",
                f"int64_t *res_buf = PI64({_a('res_buf')});",
                f"int64_t res_len = {_a('res_len')};",
            )
        )
    body.extend(
        lines(
            # Slot -1 is writable scratch: dst == -1 parks there, unread.
            f"int64_t *reg_ready = PI64({_a('reg_ready')}) + 1;",
            f"memset(reg_ready - 1, 0, (size_t)({_a('num_regs')} + 2)"
            " * sizeof(int64_t));",
            # Each instruction's ROB bound is the commit cycle of the one
            # ``rob_size`` back; the ring starts zeroed, so the first
            # ``rob_size`` instructions read a bound of 0, which never binds.
            f"int64_t *commit_ring = PI64({_a('commit_ring')});",
            "memset(commit_ring, 0, (size_t)rob_size * sizeof(int64_t));",
            f"int64_t *ib_keys = PI64({_a('ib_keys')});",
            f"int64_t *ib_vals = PI64({_a('ib_vals')});",
            f"const int64_t ib_mask = {_a('ib_mask')};",
            "memset(ib_vals, 0, (size_t)(ib_mask + 1) * sizeof(int64_t));",
            f"int64_t *si_addr = PI64({_a('si_buf')});",
            "int64_t *si_complete = si_addr + sq_cap;",
            "int64_t *si_commit = si_complete + sq_cap;",
            "int64_t si_head = 0;",
            "int64_t si_len = 0;",
            "int64_t fetch_cycle = 0;",
            "int64_t fetched_this_cycle = 0;",
            "int64_t fetch_not_before = 0;",
            "int64_t last_commit_cycle = 0;",
            "int64_t committed_this_cycle = 0;",
            "int64_t window_resolve_cycle = 0;",
            "int64_t index = 0;",
            # The commit-ring slot: index % rob_size, kept as a wrapping
            # counter so the loop divides nothing.
            "int64_t ri = 0;",
            "int64_t dst, s0, s1, s2, fl, lat;",
            "int64_t pc = 0, npc, bc, ready, t, i, line, seg_end, tag;",
            "int64_t candidate, bound, dispatch_cycle, exec_latency;",
            "int64_t addr, i0, q, k, h;",
            "int64_t issue_cycle, busy, ib_h, complete_cycle, commit_cycle;",
            "int64_t resolve_cycle, predicted, taken, pidx, counter;",
            "int64_t taken_pred, c, lp, redirect, stall_target, d;",
        )
    )
    body.append(
        Guard(
            "flush",
            tuple(
                lines(
                    f"const int64_t btu_flush_interval = {_a('flush_interval')};",
                    "int64_t next_btu_flush = btu_flush_interval;",
                )
            ),
        )
    )
    body.append(Guard("icache_resident", (), (stat("int64_t l1i_miss = 0;"),)))
    body.append(Guard("dcache_resident", (), (stat("int64_t l1d_miss = 0;"),)))
    if allow_fwd:
        body.append(stat("int64_t n_forwards = 0;"))
    else:
        body.append(stat("int64_t n_stl_blocked = 0;"))
    if gate_mask:
        body.append(stat("int64_t n_delayed = 0;", "int64_t delay_cycles = 0;"))
    body.append(
        stat("int64_t squash_cycles = 0;", "int64_t fetch_stall_cycles = 0;")
    )
    body.append(
        stat(
            "int64_t n_cond_mis = 0;",
            "int64_t n_rsb_mis = 0;",
            "int64_t n_ind_mis = 0;",
        )
    )
    if cassandra:
        body.append(stat("int64_t n_integrity = 0;"))
    if traced:
        body.append(
            stat("int64_t n_btu_misses = 0;", "int64_t n_btu_prefetches = 0;")
        )

    # --------------------------- stage builders ---------------------------- #
    def fetch_stage() -> List[Stmt]:
        resident = lines(
            "if (fetch_not_before > fetch_cycle) {",
            "    fetch_cycle = fetch_not_before;",
            "    fetched_this_cycle = 1;",
            "} else if (fetched_this_cycle >= fetch_width) {",
            "    fetch_cycle += 1;",
            "    fetched_this_cycle = 1;",
            "} else {",
            "    fetched_this_cycle += 1;",
            "}",
        )
        full: List[Stmt] = [
            L("pc = pcs_col[index];"),
            L(
                "candidate = fetch_cycle > fetch_not_before"
                " ? fetch_cycle : fetch_not_before;"
            ),
            L("line = (pc * 4) / l1i_line_bytes;"),
            L("seg_end = (line % l1i_num_sets) * l1i_associativity + l1i_associativity;"),
            L("tag = line / l1i_num_sets;"),
            L("i = seg_find(l1i, seg_end - l1i_associativity, seg_end, tag);"),
            L("if (i >= 0) {"),
            L(
                "    memmove(l1i + i, l1i + i + 1,"
                " (size_t)(seg_end - 1 - i) * sizeof(int64_t));"
            ),
            L("    l1i[seg_end - 1] = tag;"),
            L("} else {"),
            Block((stat("l1i_miss += 1;"),), 1),
            L(
                "    memmove(l1i + seg_end - l1i_associativity,"
                " l1i + seg_end - l1i_associativity + 1,"
                " (size_t)(l1i_associativity - 1) * sizeof(int64_t));"
            ),
            L("    l1i[seg_end - 1] = tag;"),
            L("    candidate += l2_latency;"),
            L("}"),
        ]
        full.extend(
            lines(
                "if (candidate > fetch_cycle) {",
                "    fetch_cycle = candidate;",
                "    fetched_this_cycle = 0;",
                "}",
                "if (fetched_this_cycle >= fetch_width) {",
                "    fetch_cycle += 1;",
                "    fetched_this_cycle = 0;",
                "}",
                "fetched_this_cycle += 1;",
            )
        )
        return [Guard("icache_resident", tuple(resident), tuple(full))]

    def dispatch_stage() -> List[Stmt]:
        return lines(
            "ready = fetch_cycle + frontend_depth;",
            "bound = commit_ring[ri];",
            "if (bound > ready) {",
            "    ready = bound;",
            "}",
        )

    def operand_stage() -> List[Stmt]:
        return lines(
            "if (s0 >= 0) {",
            "    t = reg_ready[s0];",
            "    if (t > ready) {",
            "        ready = t;",
            "    }",
            "    if (s1 >= 0) {",
            "        t = reg_ready[s1];",
            "        if (t > ready) {",
            "            ready = t;",
            "        }",
            "        if (s2 >= 0) {",
            "            t = reg_ready[s2];",
            "            if (t > ready) {",
            "                ready = t;",
            "            }",
            "        }",
            "    }",
            "}",
        )

    # ------------------------ cache-model builders -------------------------- #
    def dense_level(level: str, miss: List[Stmt]) -> List[Stmt]:
        """One dense-array cache level; ``miss`` statements run on a miss.

        Same decision tree as the python tier's sparse-dict level: create,
        hit-reorder, shift-install on a full set, or append — all three
        non-hit arms run ``miss``.
        """
        assoc = f"{level}_associativity"
        return [
            L(f"{level}_line = (addr * word_bytes) / {level}_line_bytes;"),
            L(f"{level}_set = {level}_line % {level}_num_sets;"),
            L(f"{level}_tag = {level}_line / {level}_num_sets;"),
            L(f"sbase = {level}_set * {assoc};"),
            L(f"scnt = {level}_cnt[{level}_set];"),
            L("if (scnt == 0) {"),
            L(f"    {level}_cnt[{level}_set] = 1;"),
            L(f"    {level}_data[sbase] = {level}_tag;"),
            Block(tuple(miss), 1),
            L("} else {"),
            L(
                f"    i = seg_find({level}_data, sbase, sbase + scnt,"
                f" {level}_tag);"
            ),
            L("    if (i >= 0) {"),
            L(
                f"        memmove({level}_data + i, {level}_data + i + 1,"
                " (size_t)(sbase + scnt - 1 - i) * sizeof(int64_t));"
            ),
            L(f"        {level}_data[sbase + scnt - 1] = {level}_tag;"),
            L(f"    }} else if (scnt >= {assoc}) {{"),
            L(
                f"        memmove({level}_data + sbase,"
                f" {level}_data + sbase + 1,"
                f" (size_t)({assoc} - 1) * sizeof(int64_t));"
            ),
            L(f"        {level}_data[sbase + {assoc} - 1] = {level}_tag;"),
            Block(tuple(miss), 2),
            L("    } else {"),
            L(f"        {level}_data[sbase + scnt] = {level}_tag;"),
            L(f"        {level}_cnt[{level}_set] = scnt + 1;"),
            Block(tuple(miss), 2),
            L("    }"),
            L("}"),
        ]

    def l2_l3_stage(load: bool) -> List[Stmt]:
        l2_miss: List[Stmt] = []
        if load:
            l2_miss.extend(lines("exec_latency += l3_latency;"))
        l3_miss = lines("exec_latency += memory_latency;") if load else []
        l2_miss.extend(dense_level("l3", l3_miss))
        return dense_level("l2", l2_miss)

    def l1d_stage(load: bool) -> List[Stmt]:
        resident = lines("exec_latency = l1d_latency;") if load else []
        full: List[Stmt] = [
            L("line = (addr * word_bytes) / l1d_line_bytes;"),
            L("seg_end = (line % l1d_num_sets) * l1d_associativity + l1d_associativity;"),
            L("tag = line / l1d_num_sets;"),
            L("i = seg_find(l1d, seg_end - l1d_associativity, seg_end, tag);"),
            L("if (i >= 0) {"),
            L(
                "    memmove(l1d + i, l1d + i + 1,"
                " (size_t)(seg_end - 1 - i) * sizeof(int64_t));"
            ),
            L("    l1d[seg_end - 1] = tag;"),
        ]
        if load:
            full.append(L("    exec_latency = l1d_latency;"))
        full.append(L("} else {"))
        miss_arm: List[Stmt] = [stat("l1d_miss += 1;")]
        miss_arm.extend(
            lines(
                "memmove(l1d + seg_end - l1d_associativity,"
                " l1d + seg_end - l1d_associativity + 1,"
                " (size_t)(l1d_associativity - 1) * sizeof(int64_t));",
                "l1d[seg_end - 1] = tag;",
            )
        )
        if load:
            miss_arm.extend(lines("exec_latency = l1d_latency + l2_latency;"))
        miss_arm.extend(l2_l3_stage(load))
        full.append(Block(tuple(miss_arm), 1))
        full.append(L("}"))
        return [Guard("dcache_resident", tuple(resident), tuple(full))]

    def si_scan() -> List[Stmt]:
        """Linear store-queue probe for ``addr``: slot in ``q``, -1 absent."""
        return lines(
            "q = -1;",
            "for (k = 0; k < si_len; k++) {",
            "    h = si_head + k;",
            "    if (h >= sq_cap) {",
            "        h -= sq_cap;",
            "    }",
            "    if (si_addr[h] == addr) {",
            "        q = h;",
            "        break;",
            "    }",
            "}",
        )

    # --------------------------- pipeline stages ----------------------------- #
    def mem_gate_stage() -> List[Stmt]:
        out: List[Stmt] = [L(f"if (fl & {mg_mask}) {{")]
        inner: List[Stmt] = [L("if (fl & 1) {")]
        load_body: List[Stmt] = [L("addr = mem_col[index];")]
        load_body.extend(si_scan())
        load_body.extend(
            lines(
                "if (q >= 0 && si_commit[q] <= dispatch_cycle) {",
                "    q = -1;",
                "}",
            )
        )
        if allow_fwd:
            load_body.append(L("if (q >= 0) {"))
            fwd_arm: List[Stmt] = [stat("n_forwards += 1;")]
            fwd_arm.extend(
                lines(
                    "t = si_complete[q];",
                    "if (t > ready) {",
                    "    ready = t;",
                    "}",
                    "exec_latency = store_forward_latency;",
                )
            )
            load_body.append(Block(tuple(fwd_arm), 1))
            load_body.append(L("} else {"))
            load_body.append(Block(tuple(l1d_stage(load=True)), 1))
            load_body.append(L("}"))
        else:
            load_body.append(L("if (q >= 0) {"))
            stl_arm: List[Stmt] = [stat("n_stl_blocked += 1;")]
            stl_arm.extend(
                lines(
                    "t = si_commit[q];",
                    "if (t > ready) {",
                    "    ready = t;",
                    "}",
                )
            )
            load_body.append(Block(tuple(stl_arm), 1))
            load_body.append(L("}"))
            load_body.extend(l1d_stage(load=True))
        inner.append(Block(tuple(load_body), 1))
        inner.append(L("}"))
        if gate_mask:
            inner.append(
                L(f"if ((fl & {gate_mask}) && window_resolve_cycle > ready) {{")
            )
            gate_arm: List[Stmt] = [
                stat(
                    "n_delayed += 1;",
                    "delay_cycles += window_resolve_cycle - ready;",
                )
            ]
            gate_arm.extend(lines("ready = window_resolve_cycle;"))
            inner.append(Block(tuple(gate_arm), 1))
            inner.append(L("}"))
        out.append(Block(tuple(inner), 1))
        out.append(L("}"))
        return out

    def issue_commit_stage(latency: str) -> List[Stmt]:
        """Issue bandwidth, register write-back, and commit bandwidth.

        The python tier's ``issue_busy`` defaultdict becomes an open-addressed
        hash over ``ib_keys``/``ib_vals`` (count 0 ⇔ key absent, so the probe
        needs no tombstones and the per-call reset is one memset).
        """
        probe = (
            "ib_h = issue_cycle & ib_mask;",
            "while (ib_vals[ib_h] && ib_keys[ib_h] != issue_cycle) {",
            "    ib_h = (ib_h + 1) & ib_mask;",
            "}",
            "busy = ib_vals[ib_h];",
        )
        return lines(
            "issue_cycle = ready;",
            *probe,
            "while (busy >= issue_width) {",
            "    issue_cycle += 1;",
            *("    " + text for text in probe),
            "}",
            "ib_keys[ib_h] = issue_cycle;",
            "ib_vals[ib_h] = busy + 1;",
            f"complete_cycle = issue_cycle + {latency};",
            "reg_ready[dst] = complete_cycle;",
            "commit_cycle = complete_cycle + 1;",
            "if (commit_cycle > last_commit_cycle) {",
            "    last_commit_cycle = commit_cycle;",
            "    committed_this_cycle = 1;",
            "} else if (committed_this_cycle >= commit_width) {",
            "    last_commit_cycle = commit_cycle = last_commit_cycle + 1;",
            "    committed_this_cycle = 1;",
            "} else {",
            "    commit_cycle = last_commit_cycle;",
            "    committed_this_cycle += 1;",
            "}",
            "commit_ring[ri] = commit_cycle;",
            "ri += 1;",
            "if (ri == rob_size) {",
            "    ri = 0;",
            "}",
            "index += 1;",
        )

    def store_stage() -> List[Stmt]:
        """Store install + store-queue update under a single F_STORE test.

        The dict model updates an existing key in place (keeping its
        insertion position) and evicts the oldest key when overfull; the ring
        reproduces both: found → overwrite the slot, absent → append at the
        tail and advance the head past the oldest entry when over capacity.
        """
        inner: List[Stmt] = [L("addr = mem_col[i0];")]
        inner.extend(l1d_stage(load=False))
        inner.extend(si_scan())
        inner.extend(
            lines(
                "if (q >= 0) {",
                "    si_complete[q] = complete_cycle;",
                "    si_commit[q] = commit_cycle;",
                "} else {",
                "    h = si_head + si_len;",
                "    if (h >= sq_cap) {",
                "        h -= sq_cap;",
                "    }",
                "    si_addr[h] = addr;",
                "    si_complete[h] = complete_cycle;",
                "    si_commit[h] = commit_cycle;",
                "    si_len += 1;",
                "    if (si_len > sq_size) {",
                "        si_head += 1;",
                "        if (si_head >= sq_cap) {",
                "            si_head -= sq_cap;",
                "        }",
                "        si_len -= 1;",
                "    }",
                "}",
            )
        )
        return [L("if (fl & 2) {"), Block(tuple(inner), 1), L("}")]

    def btb_train() -> List[Stmt]:
        """``btb[pc] = npc`` over the dense value array + insertion ring.

        The dict evicts its oldest *current* key only when inserting a new
        one; the FIFO ring tracks exactly the live keys in insertion order
        (an overwrite of a present key moves nothing, matching dicts).
        """
        return lines(
            "if (btb_val[pc] < 0) {",
            "    if (btb_count >= btb_entries) {",
            "        btb_val[btb_fifo[btb_head]] = -1;",
            "        btb_head += 1;",
            "        if (btb_head >= btb_entries) {",
            "            btb_head -= btb_entries;",
            "        }",
            "        btb_count -= 1;",
            "    }",
            "    h = btb_head + btb_count;",
            "    if (h >= btb_entries) {",
            "        h -= btb_entries;",
            "    }",
            "    btb_fifo[h] = pc;",
            "    btb_count += 1;",
            "}",
            "btb_val[pc] = npc;",
        )

    def rsb_push() -> List[Stmt]:
        return lines(
            "if (rsb_len >= rsb_entries) {",
            "    rsb_head += 1;",
            "    if (rsb_head >= rsb_entries) {",
            "        rsb_head -= rsb_entries;",
            "    }",
            "    rsb_len -= 1;",
            "}",
            "h = rsb_head + rsb_len;",
            "if (h >= rsb_entries) {",
            "    h -= rsb_entries;",
            "}",
            "rsb_buf[h] = pc + 1;",
            "rsb_len += 1;",
        )

    def bpu_flow() -> List[Stmt]:
        """Inline BPU predict+update (flat state); leaves ``predicted``."""
        out: List[Stmt] = [L("taken = fl & 64;")]  # F_TAKEN
        # B_COND — by far the most frequent class.
        out.extend(
            lines(
                "if (bc == 1) {",
                "    pidx = (pc ^ history) & pht_mask;",
                "    counter = pht[pidx];",
                "    lp = loop_present[pc];",
                "    if (lp && loop_conf[pc] >= 2 && loop_trip[pc] >= 0) {",
                "        taken_pred = loop_run[pc] >= loop_trip[pc];",
                "    } else {",
                "        taken_pred = counter >= 2;",
                "    }",
                "    if (taken_pred) {",
                "        predicted = btb_val[pc];",
                "        if (predicted < 0) {",
                "            predicted = pc + 1;",
                "        }",
                "    } else {",
                "        predicted = pc + 1;",
                "    }",
                # The reference updates the PHT, then the history, then the
                # loop entry; both taken arms preserve that order.
                "    if (!lp) {",
                "        loop_present[pc] = 1;",
                "        loop_run[pc] = 0;",
                "        loop_trip[pc] = -1;",
                "        loop_conf[pc] = 0;",
                "    }",
                "    if (taken) {",
                "        pht[pidx] = counter < 3 ? counter + 1 : 3;",
                "        history = ((history << 1) | 1) & hist_mask;",
                "        if (loop_trip[pc] == loop_run[pc]) {",
                "            c = loop_conf[pc];",
                "            loop_conf[pc] = c < 7 ? c + 1 : 7;",
                "        } else {",
                "            loop_conf[pc] = 0;",
                "            loop_trip[pc] = loop_run[pc];",
                "        }",
                "        loop_run[pc] = 0;",
            )
        )
        out.append(Block(tuple(btb_train()), 2))
        out.extend(
            lines(
                "    } else {",
                "        pht[pidx] = counter > 0 ? counter - 1 : 0;",
                "        history = (history << 1) & hist_mask;",
                "        loop_run[pc] += 1;",
                "    }",
            )
        )
        out.append(
            stat(
                "if (predicted != npc) {",
                "    n_cond_mis += 1;",
                "}",
            )
        )
        # B_JMP / B_CALL — direct targets, always correct.
        out.extend(
            lines(
                "} else if (bc == 2) {",
                "    predicted = npc;",
                "} else if (bc == 3) {",
            )
        )
        out.append(Block(tuple(rsb_push()), 1))
        out.extend(
            lines(
                "    predicted = npc;",
                # B_RET — pop the RSB.
                "} else if (bc == 6) {",
                "    if (rsb_len > 0) {",
                "        rsb_len -= 1;",
                "        h = rsb_head + rsb_len;",
                "        if (h >= rsb_entries) {",
                "            h -= rsb_entries;",
                "        }",
                "        predicted = rsb_buf[h];",
                "    } else {",
                "        predicted = pc + 1;",
                "    }",
            )
        )
        out.append(
            stat(
                "if (predicted != npc) {",
                "    n_rsb_mis += 1;",
                "}",
            )
        )
        # B_CALLI — BTB lookup, RSB push, then BTB training.
        out.extend(
            lines(
                "} else if (bc == 4) {",
                "    predicted = btb_val[pc];",
            )
        )
        out.append(Block(tuple(rsb_push()), 1))
        out.extend(
            lines(
                "    if (predicted < 0) {",
                "        predicted = pc + 1;",
                "    }",
            )
        )
        out.append(Block(tuple(btb_train()), 1))
        out.append(
            stat(
                "if (predicted != npc) {",
                "    n_ind_mis += 1;",
                "}",
            )
        )
        # B_JMPI — BTB lookup + training.
        out.extend(
            lines(
                "} else if (bc == 5) {",
                "    predicted = btb_val[pc];",
                "    if (predicted < 0) {",
                "        predicted = pc + 1;",
                "    }",
            )
        )
        out.append(Block(tuple(btb_train()), 1))
        out.append(
            stat(
                "if (predicted != npc) {",
                "    n_ind_mis += 1;",
                "}",
            )
        )
        out.extend(
            lines(
                "} else {",
                "    predicted = pc + 1;",
                "}",
            )
        )
        return out

    def bpu_outcome() -> List[Stmt]:
        """Mispredict redirect + speculation-window bookkeeping."""
        out: List[Stmt] = lines(
            "if (predicted != npc) {",
            "    redirect = resolve_cycle + mispredict_penalty;",
        )
        out.append(
            stat(
                "    d = redirect - fetch_cycle;",
                "    if (d > 0) {",
                "        squash_cycles += d;",
                "    }",
            )
        )
        out.extend(
            lines(
                "    if (redirect > fetch_not_before) {",
                "        fetch_not_before = redirect;",
                "    }",
                "}",
                "if (resolve_cycle > window_resolve_cycle) {",
                "    window_resolve_cycle = resolve_cycle;",
                "}",
            )
        )
        return out

    def fetch_stall() -> List[Stmt]:
        out: List[Stmt] = [L("stall_target = resolve_cycle + 1;")]
        out.append(
            stat(
                "d = stall_target - fetch_cycle;",
                "if (d > 0) {",
                "    fetch_stall_cycles += d;",
                "}",
            )
        )
        out.extend(
            lines(
                "if (stall_target > fetch_not_before) {",
                "    fetch_not_before = stall_target;",
                "}",
            )
        )
        return out

    def branch_stage() -> List[Stmt]:
        base: List[Stmt] = []
        base.append(
            Guard("icache_resident", tuple(lines("pc = pcs_col[i0];")), ())
        )
        base.extend(
            lines(
                "npc = npcs_col[i0];",
                "bc = bcs_col[i0];",
                "resolve_cycle = complete_cycle;",
            )
        )
        if not cassandra:
            base.extend(bpu_flow())
            base.extend(bpu_outcome())
            return [L("if (fl & 4) {"), Block(tuple(base), 1), L("}")]  # F_BRANCH
        # The fetch-flow class is a static per-PC property, resolved by the
        # batch layer into ``plan_cls``.
        base.extend(
            lines(
                "cls = plan_cls[pc];",
                "if (cls == 0) {",
            )
        )
        bpu_arm: List[Stmt] = list(bpu_flow())
        bpu_arm.append(
            L(
                "if ((predicted < crypto_pcs_len && crypto_pcs[predicted])"
                " || crypto_pcs[npc]) {"
            )
        )
        integrity_arm: List[Stmt] = [stat("n_integrity += 2;")]
        integrity_arm.extend(fetch_stall())
        bpu_arm.append(Block(tuple(integrity_arm), 1))
        bpu_arm.append(L("} else {"))
        bpu_arm.append(Block(tuple(bpu_outcome()), 1))
        bpu_arm.append(L("}"))
        base.append(Block(tuple(bpu_arm), 1))
        base.append(L("} else if (cls == 1) {"))
        if not lite:
            base.append(
                Block(
                    tuple(
                        lines(
                            "stp = plan_stp[pc];",
                            "if (stp >= 0 && stp != npc) {",
                            f"    {_a('err_a')} = pc;",
                            f"    {_a('err_b')} = stp;",
                            f"    {_a('err_c')} = npc;",
                            "    return 1;",
                            "}",
                        )
                    ),
                    1,
                )
            )
        if traced:
            # The residency model over the session-owned LRU buffer.
            base.extend(
                lines(
                    "} else if (cls == 2) {",
                    "    extra = 0;",
                    "    i = seg_find(res_buf, 0, res_len, pc);",
                    "    if (i >= 0) {",
                    "        memmove(res_buf + i, res_buf + i + 1,"
                    " (size_t)(res_len - 1 - i) * sizeof(int64_t));",
                    "        res_buf[res_len - 1] = pc;",
                    "    } else {",
                )
            )
            base.append(Block((stat("n_btu_misses += 1;"),), 2))
            base.append(
                Block(
                    tuple(
                        lines(
                            "extra = btu_miss_latency;",
                            "if (res_len >= btu_entries) {",
                            "    memmove(res_buf, res_buf + 1,"
                            " (size_t)(res_len - 1) * sizeof(int64_t));",
                            "    res_len -= 1;",
                            "}",
                            "res_buf[res_len] = pc;",
                            "res_len += 1;",
                        )
                    ),
                    2,
                )
            )
            base.append(L("    }"))
            base.append(Block(tuple(lines("pos = btu_pos[pc];")), 1))
            replay: List[Stmt] = lines(
                "tl = tgt_len[pc];",
                "tidx = pos % tl;",
                "target = tgt_data[tgt_off[pc] + tidx];",
                "btu_pos[pc] = pos + 1;",
                "if (btu_long[pc]) {",
                "    eid = eid_data[tgt_off[pc] + tidx];",
            )
            replay.append(
                L(
                    "    if (eid >= btu_elements_per_entry"
                    " && eid % btu_elements_per_entry == 0) {"
                )
            )
            replay.append(Block((stat("n_btu_prefetches += 1;"),), 2))
            replay.extend(
                lines(
                    "        extra += btu_prefetch_latency;",
                    "    }",
                    "}",
                    "if (target != npc) {",
                    f"    {_a('err_a')} = pc;",
                    f"    {_a('err_b')} = target;",
                    f"    {_a('err_c')} = npc;",
                    "    return 2;",
                    "}",
                    "if (extra) {",
                    "    t = fetch_cycle + extra;",
                    "    if (t > fetch_not_before) {",
                    "        fetch_not_before = t;",
                    "    }",
                    "}",
                )
            )
            base.append(Block(tuple(replay), 1))
        base.append(L("} else {"))
        base.append(Block(tuple(fetch_stall()), 1))
        base.append(L("}"))
        return [L("if (fl & 4) {"), Block(tuple(base), 1), L("}")]  # F_BRANCH

    # -------------------------- instruction body ---------------------------- #
    def instruction_body() -> List[Stmt]:
        out: List[Stmt] = lines(
            "dst = dst_col[index];",
            "s0 = s0_col[index];",
            "s1 = s1_col[index];",
            "s2 = s2_col[index];",
            f"fl = fl_col[index] & {flag_mask};",
            "lat = lat_tab[lc_col[index]];",
        )
        out.extend(fetch_stage())
        out.extend(dispatch_stage())
        out.append(L("if (fl) {"))
        slow: List[Stmt] = [L("dispatch_cycle = ready;")]
        slow.extend(operand_stage())
        slow.append(L("exec_latency = lat;"))
        slow.extend(mem_gate_stage())
        slow.append(L("i0 = index;"))
        slow.extend(issue_commit_stage("exec_latency"))
        slow.extend(store_stage())
        slow.extend(branch_stage())
        out.append(Block(tuple(slow), 1))
        out.append(L("} else {"))
        fast: List[Stmt] = list(operand_stage())
        fast.extend(issue_commit_stage("lat"))
        out.append(Block(tuple(fast), 1))
        out.append(L("}"))
        out.append(
            Guard(
                "flush",
                tuple(
                    lines(
                        "if (last_commit_cycle >= next_btu_flush) {",
                        "    res_len = 0;",
                        "    next_btu_flush += btu_flush_interval;",
                        "}",
                    )
                ),
            )
        )
        return out

    # ``fl`` is the premasked flags word: zero means "pure ALU work", the
    # fast path.
    body.append(L("while (index < n) {"))
    body.append(Block(tuple(instruction_body()), 1))
    body.append(L("}"))

    # ------------------------------ epilogue -------------------------------- #
    # Session-persistent scalars go back unconditionally so warm passes chain
    # into the measured pass without a Python-side round trip.
    body.extend(
        lines(
            f"{_a('history')} = history;",
            f"{_a('btb_head')} = btb_head;",
            f"{_a('btb_count')} = btb_count;",
            f"{_a('rsb_head')} = rsb_head;",
            f"{_a('rsb_len')} = rsb_len;",
        )
    )
    if traced:
        body.append(L(f"{_a('res_len')} = res_len;"))

    def counter_set(name: str, value: str) -> Line:
        return L(f"{_a('counter_' + name)} = {value};")

    return_block: List[Stmt] = []
    return_block.append(counter_set("cycles", "last_commit_cycle"))
    return_block.append(
        counter_set("store_forwards", "n_forwards" if allow_fwd else "0")
    )
    return_block.append(
        counter_set("stl_blocked", "0" if allow_fwd else "n_stl_blocked")
    )
    return_block.append(
        counter_set("delayed_instructions", "n_delayed" if gate_mask else "0")
    )
    return_block.append(
        counter_set("delay_cycles", "delay_cycles" if gate_mask else "0")
    )
    return_block.append(counter_set("squash_cycles", "squash_cycles"))
    return_block.append(
        counter_set("fetch_stall_cycles", "fetch_stall_cycles")
    )
    return_block.append(
        counter_set(
            "integrity_stall_branches", "n_integrity" if cassandra else "0"
        )
    )
    return_block.append(
        counter_set("btu_misses", "n_btu_misses" if traced else "0")
    )
    return_block.append(
        counter_set("btu_prefetches", "n_btu_prefetches" if traced else "0")
    )
    return_block.append(
        counter_set("bpu_mispredicted", "n_cond_mis + n_rsb_mis + n_ind_mis")
    )
    return_block.append(
        Guard(
            "icache_resident",
            (counter_set("l1i_miss", "0"),),
            (counter_set("l1i_miss", "l1i_miss"),),
        )
    )
    return_block.append(
        Guard(
            "dcache_resident",
            (counter_set("l1d_miss", "0"),),
            (counter_set("l1d_miss", "l1d_miss"),),
        )
    )
    return_block.append(
        counter_set("btu_occupancy", "res_len" if traced else "0")
    )
    body.append(Guard("stats", tuple(return_block)))
    body.append(L("return 0;"))

    return [
        L("int64_t kernel(int64_t *a) {"),
        Block(tuple(body), 1),
        L("}"),
    ]
