"""The NumPy columns emitter: one trace walk times a whole config cohort.

The python emitter specializes *per config* and pays CPython's interpreter
loop per (config × instruction).  Sweeps invert the economics: the quick
suite times the same workload under dozens of :class:`CoreConfig` variants
whose traces — and, under the residency proofs, whose warm predictor
contents — are identical.  This emitter walks the trace **once** and keeps
every per-config pipeline scalar as a ``(K,)`` int64 vector (fetch cycle,
ready times, commit bandwidth state, the PHT...), so the marginal cost of
config ``K+1`` is one lane in a NumPy op instead of a full interpreter
pass.  All arithmetic is exact int64 — the parity contract extends the
chain one layer up::

    emit.columns  ≡  emit.python kernels  ≡  run_reference

bit-for-bit (``tests/engine/test_columns_parity.py``).

A cohort is only eligible when the vector walk is provably exact:

* every config holds the I-cache and D-cache residency proofs with at
  least one warm-up pass, so no cache model (and no per-config cache
  state) exists at all;
* no BTU flush interval (flush timing is per-config and clears shared
  residency), and a traced (non-lite Cassandra) spec must hold the BTU
  no-eviction elision proof in every config;
* the BTB never evicts and the RSB never overflows for any config across
  warm-up and measured passes (:func:`btb_update_pcs`,
  :func:`rsb_max_depth`) — then the BTB/RSB/loop-predictor/BTU-position
  state is driven purely by scalar branch outcomes and is *identical
  across the cohort*, so one shared Python structure serves all K lanes;
* one store-queue size across the cohort, so the queue's membership
  sequence — insertion-ordered and timing-independent — can be resolved
  into a per-load candidate store before the walk
  (:func:`store_candidates`).

Everything timing-dependent stays vectorized; everything the proofs make
scalar stays a plain Python structure.  Per-config divergence that
survives (PHT counters and history, issue/commit bandwidth, ROB bounds,
store timing, gate delays, BTU miss/prefetch latencies) is exactly what a
sweep is trying to measure.

NumPy is an optional extra (``pip install repro-cassandra[columns]``):
when it is absent :func:`columns_available` is False and the batch layer
silently stays on python kernels, point by point.

The per-row cost is ~15–25 NumPy ops regardless of K, so the tier only
wins for cohorts big enough to amortize dispatch — the batch layer gates
on ``REPRO_ENGINE_COLUMNS_MIN`` configs (default
:data:`DEFAULT_MIN_COHORT`) and falls back to python kernels below it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.kernels import relevant_flag_mask
from repro.engine.lowering import LoweredTrace
from repro.engine.state import FlatState
from repro.uarch.config import CoreConfig
from repro.uarch.defenses.base import EnginePolicySpec
from repro.uarch.defenses.cassandra import ReplayMismatchError

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

#: Minimum cohort size (distinct configs) for the columns tier to engage.
COLUMNS_MIN_ENV = "REPRO_ENGINE_COLUMNS_MIN"
DEFAULT_MIN_COHORT = 64


def columns_available() -> bool:
    """Whether the columns tier can run at all (NumPy importable)."""
    return _np is not None


# --------------------------------------------------------------------------- #
# Scalar pre-passes: the proofs that make shared state exact
# --------------------------------------------------------------------------- #
def btb_update_pcs(
    trace: LoweredTrace, plan_cls: bytes, cassandra: bool
) -> Set[int]:
    """Every static PC that writes the BTB during a pass.

    Conditional branches train the BTB only when taken; indirect
    calls/jumps always train.  Under a Cassandra-kind spec only class-0
    (non-crypto) branches reach the BPU flow at all.  If this set fits
    ``btb_entries``, the BTB can never evict and its contents are a pure
    function of the scalar outcome stream — identical for every config.
    """
    pcs, flags, bcs = trace.pcs, trace.flags, trace.bclass
    update: Set[int] = set()
    for i, fl in enumerate(flags):
        if not fl & 4:  # F_BRANCH
            continue
        pc = pcs[i]
        if cassandra and plan_cls[pc] != 0:
            continue
        bc = bcs[i]
        if bc in (4, 5) or (bc == 1 and fl & 64):  # B_CALLI/B_JMPI, taken B_COND
            update.add(pc)
    return update


def rsb_max_depth(
    trace: LoweredTrace, plan_cls: bytes, cassandra: bool, runs: int
) -> int:
    """Peak RSB depth over ``runs`` consecutive passes of the trace.

    The RSB persists across warm-up passes, so unmatched calls accumulate;
    simulating exactly the passes that will run bounds the true peak.  If
    it never exceeds ``rsb_entries``, the overflow drop is dead code and
    the RSB contents are scalar-identical across configs.
    """
    pcs, flags, bcs = trace.pcs, trace.flags, trace.bclass
    events: List[int] = []  # +1 push, -1 pop
    for i, fl in enumerate(flags):
        if not fl & 4:
            continue
        if cassandra and plan_cls[pcs[i]] != 0:
            continue
        bc = bcs[i]
        if bc in (3, 4):  # B_CALL / B_CALLI push a return address
            events.append(1)
        elif bc == 6:  # B_RET pops (a pop on empty predicts pc + 1)
            events.append(-1)
    depth = peak = 0
    for _ in range(max(runs, 1)):
        for ev in events:
            if ev > 0:
                depth += 1
                if depth > peak:
                    peak = depth
            elif depth:
                depth -= 1
    return peak


def store_candidates(
    trace: LoweredTrace, sq_size: int
) -> Tuple[Dict[int, int], Set[int]]:
    """Resolve each load's in-flight-store candidate before the walk.

    The store queue is an insertion-ordered dict: a store re-assigning an
    existing address keeps its queue position, and overflow evicts the
    oldest *insertion*.  Membership therefore depends only on the scalar
    store sequence and ``sq_size`` — never on timing — so each load row
    maps to at most one candidate store row; only the timing test
    (``commit > dispatch``) remains per-config at run time.  Returns the
    load→store map and the set of store rows some load can observe.
    """
    mem, flags = trace.mem, trace.flags
    queue: Dict[int, int] = {}  # addr -> most recent store row, insertion-ordered
    cand: Dict[int, int] = {}
    needed: Set[int] = set()
    for i, fl in enumerate(flags):
        if fl & 1:  # F_LOAD
            row = queue.get(mem[i], -1)
            if row >= 0:
                cand[i] = row
                needed.add(row)
        elif fl & 2:  # F_STORE
            addr = mem[i]
            if addr in queue:
                queue[addr] = i
            else:
                queue[addr] = i
                if len(queue) > sq_size:
                    del queue[next(iter(queue))]
    return cand, needed


# --------------------------------------------------------------------------- #
# The vectorized walk
# --------------------------------------------------------------------------- #
def run_cohort(
    trace: LoweredTrace,
    spec: EnginePolicySpec,
    configs: Sequence[CoreConfig],
    states: Sequence[FlatState],
    crypto_pcs: bytes,
    plan_cls: bytes,
    plan_stp: Dict[int, int],
) -> List[Dict[str, int]]:
    """One trace walk over K warmed configs; per-config kernel counters.

    ``states`` are the per-config warmed :class:`FlatState`s (the same
    ones the python kernels would start from).  The scalar-shared
    structures (BTB, RSB, loop predictor, BTU positions) are taken from
    ``states[0]`` — the caller's eligibility proofs guarantee they are
    identical across the cohort.  Returns one dict per config matching
    the generated kernels' return contract exactly.
    """
    if _np is None:  # pragma: no cover - guarded by columns_available()
        raise RuntimeError("NumPy is not available; columns tier cannot run")
    np = _np
    i64 = np.int64

    K = len(configs)
    kar = np.arange(K)
    cassandra = spec.kind == "cassandra"
    lite = spec.lite
    traced = cassandra and not lite
    gate_mask = spec.gate_mask
    allow_fwd = spec.allow_store_forwarding
    mask = relevant_flag_mask(spec)

    def cvec(get) -> "np.ndarray":
        return np.fromiter((get(c) for c in configs), dtype=i64, count=K)

    fw_vec = cvec(lambda c: c.fetch_width)
    fd_vec = cvec(lambda c: c.frontend_depth)
    iw_vec = cvec(lambda c: c.issue_width)
    cw_vec = cvec(lambda c: c.commit_width)
    rob_vec = cvec(lambda c: c.rob_size)
    pht_mask = cvec(lambda c: (1 << c.pht_bits) - 1)
    hist_mask = cvec(lambda c: (1 << c.global_history_bits) - 1)
    sfl_vec = cvec(lambda c: c.store_forward_latency)
    pen_vec = cvec(lambda c: c.mispredict_penalty)
    l1d_lat = cvec(lambda c: c.l1d.latency)
    if traced:
        miss_lat = cvec(lambda c: c.btu.miss_latency)
        pf_lat = cvec(lambda c: c.btu.prefetch_latency)
        epe_vec = cvec(lambda c: c.btu.elements_per_entry)

    # Resolved latencies: one (K,) row per latency class, indexed per row.
    lat_rows = [
        cvec(lambda c, j=j: (
            c.alu_latency,
            c.mul_latency,
            c.div_latency,
            c.store_latency,
            c.branch_resolve_latency,
        )[j])
        for j in range(5)
    ]

    # ----------------------- per-config vector state ----------------------- #
    max_pht = max(len(s.pht) for s in states)
    pht = np.zeros((K, max_pht), dtype=i64)
    for k, s in enumerate(states):
        pht[k, : len(s.pht)] = s.pht
    history = np.fromiter((s.history for s in states), dtype=i64, count=K)

    reg_ready = np.zeros((trace.num_regs + 1, K), dtype=i64)
    max_rob = int(rob_vec.max())
    ring = np.zeros((K, max_rob), dtype=i64)
    slot = np.zeros(K, dtype=i64)  # index % rob, maintained incrementally
    fc = np.zeros(K, dtype=i64)  # fetch_cycle
    ftc = np.zeros(K, dtype=i64)  # fetched_this_cycle
    fnb = np.zeros(K, dtype=i64)  # fetch_not_before
    lc = np.zeros(K, dtype=i64)  # last_commit_cycle
    ctc = np.zeros(K, dtype=i64)  # committed_this_cycle
    wrc = np.zeros(K, dtype=i64)  # window_resolve_cycle
    busy_cap = 4096
    busy = np.zeros((K, busy_cap), dtype=i64)

    # Dynamic counters, one lane per config.
    nf = np.zeros(K, dtype=i64)  # store forwards
    nstl = np.zeros(K, dtype=i64)  # STL blocked
    nd = np.zeros(K, dtype=i64)  # gate-delayed instructions
    dcyc = np.zeros(K, dtype=i64)  # gate delay cycles
    sq = np.zeros(K, dtype=i64)  # squash cycles
    fsc = np.zeros(K, dtype=i64)  # fetch stall cycles
    ni = np.zeros(K, dtype=i64)  # integrity stall branches
    nbm = np.zeros(K, dtype=i64)  # BTU misses
    nbp = np.zeros(K, dtype=i64)  # BTU prefetches
    ncm = np.zeros(K, dtype=i64)  # conditional mispredicts
    nrm = np.zeros(K, dtype=i64)  # return mispredicts
    nim = np.zeros(K, dtype=i64)  # indirect mispredicts

    # -------------------- scalar (proof-shared) state ---------------------- #
    btb = dict(states[0].btb)
    rsb = list(states[0].rsb)
    loops = {pc: list(row) for pc, row in states[0].loops.items()}
    btb_get = btb.get
    loops_get = loops.get
    if traced:
        btu_pos = dict(states[0].btu_pos)
        btu_targets = states[0].btu_targets
        btu_eids = states[0].btu_eids
        btu_long = states[0].btu_long

    crypto_arr = (
        np.frombuffer(crypto_pcs, dtype=np.uint8) if cassandra else None
    )
    cplen = len(crypto_pcs)

    cand, needed_rows = store_candidates(trace, configs[0].sq_size)
    cand_get = cand.get
    store_vals: Dict[int, Tuple["np.ndarray", "np.ndarray"]] = {}

    # Hot columns as locals.
    pcs_col = trace.pcs
    npcs_col = trace.next_pcs
    bcs_col = trace.bclass
    mem_col = trace.mem
    lat_cls = trace.lat_class
    dst_col = trace.dst
    s0_col = trace.src0
    s1_col = trace.src1
    s2_col = trace.src2
    fl_col = [f & mask for f in trace.flags]

    maximum = np.maximum
    where = np.where

    def issue_commit(ready: "np.ndarray", lat: "np.ndarray", dst: int):
        """Issue-bandwidth probe + commit bandwidth; returns (complete, commit)."""
        nonlocal lc, ctc, slot, busy, busy_cap
        icyc = ready.copy()
        while True:
            hi = int(icyc.max())
            if hi >= busy_cap:
                grow = max(busy_cap, hi + 1 - busy_cap)
                busy = np.concatenate(
                    [busy, np.zeros((K, grow), dtype=i64)], axis=1
                )
                busy_cap += grow
            b = busy[kar, icyc]
            over = b >= iw_vec
            if not over.any():
                break
            icyc += over
        busy[kar, icyc] = b + 1
        complete = icyc + lat
        reg_ready[dst] = complete
        commit = complete + 1
        gt = commit > lc
        bump = (~gt) & (ctc >= cw_vec)
        lc = where(gt, commit, lc + bump)
        ctc = where(gt | bump, 1, ctc + 1)
        # In every arm the final commit cycle equals the updated
        # last_commit_cycle (greater: it set it; bandwidth bump: it was
        # advanced to it; else: it shares it).
        ring[kar, slot] = lc
        slot += 1
        slot[slot == rob_vec] = 0
        return complete, lc

    def merge_operands(ready: "np.ndarray", s0: int, s1: int, s2: int) -> None:
        if s0 >= 0:
            maximum(ready, reg_ready[s0], out=ready)
            if s1 >= 0:
                maximum(ready, reg_ready[s1], out=ready)
                if s2 >= 0:
                    maximum(ready, reg_ready[s2], out=ready)

    def fetch_stall_all(resolve: "np.ndarray") -> None:
        nonlocal fsc
        stall = resolve + 1
        d = stall - fc
        fsc += maximum(d, 0)
        maximum(fnb, stall, out=fnb)

    def bpu_outcome(pred, npc: int, resolve: "np.ndarray") -> None:
        """Mispredict redirect + speculation window (unmasked variant)."""
        nonlocal sq, fnb
        if isinstance(pred, int):
            if pred != npc:
                redirect = resolve + pen_vec
                sq += maximum(redirect - fc, 0)
                maximum(fnb, redirect, out=fnb)
        else:
            mis = pred != npc
            if mis.any():
                redirect = resolve + pen_vec
                d = redirect - fc
                sq += where(mis & (d > 0), d, 0)
                fnb = where(mis, maximum(fnb, redirect), fnb)
        maximum(wrc, resolve, out=wrc)

    def bpu_flow(pc: int, npc: int, bc: int, taken: int):
        """Inline BPU predict+update; returns ``predicted`` (int or (K,))."""
        nonlocal history, ncm, nrm, nim
        if bc == 1:  # B_COND
            pidx = (pc ^ history) & pht_mask
            counter = pht[kar, pidx]
            loop = loops_get(pc)
            if loop is not None and loop[2] >= 2 and loop[1] >= 0:
                # Loop-predictor override: pure scalar state, one prediction
                # for every lane.
                if loop[0] >= loop[1]:
                    tgt = btb_get(pc, -1)
                    pred = tgt if tgt >= 0 else pc + 1
                else:
                    pred = pc + 1
            else:
                tgt = btb_get(pc, -1)
                tgt = tgt if tgt >= 0 else pc + 1
                pred = where(counter >= 2, tgt, pc + 1)
            if loop is None:
                loop = loops[pc] = [0, -1, 0]
            if taken:
                pht[kar, pidx] = np.minimum(counter + 1, 3)
                history = ((history << 1) | 1) & hist_mask
                if loop[1] == loop[0]:
                    c = loop[2]
                    loop[2] = c + 1 if c < 7 else 7
                else:
                    loop[2] = 0
                    loop[1] = loop[0]
                loop[0] = 0
                btb[pc] = npc  # no-eviction proof: the capacity drop is dead
            else:
                pht[kar, pidx] = maximum(counter - 1, 0)
                history = (history << 1) & hist_mask
                loop[0] += 1
            ncm += pred != npc
            return pred
        if bc == 2:  # B_JMP
            return npc
        if bc == 3:  # B_CALL (no-overflow proof: the RSB drop is dead)
            rsb.append(pc + 1)
            return npc
        if bc == 6:  # B_RET
            pred = rsb.pop() if rsb else pc + 1
            nrm += pred != npc
            return pred
        if bc == 4:  # B_CALLI
            tgt = btb_get(pc, -1)
            rsb.append(pc + 1)
            pred = tgt if tgt >= 0 else pc + 1
            btb[pc] = npc
            nim += pred != npc
            return pred
        if bc == 5:  # B_JMPI
            tgt = btb_get(pc, -1)
            pred = tgt if tgt >= 0 else pc + 1
            btb[pc] = npc
            nim += pred != npc
            return pred
        return pc + 1

    def integrity_split(pred, npc: int, resolve: "np.ndarray") -> None:
        """Cassandra class-0 epilogue: integrity stall vs normal outcome.

        The stall decision reads the *predicted* PC, which is per-lane when
        the PHT decides — so the two arms can both be live, masked.  The
        speculation window only advances in the non-stall arm.
        """
        nonlocal ni, fsc, sq, fnb, wrc
        npc_crypto = bool(crypto_arr[npc])
        if isinstance(pred, int):
            if npc_crypto or (pred < cplen and crypto_arr[pred]):
                ni += 2
                fetch_stall_all(resolve)
            else:
                bpu_outcome(pred, npc, resolve)
            return
        if npc_crypto:
            ni += 2
            fetch_stall_all(resolve)
            return
        inr = pred < cplen
        ist = (crypto_arr[where(inr, pred, 0)] != 0) & inr
        if not ist.any():
            bpu_outcome(pred, npc, resolve)
            return
        ni += 2 * ist
        stall = resolve + 1
        d = stall - fc
        fsc += where(ist & (d > 0), d, 0)
        fnb = where(ist, maximum(fnb, stall), fnb)
        not_ist = ~ist
        mis = (pred != npc) & not_ist
        if mis.any():
            redirect = resolve + pen_vec
            d2 = redirect - fc
            sq += where(mis & (d2 > 0), d2, 0)
            fnb = where(mis, maximum(fnb, redirect), fnb)
        wrc = where(not_ist, maximum(wrc, resolve), wrc)

    # ------------------------------ the walk ------------------------------- #
    for index in range(trace.n):
        # Fetch (residency-proved: pure width bookkeeping).
        m1 = fnb > fc
        m2 = (~m1) & (ftc >= fw_vec)
        fc = where(m1, fnb, fc + m2)
        ftc = where(m1 | m2, 1, ftc + 1)
        # Dispatch: frontend depth, bounded by ROB occupancy (untouched ring
        # slots read 0, which reproduces the kernels' unbounded head loop).
        ready = fc + fd_vec
        maximum(ready, ring[kar, slot], out=ready)

        fl = fl_col[index]
        if fl:
            dispatch_cycle = ready.copy() if fl & 1 else None
            merge_operands(ready, s0_col[index], s1_col[index], s2_col[index])
            if fl & 1:  # F_LOAD (residency-proved L1D)
                row = cand_get(index, -1)
                if row < 0:
                    exec_lat = l1d_lat
                else:
                    s_complete, s_commit = store_vals[row]
                    infl = s_commit > dispatch_cycle
                    if allow_fwd:
                        nf += infl
                        ready = where(infl, maximum(ready, s_complete), ready)
                        exec_lat = where(infl, sfl_vec, l1d_lat)
                    else:
                        nstl += infl
                        ready = where(infl, maximum(ready, s_commit), ready)
                        exec_lat = l1d_lat
            else:
                exec_lat = lat_rows[lat_cls[index]]
            if gate_mask and fl & gate_mask:
                g = wrc > ready
                nd += g
                dcyc += (wrc - ready) * g
                maximum(ready, wrc, out=ready)
            complete, commit = issue_commit(ready, exec_lat, dst_col[index])
            if fl & 2 and index in needed_rows:  # F_STORE a later load can see
                store_vals[index] = (complete, commit)
            if fl & 4:  # F_BRANCH
                pc = pcs_col[index]
                npc = npcs_col[index]
                bc = bcs_col[index]
                resolve = complete
                if not cassandra:
                    pred = bpu_flow(pc, npc, bc, fl & 64)
                    bpu_outcome(pred, npc, resolve)
                else:
                    cls = plan_cls[pc]
                    if cls == 0:
                        pred = bpu_flow(pc, npc, bc, fl & 64)
                        integrity_split(pred, npc, resolve)
                    elif cls == 1:
                        if not lite:
                            stp = plan_stp.get(pc)
                            if stp is not None and stp != npc:
                                raise ReplayMismatchError(
                                    "single-target hint for PC %d points at %r "
                                    "but execution went to %d" % (pc, stp, npc)
                                )
                    elif cls == 2:
                        # Traced replay under the no-eviction elision: a miss
                        # is exactly "first lookup" and the miss event is
                        # scalar; only its latency cost is per-config.
                        pos = btu_pos[pc]
                        extra = None
                        if not pos:
                            nbm += 1
                            extra = miss_lat
                        targets = btu_targets[pc]
                        tidx = pos % len(targets)
                        target = targets[tidx]
                        btu_pos[pc] = pos + 1
                        if btu_long[pc]:
                            eid = btu_eids[pc][tidx]
                            pfm = (eid >= epe_vec) & (eid % epe_vec == 0)
                            if pfm.any():
                                nbp += pfm
                                bump = pf_lat * pfm
                                extra = bump if extra is None else extra + bump
                        if target != npc:
                            raise ReplayMismatchError(
                                "BTU replay for PC %d produced target %d but "
                                "the sequential execution went to %d"
                                % (pc, target, npc)
                            )
                        if extra is not None:
                            em = extra > 0
                            fnb = where(em, maximum(fnb, fc + extra), fnb)
                    else:  # cls == 3: secret-dependent fetch stall
                        fetch_stall_all(resolve)
        else:
            # Pure ALU fast path: operands + issue/commit only.
            merge_operands(ready, s0_col[index], s1_col[index], s2_col[index])
            issue_commit(ready, lat_rows[lat_cls[index]], dst_col[index])

    for k, s in enumerate(states):
        s.history = int(history[k])

    if traced:
        occupancy = sum(1 for v in btu_pos.values() if v)
    bpu_mis = ncm + nrm + nim
    results: List[Dict[str, int]] = []
    for k in range(K):
        results.append(
            {
                "cycles": int(lc[k]),
                "store_forwards": int(nf[k]) if allow_fwd else 0,
                "stl_blocked": 0 if allow_fwd else int(nstl[k]),
                "delayed_instructions": int(nd[k]) if gate_mask else 0,
                "delay_cycles": int(dcyc[k]) if gate_mask else 0,
                "squash_cycles": int(sq[k]),
                "fetch_stall_cycles": int(fsc[k]),
                "integrity_stall_branches": int(ni[k]) if cassandra else 0,
                "btu_misses": int(nbm[k]) if traced else 0,
                "btu_prefetches": int(nbp[k]) if traced else 0,
                "bpu_mispredicted": int(bpu_mis[k]),
                "l1i_miss": 0,
                "l1d_miss": 0,
                "btu_occupancy": occupancy if traced else 0,
            }
        )
    return results
