"""Generated per-policy-shape measured-pass kernels.

This module is the python tier of the engine's specialization chain::

    kernels.get_kernel()  →  CoreModel.run_reference()

Every kernel is required to be bit-identical to the reference loop, the
golden model.  The reference loop walks the ``DynamicInstruction`` stream
generically — every policy decision a hook call, every cache/BPU/BTU
interaction a method call on the object models.  :func:`get_kernel` instead
**generates Python source** for one kernel *shape* — an
:class:`EnginePolicySpec` plus the feature point below — and
``exec``-compiles it once per process:

* geometry and latency values (set counts, associativities, line sizes,
  widths, predictor sizes, BTU sizing) are runtime data: the prologue binds
  them to locals from the point's config table
  (:attr:`FlatState.table <repro.engine.state.FlatState>`), which costs
  what a literal costs in CPython, so one kernel serves every config;
* dead policy code is dropped at generation time — a no-forwarding policy
  has no forwarding branch, a policy with an empty gate mask has no gate
  test, a BPU-kind policy carries no Cassandra fetch flow or BTU code, a
  lite policy has no trace-replay path, and kernels generated without an
  active BTU-flush interval have no flush check;
* **residency-proved kernels** drop whole model components: when the batch
  layer proves (statically, per workload × geometry — see
  ``WarmStateBuilder.icache_resident`` / ``dcache_resident``) that no cache
  eviction is possible and the point is warmed, the measured pass cannot
  miss, so the L1I and/or L1D+L2+L3 simulation is deleted from the loop and
  the miss counters become analytically zero;
* statistics that are pure trace properties (instruction, load, store,
  branch, crypto-branch counts; the Cassandra per-class branch counts) are
  precomputed once per workload by the batch layer, so the loop accumulates
  only genuinely dynamic counters in local integers;
* the flags column is premasked per policy (:func:`relevant_flag_mask`), so
  pure-ALU instructions — the majority of a crypto trace — take a fast path
  guarded by a single truthiness test;
* the hot structures are the flat-array models of
  :mod:`repro.engine.state` — no per-branch BPU/BTU method calls, the
  Cassandra fetch-flow classification resolved into a flat per-PC plan
  before the run;
* warm-up kernels (``collect_stats=False``) drop the dynamic counters too,
  and always model the caches in full: a cold warm-up pass takes misses,
  and its cycle timing feeds the BTU-flush points that need private warm-up.

The source itself is produced by the kernel IR: the structure and every
specialization decision live in :mod:`repro.engine.ir` as a typed tree plus
explicit transforms, and :mod:`repro.engine.emit.python` renders the
lowered tree (the golden snapshots under ``tests/engine/golden/`` pin it
byte-for-byte, one per shape).  This module remains the compile/cache layer and the home of the shared
batch-facing helpers (branch classification, flag premasks, the dynamic
counter contract).

Compiled kernels are cached per process keyed by the shape: the spec plus
its derived :class:`~repro.engine.ir.KernelFeatures` (flush, residency, BTU
elision, stats).  The ``REPRO_ENGINE_TIER`` environment variable selects
the execution tier (``native`` / ``python`` — see :func:`engine_tier`).
"""

from __future__ import annotations

import collections
import os
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.hints import HintTable
from repro.engine.emit.python import render
from repro.engine.ir import KernelFeatures, build_kernel_ir, lower_kernel
from repro.engine.lowering import F_CRYPTO
from repro.uarch.defenses.base import EnginePolicySpec
from repro.uarch.defenses.cassandra import ReplayMismatchError

#: The execution-tier switch (``native`` / ``python``).
TIER_ENV = "REPRO_ENGINE_TIER"
#: Valid ``REPRO_ENGINE_TIER`` values, fastest first.
ENGINE_TIERS = ("native", "python")


def engine_tier() -> str:
    """The selected execution tier: one of :data:`ENGINE_TIERS`.

    ``REPRO_ENGINE_TIER`` if set — must be one of :data:`ENGINE_TIERS`
    (case/whitespace-insensitive); anything else raises ``ValueError``
    rather than silently running a different tier.  Unset: ``python``,
    the generated kernels of this module, which need nothing beyond the
    standard library.  ``native`` (C kernels compiled per specialization
    point — see :mod:`repro.engine.native`) is opt-in: it needs a working C
    toolchain, and degrades point-by-point onto the python kernels when
    none is found.

    Checked at every ``simulate_batch`` call, so tests (and operators
    bisecting a suspected tier bug) can flip the environment at any point
    without restarting the process.
    """
    raw = os.environ.get(TIER_ENV)
    if raw is not None:
        tier = raw.strip().lower()
        if tier not in ENGINE_TIERS:
            raise ValueError(
                f"{TIER_ENV} must be one of {'/'.join(ENGINE_TIERS)}, got {raw!r}"
            )
        return tier
    return "python"


def crypto_pc_table(hint_table: Optional[HintTable], max_pc: int) -> bytearray:
    """A flat ``pc -> in-crypto-range`` table for the integrity check."""
    table = bytearray(max_pc + 2)
    if hint_table is not None:
        size = len(table)
        for start, end in hint_table.crypto_ranges:
            for pc in range(max(start, 0), min(end, size)):
                table[pc] = 1
    return table


def classify_branch(
    pc: int,
    flags: int,
    crypto_pcs: bytes,
    hint_table: Optional[HintTable],
    btu_targets: Optional[Dict[int, List[int]]],
    lite: bool,
) -> Tuple[int, Optional[int]]:
    """The Section 5.3 fetch-flow selection over flat BTU state.

    Mirrors :meth:`repro.uarch.defenses.cassandra.CassandraPolicy.on_branch`
    with ``btu.has_trace(pc)`` replaced by ``pc in btu_targets`` (the flat
    replay payload holds exactly the branches the object BTU holds states
    for).  The classification is static per PC — it reads only hints and the
    immutable replay payload — which is what lets the batch layer resolve
    it into a flat plan before the run instead of lazily inside it.
    Classes: 0 non-crypto, 1 single-target, 2 traced, 3 fetch-stall.
    """
    if not (flags & F_CRYPTO or crypto_pcs[pc]):
        return 0, None
    hint = hint_table.lookup(pc)  # type: ignore[union-attr]
    if hint is not None and hint.single_target:
        return 1, (None if lite else hint.single_target_pc)
    if not lite and hint is not None and hint.has_trace and pc in btu_targets:  # type: ignore[operator]
        return 2, None
    return 3, None


def relevant_flag_mask(spec: EnginePolicySpec) -> int:
    """The flag bits a kernel generated for ``spec`` can ever read.

    The batch layer premasks the flags column with this once per workload
    (shared by every point with the same mask), so the kernel's dispatch on
    "is there any non-ALU work here?" is a single truthiness test.  Beyond
    F_LOAD/F_STORE/F_BRANCH/F_TAKEN and the gate bits, nothing else is
    consulted at run time — the crypto bit only feeds the static plan and
    the precomputed trace-property counts.
    """
    return 1 | 2 | 4 | 64 | spec.gate_mask  # F_LOAD | F_STORE | F_BRANCH | F_TAKEN


#: The dynamic counters every stats-collecting kernel returns (zeros where
#: specialization removed the code that could increment them).
DYNAMIC_COUNTERS = (
    "cycles",
    "store_forwards",
    "stl_blocked",
    "delayed_instructions",
    "delay_cycles",
    "squash_cycles",
    "fetch_stall_cycles",
    "integrity_stall_branches",
    "btu_misses",
    "btu_prefetches",
    "bpu_mispredicted",
    "l1i_miss",
    "l1d_miss",
    "btu_occupancy",
)


# --------------------------------------------------------------------------- #
# Source generation (IR build → transforms → python emitter)
# --------------------------------------------------------------------------- #
def kernel_source(
    spec: EnginePolicySpec,
    flush_active: bool,
    icache_resident: bool = False,
    dcache_resident: bool = False,
    btu_elide: bool = False,
    collect_stats: bool = True,
) -> str:
    """Render the specialized kernel source for one shape.

    ``icache_resident`` / ``dcache_resident`` may only be set when the batch
    layer holds the corresponding no-eviction proof *and* the point starts
    from warmed state; the generated code then contains no cache model at
    all for that hierarchy.

    The heavy lifting lives in :mod:`repro.engine.ir` (one cached tree per
    spec, specialization as explicit transforms) and
    :mod:`repro.engine.emit.python` (rendering); this function is the
    compatibility surface gluing them together.
    """
    features = KernelFeatures.derive(
        spec,
        flush_active,
        icache_resident=icache_resident,
        dcache_resident=dcache_resident,
        btu_elide=btu_elide,
        collect_stats=collect_stats,
    )
    return render(lower_kernel(build_kernel_ir(spec), features))


# --------------------------------------------------------------------------- #
# Compilation cache
# --------------------------------------------------------------------------- #
_KERNEL_CACHE: Dict[Tuple, Callable] = {}

#: Kernels compiled by this process (monotone; surfaced by the benchmarks).
compile_count = 0


def get_kernel(
    spec: EnginePolicySpec,
    flush_active: bool,
    icache_resident: bool = False,
    dcache_resident: bool = False,
    btu_elide: bool = False,
    collect_stats: bool = True,
) -> Callable:
    """The compiled kernel for one shape; generated at most once.

    ``flush_active`` selects whether the periodic-BTU-flush check is
    compiled in (the interval itself stays a runtime argument, so every
    interval of a sweep shares one kernel); the residency flags select the
    cache-free variants and are only legal under the batch layer's
    no-eviction proofs.  The shape is the spec plus the *derived*
    :class:`KernelFeatures` (a flush asked of an untraced spec is no
    feature of its kernel); the config is not part of it — the kernel
    reads it from ``state.table`` at every call.
    """
    key = (
        spec,
        KernelFeatures.derive(
            spec,
            flush_active,
            icache_resident=icache_resident,
            dcache_resident=dcache_resident,
            btu_elide=btu_elide,
            collect_stats=collect_stats,
        ),
    )
    fn = _KERNEL_CACHE.get(key)
    if fn is None:
        global compile_count
        source = kernel_source(
            spec,
            flush_active,
            icache_resident,
            dcache_resident,
            btu_elide,
            collect_stats,
        )
        namespace = {
            "ReplayMismatchError": ReplayMismatchError,
            "__defaultdict_int": lambda: collections.defaultdict(int),
        }
        exec(
            compile(source, f"<repro-kernel:{spec.kind}>", "exec"),
            namespace,
        )
        fn = namespace["kernel"]
        fn.__repro_source__ = source  # type: ignore[attr-defined]
        _KERNEL_CACHE[key] = fn
        compile_count += 1
    return fn


def clear_kernel_cache() -> None:
    """Drop every compiled kernel, python and native.

    Chains the native tier's kernel memo so bench per-repetition compile
    timing measures the whole pipeline (IR build → transforms → emit →
    compile or load) in both tiers, not a memo hit.
    """
    _KERNEL_CACHE.clear()
    from repro.engine.native import clear_native_memo

    clear_native_memo()
