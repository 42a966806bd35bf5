"""``repro.engine`` — the columnar simulation engine and its kernel layer.

This package lowers the timing model onto flat integer columns so that the
policy-independent cost of walking a workload's dynamic instruction stream
is paid once per workload instead of once per simulation point, and then
compiles the measured pass itself per (policy × config).

The specialization chain, fastest to most general — **each layer is
required to be bit-identical to the one below it, and the layer below is
always the golden model**::

    native.get_native_kernel()
        │                  the *native* tier (opt-in): the same specialized
        │                  IR rendered to C (repro.engine.emit.c), compiled
        │                  through the system toolchain into a shared
        │                  object, content-addressed in the artifact cache
        │                  so warm runs never compile; degrades point by
        │                  point onto the python tier when no compiler
        │                  works.
        ▼
    kernels.get_kernel()   the *python* tier: generated
        │                  per-(EnginePolicySpec × CoreConfig) kernels over
        │                  flat-array state, lowered from the typed kernel
        │                  IR (repro.engine.ir) by the python emitter:
        │                  geometry constants inlined, dead policy branches
        │                  dropped, cache models deleted under no-eviction
        │                  residency proofs, trace-property statistics
        │                  precomputed.
        ▼
    CoreModel.run_reference()
                           the seed object-based loop driving the full
                           DefensePolicy hook protocol — the behavioural
                           reference everything above is tested against,
                           and the loop policies without an engine spec
                           run on.

Tier selection: ``REPRO_ENGINE_TIER=native|python``
(:func:`~repro.engine.kernels.engine_tier`; default ``python``;
``native`` falls back per point to the python kernels when no C toolchain
is available).  The measured-pass codegen itself is split into
:mod:`repro.engine.ir` — a typed kernel IR plus the specialization
transforms — and :mod:`repro.engine.emit`, the emitters that retarget it
(``emit.python`` renders kernel source, ``emit.c`` renders C translation
units for :mod:`repro.engine.native`).

Layer tour, bottom to top:

1. :mod:`repro.engine.lowering` — :func:`~repro.engine.lowering.lower_execution`
   turns an :class:`~repro.arch.executor.ExecutionResult` into a
   :class:`~repro.engine.lowering.LoweredTrace`: parallel lists of opcode
   latency classes, renamed register indices, memory word addresses, branch
   classes, and a flag bitmask.  **The lowering is policy- and
   config-independent** — one lowering serves every (policy × config ×
   flush-interval) point of a sweep, it is cacheable on disk as the
   ``lowered-trace`` artifact kind, and
   :meth:`~repro.engine.lowering.LoweredTrace.to_bytes` preserializes it for
   the multiprocessing fan-out (and, eventually, cross-host sharding).
2. :mod:`repro.engine.state` — flat-array models of the
   icache / d-cache hierarchy / BPU / BTU whose snapshot/restore is a
   handful of C-level copies; the object models in :mod:`repro.uarch`
   remain the behavioural source of truth.
3. :mod:`repro.engine.ir` — the typed kernel IR: one
   :func:`~repro.engine.ir.build_kernel_ir` tree per policy family, plus
   the transforms (``specialize`` / ``strip_stats`` / constant folding)
   that burn a (policy spec × config × feature) point into a fully
   resolved tree.  :mod:`repro.engine.emit` holds the emitters over it:
   ``emit.python`` renders the per-point kernel source, ``emit.c`` the
   native tier's C units.
4. :mod:`repro.engine.kernels` — :func:`~repro.engine.kernels.get_kernel`
   lowers the IR through the python emitter and ``exec``-compiles one
   measured-pass kernel per (policy spec × config), cached per process.
   ``REPRO_ENGINE_TIER`` (:func:`~repro.engine.kernels.engine_tier`)
   selects the tier.
5. :mod:`repro.engine.warmup` — component-wise warm-state construction:
   the icache / d-cache / BPU / BTU training effect of an untimed warm-up
   pass is computed by cheap program-order replays, snapshotted once per
   (workload × config), and restored into every policy's measured pass as
   flat arrays.  Its residency proofs (``icache_resident`` /
   ``dcache_resident``) license the kernels' cache-free variants.
6. :mod:`repro.engine.batch` — :func:`~repro.engine.batch.simulate_batch`:
   one call simulates many (policy × config × flush-interval × warm-up)
   points over a shared lowering, shared warm state, and shared
   per-workload kernel inputs (plans, premasked columns, BTU payloads),
   deduplicating points whose specs canonicalize identically — returning
   :class:`~repro.uarch.core.SimulationResult` objects bit-identical to
   :meth:`~repro.uarch.core.CoreModel.run_reference`.
"""

# Only the dependency-free lowering layer is imported eagerly.  The kernel /
# warm-up / batch modules import the unit models from ``repro.uarch``, whose
# own modules import ``repro.engine.lowering`` — an eager import here would
# re-enter the partially-initialized ``repro.uarch`` package and crash, so
# the heavier layers are exposed as lazy (PEP 562) attributes instead.
from repro.engine.lowering import (
    LOWERING_FORMAT_VERSION,
    LoweredTrace,
    lower_dynamic,
    lower_execution,
)

_LAZY_EXPORTS = {
    "WarmStateBuilder": ("repro.engine.warmup", "WarmStateBuilder"),
    "BatchStats": ("repro.engine.batch", "BatchStats"),
    "PointSpec": ("repro.engine.batch", "PointSpec"),
    "simulate_batch": ("repro.engine.batch", "simulate_batch"),
    "FlatState": ("repro.engine.state", "FlatState"),
    "get_kernel": ("repro.engine.kernels", "get_kernel"),
    "kernel_source": ("repro.engine.kernels", "kernel_source"),
    "engine_tier": ("repro.engine.kernels", "engine_tier"),
    "TIER_ENV": ("repro.engine.kernels", "TIER_ENV"),
    "ENGINE_TIERS": ("repro.engine.kernels", "ENGINE_TIERS"),
}

__all__ = [
    "LOWERING_FORMAT_VERSION",
    "LoweredTrace",
    "lower_dynamic",
    "lower_execution",
    *_LAZY_EXPORTS,
]


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
