"""The golden-source snapshot cases for the python and C kernel emitters.

Each case names one kernel shape (spec × specialization axes) whose
emitted kernel source is pinned byte-for-byte under ``tests/engine/golden/``
— ``<name>.py.txt`` for the python emitter, ``<name>.c.txt`` for the C
emitter (both emitters lower the same specialized IR point).  A shape's
source does not depend on the config, so no case names one.
The set is chosen so every specialization axis is visible in at least one
snapshot: BPU vs Cassandra vs lite kind, gate masks, forwarding off, an
active flush check, the residency-proved cache-free variants, and the
stats-free warm-up body.

Regenerate after an *intentional* emitter change with::

    PYTHONPATH=src:tests python -m engine.golden_cases

and read the diff — that is the point of the snapshots.
"""

from pathlib import Path

from repro.engine.lowering import F_LEAK, F_LOAD, F_SECRET
from repro.uarch.defenses.base import EnginePolicySpec

#: Directory holding the checked-in snapshot files.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: name -> (spec, kernel_source keyword arguments)
GOLDEN_CASES = {
    "bpu-default": (EnginePolicySpec(kind="bpu"), {}),
    "bpu-gated-nofwd": (
        EnginePolicySpec(
            kind="bpu", gate_mask=F_LOAD | F_LEAK, allow_store_forwarding=False
        ),
        {},
    ),
    "cassandra-default": (EnginePolicySpec(kind="cassandra"), {}),
    "cassandra-flush": (EnginePolicySpec(kind="cassandra"), {"flush_active": True}),
    "cassandra-resident": (
        EnginePolicySpec(kind="cassandra"),
        {"icache_resident": True, "dcache_resident": True},
    ),
    "cassandra-lite-warm": (
        EnginePolicySpec(kind="cassandra", lite=True),
        {"collect_stats": False},
    ),
    "prospect-resident": (
        EnginePolicySpec(kind="bpu", gate_mask=F_SECRET),
        {"icache_resident": True, "dcache_resident": True},
    ),
}


def render_case(name: str) -> str:
    from repro.engine.kernels import kernel_source

    spec, kwargs = GOLDEN_CASES[name]
    kwargs = dict(kwargs)
    flush_active = kwargs.pop("flush_active", False)
    return kernel_source(spec, flush_active, **kwargs)


def render_c_case(name: str) -> str:
    from repro.engine.emit.c import c_kernel_source

    spec, kwargs = GOLDEN_CASES[name]
    kwargs = dict(kwargs)
    flush_active = kwargs.pop("flush_active", False)
    return c_kernel_source(spec, flush_active, **kwargs)


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in GOLDEN_CASES:
        for suffix, render in ((".py.txt", render_case), (".c.txt", render_c_case)):
            path = GOLDEN_DIR / f"{name}{suffix}"
            path.write_text(render(name))
            print(f"wrote {path}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
