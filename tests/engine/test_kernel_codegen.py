"""Static analysis of the generated kernel sources.

Three layers of pinning beneath the behavioural parity suites:

* **golden snapshots** — seven representative (spec × feature) shapes
  rendered byte-for-byte against checked-in files (regenerate via
  ``PYTHONPATH=src:tests python -m engine.golden_cases`` after an
  *intentional* codegen change);
* **full-product compilability** — every kernel variant across the policy
  family × flush × residency × stats product must parse
  (``ast.parse``) and byte-compile, and basic structural invariants of the
  specialization must hold (dead policy code absent, residency deleting
  cache models, stats variants dropping counters);
* **one unit per shape** — no config value is written into any unit (the
  full-product sweeps check every variant), and a batch over several
  configs compiles what one config compiles.
"""

import ast
import itertools
import re

import pytest

from engine.golden_cases import GOLDEN_CASES, GOLDEN_DIR, render_case
from repro.engine import kernels
from repro.engine.batch import PointSpec, simulate_batch
from repro.engine.kernels import TIER_ENV, kernel_source
from repro.experiments.runner import DESIGN_BUILDERS
from repro.uarch.config import GOLDEN_COVE_LIKE, BtuConfig, CacheConfig, CoreConfig
from repro.uarch.defenses.base import EnginePolicySpec

F_LOAD, F_SECRET, F_LEAK = 1, 16, 32

SPECS = {
    "unsafe": EnginePolicySpec(kind="bpu"),
    "spt": EnginePolicySpec(
        kind="bpu", gate_mask=F_LOAD | F_LEAK, allow_store_forwarding=False
    ),
    "prospect": EnginePolicySpec(kind="bpu", gate_mask=F_SECRET),
    "cassandra": EnginePolicySpec(kind="cassandra"),
    "cassandra-nofwd": EnginePolicySpec(
        kind="cassandra", allow_store_forwarding=False
    ),
    "cassandra-lite": EnginePolicySpec(kind="cassandra", lite=True),
    "cassandra+prospect": EnginePolicySpec(kind="cassandra", gate_mask=F_SECRET),
}

CONFIGS = {
    "golden-cove": GOLDEN_COVE_LIKE,
    "rob-300": CoreConfig(rob_size=300),
    "pht-10b": CoreConfig(pht_bits=10, global_history_bits=10),
    "btu-4x8": CoreConfig(btu=BtuConfig(entries=4, elements_per_entry=8)),
    "l1d-32k-8w": CoreConfig(l1d=CacheConfig(32 * 1024, 64, 8, 5, name="L1D")),
}


#: Config values that must never appear in a unit's source — every config
#: reaches a unit only through ``state.table``.  Each is a ``CONFIGS`` field
#: value (or mask) no kernel uses as a structural literal.
BURNT = re.compile(r"\b(512|300|114|200|1280|30720|4096|1023|16383)\b")


def _variants():
    for sname, spec in SPECS.items():
        for flush, ic, dc, stats in itertools.product((False, True), repeat=4):
            yield sname, spec, flush, ic, dc, stats


def test_every_variant_parses_and_compiles():
    count = 0
    for sname, spec, flush, ic, dc, stats in _variants():
        source = kernel_source(
            spec,
            flush_active=flush,
            icache_resident=ic,
            dcache_resident=dc,
            collect_stats=not stats,
        )
        label = f"{sname} flush={flush} ic={ic} dc={dc}"
        tree = ast.parse(source)
        # Exactly one top-level function named `kernel`.
        assert [n.name for n in tree.body if isinstance(n, ast.FunctionDef)] == [
            "kernel"
        ], label
        compile(source, f"<codegen:{label}>", "exec")
        assert not BURNT.findall(source), label
        count += 1
    # The product is the suite's coverage claim; a silent shrink (e.g. a
    # variant axis wired to a constant) should fail loudly:
    # 7 specs × 16 axis combos.
    assert count == 7 * 16


def configs_batch(execution, bundle, configs, **kwargs):
    """Every design at every config over one program, in one batch."""
    points = [
        PointSpec(policy=build(bundle), config=config)
        for config in configs
        for build in DESIGN_BUILDERS.values()
    ]
    return simulate_batch(execution, bundle, points, **kwargs)


def test_one_python_kernel_per_shape_across_configs(
    toy_execution, toy_bundle, monkeypatch
):
    """A batch over every ``CONFIGS`` entry compiles exactly the kernels a
    batch over one config compiles: the config is not part of a unit."""
    monkeypatch.setenv(TIER_ENV, "python")
    compiled = []
    for configs in ([GOLDEN_COVE_LIKE], list(CONFIGS.values())):
        kernels.clear_kernel_cache()
        before = kernels.compile_count
        configs_batch(toy_execution, toy_bundle, configs)
        compiled.append(kernels.compile_count - before)
    assert compiled[0] > 0
    assert compiled[1] == compiled[0]


@pytest.mark.parametrize("sname", ["unsafe", "spt", "prospect", "cassandra-lite"])
def test_dead_policy_code_is_absent(sname):
    spec = SPECS[sname]
    source = kernel_source(spec, flush_active=False)
    if spec.kind == "bpu":
        for needle in ("plan_cls[", "btu_pos", "n_integrity"):
            assert needle not in source, (sname, needle)
    if spec.lite:
        assert "btu_targets[" not in source
    if not spec.gate_mask:
        assert "window_resolve_cycle > ready" not in source
    if spec.allow_store_forwarding:
        assert "n_stl_blocked" not in source
    else:
        assert "n_forwards" not in source


def test_residency_deletes_cache_models():
    spec = SPECS["unsafe"]
    full = kernel_source(spec, flush_active=False)
    resident = kernel_source(
        spec,
        flush_active=False,
        icache_resident=True,
        dcache_resident=True,
    )
    for needle in ("l1i_index", "l2_sets", "l3_sets", "l1d_index"):
        assert needle in full
        assert needle not in resident
    assert '"l1d_miss": 0' in resident
    assert '"l1i_miss": 0' in resident


def test_warm_variant_drops_dynamic_counters():
    source = kernel_source(SPECS["cassandra"], flush_active=False, collect_stats=False)
    for needle in ("n_cond_mis", "squash_cycles +=", "n_btu_misses"):
        assert needle not in source
    assert "return None" in source


# --------------------------------------------------------------------------- #
# Golden snapshots
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_snapshot(name):
    path = GOLDEN_DIR / f"{name}.py.txt"
    assert path.exists(), (
        f"missing snapshot {path}; regenerate with "
        "PYTHONPATH=src:tests python -m engine.golden_cases"
    )
    assert render_case(name) == path.read_text(), (
        f"kernel codegen drifted for {name!r}; if intentional, regenerate "
        "snapshots with PYTHONPATH=src:tests python -m engine.golden_cases"
    )
