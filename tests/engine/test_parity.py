"""Golden parity: the batch paths vs the object-based reference loop.

The hard acceptance criterion of the engine layer: ``simulate_batch`` must
reproduce the seed model's cycles / IPC / statistic counters **bit-for-bit**
for every (workload × policy × flush-interval) of the quick suite.  The
legacy side here is driven exclusively through
:meth:`CoreModel.run_reference` — the original per-``DynamicInstruction``
loop — with per-policy warm-up passes, exactly like the seed ``simulate()``.

Every batch-driven test runs on the python tier (``REPRO_ENGINE_TIER=python``),
the generated kernels every other tier falls back to, so they stay pinned to
the golden model directly.
"""

from dataclasses import replace

import pytest

from repro.api import SimulationRequest, SimulationService
from repro.engine import native
from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.kernels import TIER_ENV
from repro.experiments.runner import DESIGN_BUILDERS, QUICK_WORKLOADS, prepare_workload
from repro.uarch.config import BtuConfig, CacheConfig, CoreConfig
from repro.uarch.core import CoreModel

ALL_DESIGNS = tuple(DESIGN_BUILDERS)


@pytest.fixture(autouse=True, params=["kernels"])
def engine_path(request, monkeypatch):
    """Pin the batch paths to the generated python kernels."""
    monkeypatch.setenv(TIER_ENV, "python")
    return request.param


@pytest.fixture(scope="module")
def quick_artifacts():
    return {name: prepare_workload(name) for name in QUICK_WORKLOADS}


def legacy_simulate(art, design, config=None, flush=None, warmup_passes=1):
    """The seed per-point path: reference loop, per-policy warm-up."""
    kwargs = {"config": config} if config is not None else {}
    core = CoreModel(
        policy=DESIGN_BUILDERS[design](art.bundle),
        bundle=art.bundle,
        btu_flush_interval=flush,
        **kwargs,
    )
    for _ in range(warmup_passes):
        core.run_reference(art.result.dynamic)
        core.reset_stats()
    simulation = core.run_reference(art.result.dynamic)
    simulation.program_name = art.kernel.program.name
    return simulation


def assert_bit_identical(reference, simulation, label):
    __tracebackhint__ = True
    ref = reference.stats.as_dict()
    got = simulation.stats.as_dict()
    diffs = {key: (ref[key], got[key]) for key in ref if ref[key] != got[key]}
    assert not diffs, f"{label}: engine diverges from reference on {diffs}"
    assert simulation.cycles == reference.cycles, label
    assert simulation.ipc == reference.ipc, label
    assert simulation.policy_name == reference.policy_name, label
    assert simulation.program_name == reference.program_name, label


@pytest.mark.parametrize("name", QUICK_WORKLOADS)
def test_batch_matches_reference_for_every_design(quick_artifacts, name):
    """One batch call per workload covers all seven designs bit-for-bit."""
    art = quick_artifacts[name]
    specs = [
        PointSpec(policy=DESIGN_BUILDERS[design](art.bundle)) for design in ALL_DESIGNS
    ]
    batch_stats = BatchStats()
    simulations = simulate_batch(
        art.result,
        art.bundle,
        specs,
        program_name=art.kernel.program.name,
        batch_stats=batch_stats,
    )
    for design, simulation in zip(ALL_DESIGNS, simulations):
        reference = legacy_simulate(art, design)
        assert_bit_identical(reference, simulation, f"{name}/{design}")
    # Every point ran on the engine; none fell back to the object loop.
    assert batch_stats.fallback_points == 0
    assert batch_stats.measured_passes == len(ALL_DESIGNS)


@pytest.mark.parametrize("flush", [200, 2000])
@pytest.mark.parametrize("name", QUICK_WORKLOADS[:2])
def test_batch_matches_reference_under_btu_flush(quick_artifacts, name, flush):
    """Flush-interval points (cycle-dependent warm-up) stay bit-identical."""
    art = quick_artifacts[name]
    specs = [
        PointSpec(policy=DESIGN_BUILDERS[design](art.bundle), btu_flush_interval=flush)
        for design in ALL_DESIGNS
    ]
    simulations = simulate_batch(
        art.result, art.bundle, specs, program_name=art.kernel.program.name
    )
    for design, simulation in zip(ALL_DESIGNS, simulations):
        reference = legacy_simulate(art, design, flush=flush)
        assert_bit_identical(reference, simulation, f"{name}/{design}/flush={flush}")


@pytest.mark.parametrize("warmups", [0, 2])
def test_batch_matches_reference_for_warmup_counts(quick_artifacts, warmups):
    art = quick_artifacts[QUICK_WORKLOADS[0]]
    specs = [
        PointSpec(policy=DESIGN_BUILDERS[design](art.bundle), warmup_passes=warmups)
        for design in ALL_DESIGNS
    ]
    simulations = simulate_batch(
        art.result, art.bundle, specs, program_name=art.kernel.program.name
    )
    for design, simulation in zip(ALL_DESIGNS, simulations):
        reference = legacy_simulate(art, design, warmup_passes=warmups)
        assert_bit_identical(reference, simulation, f"{design}/warmups={warmups}")


def test_batch_matches_reference_on_non_default_config(quick_artifacts):
    art = quick_artifacts[QUICK_WORKLOADS[0]]
    small = CoreConfig(rob_size=64, fetch_width=4, issue_width=4, commit_width=4)
    specs = [
        PointSpec(policy=DESIGN_BUILDERS[design](art.bundle), config=small)
        for design in ALL_DESIGNS
    ]
    simulations = simulate_batch(
        art.result, art.bundle, specs, program_name=art.kernel.program.name
    )
    for design, simulation in zip(ALL_DESIGNS, simulations):
        reference = legacy_simulate(art, design, config=small)
        assert_bit_identical(reference, simulation, f"{design}/small-config")


#: A config with no power of two in anything a kernel computes with — set
#: counts, line sizes, the word size, ROB, store queue, predictor and BTU
#: sizing — and caches small enough that every level evicts.  Kernels read
#: all of it from the point's config table.
ODD_CONFIG = CoreConfig(
    fetch_width=3,
    issue_width=3,
    commit_width=5,
    rob_size=37,
    sq_size=5,
    frontend_depth=7,
    mispredict_penalty=11,
    store_forward_latency=3,
    alu_latency=2,
    mul_latency=5,
    div_latency=13,
    store_latency=3,
    branch_resolve_latency=2,
    pht_bits=7,
    global_history_bits=5,
    btb_entries=11,
    rsb_entries=3,
    word_bytes=12,
    l1i=CacheConfig(5 * 24 * 3, 24, 3, 5, name="L1I"),
    l1d=CacheConfig(3 * 40 * 3, 40, 3, 4, name="L1D"),
    l2=CacheConfig(7 * 40 * 5, 40, 5, 13, name="L2"),
    l3=CacheConfig(11 * 40 * 7, 40, 7, 31, name="L3"),
    memory_latency=97,
    btu=BtuConfig(entries=3, elements_per_entry=5, miss_latency=17, prefetch_latency=3),
)


#: ROB sizes ``scale * n + offset`` around a short trace's length ``n``
#: (Poly1305_ctmul, 685 instructions): the bound binds at every instruction
#: (1), at the last one only (n-1), or never (n, n+1, 2n).  Kernels run one
#: loop whose zeroed commit ring makes the first ``rob_size`` bounds 0.
ROB_BOUNDARY = {"1": (0, 1), "n-1": (1, -1), "n": (1, 0), "n+1": (1, 1), "2n": (2, 0)}


@pytest.mark.parametrize(
    "tier, flush, rob",
    [
        pytest.param(tier, flush, None, id=f"{tier}-{flush}")
        for tier, flush in (("python", None), ("python", 300), ("native", 300))
    ]
    + [
        pytest.param(tier, None, rob, id=f"{tier}-rob={rob}")
        for tier in ("python", "native")
        for rob in ROB_BOUNDARY
    ],
)
def test_batch_matches_reference_on_odd_geometry(
    quick_artifacts, monkeypatch, tier, flush, rob
):
    """Both tiers stay exact when no geometry is a power of two, and at
    every ROB size around a trace's length.  (The flush interval only
    reaches the Cassandra kernels, so the native leg compiles the default
    shape of every other design alongside.)"""
    if tier == "native" and not native.compiler_available():
        pytest.skip("no working C toolchain")
    monkeypatch.setenv(TIER_ENV, tier)
    if rob is None:
        art = quick_artifacts[QUICK_WORKLOADS[0]]
        config = ODD_CONFIG
    else:
        art = quick_artifacts["Poly1305_ctmul"]
        scale, offset = ROB_BOUNDARY[rob]
        config = replace(
            ODD_CONFIG, rob_size=scale * art.lowered_trace().n + offset
        )
    specs = [
        PointSpec(
            policy=DESIGN_BUILDERS[design](art.bundle),
            config=config,
            btu_flush_interval=flush,
        )
        for design in ALL_DESIGNS
    ]
    stats = BatchStats()
    simulations = simulate_batch(
        art.result, art.bundle, specs, batch_stats=stats,
        program_name=art.kernel.program.name,
    )
    served = stats.native_points if tier == "native" else stats.kernel_points
    assert served == len(specs)
    for design, simulation in zip(ALL_DESIGNS, simulations):
        reference = legacy_simulate(art, design, config=config, flush=flush)
        assert_bit_identical(
            reference, simulation, f"{design}/odd/{tier}/{flush}/rob={rob}"
        )


def test_artifact_simulate_routes_through_engine_and_matches(quick_artifacts):
    """The WorkloadArtifacts batch, a one-point batch and the service
    return the same bits."""
    art = quick_artifacts[QUICK_WORKLOADS[1]]
    requests = [SimulationRequest(art.name, design) for design in ALL_DESIGNS]
    results = art.simulate_batch(requests)
    assert len(results) == len(requests)
    with SimulationService(names=[art.name], cache=art.cache, backend="serial") as service:
        for request, result in zip(requests, results):
            reference = legacy_simulate(art, request.design)
            assert_bit_identical(reference, result, f"artifact/{request.design}")
            [alone] = art.simulate_batch([request])
            assert_bit_identical(reference, alone, f"alone/{request.design}")
            # The service computes the same bits, then is a cache hit.
            served = service.run(request).get(request)
            assert_bit_identical(reference, served, f"service/{request.design}")
            assert service.run(request).get(request) is served


def test_custom_policy_subclass_falls_back_to_reference(quick_artifacts):
    """A policy without an engine spec must still simulate correctly."""
    from repro.uarch.defenses.unsafe import UnsafeBaseline

    class NoisyBaseline(UnsafeBaseline):
        """Overrides nothing structural, but is not the exact type."""

    art = quick_artifacts[QUICK_WORKLOADS[0]]
    assert NoisyBaseline().engine_spec() is None
    batch_stats = BatchStats()
    simulations = simulate_batch(
        art.result,
        art.bundle,
        [PointSpec(policy=NoisyBaseline())],
        program_name=art.kernel.program.name,
        batch_stats=batch_stats,
    )
    assert batch_stats.fallback_points == 1
    reference = legacy_simulate(art, "unsafe-baseline")
    ref = reference.stats.as_dict()
    got = simulations[0].stats.as_dict()
    assert ref == got
