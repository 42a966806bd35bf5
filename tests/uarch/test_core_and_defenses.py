"""Integration tests for the timing core and the defense design points."""

import pytest

from repro.analysis.tracegen import generate_trace_bundle
from repro.crypto.workloads import get_workload
from repro.uarch.config import CoreConfig
from repro.uarch.core import CoreModel, simulate
from repro.uarch.defenses import (
    CassandraLitePolicy,
    CassandraPolicy,
    CassandraProspectPolicy,
    ProspectPolicy,
    SptPolicy,
    UnsafeBaseline,
)
from repro.uarch.defenses.base import FetchMechanism


@pytest.fixture(scope="module")
def chacha_artifacts():
    kernel = get_workload("ChaCha20_ct").kernel()
    result = kernel.run(0)
    bundle = generate_trace_bundle(kernel.program, kernel.inputs)
    return kernel, result, bundle


def _run(kernel, result, bundle, policy, **kwargs):
    return simulate(kernel.program, policy=policy, bundle=bundle, result=result, **kwargs)


def test_simulation_produces_consistent_stats(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    sim = _run(kernel, result, bundle, UnsafeBaseline())
    assert sim.stats.instructions == result.instruction_count
    assert sim.cycles > 0
    assert 0 < sim.ipc < 16
    assert sim.stats.branches > 0
    assert sim.stats.loads > 0 and sim.stats.stores > 0


def test_simulation_is_deterministic(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    a = _run(kernel, result, bundle, UnsafeBaseline())
    b = _run(kernel, result, bundle, UnsafeBaseline())
    assert a.cycles == b.cycles


def test_cassandra_never_mispredicts_crypto_branches(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    sim = _run(kernel, result, bundle, CassandraPolicy(bundle))
    # Crypto branches do not touch the BPU at all for this all-crypto kernel.
    assert sim.stats.bpu_predicted == 0
    assert sim.stats.bpu_mispredicted == 0
    assert sim.stats.btu_replayed + sim.stats.single_target_branches + sim.stats.fetch_stall_branches == sim.stats.branches
    assert sim.stats.squash_cycles == 0


def test_cassandra_not_slower_than_baseline_on_chacha(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    baseline = _run(kernel, result, bundle, UnsafeBaseline())
    cassandra = _run(kernel, result, bundle, CassandraPolicy(bundle))
    assert cassandra.cycles <= baseline.cycles


def test_cassandra_lite_slower_than_cassandra(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    cassandra = _run(kernel, result, bundle, CassandraPolicy(bundle))
    lite = _run(kernel, result, bundle, CassandraLitePolicy(bundle))
    assert lite.cycles >= cassandra.cycles
    assert lite.stats.fetch_stall_branches > 0
    assert lite.stats.btu_replayed == 0


def test_spt_and_prospect_not_faster_than_baseline(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    baseline = _run(kernel, result, bundle, UnsafeBaseline())
    spt = _run(kernel, result, bundle, SptPolicy())
    prospect = _run(kernel, result, bundle, ProspectPolicy())
    assert spt.cycles >= baseline.cycles
    assert prospect.cycles >= baseline.cycles


def test_stl_protection_increases_or_preserves_cycles(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    plain = _run(kernel, result, bundle, CassandraPolicy(bundle))
    protected = _run(kernel, result, bundle, CassandraPolicy(bundle, protect_stl=True))
    assert protected.cycles >= plain.cycles
    assert protected.stats.store_forwards == 0


def test_cassandra_prospect_combination_runs(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    sim = _run(kernel, result, bundle, CassandraProspectPolicy(bundle))
    assert sim.policy_name == "cassandra+prospect"
    assert sim.cycles > 0


def test_btu_flush_interval_slows_cassandra_down(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    plain = _run(kernel, result, bundle, CassandraPolicy(bundle))
    flushed = _run(kernel, result, bundle, CassandraPolicy(bundle), btu_flush_interval=200)
    assert flushed.cycles >= plain.cycles
    assert flushed.stats.btu_misses >= plain.stats.btu_misses


def test_policy_requiring_traces_needs_bundle(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    with pytest.raises(ValueError):
        CoreModel(policy=CassandraPolicy(bundle), bundle=None)


def test_input_dependent_branches_stall_under_cassandra():
    kernel = get_workload("kyber512").kernel()
    result = kernel.run(0)
    bundle = generate_trace_bundle(kernel.program, kernel.inputs)
    sim = simulate(kernel.program, policy=CassandraPolicy(bundle), bundle=bundle, result=result)
    assert sim.stats.fetch_stall_branches > 0


def test_warmup_reduces_or_preserves_mispredictions(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    cold = simulate(kernel.program, policy=UnsafeBaseline(), result=result, warmup_passes=0)
    warm = simulate(kernel.program, policy=UnsafeBaseline(), result=result, warmup_passes=1)
    assert warm.stats.bpu_mispredicted <= cold.stats.bpu_mispredicted


def test_smaller_rob_is_not_faster(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    small = simulate(
        kernel.program,
        policy=UnsafeBaseline(),
        result=result,
        config=CoreConfig(rob_size=32),
    )
    large = simulate(kernel.program, policy=UnsafeBaseline(), result=result)
    assert small.cycles >= large.cycles


def test_fetch_mechanism_accounting(chacha_artifacts):
    kernel, result, bundle = chacha_artifacts
    sim = _run(kernel, result, bundle, CassandraPolicy(bundle))
    assert sim.stats.single_target_branches > 0
    assert sim.stats.btu_replayed > 0
    assert FetchMechanism.BTU.value == "btu"


def test_reset_stats_clears_cache_counters(chacha_artifacts):
    """Regression: warm-up accesses must not leak into measured miss rates.

    ``reset_stats`` historically reset the pipeline/BPU/BTU counters but not
    the cache statistics, so ``l1d_miss_rate`` / ``l1i_miss_rate`` aggregated
    every warm-up pass into the measured pass's report.
    """
    kernel, result, bundle = chacha_artifacts
    core = CoreModel(policy=UnsafeBaseline())
    core.run_reference(result.dynamic)
    assert core.caches.l1d.stats.accesses > 0
    assert core.icache.cache.stats.accesses > 0
    core.reset_stats()
    assert core.caches.l1d.stats.accesses == 0
    assert core.caches.l2.stats.accesses == 0
    assert core.caches.l3.stats.accesses == 0
    assert core.icache.cache.stats.accesses == 0

    measured = core.run_reference(result.dynamic)
    # The measured pass's counters cover exactly one pass over the stream.
    assert core.icache.cache.stats.accesses == result.instruction_count
    assert measured.stats.extra["l1i_miss_rate"] == core.icache.cache.stats.miss_rate


def test_measured_miss_rates_exclude_warmup(chacha_artifacts):
    """The warm measured pass must report near-zero miss rates, not the
    warm-up's compulsory misses."""
    kernel, result, bundle = chacha_artifacts
    cold = simulate(kernel.program, policy=UnsafeBaseline(), result=result, warmup_passes=0)
    warm = simulate(kernel.program, policy=UnsafeBaseline(), result=result, warmup_passes=1)
    assert warm.stats.extra["l1d_miss_rate"] <= cold.stats.extra["l1d_miss_rate"]
    assert warm.stats.extra["l1i_miss_rate"] <= cold.stats.extra["l1i_miss_rate"]
    # After one full warm-up pass over a fixed stream the instruction
    # working set is resident: the measured pass misses (almost) never.
    assert warm.stats.extra["l1i_miss_rate"] < cold.stats.extra["l1i_miss_rate"] / 2
