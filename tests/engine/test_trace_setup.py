"""Per-trace batch setup: built by the first batch over a trace, kept for
the trace's lifetime, and bounded.

A later batch over the same (trace, bundle) pair restores the kept flat
warm snapshots, proofs, plans and tables instead of rebuilding them; the
per-instruction rows are still rebuilt per batch.  These tests pin that the
reuse is invisible in the results, complete in the work it skips, dropped
with the trace, and bounded past :data:`~repro.engine.warmup.RETAINED_WARM_ENTRIES`.
"""

import gc
import sys
import threading
import weakref
from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.api import ScenarioMatrix, SimulationService
from repro.engine import batch as batch_module
from repro.engine import native
from repro.engine.batch import BatchStats, PointSpec, simulate_batch
from repro.engine.kernels import TIER_ENV
from repro.engine.lowering import LoweredTrace, lower_execution
from repro.engine.warmup import RETAINED_WARM_ENTRIES, WarmStateBuilder, WarmStore
from repro.experiments.runner import DESIGN_BUILDERS, prepare_workload
from repro.uarch.config import CacheConfig, CoreConfig

#: ModPow overflows both L1s here, so a cold batch walks every component.
NON_RESIDENT = CoreConfig(
    l1i=CacheConfig(64, 64, 1, 5, name="L1I"),
    l1d=CacheConfig(16, 8, 1, 5, name="L1D"),
)
DESIGNS = ("unsafe-baseline", "spt", "cassandra", "cassandra-lite")


TIERS = [
    "python",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native.compiler_available(), reason="no working C toolchain"
        ),
    ),
]


@pytest.fixture(autouse=True)
def _python_tier(monkeypatch):
    monkeypatch.setenv(TIER_ENV, "python")


@pytest.fixture(scope="module")
def artifact():
    return prepare_workload("ModPow_i31")


def _fresh_trace(artifact):
    """A copy of the workload's trace that no batch has seen and only the
    caller holds."""
    return LoweredTrace.from_bytes(lower_execution(artifact.result).to_bytes())


def _points(artifact, configs, **kwargs):
    return [
        PointSpec(policy=DESIGN_BUILDERS[design](artifact.bundle), config=config, **kwargs)
        for config in configs
        for design in DESIGNS
    ]


@pytest.mark.parametrize("tier", TIERS)
def test_a_second_batch_over_a_trace_walks_nothing_and_plans_nothing(
    artifact, monkeypatch, tier
):
    monkeypatch.setenv(TIER_ENV, tier)
    trace = _fresh_trace(artifact)
    configs = [replace(NON_RESIDENT, pht_bits=bits) for bits in (14, 12, 10)]
    points = _points(artifact, configs)
    first = BatchStats()
    cold = simulate_batch(None, artifact.bundle, points, trace=trace, batch_stats=first)
    assert first.warmup_component_walks == 1 + 1 + 2 * 3 + 1  # icache dcache bpu btu
    if tier == "native":
        assert first.native_points == len(points), native.last_error

    classified, crypto_tables, native_inputs = [], [], []
    real_classify, real_crypto = batch_module.classify_branch, batch_module.crypto_pc_table
    for name in ("trace_inputs", "replay_inputs"):
        real = getattr(native, name)
        monkeypatch.setattr(
            native, name,
            lambda *args, _name=name, _real=real: native_inputs.append(_name) or _real(*args),
        )

    def counting_classify(*args, **kwargs):
        classified.append(args[0])
        return real_classify(*args, **kwargs)

    def counting_crypto(*args, **kwargs):
        crypto_tables.append(args)
        return real_crypto(*args, **kwargs)

    monkeypatch.setattr(batch_module, "classify_branch", counting_classify)
    monkeypatch.setattr(batch_module, "crypto_pc_table", counting_crypto)
    second = BatchStats()
    warm = simulate_batch(None, artifact.bundle, points, trace=trace, batch_stats=second)
    assert second.warmup_component_walks == 0
    assert classified == [] and crypto_tables == [] and native_inputs == []
    assert second.native_points == first.native_points
    assert [s.as_dict() for s in warm] == [s.as_dict() for s in cold]

    # The kept state holds flat snapshots and proofs only, well inside the cap.
    setup = batch_module._TRACE_SETUPS[id(trace)]
    assert len(setup.warm) <= 12 < RETAINED_WARM_ENTRIES
    assert all(key[1] not in ("seq", "all", "noncrypto", "replay") for key in setup.warm)

    # Another bundle over the same trace does not inherit the first's setup.
    other = BatchStats()
    simulate_batch(None, None, _points(artifact, configs[:1])[:2], trace=trace,
                   batch_stats=other)
    assert other.warmup_component_walks > 0


@pytest.mark.parametrize("tier", TIERS)
def test_the_kept_setup_goes_with_the_trace(artifact, monkeypatch, tier):
    monkeypatch.setenv(TIER_ENV, tier)
    trace = _fresh_trace(artifact)
    key = id(trace)
    simulate_batch(None, artifact.bundle, _points(artifact, [NON_RESIDENT]), trace=trace)
    assert key in batch_module._TRACE_SETUPS
    tables = batch_module._TRACE_SETUPS[key].tables
    kept = [weakref.ref(tables[("native", traced)]) for traced in (False, True)
            if ("native", traced) in tables]
    assert len(kept) == (2 if tier == "native" else 0)
    del trace, tables
    gc.collect()
    assert key not in batch_module._TRACE_SETUPS
    assert all(ref() is None for ref in kept)


def test_kept_warm_entries_are_bounded_least_recently_used_first(artifact):
    trace = _fresh_trace(artifact)
    entries = OrderedDict()

    def proof(index):
        l1i = CacheConfig(64, 64, 1, 5 + index, name="L1I")
        builder = WarmStateBuilder(
            trace, replace(NON_RESIDENT, l1i=l1i), store=WarmStore(trace, None, entries)
        )
        return builder.icache_resident()

    proof(0)
    for index in range(1, RETAINED_WARM_ENTRIES + 10):
        proof(index)
        proof(0)  # a hit keeps the first key the most recently used
    assert len(entries) == RETAINED_WARM_ENTRIES
    kept = {key[1][0].latency - 5 for key in entries}
    assert 0 in kept and 1 not in kept
    assert max(kept) == RETAINED_WARM_ENTRIES + 9


def test_clear_trace_setups_forgets_every_trace(artifact):
    trace = _fresh_trace(artifact)
    simulate_batch(None, artifact.bundle, _points(artifact, [NON_RESIDENT]), trace=trace)
    batch_module.clear_trace_setups()
    stats = BatchStats()
    simulate_batch(
        None, artifact.bundle, _points(artifact, [NON_RESIDENT]), trace=trace,
        batch_stats=stats,
    )
    assert stats.warmup_component_walks > 0


@pytest.mark.parametrize("tier", TIERS)
def test_threads_batching_one_trace_agree_with_a_lone_batch(artifact, monkeypatch, tier):
    """Threads batching one trace share its kept setup while it churns
    past the cap: every result matches a batch that kept nothing."""
    monkeypatch.setenv(TIER_ENV, tier)
    trace = _fresh_trace(artifact)
    # Distinct L1I latencies are distinct warm keys: more than the cap.
    configs = [
        replace(NON_RESIDENT, l1i=CacheConfig(64, 64, 1, 5 + index, name="L1I"))
        for index in range(RETAINED_WARM_ENTRIES + 8)
    ]
    threads_count = 6
    slices = [configs[index::threads_count] for index in range(threads_count)]
    expected = []
    for part in slices:
        batch_module.clear_trace_setups()
        stats = BatchStats()
        sims = simulate_batch(
            None, artifact.bundle, _points(artifact, part), trace=trace, batch_stats=stats
        )
        assert stats.native_points == (len(sims) if tier == "native" else 0)
        expected.append([s.as_dict() for s in sims])
    batch_module.clear_trace_setups()
    got, errors = [None] * threads_count, []

    def work(index):
        try:
            for _ in range(3):
                sims = simulate_batch(
                    None, artifact.bundle, _points(artifact, slices[index]), trace=trace
                )
                got[index] = [s.as_dict() for s in sims]
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert got == expected
    assert len(batch_module._TRACE_SETUPS[id(trace)].warm) <= RETAINED_WARM_ENTRIES


@pytest.mark.parametrize("tier", TIERS)
def test_flush_jobs_on_a_long_lived_service_match_a_fresh_service(tier, monkeypatch):
    """Served jobs with a fresh flush interval each, on one service, answer
    byte-for-byte what a fresh service (nothing kept) answers."""
    monkeypatch.setenv(TIER_ENV, tier)
    workloads = ("ChaCha20_ct", "Poly1305_ctmul")
    designs = ("cassandra", "cassandra+stl", "cassandra-lite", "cassandra+prospect")
    matrices = [
        ScenarioMatrix(workloads=workloads, designs=designs, flush_intervals=(interval,))
        for interval in (None, 700, 1_500, 2_300)
    ]
    served = SimulationService(names=list(workloads), jobs=1, backend="serial")
    try:
        long_lived = [served.run(matrix).to_wire() for matrix in matrices]
    finally:
        served.close()
    for matrix, wire in zip(matrices, long_lived):
        batch_module.clear_trace_setups()
        fresh = SimulationService(names=list(workloads), jobs=1, backend="serial")
        try:
            assert fresh.run(matrix).to_wire() == wire
        finally:
            fresh.close()
