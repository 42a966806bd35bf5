"""Regression tests for the runner bug fixes.

Covers the three historic defects: the simulation cache key ignoring
``config``/``warmup_passes`` (a config sweep silently returned the first
config's result for every point), ``format_table`` crashing on an empty row
list, and ``geometric_mean`` silently discarding negative inputs.
"""

from dataclasses import replace

import pytest

from repro.api import SimulationRequest, SimulationService, WorkloadRef
from repro.experiments.runner import format_table, geometric_mean
from repro.uarch.config import CoreConfig, GOLDEN_COVE_LIKE


# --------------------------------------------------------------------------- #
# The simulation cache key
# --------------------------------------------------------------------------- #
WORKLOAD = "ChaCha20_ct"
SMALL_CORE = CoreConfig(rob_size=32, fetch_width=2, decode_width=2, issue_width=2, commit_width=2)


@pytest.fixture(scope="module")
def service():
    """Probes and persists every point in its memory-only artifact cache."""
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    yield service
    service.close()


def served(service, design, **fields):
    request = SimulationRequest(WORKLOAD, design, **fields)
    return service.run(request).get(request)


def test_simulate_not_stale_across_configs(service):
    """A non-default CoreConfig must produce its own, config-specific result."""
    default = served(service, "unsafe-baseline")
    small = served(service, "unsafe-baseline", config=SMALL_CORE)
    assert small is not default
    # A 2-wide, 32-entry-ROB core must be substantially slower than the
    # 8-wide Golden-Cove-like default on the same dynamic stream.
    assert small.cycles > default.cycles
    assert small.config == SMALL_CORE
    assert default.config == GOLDEN_COVE_LIKE


def test_simulate_memoizes_per_full_argument_set(service):
    first = served(service, "unsafe-baseline", config=SMALL_CORE)
    again = served(service, "unsafe-baseline", config=SMALL_CORE)
    assert again is first  # memo hit
    cold = served(service, "unsafe-baseline", config=SMALL_CORE, warmup_passes=0)
    assert cold is not first  # warmup participates in the key


def test_simulate_flush_interval_in_key(service):
    plain = served(service, "cassandra")
    flushed = served(service, "cassandra", btu_flush_interval=200)
    assert flushed is not plain
    assert flushed.cycles >= plain.cycles


def test_simulation_key_covers_every_argument():
    base = SimulationRequest(WORKLOAD, "cassandra")
    assert SimulationRequest(WORKLOAD, "cassandra").key() == base.key()
    assert replace(base, design="spt").key() != base.key()
    assert replace(base, config=SMALL_CORE).key() != base.key()
    assert replace(base, btu_flush_interval=100).key() != base.key()
    assert replace(base, warmup_passes=2).key() != base.key()
    # The workload enters the cache digest through its artifacts instead.
    assert replace(base, workload=WorkloadRef.registry("SHA-256")).key() == base.key()


# --------------------------------------------------------------------------- #
# format_table
# --------------------------------------------------------------------------- #
def test_format_table_empty_rows_renders_header():
    text = format_table([], ["workload", "cycles"])
    lines = text.splitlines()
    assert lines[0].split() == ["workload", "cycles"]
    assert lines[1] == "--------  ------"
    assert len(lines) == 2


def test_format_table_rows_align_and_format_floats():
    text = format_table(
        [{"workload": "x", "cycles": 1.23456}, {"workload": "longer-name", "cycles": 2}],
        ["workload", "cycles"],
    )
    lines = text.splitlines()
    assert "1.235" in lines[2]
    assert lines[3].startswith("longer-name")


# --------------------------------------------------------------------------- #
# geometric_mean
# --------------------------------------------------------------------------- #
def test_geometric_mean_rejects_negatives():
    with pytest.raises(ValueError, match="negative"):
        geometric_mean([1.0, -2.0, 4.0])


def test_geometric_mean_skips_zeros_and_handles_empty():
    assert geometric_mean([0.0, 2.0, 8.0]) == pytest.approx(4.0)
    assert geometric_mean([]) == 0.0
    assert geometric_mean([0.0]) == 0.0


def test_geometric_mean_plain_values():
    assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert geometric_mean([3.0]) == pytest.approx(3.0)
