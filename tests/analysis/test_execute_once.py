"""Cold preparation executes each confidential input exactly once."""

from __future__ import annotations

import pytest

from repro.analysis.tracegen import generate_trace_bundle
from repro.arch.executor import SequentialExecutor
from repro.crypto.workloads import get_workload
from repro.experiments.runner import artifacts_for_kernel


@pytest.fixture()
def counted_runs(monkeypatch):
    """Count every ``SequentialExecutor.run`` call."""
    calls = []
    original = SequentialExecutor.run

    def run(self, program, *args, **kwargs):
        calls.append(program.name)
        return original(self, program, *args, **kwargs)

    monkeypatch.setattr(SequentialExecutor, "run", run)
    return calls


def test_cold_preparation_runs_each_input_once(counted_runs):
    kernel = get_workload("Poly1305_ctmul").kernel()
    artifacts = artifacts_for_kernel(kernel, suite="bearssl")
    assert len(counted_runs) == len(kernel.inputs)
    assert artifacts.bundle.branches


def _inputs_parts(toy_program_parts):
    program, key_addr, _out = toy_program_parts
    inputs = [{key_addr: 3, key_addr + 1: 9}, {key_addr: 200, key_addr + 1: 77}]
    return program, inputs


def test_supplied_primary_yields_the_same_bundle(toy_program_parts):
    program, inputs = _inputs_parts(toy_program_parts)
    primary = SequentialExecutor().run(program, memory_overrides=inputs[0])
    with_primary = generate_trace_bundle(program, inputs, primary=primary)
    without = generate_trace_bundle(program, inputs)
    assert with_primary.branches == without.branches
    assert list(with_primary.hint_table) == list(without.hint_table)
    assert with_primary.hint_table.crypto_ranges == without.hint_table.crypto_ranges
    assert with_primary.params == without.params


def test_step_a_includes_the_primary_execution(toy_program_parts):
    program, inputs = _inputs_parts(toy_program_parts)
    primary = SequentialExecutor().run(program, memory_overrides=inputs[0])
    primary.seconds = 5.0
    bundle = generate_trace_bundle(program, inputs, primary=primary)
    assert bundle.timings.detect_branches_s >= primary.seconds


def test_primary_of_another_program_is_rejected(toy_program_parts, toy_program):
    program, inputs = _inputs_parts(toy_program_parts)
    assert toy_program is not program
    other = SequentialExecutor().run(toy_program)
    with pytest.raises(ValueError):
        generate_trace_bundle(program, inputs, primary=other)
