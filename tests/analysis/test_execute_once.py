"""Cold preparation executes each confidential input exactly once."""

from __future__ import annotations

import pytest

from repro.analysis.tracegen import generate_trace_bundle
from repro.arch.executor import ExecutionError, SequentialExecutor
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


@pytest.fixture()
def recorded_flags(monkeypatch):
    """The ``record_dynamic`` setting of every ``SequentialExecutor.run`` call."""
    flags = []
    original = SequentialExecutor.run

    def run(self, program, *args, **kwargs):
        flags.append(self.record_dynamic)
        return original(self, program, *args, **kwargs)

    monkeypatch.setattr(SequentialExecutor, "run", run)
    return flags


def _bundle_facts(bundle):
    hints = bundle.hint_table
    return bundle.branches, list(hints), hints.crypto_ranges, bundle.params


def _record_everything(monkeypatch):
    """Make every executor record, whatever it was built with."""
    original_init = SequentialExecutor.__init__

    def always_record(self, max_steps=5_000_000, record_dynamic=True):
        original_init(self, max_steps=max_steps, record_dynamic=True)

    monkeypatch.setattr(SequentialExecutor, "__init__", always_record)


@pytest.mark.parametrize("primary_supplied", [False, True])
def test_diff_inputs_run_without_records(
    toy_program_parts, recorded_flags, monkeypatch, primary_supplied
):
    program, inputs = _inputs_parts(toy_program_parts)
    key_addr = toy_program_parts[1]
    inputs.append({key_addr: 41, key_addr + 1: 5})
    primary = None
    if primary_supplied:
        primary = SequentialExecutor().run(program, memory_overrides=inputs[0])
    recorded_flags.clear()
    bundle = generate_trace_bundle(program, inputs, primary=primary)
    primary_flags = [] if primary_supplied else [True]
    assert recorded_flags == primary_flags + [False] * (len(inputs) - 1)

    _record_everything(monkeypatch)
    recorded_flags.clear()
    recorded = generate_trace_bundle(program, inputs)
    assert recorded_flags == [True] * len(inputs)
    assert _bundle_facts(bundle) == _bundle_facts(recorded)


def test_registry_bundle_matches_the_all_recorded_path(recorded_flags, monkeypatch):
    kernel = get_workload("ModPow_i31").kernel()
    bundle = generate_trace_bundle(kernel.program, kernel.inputs)
    assert recorded_flags == [True] + [False] * (len(kernel.inputs) - 1)
    _record_everything(monkeypatch)
    recorded = generate_trace_bundle(kernel.program, kernel.inputs)
    assert _bundle_facts(bundle) == _bundle_facts(recorded)


def test_diff_executor_inherits_the_step_limit(toy_program_parts):
    program, inputs = _inputs_parts(toy_program_parts)
    primary = SequentialExecutor().run(program, memory_overrides=inputs[0])
    with pytest.raises(ExecutionError, match="exceeded"):
        generate_trace_bundle(
            program, inputs, primary=primary, executor=SequentialExecutor(max_steps=10)
        )
