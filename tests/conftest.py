"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.analysis.tracegen import generate_trace_bundle
from repro.arch.executor import SequentialExecutor
from repro.isa.builder import ProgramBuilder


def build_toy_crypto_program(blocks: int = 2, rounds: int = 3):
    """A small constant-time kernel with loops, calls, and returns.

    Mirrors the paper's Toy-AES-2 example: a per-block loop calling an
    encryption routine with a fixed round count.  Returns (program, key
    address, output address).
    """
    b = ProgramBuilder("toy_crypto")
    key_addr = b.alloc_secret("key", [7, 11, 13, 17][:blocks] or [7])
    out_addr = b.alloc("out", blocks)
    with b.crypto():
        with b.function("sbox") as sbox:
            b.xor("q", "q", 0x5A)
            b.add("q", "q", 1)
        with b.function("encrypt") as encrypt:
            i = b.reg("round")
            with b.for_range(i, 0, rounds):
                b.call(sbox)
        block, addr = b.regs("block", "addr")
        with b.for_range(block, 0, blocks):
            b.movi(addr, key_addr)
            b.add(addr, addr, block)
            b.load("q", addr)
            b.call(encrypt)
            b.declassify("q")
            b.movi(addr, out_addr)
            b.add(addr, addr, block)
            b.store("q", addr)
    b.halt()
    return b.build(), key_addr, out_addr


@pytest.fixture(scope="session")
def toy_program():
    program, key_addr, out_addr = build_toy_crypto_program()
    return program


@pytest.fixture(scope="session")
def toy_program_parts():
    return build_toy_crypto_program()


@pytest.fixture(scope="session")
def toy_execution(toy_program):
    return SequentialExecutor().run(toy_program)


@pytest.fixture(scope="session")
def toy_bundle(toy_program_parts):
    program, key_addr, _out = toy_program_parts
    return generate_trace_bundle(program, [{key_addr: 3, key_addr + 1: 9}, {key_addr: 200, key_addr + 1: 77}])


@pytest.fixture(scope="session")
def chacha_artifact():
    """One fast prepared workload, shared by every test that needs artifacts."""
    from repro.experiments.runner import prepare_workload

    return prepare_workload("ChaCha20_ct")


@pytest.fixture(scope="session")
def quick_context():
    """An experiment context over the quick workloads, prepared once per session."""
    from repro.api import SimulationService
    from repro.experiments.runner import QUICK_WORKLOADS

    service = SimulationService(names=QUICK_WORKLOADS)
    yield service.context()
    service.close()


@pytest.fixture()
def artifact_cache(tmp_path):
    """A disk-backed artifact cache rooted in a per-test temp directory."""
    from repro.pipeline import ArtifactCache

    return ArtifactCache(root=str(tmp_path / "artifact-cache"))
