"""Shared infrastructure for the ISA crypto kernels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.arch.executor import ExecutionResult, SequentialExecutor
from repro.isa.builder import ProgramBuilder
from repro.isa.program import Program


@dataclass
class KernelProgram:
    """A built kernel plus everything the analyses need to drive it.

    Attributes
    ----------
    name:
        Workload name as it appears in the paper's tables/figures.
    suite:
        ``"bearssl"``, ``"openssl"``, or ``"pqc"``.
    program:
        The ISA program.
    inputs:
        At least two memory-override mappings assigning different
        confidential inputs (Algorithm 2 diffs the traces they induce).
    verify:
        Callback receiving the :class:`ExecutionResult` of a run with
        ``inputs[0]`` and returning True when the kernel's output matches its
        ground-truth model.
    description:
        One-line description of what the kernel computes.
    """

    name: str
    suite: str
    program: Program
    inputs: List[Dict[int, int]]
    verify: Callable[[ExecutionResult], bool]
    description: str = ""

    def run(self, input_index: int = 0, max_steps: int = 5_000_000) -> ExecutionResult:
        """Execute the kernel with one of its registered inputs."""
        executor = SequentialExecutor(max_steps=max_steps)
        return executor.run(self.program, memory_overrides=self.inputs[input_index])

    def check(self) -> bool:
        """Run with the primary input and verify against the model."""
        return self.verify(self.run(0))


# --------------------------------------------------------------------------- #
# Byte/word packing helpers shared by the kernels
# --------------------------------------------------------------------------- #
def bytes_to_words_le(data: bytes, word_bytes: int = 4) -> List[int]:
    """Split bytes into little-endian words (zero padded)."""
    padded = data + b"\x00" * ((-len(data)) % word_bytes)
    return [
        int.from_bytes(padded[i : i + word_bytes], "little")
        for i in range(0, len(padded), word_bytes)
    ]


def bytes_to_words_be(data: bytes, word_bytes: int = 4) -> List[int]:
    """Split bytes into big-endian words (zero padded)."""
    padded = data + b"\x00" * ((-len(data)) % word_bytes)
    return [
        int.from_bytes(padded[i : i + word_bytes], "big")
        for i in range(0, len(padded), word_bytes)
    ]


def words_to_bytes_le(words: Sequence[int], word_bytes: int = 4) -> bytes:
    """Concatenate words little-endian."""
    return b"".join(int(word).to_bytes(word_bytes, "little") for word in words)


def words_to_bytes_be(words: Sequence[int], word_bytes: int = 4) -> bytes:
    """Concatenate words big-endian."""
    return b"".join(int(word).to_bytes(word_bytes, "big") for word in words)


# --------------------------------------------------------------------------- #
# Emitter fragments used by several kernels
# --------------------------------------------------------------------------- #
def emit_mersenne_mulmod(
    b: ProgramBuilder,
    dst: str,
    a: str,
    operand_b: str,
    prime: int,
    prime_bits: int,
    tmp_prefix: str = "mm",
) -> None:
    """Emit ``dst = (a * b) mod prime`` for a Mersenne prime ``2^k - 1``.

    Uses the identity ``x mod (2^k - 1) = (x >> k) + (x & (2^k - 1))`` (twice)
    followed by a constant-time conditional subtraction, so the emitted code
    is branch free.
    """
    hi = b.reg(f"{tmp_prefix}_hi")
    lo = b.reg(f"{tmp_prefix}_lo")
    cond = b.reg(f"{tmp_prefix}_c")
    reduced = b.reg(f"{tmp_prefix}_r")
    b.mul(dst, a, operand_b)
    for _ in range(2):
        b.shr(hi, dst, prime_bits)
        b.and_(lo, dst, prime)
        b.add(dst, hi, lo)
    b.sub(reduced, dst, prime)
    b.cmpge(cond, dst, prime)
    b.csel(dst, cond, reduced, dst)


def emit_mersenne_addmod(
    b: ProgramBuilder, dst: str, a: str, operand_b: str, prime: int, tmp_prefix: str = "am"
) -> None:
    """Emit ``dst = (a + b) mod prime`` branch-free."""
    cond = b.reg(f"{tmp_prefix}_c")
    reduced = b.reg(f"{tmp_prefix}_r")
    b.add(dst, a, operand_b)
    b.sub(reduced, dst, prime)
    b.cmpge(cond, dst, prime)
    b.csel(dst, cond, reduced, dst)


def emit_mersenne_submod(
    b: ProgramBuilder, dst: str, a: str, operand_b: str, prime: int, tmp_prefix: str = "sm"
) -> None:
    """Emit ``dst = (a - b) mod prime`` branch-free (adds the prime first)."""
    cond = b.reg(f"{tmp_prefix}_c")
    reduced = b.reg(f"{tmp_prefix}_r")
    b.add(dst, a, prime)
    b.sub(dst, dst, operand_b)
    b.sub(reduced, dst, prime)
    b.cmpge(cond, dst, prime)
    b.csel(dst, cond, reduced, dst)
