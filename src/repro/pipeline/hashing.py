"""Stable content hashing for pipeline cache keys.

The on-disk artifact cache must key on *content*, not object identity:
rebuilding a workload in another process yields new ``Program`` objects that
must map to the same cache entry, while any change to the program (a kernel
edit between repo revisions) must miss.  Everything here therefore hashes
plain-value projections of the inputs, never ``hash()`` (randomized per
process for strings) or ``pickle`` (not canonical across versions).
"""

from __future__ import annotations

import hashlib
import os
from functools import lru_cache
from typing import Mapping, Sequence

import repro
from repro.isa.program import Program


def stable_digest(*parts: object) -> str:
    """SHA-256 over the reprs of ``parts``; first 24 hex chars.

    Every part must have a deterministic ``repr`` (ints, strings, tuples,
    frozen dataclasses of the same).
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(repr(part).encode("utf-8"))
        hasher.update(b"\x1f")
    return hasher.hexdigest()[:24]


def program_fingerprint(program: Program) -> str:
    """Content hash of a program: instructions, data, entry, and regions."""
    instruction_part = tuple(
        (
            instruction.opcode.name,
            instruction.dst,
            instruction.srcs,
            instruction.imm,
            instruction.crypto,
        )
        for instruction in program.instructions
    )
    memory_part = tuple(sorted(program.initial_memory.items()))
    region_part = tuple((region.start, region.end) for region in program.crypto_regions)
    secret_part = tuple(sorted(program.secret_addresses))
    return stable_digest(
        program.name,
        program.entry,
        instruction_part,
        memory_part,
        region_part,
        secret_part,
    )


def inputs_fingerprint(inputs: Sequence[Mapping[int, int]]) -> str:
    """Content hash of the confidential-input set used to diff traces."""
    normalized = tuple(tuple(sorted(mapping.items())) for mapping in inputs)
    return stable_digest(normalized)


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Content hash of the ``repro`` package's own source tree.

    Folded into every artifact digest so that editing the simulator, a
    defense policy, or the Algorithm 2 tracer invalidates the warm disk
    cache instead of silently serving results computed by the old code.
    Deliberately coarse (any ``.py`` edit under ``src/repro`` misses):
    recomputing is cheap and correctness beats cache retention here.
    """
    root = os.path.dirname(os.path.abspath(repro.__file__))
    paths = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(name for name in dirnames if name != "__pycache__")
        paths.extend(
            os.path.join(dirpath, filename)
            for filename in filenames
            if filename.endswith(".py")
        )
    hasher = hashlib.sha256()
    for path in sorted(paths):
        hasher.update(os.path.relpath(path, root).encode("utf-8"))
        with open(path, "rb") as handle:
            hasher.update(handle.read())
    return hasher.hexdigest()[:24]
