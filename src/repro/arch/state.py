"""Architectural state: registers, memory, call stack, and secrecy taint.

The state object is deliberately simple: registers and memory default to
zero, values are 64-bit words, and a shadow call stack holds return
addresses (the ISA models calls/returns without spilling return addresses to
data memory, which keeps kernels compact while preserving the call/return
control-flow structure the branch analysis cares about).

Secrecy taint is tracked alongside values: a register or memory word is
*secret* when it (transitively) derives from a secret-initialised memory
location and has not been declassified.  The taint is purely an analysis aid
— it never influences architectural results — and is consumed by the
ProSpeCT/SPT defense models and the leakage checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

WORD_MASK = (1 << 64) - 1


@dataclass
class ArchState:
    """Mutable architectural machine state."""

    pc: int = 0
    registers: Dict[str, int] = field(default_factory=dict)
    memory: Dict[int, int] = field(default_factory=dict)
    call_stack: List[int] = field(default_factory=list)
    halted: bool = False
    register_taint: Dict[str, bool] = field(default_factory=dict)
    memory_taint: Dict[int, bool] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Values
    # ------------------------------------------------------------------ #
    def read_reg(self, name: str) -> int:
        """Read a register (uninitialised registers read as zero)."""
        return self.registers.get(name, 0)

    def write_reg(self, name: str, value: int) -> None:
        self.registers[name] = value & WORD_MASK

    def read_mem(self, address: int) -> int:
        """Read a memory word (uninitialised memory reads as zero)."""
        return self.memory.get(address, 0)

    def write_mem(self, address: int, value: int) -> None:
        self.memory[address] = value & WORD_MASK

    # ------------------------------------------------------------------ #
    # Secrecy taint
    # ------------------------------------------------------------------ #
    def reg_is_secret(self, name: str) -> bool:
        return self.register_taint.get(name, False)

    def mem_is_secret(self, address: int) -> bool:
        return self.memory_taint.get(address, False)

    def set_reg_taint(self, name: str, secret: bool) -> None:
        self.register_taint[name] = secret

    def set_mem_taint(self, address: int, secret: bool) -> None:
        self.memory_taint[address] = secret

    def mark_secret_addresses(self, addresses: Iterable[int]) -> None:
        for address in addresses:
            self.memory_taint[address] = True

    # ------------------------------------------------------------------ #
    # Utilities
    # ------------------------------------------------------------------ #
    def copy(self) -> "ArchState":
        """Deep-enough copy for checkpoint/restore in speculative models."""
        return ArchState(
            pc=self.pc,
            registers=dict(self.registers),
            memory=dict(self.memory),
            call_stack=list(self.call_stack),
            halted=self.halted,
            register_taint=dict(self.register_taint),
            memory_taint=dict(self.memory_taint),
        )
