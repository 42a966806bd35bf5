"""Bit-packed hardware trace representation (Figure 4 / Section 5.2).

Three element formats are defined, mirroring the BTU's storage layout:

* **Pattern element** — 12-bit signed target offset (target PC minus branch
  PC) plus an 8-bit repetition count.  Vanilla elements with more than 255
  repetitions are split across multiple pattern elements whose counts sum to
  the original value.
* **Trace element** — 4-bit pattern index and 8-bit pattern size selecting a
  window of the branch's pattern store, a 16-bit pattern counter (the total
  repetitions inside one traversal of the pattern) and a 4-bit trace counter
  (how many times the pattern repeats before the trace advances).
* **Checkpoint element** — the committed replay position used to recover from
  BTU evictions, interrupts, and pipeline squashes.

:func:`build_hardware_trace` converts a :class:`~repro.analysis.kmers.KmersResult`
into this representation and :meth:`HardwareTrace.replay` decompresses it back
to the raw target sequence, which the test-suite uses as the round-trip
correctness criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.kmers import KmersResult, compact_pattern_store
from repro.analysis.vanilla import VanillaElement

PATTERN_OFFSET_BITS = 12
PATTERN_REPS_BITS = 8
TRACE_PATTERN_INDEX_BITS = 4
TRACE_PATTERN_SIZE_BITS = 8
TRACE_PATTERN_COUNTER_BITS = 16
TRACE_COUNTER_BITS = 4

MAX_PATTERN_REPS = (1 << PATTERN_REPS_BITS) - 1
MAX_TRACE_COUNTER = (1 << TRACE_COUNTER_BITS) - 1
MAX_PATTERN_COUNTER = (1 << TRACE_PATTERN_COUNTER_BITS) - 1
MAX_PATTERN_INDEX = (1 << TRACE_PATTERN_INDEX_BITS) - 1

#: Number of elements per BTU entry (Pattern Table / Trace Cache).
BTU_ENTRY_ELEMENTS = 16


@dataclass(frozen=True)
class PatternElement:
    """One element of a branch's pattern store."""

    target_offset: int
    repetitions: int

    def __post_init__(self) -> None:
        if not (1 <= self.repetitions <= MAX_PATTERN_REPS):
            raise ValueError(
                f"pattern element repetitions {self.repetitions} outside 1..{MAX_PATTERN_REPS}"
            )

    @property
    def storage_bits(self) -> int:
        return PATTERN_OFFSET_BITS + PATTERN_REPS_BITS

    def target_pc(self, branch_pc: int) -> int:
        return branch_pc + self.target_offset

    def encode(self) -> int:
        """Pack into an integer (offset in two's complement, then count)."""
        offset = self.target_offset & ((1 << PATTERN_OFFSET_BITS) - 1)
        return (offset << PATTERN_REPS_BITS) | self.repetitions

    @classmethod
    def decode(cls, word: int) -> "PatternElement":
        repetitions = word & ((1 << PATTERN_REPS_BITS) - 1)
        offset = word >> PATTERN_REPS_BITS
        if offset >= 1 << (PATTERN_OFFSET_BITS - 1):
            offset -= 1 << PATTERN_OFFSET_BITS
        return cls(target_offset=offset, repetitions=repetitions)


@dataclass(frozen=True)
class TraceElement:
    """One element of a branch's compressed trace."""

    pattern_index: int
    pattern_size: int
    pattern_counter: int
    trace_counter: int
    end_of_trace: bool = False

    @property
    def storage_bits(self) -> int:
        return (
            TRACE_PATTERN_INDEX_BITS
            + TRACE_PATTERN_SIZE_BITS
            + TRACE_PATTERN_COUNTER_BITS
            + TRACE_COUNTER_BITS
        )

    @classmethod
    def end_marker(cls) -> "TraceElement":
        """The special End-of-Trace marker used to wrap around."""
        return cls(
            pattern_index=0,
            pattern_size=0,
            pattern_counter=0,
            trace_counter=0,
            end_of_trace=True,
        )


@dataclass
class CheckpointElement:
    """Committed replay progress for one branch (Figure 4(c))."""

    trace_index: int = 0
    latest_pattern_counter: int = 0
    latest_trace_counter: int = 0
    original_pattern_counter: int = 0
    original_trace_counter: int = 0

    def copy(self) -> "CheckpointElement":
        return CheckpointElement(
            trace_index=self.trace_index,
            latest_pattern_counter=self.latest_pattern_counter,
            latest_trace_counter=self.latest_trace_counter,
            original_pattern_counter=self.original_pattern_counter,
            original_trace_counter=self.original_trace_counter,
        )


@dataclass
class HardwareTrace:
    """The complete hardware-ready trace of one static branch."""

    branch_pc: int
    pattern_store: List[PatternElement]
    trace_elements: List[TraceElement]
    offset_overflow: bool = False

    @property
    def trace_length(self) -> int:
        """Number of trace elements, excluding the End-of-Trace marker."""
        return sum(1 for element in self.trace_elements if not element.end_of_trace)

    @property
    def is_short_trace(self) -> bool:
        """Whether the trace fits in a single Trace Cache entry (Section 5.2)."""
        return self.trace_length <= BTU_ENTRY_ELEMENTS

    @property
    def storage_bits(self) -> int:
        pattern_bits = sum(element.storage_bits for element in self.pattern_store)
        trace_bits = sum(element.storage_bits for element in self.trace_elements)
        return pattern_bits + trace_bits

    def pattern_window(self, element: TraceElement) -> List[PatternElement]:
        """The pattern-store slice a trace element refers to."""
        return self.pattern_store[
            element.pattern_index : element.pattern_index + element.pattern_size
        ]

    def replay(self, repetitions: int = 1) -> List[int]:
        """Decompress the trace back into target PCs (round-trip check).

        ``repetitions`` replays the whole trace multiple times, mirroring the
        BTU restarting from the beginning after the End-of-Trace marker.
        """
        targets: List[int] = []
        for _ in range(repetitions):
            for element in self.trace_elements:
                if element.end_of_trace:
                    continue
                window = self.pattern_window(element)
                for _trace_iter in range(element.trace_counter):
                    for pattern_element in window:
                        targets.extend(
                            [pattern_element.target_pc(self.branch_pc)]
                            * pattern_element.repetitions
                        )
        return targets


def _split_repetitions(count: int) -> List[int]:
    """Split a repetition count into chunks that fit the 8-bit field."""
    chunks: List[int] = []
    remaining = count
    while remaining > MAX_PATTERN_REPS:
        chunks.append(MAX_PATTERN_REPS)
        remaining -= MAX_PATTERN_REPS
    if remaining > 0:
        chunks.append(remaining)
    return chunks


def _pattern_to_elements(
    pattern: Sequence[VanillaElement], branch_pc: int
) -> Tuple[Tuple[PatternElement, ...], bool]:
    """Convert vanilla elements to pattern elements, splitting large counts."""
    elements: List[PatternElement] = []
    overflow = False
    for vanilla in pattern:
        offset = vanilla.target - branch_pc
        if not (-(1 << (PATTERN_OFFSET_BITS - 1)) <= offset < (1 << (PATTERN_OFFSET_BITS - 1))):
            overflow = True
        for chunk in _split_repetitions(vanilla.count):
            elements.append(PatternElement(target_offset=offset, repetitions=chunk))
    return tuple(elements), overflow


def build_hardware_trace(result: KmersResult) -> HardwareTrace:
    """Lower a k-mers compression result into the BTU's storage format."""
    branch_pc = result.branch_pc
    kmers_trace = result.kmers_trace
    pattern_set = result.pattern_set

    # Convert each pattern to hardware pattern elements.
    hardware_patterns: Dict[int, Tuple[PatternElement, ...]] = {}
    offset_overflow = False
    for symbol, vanilla_elements in pattern_set.items():
        elements, overflow = _pattern_to_elements(vanilla_elements, branch_pc)
        hardware_patterns[symbol] = elements
        offset_overflow = offset_overflow or overflow

    # Compact the pattern store so overlapping patterns share elements.
    ordered_symbols = [symbol for symbol, _count in kmers_trace]
    unique_symbols = sorted(set(ordered_symbols))
    store, windows = compact_pattern_store(
        [hardware_patterns[symbol] for symbol in unique_symbols]
    )
    window_by_symbol = dict(zip(unique_symbols, windows))

    trace_elements: List[TraceElement] = []
    for symbol, count in kmers_trace:
        offset, length = window_by_symbol[symbol]
        pattern_counter = sum(
            element.repetitions for element in store[offset : offset + length]
        )
        pattern_counter = min(pattern_counter, MAX_PATTERN_COUNTER)
        remaining = count
        while remaining > 0:
            chunk = min(remaining, MAX_TRACE_COUNTER)
            trace_elements.append(
                TraceElement(
                    pattern_index=offset,
                    pattern_size=length,
                    pattern_counter=pattern_counter,
                    trace_counter=chunk,
                )
            )
            remaining -= chunk
    trace_elements.append(TraceElement.end_marker())

    return HardwareTrace(
        branch_pc=branch_pc,
        pattern_store=list(store),
        trace_elements=trace_elements,
        offset_overflow=offset_overflow,
    )
