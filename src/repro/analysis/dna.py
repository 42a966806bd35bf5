"""DNA encoding of vanilla traces (step 3 of Figure 1).

The paper maps each distinct vanilla element (a ``target x count`` pair) to a
letter of a DNA-like alphabet so that off-the-shelf k-mers counting tools can
be applied.  Because our k-mers implementation is symbol-agnostic we use an
open-ended integer alphabet: base symbols ``0..n-1`` encode the distinct
vanilla elements, and the compression algorithm mints fresh symbols (the
"unused letters" of Algorithm 1) above that range when it substitutes
patterns.

A printable view using the familiar ``A C G T ...`` letters is provided for
small alphabets, which keeps doctests and reports readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.vanilla import VanillaElement, VanillaTrace

#: Letters used for the printable rendering of small alphabets.
PRINTABLE_ALPHABET = "ACGTUVWXYZBDEFHIJKLMNOPQRS"


@dataclass
class DnaSequence:
    """A symbolic sequence plus the mapping back to vanilla elements.

    Attributes
    ----------
    symbols:
        The encoded sequence; each entry is an integer symbol.
    alphabet:
        Mapping from base symbol to the vanilla element it encodes.
    branch_pc:
        The static branch this sequence belongs to.
    """

    symbols: List[int]
    alphabet: Dict[int, VanillaElement]
    branch_pc: int = -1

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    @property
    def base_alphabet_size(self) -> int:
        return len(self.alphabet)

    def decode(self, symbols: Sequence[int] | None = None) -> List[VanillaElement]:
        """Map symbols back to vanilla elements (base symbols only)."""
        chosen = self.symbols if symbols is None else list(symbols)
        try:
            return [self.alphabet[symbol] for symbol in chosen]
        except KeyError as exc:  # pragma: no cover - defensive
            raise KeyError(
                f"symbol {exc.args[0]} is not part of the base alphabet; "
                "expand compression patterns before decoding"
            ) from exc

    def to_string(self) -> str:
        """Readable rendering; falls back to ``<n>`` tokens for big alphabets."""
        parts = []
        for symbol in self.symbols:
            if symbol < len(PRINTABLE_ALPHABET):
                parts.append(PRINTABLE_ALPHABET[symbol])
            else:
                parts.append(f"<{symbol}>")
        return "".join(parts)


def encode_vanilla_trace(trace: VanillaTrace) -> DnaSequence:
    """Encode a vanilla trace as a DNA-like symbolic sequence.

    Identical ``target x count`` elements map to the same symbol, exactly as
    in the paper's example where ``PC0 x 2 . PC1 x 5 . PC0 x 2 . PC1 x 5 .
    PC2 x 3`` becomes ``ACACG`` (with ``A = PC0 x 2``, ``C = PC1 x 5``,
    ``G = PC2 x 3``).
    """
    mapping: Dict[VanillaElement, int] = {}
    alphabet: Dict[int, VanillaElement] = {}
    symbols: List[int] = []
    for element in trace.elements:
        if element not in mapping:
            symbol = len(mapping)
            mapping[element] = symbol
            alphabet[symbol] = element
        symbols.append(mapping[element])
    return DnaSequence(symbols=symbols, alphabet=alphabet, branch_pc=trace.branch_pc)


def encode_tiled_vanilla_trace(trace: VanillaTrace, copies: int) -> DnaSequence:
    """Encode the vanilla trace of ``copies`` back-to-back runs of ``trace``.

    The result equals ``encode_vanilla_trace`` of the vanilla trace of the
    raw trace repeated ``copies`` times, without building either: the runs
    of ``trace`` are tiled, and when its first and last targets match, the
    last run of one copy and the first run of the next merge into one
    element.  Only that merged element is created; every other element of
    the alphabet is one of ``trace``'s own.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    elements = list(trace.elements)
    if len(elements) == 1:
        only = elements[0]
        head, period, tail = [VanillaElement(only.target, only.count * copies)], [], []
    elif copies > 1 and elements and elements[0].target == elements[-1].target:
        joined = VanillaElement(elements[0].target, elements[-1].count + elements[0].count)
        head, period, tail = elements[:1], elements[1:-1] + [joined], elements[1:]
        copies -= 1
    else:
        head, period, tail = [], elements, []
    mapping: Dict[VanillaElement, int] = {}
    for element in head + period + tail:
        mapping.setdefault(element, len(mapping))

    def encode(part: List[VanillaElement]) -> List[int]:
        return [mapping[element] for element in part]

    return DnaSequence(
        symbols=encode(head) + encode(period) * copies + encode(tail),
        alphabet={symbol: element for element, symbol in mapping.items()},
        branch_pc=trace.branch_pc,
    )
