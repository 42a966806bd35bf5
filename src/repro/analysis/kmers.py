"""k-mers counting and trace compression (Algorithm 1 of the paper).

The compression repeatedly finds the most *covering* repeated k-mer in the
symbolic sequence, records it as a pattern, and substitutes every
(non-overlapping) occurrence with a freshly minted symbol — the equivalent of
the "unused letters" in the paper's DNA formulation.  The loop stops when the
sequence stops shrinking.

The output is the compressed sequence ``K`` plus the pattern set ``P``.  The
paper reports the *k-mers trace size* as the size of the run-length encoded
compressed trace plus the size of its pattern set; :class:`KmersResult`
exposes exactly that metric.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import groupby
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.dna import DnaSequence
from repro.analysis.vanilla import VanillaElement

Symbol = int
Kmer = Tuple[Symbol, ...]


def count_kmers(symbols: Sequence[Symbol], k: int) -> Dict[Kmer, int]:
    """Count non-overlapping occurrences of every k-mer of length ``k``.

    Non-overlapping (left-to-right greedy) counts are used so that a k-mer
    with count > 1 is guaranteed to shrink the sequence when substituted,
    which keeps Algorithm 1's termination argument straightforward.

    One left-to-right pass, O(n) window slices for a sequence of length
    ``n``: each k-mer remembers the index just past its last counted
    occurrence, and a later occurrence counts only if it starts there or
    beyond.  Keys are inserted at their first occurrence, so the dict's
    order is first-occurrence order.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    seq = tuple(symbols)
    counts: Dict[Kmer, int] = {}
    next_free: Dict[Kmer, int] = {}
    for i in range(len(seq) - k + 1):
        kmer = seq[i : i + k]
        if next_free.get(kmer, 0) <= i:
            counts[kmer] = counts.get(kmer, 0) + 1
            next_free[kmer] = i + k
    return counts


def replace_non_overlapping(
    symbols: Sequence[Symbol], kmer: Kmer, replacement: Symbol
) -> List[Symbol]:
    """Replace left-to-right non-overlapping occurrences of ``kmer``."""
    k = len(kmer)
    seq = tuple(symbols)
    out: List[Symbol] = []
    i = 0
    while i < len(seq):
        if i <= len(seq) - k and seq[i : i + k] == kmer:
            out.append(replacement)
            i += k
        else:
            out.append(seq[i])
            i += 1
    return out


@dataclass
class KmersResult:
    """Output of the k-mers compression for one static branch."""

    branch_pc: int
    compressed: List[Symbol]
    patterns: Dict[Symbol, Kmer]
    source: DnaSequence
    iterations: int = 0

    # ------------------------------------------------------------------ #
    # Expansion back to base symbols / vanilla elements
    # ------------------------------------------------------------------ #
    def expand_symbol(self, symbol: Symbol) -> Tuple[Symbol, ...]:
        """Recursively expand a symbol into base-alphabet symbols."""
        if symbol not in self.patterns:
            return (symbol,)
        expanded: List[Symbol] = []
        for child in self.patterns[symbol]:
            expanded.extend(self.expand_symbol(child))
        return tuple(expanded)

    def expand(self) -> List[Symbol]:
        """The fully decompressed base-symbol sequence (must equal the source)."""
        out: List[Symbol] = []
        for symbol in self.compressed:
            out.extend(self.expand_symbol(symbol))
        return out

    def pattern_elements(self, symbol: Symbol) -> List[VanillaElement]:
        """A symbol's expansion as vanilla (``target x count``) elements."""
        return self.source.decode(self.expand_symbol(symbol))

    # ------------------------------------------------------------------ #
    # The paper's size metrics
    # ------------------------------------------------------------------ #
    @property
    def kmers_trace(self) -> List[Tuple[Symbol, int]]:
        """Run-length encoded compressed trace, e.g. ``[(p0, 2), (p1, 1)]``."""
        return [(symbol, len(list(run))) for symbol, run in groupby(self.compressed)]

    @property
    def pattern_set(self) -> Dict[Symbol, List[VanillaElement]]:
        """Vanilla-element expansion of every symbol used by the trace."""
        used = {symbol for symbol, _count in self.kmers_trace}
        return {symbol: self.pattern_elements(symbol) for symbol in sorted(used)}

    @property
    def pattern_set_size(self) -> int:
        """Total number of vanilla elements across the pattern set."""
        return sum(len(elements) for elements in self.pattern_set.values())

    @property
    def trace_size(self) -> int:
        """Number of entries in the run-length encoded compressed trace."""
        return len(self.kmers_trace)

    @property
    def size(self) -> int:
        """The paper's k-mers size: trace size plus pattern-set size."""
        return self.trace_size + self.pattern_set_size

    @property
    def compression_rate(self) -> float:
        """Vanilla size divided by k-mers size (Table 1's ``compression rate``)."""
        if self.size == 0:
            return 0.0
        return len(self.source) / self.size


#: Algorithm 1 runs on ``str``: every symbol is one code point.
_CODE_POINTS = 0x110000


def _most_covering_kmer(text: str, max_k: int) -> Optional[str]:
    """The k-mer Algorithm 1 substitutes next in ``text``, or ``None``.

    The winner maximises ``(k * greedy count, -k)`` and is the smallest
    string among ties; only k-mers of length ``2..max_k`` that occur at
    least twice without overlapping and are not a run of one symbol
    qualify.
    """
    n = len(text)
    if n < 4 or text.count(text[0]) == n:
        # Too short to hold two k-mers, or one symbol repeated (where a
        # tiled branch's compression usually ends): every k-mer is a run.
        return None
    upper_k = min(max_k, n // 2)
    best: Optional[str] = None
    best_key = (0, 0)
    grams = list(text)
    repeated = set(grams)
    for k in range(2, upper_k + 1):
        grams = list(map(operator.add, grams, text[k - 1 :]))
        next_repeated = {}
        for kmer, overlapping in Counter(grams).items():
            if overlapping < 2 or kmer[:-1] not in repeated:
                continue
            freq = text.count(kmer)
            if freq < 2:
                continue
            next_repeated[kmer] = freq
            if kmer[1:] == kmer[:-1]:
                # Runs of a single symbol are already captured by the
                # run-length encoding of the final k-mers trace; turning
                # them into nested patterns would only grow the pattern
                # set (the trace element's trace counter repeats a
                # pattern for free).
                continue
            key = (k * freq, -k)
            if key > best_key or (key == best_key and kmer < best):
                best, best_key = kmer, key
        repeated = {
            kmer
            for kmer, freq in next_repeated.items()
            if min(upper_k * freq, n) > best_key[0]
        }
        if not repeated:
            break
    return best


def compress_sequence(sequence: DnaSequence, max_k: int = 16) -> KmersResult:
    """Algorithm 1: compress a DNA-encoded vanilla trace with k-mers counting.

    Each iteration substitutes the repeated k-mer with the highest coverage
    (length times count), preferring the shorter and then the
    lexicographically smaller k-mer, with a freshly minted symbol.

    The sequence is held as a ``str`` whose code points are the symbols'
    ranks, so the order of symbols is the order of code points and minted
    symbols get the next free code point.  Four facts make this exact:

    * ``str.count`` and ``str.replace`` both match leftmost and without
      overlap, which is exactly what :func:`count_kmers` and
      :func:`replace_non_overlapping` do.
    * Leftmost greedy matching finds the most non-overlapping occurrences
      possible, so if a k-mer's count is at most one, so is the count of
      every extension of it; only k-mers counted at least twice are
      extended to ``k + 1``.
    * For the same reason an extension of a k-mer counted ``f`` times
      covers at most ``min(max_k * f, len)`` symbols.  Being longer, it
      must beat the best coverage so far outright, so a k-mer whose bound
      does not is not extended either.
    * The selection order is total, so the order in which k-mers are
      enumerated cannot change which one is picked.

    Parameters
    ----------
    sequence:
        The symbolic sequence produced by :func:`repro.analysis.dna.encode_vanilla_trace`.
    max_k:
        Upper bound on considered pattern length, mirroring the paper's knob
        that favours short, frequent patterns (and bounds storage needs).

    Raises
    ------
    ValueError
        If the distinct symbols plus the most symbols the loop could mint
        (each iteration shrinks the sequence by at least two) exceed the
        1,114,112 Unicode code points.
    """
    symbols = sequence.symbols
    by_code: List[Symbol] = sorted(set(symbols))
    if len(by_code) + max(len(symbols) - 2, 0) // 2 > _CODE_POINTS:
        raise ValueError(
            f"compress_sequence handles at most {_CODE_POINTS} distinct and "
            f"minted symbols; this sequence has {len(by_code)} distinct "
            f"symbols and could mint {max(len(symbols) - 2, 0) // 2} more"
        )
    next_symbol = (by_code[-1] + 1) if by_code else sequence.base_alphabet_size
    next_symbol = max(next_symbol, sequence.base_alphabet_size)
    rank = {symbol: code for code, symbol in enumerate(by_code)}
    text = "".join(map(chr, map(rank.__getitem__, symbols)))
    patterns: Dict[Symbol, Kmer] = {}
    iterations = 0

    while True:
        best = _most_covering_kmer(text, max_k)
        if best is None:
            break
        patterns[next_symbol] = tuple(by_code[ord(code)] for code in best)
        text = text.replace(best, chr(len(by_code)))
        by_code.append(next_symbol)
        next_symbol += 1
        iterations += 1

    return KmersResult(
        branch_pc=sequence.branch_pc,
        compressed=[by_code[ord(code)] for code in text],
        patterns=patterns,
        source=sequence,
        iterations=iterations,
    )


def compact_pattern_store(
    patterns: Sequence[Tuple[VanillaElement, ...]],
) -> Tuple[List[VanillaElement], List[Tuple[int, int]]]:
    """Merge overlapping patterns into one compact store (Section 5.2).

    The paper stores patterns in a compact form where overlapping patterns
    share elements (``ACT`` and ``CTA`` stored as ``ACTA``).  This helper
    returns the flattened store plus each input pattern's ``(offset, length)``
    window within it.  A simple greedy superstring heuristic is used: contained
    patterns are dropped, then the pair with the largest suffix/prefix overlap
    is merged until no overlap remains.
    """
    unique: List[Tuple[VanillaElement, ...]] = []
    for pattern in patterns:
        if pattern and pattern not in unique:
            unique.append(pattern)

    # Drop patterns fully contained in another pattern.
    def contains(haystack: Tuple[VanillaElement, ...], needle: Tuple[VanillaElement, ...]) -> bool:
        if len(needle) > len(haystack):
            return False
        return any(
            haystack[i : i + len(needle)] == needle
            for i in range(len(haystack) - len(needle) + 1)
        )

    survivors = [
        p
        for p in unique
        if not any(p is not q and contains(q, p) for q in unique)
    ]

    def overlap(a: Tuple[VanillaElement, ...], b: Tuple[VanillaElement, ...]) -> int:
        max_len = min(len(a), len(b))
        for length in range(max_len, 0, -1):
            if a[len(a) - length :] == b[:length]:
                return length
        return 0

    merged = list(survivors)
    while len(merged) > 1:
        best_pair = None
        best_overlap = 0
        for i, a in enumerate(merged):
            for j, b in enumerate(merged):
                if i == j:
                    continue
                o = overlap(a, b)
                if o > best_overlap:
                    best_overlap = o
                    best_pair = (i, j)
        if best_pair is None or best_overlap == 0:
            break
        i, j = best_pair
        a, b = merged[i], merged[j]
        combined = a + b[best_overlap:]
        merged = [p for idx, p in enumerate(merged) if idx not in (i, j)]
        merged.append(combined)

    store: List[VanillaElement] = []
    for chunk in merged:
        store.extend(chunk)

    windows: List[Tuple[int, int]] = []
    store_tuple = tuple(store)
    for pattern in patterns:
        if not pattern:
            windows.append((0, 0))
            continue
        found = -1
        for i in range(len(store_tuple) - len(pattern) + 1):
            if store_tuple[i : i + len(pattern)] == pattern:
                found = i
                break
        if found < 0:  # pragma: no cover - defensive; should always be found
            found = len(store)
            store.extend(pattern)
            store_tuple = tuple(store)
        windows.append((found, len(pattern)))
    return store, windows
