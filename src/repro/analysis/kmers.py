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

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

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
        trace: List[Tuple[Symbol, int]] = []
        for symbol in self.compressed:
            if trace and trace[-1][0] == symbol:
                trace[-1] = (symbol, trace[-1][1] + 1)
            else:
                trace.append((symbol, 1))
        return trace

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


def compress_sequence(sequence: DnaSequence, max_k: int = 16) -> KmersResult:
    """Algorithm 1: compress a DNA-encoded vanilla trace with k-mers counting.

    Parameters
    ----------
    sequence:
        The symbolic sequence produced by :func:`repro.analysis.dna.encode_vanilla_trace`.
    max_k:
        Upper bound on considered pattern length, mirroring the paper's knob
        that favours short, frequent patterns (and bounds storage needs).
    """
    seq: List[Symbol] = list(sequence.symbols)
    patterns: Dict[Symbol, Kmer] = {}
    next_symbol = (max(seq) + 1) if seq else sequence.base_alphabet_size
    next_symbol = max(next_symbol, sequence.base_alphabet_size)
    iterations = 0

    current_len = float("inf")
    while len(seq) < current_len:
        current_len = len(seq)
        coverage: Dict[Kmer, float] = {}
        upper_k = min(max_k, len(seq) // 2 if len(seq) >= 4 else len(seq))
        for k in range(2, upper_k + 1):
            for kmer, freq in count_kmers(seq, k).items():
                if freq <= 1:
                    continue
                if len(set(kmer)) == 1:
                    # Runs of a single symbol are already captured by the
                    # run-length encoding of the final k-mers trace; turning
                    # them into nested patterns would only grow the pattern
                    # set (the trace element's trace counter repeats a
                    # pattern for free).
                    continue
                coverage[kmer] = (k * freq) / len(seq)
        if not coverage:
            break
        # Deterministic tie-breaking: highest coverage, then shortest pattern,
        # then lexicographically smallest.
        best = max(coverage.items(), key=lambda item: (item[1], -len(item[0]), tuple(-s for s in item[0])))[0]
        patterns[next_symbol] = best
        seq = replace_non_overlapping(seq, best, next_symbol)
        next_symbol += 1
        iterations += 1

    return KmersResult(
        branch_pc=sequence.branch_pc,
        compressed=seq,
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
