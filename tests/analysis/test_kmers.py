"""The one-pass k-mer counter against the two-pass counter it replaced."""

from typing import Dict, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import kmers
from repro.analysis.dna import encode_vanilla_trace
from repro.analysis.kmers import Kmer, compress_sequence, count_kmers
from repro.analysis.raw_trace import RawTrace
from repro.analysis.vanilla import to_vanilla_trace


def _reference_count_kmers(symbols: Sequence[int], k: int) -> Dict[Kmer, int]:
    """The previous counter: collect every candidate, then rescan per candidate."""
    if k <= 0:
        raise ValueError("k must be positive")
    counts: Dict[Kmer, int] = {}
    if k > len(symbols):
        return counts
    candidates: Dict[Kmer, None] = {}
    seq = tuple(symbols)
    for i in range(len(seq) - k + 1):
        candidates.setdefault(seq[i : i + k], None)
    for kmer in candidates:
        count = 0
        i = 0
        while i <= len(seq) - k:
            if seq[i : i + k] == kmer:
                count += 1
                i += k
            else:
                i += 1
        counts[kmer] = count
    return counts


@st.composite
def _sequences(draw):
    alphabet = draw(st.integers(min_value=1, max_value=5))
    return draw(st.lists(st.integers(min_value=0, max_value=alphabet - 1), max_size=80))


@settings(deadline=None, max_examples=300)
@given(symbols=_sequences(), k=st.integers(min_value=1, max_value=10))
def test_count_kmers_matches_reference(symbols, k):
    expected = _reference_count_kmers(symbols, k)
    actual = count_kmers(symbols, k)
    assert actual == expected
    # Algorithm 1's tie-break iterates this dict, so order matters too.
    assert list(actual) == list(expected)


def test_count_kmers_rejects_non_positive_k():
    with pytest.raises(ValueError):
        count_kmers([0, 1], 0)


def test_compress_sequence_unchanged_under_reference_counter(monkeypatch):
    # One invocation's raw trace — a nested loop plus a tail — tiled 64x the
    # way Table 1 scales its traces, so compression nests patterns.
    once = ([1, 1, 0] * 3 + [2, 0]) * 2 + [3, 3, 0, 1, 0]
    raw = RawTrace(branch_pc=0, targets=tuple(once * 64))
    sequence = encode_vanilla_trace(to_vanilla_trace(raw))
    assert len(set(sequence.symbols)) > 2

    fast = compress_sequence(sequence)
    monkeypatch.setattr(kmers, "count_kmers", _reference_count_kmers)
    oracle = compress_sequence(sequence)

    assert fast.iterations > 1
    assert fast.compressed == oracle.compressed
    assert fast.patterns == oracle.patterns
    assert list(fast.patterns) == list(oracle.patterns)
    assert fast.iterations == oracle.iterations
    assert fast.expand() == sequence.symbols
