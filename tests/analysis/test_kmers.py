"""Algorithm 1 and its k-mer counter against the list-based loops they replaced."""

import sys
from typing import Dict, List, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import kmers
from repro.analysis.dna import DnaSequence, encode_vanilla_trace
from repro.analysis.kmers import (
    Kmer,
    KmersResult,
    compress_sequence,
    count_kmers,
    replace_non_overlapping,
)
from repro.analysis.raw_trace import RawTrace
from repro.analysis.vanilla import to_vanilla_trace
from repro.experiments.runner import QUICK_WORKLOADS


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


def _reference_compress_sequence(
    sequence: DnaSequence, max_k: int = 16, counter=count_kmers
) -> KmersResult:
    """The previous Algorithm 1: rebuild every k-mer count on every iteration."""
    seq: List[int] = list(sequence.symbols)
    patterns: Dict[int, Kmer] = {}
    next_symbol = (max(seq) + 1) if seq else sequence.base_alphabet_size
    next_symbol = max(next_symbol, sequence.base_alphabet_size)
    iterations = 0

    current_len = float("inf")
    while len(seq) < current_len:
        current_len = len(seq)
        coverage: Dict[Kmer, float] = {}
        upper_k = min(max_k, len(seq) // 2 if len(seq) >= 4 else len(seq))
        for k in range(2, upper_k + 1):
            for kmer, freq in counter(seq, k).items():
                if freq <= 1 or len(set(kmer)) == 1:
                    continue
                coverage[kmer] = (k * freq) / len(seq)
        if not coverage:
            break
        best = max(
            coverage.items(),
            key=lambda item: (item[1], -len(item[0]), tuple(-s for s in item[0])),
        )[0]
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


def _assert_same_compression(actual: KmersResult, expected: KmersResult) -> None:
    assert actual.compressed == expected.compressed
    assert list(actual.patterns.items()) == list(expected.patterns.items())
    assert actual.iterations == expected.iterations


def _dna(symbols: List[int]) -> DnaSequence:
    alphabet_size = len(set(symbols))
    return DnaSequence(symbols=symbols, alphabet=dict.fromkeys(range(alphabet_size)))


@st.composite
def _random_sequences(draw):
    alphabet = draw(st.integers(min_value=1, max_value=6))
    return draw(st.lists(st.integers(min_value=0, max_value=alphabet - 1), max_size=80))


@st.composite
def _tiled_sequences(draw):
    alphabet = draw(st.integers(min_value=1, max_value=6))
    period = draw(
        st.lists(st.integers(min_value=0, max_value=alphabet - 1), min_size=1, max_size=12)
    )
    return period * draw(st.integers(min_value=2, max_value=64))


@st.composite
def _sparse_sequences(draw):
    # Few distinct but far-apart (and negative) values: the rank map must
    # keep their order, which decides ties.
    values = draw(
        st.lists(
            st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=6, unique=True
        )
    )
    base = draw(st.one_of(_random_sequences(), _tiled_sequences()))
    return [values[symbol % len(values)] for symbol in base]


@settings(deadline=None, max_examples=300)
@given(symbols=_random_sequences(), k=st.integers(min_value=1, max_value=10))
def test_count_kmers_matches_reference(symbols, k):
    expected = _reference_count_kmers(symbols, k)
    actual = count_kmers(symbols, k)
    assert actual == expected
    # count_kmers promises first-occurrence key order; the reference keeps it.
    assert list(actual) == list(expected)


def test_count_kmers_rejects_non_positive_k():
    with pytest.raises(ValueError):
        count_kmers([0, 1], 0)


def test_compress_sequence_unchanged_under_reference_counter():
    # One invocation's raw trace — a nested loop plus a tail — tiled 64x the
    # way Table 1 scales its traces, so compression nests patterns.
    once = ([1, 1, 0] * 3 + [2, 0]) * 2 + [3, 3, 0, 1, 0]
    raw = RawTrace(branch_pc=0, targets=tuple(once * 64))
    sequence = encode_vanilla_trace(to_vanilla_trace(raw))
    assert len(set(sequence.symbols)) > 2

    fast = compress_sequence(sequence)
    oracle = _reference_compress_sequence(sequence, counter=_reference_count_kmers)

    assert fast.iterations > 1
    _assert_same_compression(fast, oracle)
    assert fast.expand() == sequence.symbols


@settings(deadline=None, max_examples=300)
@given(
    symbols=st.one_of(_random_sequences(), _tiled_sequences(), _sparse_sequences()),
    max_k=st.sampled_from([1, 2, 3, 16]),
)
def test_compress_sequence_matches_reference(symbols, max_k):
    sequence = _dna(symbols)
    result = compress_sequence(sequence, max_k=max_k)
    _assert_same_compression(result, _reference_compress_sequence(sequence, max_k=max_k))
    assert result.expand() == symbols


def test_compress_sequence_keeps_homogeneous_runs_uncompressed():
    sequence = _dna([4] * 40)
    result = compress_sequence(sequence)
    assert result.compressed == [4] * 40
    assert result.patterns == {}


def test_compress_sequence_mints_above_the_base_alphabet():
    # base_alphabet_size exceeds every symbol: minted symbols start there.
    sequence = DnaSequence(symbols=[0, 1] * 4, alphabet=dict.fromkeys(range(9)))
    result = compress_sequence(sequence)
    assert list(result.patterns) == [9]
    _assert_same_compression(result, _reference_compress_sequence(sequence))


def test_compress_sequence_code_point_limit(monkeypatch):
    assert kmers._CODE_POINTS == sys.maxunicode + 1
    # Shrink the limit so the check is cheap: 4 distinct symbols plus up to
    # (6 - 2) // 2 = 2 minted ones fit in 6 code points, not in 5.
    symbols = [0, 1, 2, 3, 0, 1]
    monkeypatch.setattr(kmers, "_CODE_POINTS", 6)
    _assert_same_compression(
        compress_sequence(_dna(symbols)), _reference_compress_sequence(_dna(symbols))
    )
    monkeypatch.setattr(kmers, "_CODE_POINTS", 5)
    with pytest.raises(ValueError, match="at most 5 distinct and minted symbols"):
        compress_sequence(_dna(symbols))


@pytest.mark.parametrize("workload", QUICK_WORKLOADS)
def test_compress_sequence_matches_reference_on_tiled_workload_branches(
    quick_context, workload
):
    bundle = quick_context.artifact(workload).bundle
    checked = 0
    for branch_pc, data in sorted(bundle.branches.items()):
        if data.is_single_target:
            continue
        raw = RawTrace(branch_pc=branch_pc, targets=data.raw.targets * 64)
        sequence = encode_vanilla_trace(to_vanilla_trace(raw))
        _assert_same_compression(
            compress_sequence(sequence), _reference_compress_sequence(sequence)
        )
        checked += 1
    assert checked > 0
