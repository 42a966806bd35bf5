"""Table 1's tiled vanilla traces against tiling the raw trace itself."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.dna import encode_tiled_vanilla_trace, encode_vanilla_trace
from repro.analysis.raw_trace import RawTrace
from repro.analysis.stats import BranchRow, stats_from_bundle_scaled
from repro.analysis.tracegen import generate_kmers_trace
from repro.analysis.vanilla import to_vanilla_trace


def _raw_traces():
    runs = st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=1, max_value=5)),
        min_size=1,
        max_size=12,
    )
    return runs.map(
        lambda pairs: tuple(target for target, count in pairs for _ in range(count))
    )


@settings(deadline=None, max_examples=200)
@given(targets=_raw_traces(), copies=st.sampled_from([1, 2, 3, 64]))
@example(targets=(7, 7, 9, 7), copies=3)  # first target == last target
@example(targets=(7, 9, 9), copies=2)  # two runs
@example(targets=(7, 7, 7), copies=64)  # one run
def test_tiled_vanilla_trace_matches_tiled_raw_trace(targets, copies):
    expected = encode_vanilla_trace(
        to_vanilla_trace(RawTrace(branch_pc=5, targets=targets * copies))
    )
    actual = encode_tiled_vanilla_trace(
        to_vanilla_trace(RawTrace(branch_pc=5, targets=targets)), copies
    )
    assert actual.decode() == expected.decode()
    assert actual.symbols == expected.symbols
    assert actual.alphabet == expected.alphabet
    assert actual.branch_pc == expected.branch_pc


def test_tiled_vanilla_trace_rejects_zero_copies():
    with pytest.raises(ValueError):
        encode_tiled_vanilla_trace(to_vanilla_trace(RawTrace(branch_pc=0, targets=(1,))), 0)


@pytest.mark.parametrize("invocations", [1, 2, 3, 64])
def test_scaled_stats_match_tiling_the_raw_traces(chacha_artifact, invocations):
    bundle = chacha_artifact.bundle
    expected = []
    for branch_pc, data in sorted(bundle.branches.items()):
        if data.is_single_target:
            expected.append(BranchRow(branch_pc, 1, 1, 1.0, True, False))
            continue
        tiled = RawTrace(branch_pc=branch_pc, targets=data.raw.targets * invocations)
        vanilla, kmers = generate_kmers_trace(tiled)
        expected.append(
            BranchRow(
                branch_pc=branch_pc,
                vanilla_size=len(vanilla),
                kmers_size=kmers.size,
                compression_rate=kmers.compression_rate,
                single_target=False,
                input_dependent=data.is_input_dependent,
            )
        )
    assert stats_from_bundle_scaled(bundle, invocations).rows == expected
