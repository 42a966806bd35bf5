"""The spliced JSON encoders equal ``json.dumps`` of the dicts, byte for byte.

``SimulationRequest.to_json``, ``SimulationResult.to_json``,
``JobEvent.to_json``, ``ResultSet.to_wire`` and the journal's submit
line splice a config's memoized
``CoreConfig.to_json`` fragment into one encode of their own fields; each
must stay byte-identical to the reference encoding of its ``as_dict``,
for any config (memo hit or miss), flush interval and hostile string.
"""

import hashlib
import json
import pickle

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.jobs import JobEvent
from repro.api.journal import JOURNAL_FORMAT_VERSION, _submit_record
from repro.api.request import SimulationRequest, WorkloadRef
from repro.api.results import WIRE_FORMAT_VERSION, ResultSet
from repro.uarch.config import (
    GOLDEN_COVE_LIKE,
    BtuConfig,
    CacheConfig,
    CoreConfig,
    config_identity,
)
from repro.uarch.core import SimulationResult
from repro.uarch.stats import PipelineStats


def reference(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: Strings that break naive splicing: NUL, an escaped NUL, quotes, JSON
#: structure and a config key, non-ASCII and line separators.
HOSTILE = ("\x00", "\\u0000", '"', '","config":{}', "}", "é", " ", "🔐", "")
texts = st.one_of(st.sampled_from(HOSTILE), st.text(max_size=12))
small = st.integers(min_value=0, max_value=1 << 20)

caches = st.builds(
    CacheConfig,
    size_bytes=small, line_bytes=small, associativity=small, latency=small, name=texts,
)
fresh_configs = st.builds(
    CoreConfig,
    fetch_width=small,
    rob_size=small,
    mispredict_penalty=small,
    l1d=caches,
    l3=caches,
    btu=st.builds(BtuConfig, entries=small, miss_latency=small),
)
#: A few fixed configs, drawn again and again: the memo's hits.
POOL = (
    GOLDEN_COVE_LIKE,
    CoreConfig(rob_size=64, btu=BtuConfig(entries=8)),
    CoreConfig(l1d=CacheConfig(1, 2, 3, 4, name="\x00\"é")),
)
configs = st.one_of(st.sampled_from(POOL), fresh_configs)

requests = st.builds(
    SimulationRequest,
    workload=st.builds(
        WorkloadRef,
        kind=texts,
        name=texts.filter(bool),
        args=st.lists(texts, max_size=3).map(tuple),
        suite=texts,
    ),
    design=texts.filter(bool),
    config=configs,
    btu_flush_interval=st.one_of(st.none(), st.integers(min_value=-5, max_value=10**9)),
    warmup_passes=small,
)


@st.composite
def results(draw, config=None):
    stats = PipelineStats(
        cycles=draw(small),
        instructions=draw(small),
        branches=draw(small),
        extra=draw(
            st.dictionaries(texts.map("extra-".__add__), st.floats(allow_nan=False), max_size=2)
        ),
    )
    return SimulationResult(
        program_name=draw(texts),
        policy_name=draw(texts),
        stats=stats,
        config=config if config is not None else draw(configs),
    )


payloads = st.one_of(
    st.none(),
    st.dictionaries(texts, st.one_of(texts, small, st.none()), max_size=3),
    texts.map(lambda error: {"error": error}),
)

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(requests)
def test_request_to_json_is_the_reference_encoding(request):
    # Twice: the first call may miss the config memo, the second hits it.
    assert request.to_json() == reference(request.as_dict())
    assert request.to_json() == reference(request.as_dict())
    assert SimulationRequest.from_json(request.to_json()) == request


@SETTINGS
@given(results())
def test_result_to_json_is_the_reference_encoding(result):
    assert result.to_json() == reference(result.as_dict())
    assert result.to_json() == reference(result.as_dict())


@SETTINGS
@given(
    kind=st.one_of(st.sampled_from(("point-done", "failed", "queued")), texts),
    job_id=texts,
    seq=st.integers(min_value=0, max_value=1 << 40),
    request=st.one_of(st.none(), requests),
    payload=payloads,
)
def test_event_to_json_is_the_reference_encoding(kind, job_id, seq, request, payload):
    event = JobEvent(kind, job_id, seq, request=request, payload=payload)
    assert event.to_json() == reference(event.as_dict())
    assert JobEvent.from_dict(json.loads(event.to_json())) == event


@SETTINGS
@given(st.lists(requests.flatmap(lambda q: results(q.config).map(lambda r: (q, r))), max_size=6))
def test_wire_is_the_reference_encoding(entries):
    wire = ResultSet(entries).to_wire()
    assert wire == reference(
        {
            "version": WIRE_FORMAT_VERSION,
            "entries": [
                {"request": request.as_dict(), "result": result.as_dict()}
                for request, result in entries
            ],
        }
    )
    assert ResultSet.from_wire(wire).to_wire() == wire


@SETTINGS
@given(
    job_id=texts,
    batch=st.lists(requests, max_size=4),
    priority=st.integers(min_value=-(1 << 31), max_value=1 << 31),
    tags=st.lists(texts, max_size=3).map(tuple),
)
def test_journal_submit_line_is_the_reference_encoding(job_id, batch, priority, tags):
    record = {
        "record": "submit",
        "version": JOURNAL_FORMAT_VERSION,
        "job": job_id,
        "priority": priority,
        "tags": list(tags),
        "requests": [request.as_dict() for request in batch],
    }
    line = _submit_record(job_id, batch, priority, tags)
    assert line == (reference(record) + "\n").encode("utf-8")


def test_config_json_tells_equal_numbers_of_other_types_apart():
    """``8``, ``8.0`` and ``True``-like values compare (and identify) equal
    in Python but encode differently; each config gets its own text."""
    as_int, as_float, as_bool = (CoreConfig(fetch_width=v) for v in (1, 1.0, True))
    assert as_int.identity() == as_float.identity() == as_bool.identity()
    for config in (as_int, as_float, as_bool, as_int):
        assert config.to_json() == reference(config.as_dict())
    assert len({c.to_json() for c in (as_int, as_float, as_bool)}) == 3


def test_config_hash_is_cached_and_consistent_with_equality():
    built = CoreConfig(rob_size=64, l1d=CacheConfig(1, 2, 3, 4, name="x"))
    twin = CoreConfig(rob_size=64, l1d=CacheConfig(1, 2, 3, 4, name="x"))
    clone = CoreConfig.from_dict(json.loads(built.to_json()))
    revived = pickle.loads(pickle.dumps(built))
    assert hash(built) == hash(built.identity())
    for other in (twin, clone, revived):
        assert other == built
        assert hash(other) == hash(built)
    assert built != GOLDEN_COVE_LIKE
    assert CoreConfig(rob_size=65, l1d=built.l1d) != built
    # The cached hash is process-local: pickles never carry it.
    assert "_hash_cache" in vars(built)
    assert "_hash_cache" not in vars(pickle.loads(pickle.dumps(built)))
    # identity() and digest() are the same values as before hashing.
    assert built.identity() == config_identity(built)
    assert built.digest() == hashlib.sha256(repr(config_identity(built)).encode()).hexdigest()[:16]
    request = SimulationRequest(WorkloadRef.registry("SHA-256"), "cassandra", config=built)
    assert hash(request) == hash(SimulationRequest.from_json(request.to_json()))
