"""The job write-ahead journal: durability, recovery, resume semantics.

The crash-safety bar for ``repro serve --state-dir``: every submission is
durable before it runs, torn tails never poison recovery, finished jobs
compact away, interrupted jobs resume under their original id with only
the remainder left to execute, and seqs/job-ids stay monotonic across
process incarnations — every seq is leased before it is emitted.
"""

import json
import os

from repro.api import ScenarioMatrix, SimulationRequest, SimulationService
from repro.api import journal as journal_module
from repro.api.journal import (
    JOURNAL_NAME,
    LEASE_BLOCK,
    RESUMED_TAG,
    JobJournal,
    resume_jobs,
)
from repro.pipeline import ArtifactCache

WORKLOAD = "ChaCha20_ct"
SECOND_WORKLOAD = "SHA-256"
MATRIX = ScenarioMatrix(designs=("unsafe-baseline", "cassandra"))


def make_service(journal=None, cache_root=None):
    return SimulationService(
        names=[WORKLOAD],
        jobs=1,
        backend="serial",
        cache=ArtifactCache(root=cache_root),
        journal=journal,
    )


def journal_path(state_dir) -> str:
    return os.path.join(str(state_dir), JOURNAL_NAME)


def read_all(state_dir):
    return list(JobJournal.read_records(journal_path(state_dir)))


def append_line(state_dir, record) -> None:
    with open(journal_path(state_dir), "ab") as handle:
        payload = record if isinstance(record, bytes) else (
            json.dumps(record) + "\n"
        ).encode("utf-8")
        handle.write(payload)


def test_submissions_leases_and_terminal_states_are_journaled(tmp_path):
    journal = JobJournal(str(tmp_path))
    service = make_service(journal=journal)
    handle = service.submit(MATRIX, priority=3, tags=("sweep",))
    results = handle.result(timeout=120)
    assert len(results) == 2
    service.close()
    journal.close()

    records = read_all(tmp_path)
    kinds = [record["record"] for record in records]
    # No per-point records: the points live in the artifact cache.  One
    # lease covers every seq the job emitted.
    assert kinds == ["submit", "lease", "state"]
    assert records[1] == {"record": "lease", "next_seq": LEASE_BLOCK, "next_job": 2}
    assert max(event.seq for event in handle.history()) < LEASE_BLOCK

    submit = records[0]
    assert submit["job"] == handle.job_id
    assert submit["priority"] == 3
    assert submit["tags"] == ["sweep"]
    # The submission is lossless: the journaled requests round-trip.
    recovered = [SimulationRequest.from_dict(entry) for entry in submit["requests"]]
    assert recovered == list(handle.requests)

    assert records[2] == {
        "record": "state",
        "job": handle.job_id,
        "state": "done",
        "seq": handle.history()[-1].seq,
    }


def test_torn_tail_and_garbage_lines_are_skipped(tmp_path):
    journal = JobJournal(str(tmp_path))
    service = make_service(journal=journal)
    service.scheduler.pause()
    handle = service.submit(MATRIX)
    journal.close()  # the "crash": no terminal record ever lands
    service.close()

    # A crash mid-append leaves a torn (undecodable) trailing line.
    append_line(tmp_path, b'{"record": "state", "job": "job-1", "sta')

    reopened = JobJournal(str(tmp_path))
    assert [job.job_id for job in reopened.pending] == [handle.job_id]
    assert reopened.pending[0].requests == list(handle.requests)
    reopened.close()


def test_finished_jobs_compact_away_on_reopen(tmp_path):
    journal = JobJournal(str(tmp_path))
    service = make_service(journal=journal)
    service.submit(MATRIX).result(timeout=120)
    service.close()
    journal.close()
    assert len(read_all(tmp_path)) == 3

    reopened = JobJournal(str(tmp_path))
    assert reopened.pending == []
    reopened.close()
    # Compaction rewrote the journal without the finished job's records,
    # keeping only the high-water marks its seqs and id were issued under.
    assert read_all(tmp_path) == [
        {"record": "lease", "next_seq": LEASE_BLOCK, "next_job": 2}
    ]


def test_drain_suppresses_cancelled_so_job_stays_pending(tmp_path):
    journal = JobJournal(str(tmp_path))
    service = make_service(journal=journal)
    service.scheduler.pause()  # the job never starts: a mid-queue shutdown
    handle = service.submit(MATRIX, tags=("interrupted",))
    journal.draining = True
    service.close()  # cancels the queued job; the record is suppressed
    journal.checkpoint()
    journal.close()

    states = [r for r in read_all(tmp_path) if r["record"] == "state"]
    assert states == []

    reopened = JobJournal(str(tmp_path))
    assert [job.job_id for job in reopened.pending] == [handle.job_id]
    reopened.close()


def test_requested_cancel_is_terminal_and_not_resumed(tmp_path):
    journal = JobJournal(str(tmp_path))
    service = make_service(journal=journal)
    service.scheduler.pause()
    handle = service.submit(MATRIX)
    handle.cancel()
    service.scheduler.resume()
    service.close()
    journal.close()

    reopened = JobJournal(str(tmp_path))
    assert reopened.pending == []
    reopened.close()


def test_resume_runs_the_remainder_as_cache_hits(tmp_path):
    cache_root = str(tmp_path / "cache")
    state_dir = str(tmp_path / "state")

    # An uninterrupted baseline run computes one of the two points into the
    # shared disk cache (modeling the completed half of a crashed sweep).
    baseline = make_service(cache_root=cache_root)
    done_request = SimulationRequest(workload=WORKLOAD, design="cassandra")
    expected_cycles = baseline.run(done_request).cycles(design="cassandra")
    baseline.close()

    # A journal holding the full two-point job, interrupted mid-sweep: a
    # submit record, one completed point, no terminal state.
    journal = JobJournal(state_dir)
    service = make_service(journal=journal)
    service.scheduler.pause()
    handle = service.submit(MATRIX, priority=2, tags=("sweep",))
    journal.draining = True
    service.close()
    journal.close()

    # Restart: recovery reports the pending job, resume resubmits it under
    # its original id, and the already-computed point lands as a cache hit.
    reopened = JobJournal(state_dir)
    assert len(reopened.pending) == 1
    restarted = make_service(journal=reopened, cache_root=cache_root)
    resumed = resume_jobs(restarted, reopened)
    assert [h.job_id for h in resumed] == [handle.job_id]
    results = resumed[0].result(timeout=120)
    assert len(results) == 2
    assert results.cycles(design="cassandra") == expected_cycles
    assert RESUMED_TAG in resumed[0].tags

    events = resumed[0].history()
    hits = [event for event in events if event.kind == "cache-hit"]
    assert any(event.request.design == "cassandra" for event in hits)
    restarted.close()
    reopened.close()


def test_parent_format_journal_with_point_records_recovers_pending(tmp_path):
    """A journal written before leases existed: a submit, per-point
    records, no terminal.  The job is pending, and seqs restart above the
    point records' seqs."""
    first = SimulationRequest(workload=WORKLOAD, design="unsafe-baseline")
    second = SimulationRequest(workload=WORKLOAD, design="cassandra")
    os.makedirs(str(tmp_path), exist_ok=True)
    append_line(
        tmp_path,
        {
            "record": "submit",
            "version": 1,
            "job": "job-7",
            "priority": 0,
            "tags": [],
            "requests": [first.as_dict(), second.as_dict()],
        },
    )
    for seq, request in ((4, first), (6, second)):
        append_line(
            tmp_path,
            {
                "record": "point",
                "job": "job-7",
                "kind": "point-done",
                "seq": seq,
                "request": request.as_dict(),
                "cycles": 100,
                "digest": "d" * 12,
            },
        )

    journal = JobJournal(str(tmp_path))
    assert [job.job_id for job in journal.pending] == ["job-7"]
    assert journal.pending[0].requests == [first, second]
    assert journal.next_seq > 6
    assert journal.next_job_number == 8
    journal.close()
    # Compaction dropped the point records and kept the high-water marks.
    assert [record["record"] for record in read_all(tmp_path)] == ["lease", "submit"]


def test_seq_and_job_ids_stay_monotonic_across_restart(tmp_path):
    journal = JobJournal(str(tmp_path))
    service = make_service(journal=journal)
    handle = service.submit(MATRIX)
    handle.result(timeout=120)
    last_seq = handle.history()[-1].seq
    service.close()
    journal.close()

    reopened = JobJournal(str(tmp_path))
    assert reopened.next_seq > last_seq
    assert reopened.next_job_number == 2
    restarted = make_service(journal=reopened)
    fresh = restarted.submit(SimulationRequest(workload=WORKLOAD, design="spt"))
    fresh.result(timeout=120)
    assert fresh.job_id == "job-2"
    assert all(event.seq > last_seq for event in fresh.history())
    restarted.close()
    reopened.close()


def test_ids_and_seqs_survive_two_reopens_without_jobs(tmp_path):
    """Compaction drops every finished job's records; the reopen after it
    must still not reissue their ids or seqs (a reissued ``job-1`` would
    answer a client still holding the old job's id)."""
    journal = JobJournal(str(tmp_path))
    service = make_service(journal=journal)
    handle = service.submit(MATRIX)
    handle.result(timeout=120)
    seen = max(event.seq for event in handle.history())
    service.close()
    journal.close()

    for _ in range(2):
        JobJournal(str(tmp_path)).close()

    reopened = JobJournal(str(tmp_path))
    restarted = make_service(journal=reopened)
    fresh = restarted.submit(SimulationRequest(workload=WORKLOAD, design="spt"))
    fresh.result(timeout=120)
    assert fresh.job_id == "job-2"
    assert min(event.seq for event in fresh.history()) > seen
    restarted.close()
    reopened.close()


def test_seqs_emitted_before_a_crash_stay_below_the_restart(tmp_path):
    """``queued`` has no record of its own: its seq is covered by a lease
    written before the event reached any subscriber, so a client holding
    it (an SSE ``Last-Event-ID``) never skips the resumed job's events."""
    journal = JobJournal(str(tmp_path))
    service = make_service(journal=journal)
    service.scheduler.pause()
    handle = service.submit(MATRIX)
    before = [event.seq for event in handle.history()]
    assert [event.kind for event in handle.history()] == ["queued"]
    journal.close()  # the "crash": nothing after the submit lands
    service.close()

    reopened = JobJournal(str(tmp_path))
    assert reopened.next_seq > max(before)
    restarted = make_service(journal=reopened)
    resumed = resume_jobs(restarted, reopened)
    resumed[0].result(timeout=120)
    assert min(event.seq for event in resumed[0].history()) > max(before)
    restarted.close()
    reopened.close()


def test_a_lease_is_written_once_per_block_of_seqs(tmp_path, monkeypatch):
    monkeypatch.setattr(journal_module, "LEASE_BLOCK", 4)
    journal = JobJournal(str(tmp_path))
    service = make_service(journal=journal)
    first = service.submit(MATRIX)
    first.result(timeout=120)
    second = service.submit(SimulationRequest(workload=WORKLOAD, design="spt"))
    second.result(timeout=120)
    service.close()
    journal.close()

    seqs = [event.seq for handle in (first, second) for event in handle.history()]
    leases = [r["next_seq"] for r in read_all(tmp_path) if r["record"] == "lease"]
    # Each lease was written when the first seq past the previous one was
    # emitted, and covers the block above it.
    assert len(leases) == len({seq // 4 for seq in seqs}) > 1
    assert leases == sorted(leases) and leases[-1] > max(seqs)

    reopened = JobJournal(str(tmp_path))
    assert reopened.next_seq == leases[-1]
    reopened.close()
