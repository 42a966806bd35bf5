"""Durable jobs: an append-only, fsync'd write-ahead journal per state dir.

``repro serve`` used to hold every queued and partially-complete job in
memory — a crash lost the sweep.  :class:`JobJournal` makes the job layer
crash-safe without a database.  Four record kinds are appended as JSON
lines to ``<state-dir>/journal.jsonl``, each fsync'd before the operation
it records is considered done:

* ``submit`` — the full JSON-round-trippable
  :class:`~repro.api.request.SimulationRequest` batch plus its tags and
  priority, written before the job is queued;
* ``state`` — a terminal ``done``/``failed``/``cancelled`` transition;
* ``lease`` — a seq ceiling: no event ``seq`` at or above the last lease's
  ``next_seq`` is handed out before a higher lease is on disk.  One lease
  covers :data:`LEASE_BLOCK` seqs, so the journal costs two fsyncs per job
  plus one per block, not one per event;
* ``checkpoint`` — a clean shutdown.

Per-point completions are not journaled: the artifact disk cache already
holds every computed point (atomically renamed into place), which is what
a resumed job is served from.

Crash-safety invariants:

* **Torn tails are tolerated** — a ``kill -9`` mid-append leaves at most one
  undecodable trailing line, which recovery skips; every fully written
  record survives.
* **Recovery is a pure fold** — :meth:`JobJournal.__init__` replays the
  journal: a job with a ``submit`` record but no terminal ``state`` record
  is *pending* and gets resubmitted by :func:`resume_jobs` under its
  original job id.  Its completed points are already in the artifact disk
  cache, so the resumed job re-executes exactly the remainder (the rest
  land as ``cache-hit`` events — observable, and asserted by the chaos
  suite).
* **Compaction is atomic** — on open, the journal is rewritten through a
  temp file + ``os.replace`` as one ``lease`` record holding the seq and
  job-number high-water marks, then the pending jobs' submits; a crash
  mid-compaction leaves either the old or the new journal, never a mix.
* **Monotonic seqs and job ids across restarts** — recovery restarts the
  counters above the highest lease (and above any seq or job id a record
  names), so every seq a client saw before a crash — including ``queued``
  and ``point-started`` seqs, which have no record of their own — is below
  every seq of the next incarnation, and a finished job's id is never
  reissued.

Graceful shutdown (``SIGTERM``/``SIGINT`` on ``repro serve``) sets
:attr:`JobJournal.draining`: the drain cancels running jobs at their next
round boundary, but the journal *suppresses* their ``cancelled`` terminal
records so they remain pending and resume on the next start; a final
``checkpoint`` record marks the shutdown clean.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.api.request import SimulationRequest

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.jobs import JobEvent, JobHandle
    from repro.api.service import SimulationService

logger = logging.getLogger(__name__)

#: Bump when the record vocabulary changes incompatibly.
JOURNAL_FORMAT_VERSION = 1

#: The journal file inside a state dir.
JOURNAL_NAME = "journal.jsonl"

#: Tag added to resumed jobs so event consumers can tell them apart.
RESUMED_TAG = "resumed"

#: Event seqs one ``lease`` record covers.  A restart skips the unused rest
#: of the last block, so seqs stay monotonic but not dense.
LEASE_BLOCK = 1024

_JOB_ID = re.compile(r"job-(\d+)$")


def _job_number(job_id: str) -> Optional[int]:
    match = _JOB_ID.match(job_id)
    return int(match.group(1)) if match else None


@dataclass
class RecoveredJob:
    """One journaled job that had not reached a terminal state."""

    job_id: str
    requests: List[SimulationRequest]
    priority: int = 0
    tags: Tuple[str, ...] = ()


class JobJournal:
    """The write-ahead journal of one ``--state-dir`` (open = recover)."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.path = os.path.join(state_dir, JOURNAL_NAME)
        self._lock = threading.Lock()
        #: Guards the lease ceiling and the job-number high-water mark.
        self._lease_lock = threading.Lock()
        #: Set during graceful shutdown: suppress ``cancelled`` terminal
        #: records so drained jobs stay pending and resume next start.
        self.draining = False
        #: Pending (interrupted) jobs found at open, for :func:`resume_jobs`.
        self.pending: List[RecoveredJob] = []
        #: Counters the scheduler restarts above, keeping ids/seqs monotonic.
        self.next_seq = 0
        self.next_job_number = 1
        self._recover()
        self._compact()
        #: Seqs below this are covered by a lease on disk.
        self._leased = self.next_seq
        self._file = open(self.path, "ab")

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    @staticmethod
    def read_records(path: str) -> Iterator[Dict[str, Any]]:
        """Every decodable record in ``path`` (torn/garbled lines skipped)."""
        if not os.path.exists(path):
            return
        with open(path, "rb") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    # A torn tail from a crash mid-append, or garbage; a
                    # fsync'd journal tears at most its last line.
                    logger.warning(
                        "journal %s: skipping undecodable line %d", path, line_number
                    )
                    continue
                if isinstance(record, dict):
                    yield record

    def _recover(self) -> None:
        jobs: Dict[str, RecoveredJob] = {}
        finished: Dict[str, str] = {}
        for record in self.read_records(self.path):
            kind = record.get("record")
            job_id = str(record.get("job", ""))
            try:
                if kind == "submit":
                    # A re-submit (journal resume writes one per restart)
                    # replaces the job and supersedes any earlier terminal
                    # state (a resumed job reuses its id).
                    jobs[job_id] = RecoveredJob(
                        job_id=job_id,
                        requests=[
                            SimulationRequest.from_dict(payload)
                            for payload in record.get("requests", ())
                        ],
                        priority=int(record.get("priority", 0)),
                        tags=tuple(record.get("tags", ())),
                    )
                    finished.pop(job_id, None)
                elif kind == "state" and record.get("state") in (
                    "done",
                    "failed",
                    "cancelled",
                ):
                    finished[job_id] = str(record["state"])
                elif kind == "lease":
                    self.next_seq = max(self.next_seq, int(record["next_seq"]))
                    self.next_job_number = max(
                        self.next_job_number, int(record["next_job"])
                    )
            except (KeyError, TypeError, ValueError) as exc:
                logger.warning("journal %s: skipping bad %r record: %s", self.path, kind, exc)
                continue
            # Any other seq a record names (a state record's, or a per-point
            # record of an older journal) was handed out too.
            seq = record.get("seq")
            if isinstance(seq, int):
                self.next_seq = max(self.next_seq, seq + 1)
            number = _job_number(job_id)
            if number is not None:
                self.next_job_number = max(self.next_job_number, number + 1)
        self.pending = [job for job_id, job in jobs.items() if job_id not in finished]

    def _compact(self) -> None:
        """Atomically rewrite the journal as its high-water marks plus the
        pending jobs' submits: finished jobs' records go, their ids and
        seqs stay reserved."""
        if not os.path.exists(self.path):
            return
        temp = self.path + ".compact"
        with open(temp, "wb") as handle:
            handle.write(_encode(self._lease_record(self.next_seq)))
            for job in self.pending:
                handle.write(_encode(_submit_record(job.job_id, job.requests, job.priority, job.tags)))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, self.path)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def _append(self, record: Dict[str, Any]) -> None:
        payload = _encode(record)
        with self._lock:
            if self._file.closed:  # pragma: no cover - post-close stragglers
                return
            self._file.write(payload)
            self._file.flush()
            os.fsync(self._file.fileno())

    def _lease_record(self, next_seq: int) -> Dict[str, Any]:
        return {"record": "lease", "next_seq": next_seq, "next_job": self.next_job_number}

    def _cover(self, seq: int) -> None:
        """Return once a lease covering ``seq`` is on disk."""
        if seq < self._leased:
            return
        with self._lease_lock:
            if seq >= self._leased:
                ceiling = seq + LEASE_BLOCK
                self._append(self._lease_record(ceiling))
                self._leased = ceiling

    def job_submitted(self, handle: "JobHandle") -> None:
        """Journal a submission: the WAL entry resume replays from."""
        number = _job_number(handle.job_id)
        if number is not None:
            with self._lease_lock:
                self.next_job_number = max(self.next_job_number, number + 1)
        self._append(
            _submit_record(handle.job_id, handle.requests, handle.priority, handle.tags)
        )

    def job_event(self, event: "JobEvent") -> None:
        """Make one event durable before any subscriber observes it.

        Every event's seq is covered by a lease first.  ``done``/``failed``
        become terminal state records; ``cancelled`` is terminal only when
        it was *requested*, not when the drain of a graceful shutdown
        induced it — drained jobs must stay pending.
        """
        self._cover(event.seq)
        if event.kind in ("done", "failed") or (
            event.kind == "cancelled" and not self.draining
        ):
            record = {
                "record": "state",
                "job": event.job_id,
                "state": event.kind,
                "seq": event.seq,
            }
            if event.kind == "failed":
                record["error"] = (event.payload or {}).get("error")
            self._append(record)

    def checkpoint(self) -> None:
        """Mark a clean shutdown (pending jobs intentionally left pending)."""
        self._append({"record": "checkpoint", "version": JOURNAL_FORMAT_VERSION})

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


def _encode(record: Dict[str, Any]) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def _submit_record(
    job_id: str,
    requests,
    priority: int,
    tags: Tuple[str, ...],
) -> Dict[str, Any]:
    return {
        "record": "submit",
        "version": JOURNAL_FORMAT_VERSION,
        "job": job_id,
        "priority": priority,
        "tags": list(tags),
        "requests": [request.as_dict() for request in requests],
    }


def resume_jobs(service: "SimulationService", journal: JobJournal) -> List["JobHandle"]:
    """Resubmit every pending journaled job under its original id.

    Completed points are served from the artifact disk cache (the resumed
    job observes them as ``cache-hit`` events); only the remainder executes.
    Returns the new handles, in journal order.
    """
    handles = []
    for job in journal.pending:
        tags = job.tags if RESUMED_TAG in job.tags else job.tags + (RESUMED_TAG,)
        handles.append(
            service.scheduler.submit(
                job.requests,
                priority=job.priority,
                tags=tags,
                job_id=job.job_id,
            )
        )
    return handles
