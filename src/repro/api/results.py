"""The typed result container the experiments aggregate over.

A :class:`ResultSet` pairs each :class:`~repro.api.request.SimulationRequest`
with its :class:`~repro.uarch.core.SimulationResult`, in request order, and
offers the aggregation vocabulary the paper's tables and figures are written
in: filter (:meth:`where`), group (:meth:`group_by`), normalized execution
time against a baseline design (:meth:`normalized_time`), geometric means
(:meth:`geomean_cycles`, :meth:`geomean_normalized_time`), and plain-data
export (:meth:`export_rows`, :meth:`to_json`, :meth:`export_csv`).
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api.request import SimulationRequest
from repro.uarch.config import CoreConfig
from repro.uarch.core import SimulationResult

#: Sentinel distinguishing "filter not given" from "filter on None" (the
#: BTU-flush axis legitimately filters on None = flushing disabled).
_UNSET: Any = object()

#: Bump when the full-fidelity wire layout changes; :meth:`ResultSet.from_wire`
#: rejects other versions.
WIRE_FORMAT_VERSION = 1

Entry = Tuple[SimulationRequest, SimulationResult]

#: The column order of :meth:`ResultSet.export_rows` rows — and hence of
#: every CSV export (:meth:`ResultSet.export_csv` and the warehouse's
#: ``export --format csv`` share :func:`rows_to_csv`).
EXPORT_COLUMNS = (
    "workload",
    "design",
    "config",
    "btu_flush_interval",
    "warmup_passes",
    "cycles",
    "instructions",
    "ipc",
)


def rows_to_csv(rows: Sequence[Dict[str, Any]]) -> str:
    """Render export rows as CSV text (header always present).

    ``None`` cells (a disabled BTU-flush axis, a lossy backfill's missing
    instructions) render as empty fields; everything else uses ``str``,
    so the output round-trips the JSON export's values exactly.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(EXPORT_COLUMNS)
    for row in rows:
        writer.writerow(
            "" if row.get(column) is None else row.get(column)
            for column in EXPORT_COLUMNS
        )
    return out.getvalue()


#: Axes :meth:`ResultSet.group_by` understands, mapped to key extractors.
_AXES = {
    "workload": lambda request: request.workload.name,
    "design": lambda request: request.design,
    "config": lambda request: request.config,
    "btu_flush_interval": lambda request: request.btu_flush_interval,
    "warmup_passes": lambda request: request.warmup_passes,
}


class ResultSet:
    """An ordered, queryable set of (request, result) pairs."""

    def __init__(self, entries: Sequence[Entry] = ()) -> None:
        self._entries: List[Entry] = list(entries)
        self._by_request: Dict[SimulationRequest, SimulationResult] = {
            request: result for request, result in self._entries
        }

    # ------------------------------------------------------------------ #
    # Container basics
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator[Entry]:
        return iter(self._entries)

    @property
    def requests(self) -> List[SimulationRequest]:
        return [request for request, _ in self._entries]

    @property
    def results(self) -> List[SimulationResult]:
        return [result for _, result in self._entries]

    def get(self, request: SimulationRequest) -> SimulationResult:
        """The result of an exact request (KeyError when absent)."""
        try:
            return self._by_request[request]
        except KeyError:
            raise KeyError(f"no result for request {request!r}") from None

    def merged(self, other: "ResultSet") -> "ResultSet":
        """This set plus ``other``'s entries (first occurrence wins)."""
        merged = ResultSet(self._entries)
        for request, result in other:
            if request not in merged._by_request:
                merged._entries.append((request, result))
                merged._by_request[request] = result
        return merged

    # ------------------------------------------------------------------ #
    # Query
    # ------------------------------------------------------------------ #
    def where(
        self,
        workload: Any = _UNSET,
        design: Any = _UNSET,
        config: Any = _UNSET,
        btu_flush_interval: Any = _UNSET,
        warmup_passes: Any = _UNSET,
    ) -> "ResultSet":
        """The entries matching every given axis value.

        ``workload`` matches the workload name; ``config`` a
        :class:`CoreConfig` (compared by identity tuple, so a re-parsed
        equal config matches).
        """
        config_id = config.identity() if isinstance(config, CoreConfig) else config

        def matches(request: SimulationRequest) -> bool:
            if workload is not _UNSET and request.workload.name != workload:
                return False
            if design is not _UNSET and request.design != design:
                return False
            if config_id is not _UNSET and request.config.identity() != config_id:
                return False
            if (
                btu_flush_interval is not _UNSET
                and request.btu_flush_interval != btu_flush_interval
            ):
                return False
            if warmup_passes is not _UNSET and request.warmup_passes != warmup_passes:
                return False
            return True

        return ResultSet([entry for entry in self._entries if matches(entry[0])])

    def one(self, **filters: Any) -> SimulationResult:
        """The single result matching ``filters`` (error on 0 or >1)."""
        matched = self.where(**filters) if filters else self
        if len(matched) != 1:
            raise LookupError(
                f"expected exactly one result for {filters!r}, got {len(matched)}"
            )
        return matched._entries[0][1]

    def cycles(self, **filters: Any) -> int:
        """The cycle count of the single matching result."""
        return self.one(**filters).cycles

    def group_by(self, axis: str) -> Dict[Any, "ResultSet"]:
        """Sub-sets per distinct value of ``axis``, in first-seen order."""
        try:
            key_of = _AXES[axis]
        except KeyError:
            raise KeyError(f"unknown axis {axis!r}; known: {sorted(_AXES)}") from None
        groups: Dict[Any, ResultSet] = {}
        for request, result in self._entries:
            groups.setdefault(key_of(request), ResultSet())._append(request, result)
        return groups

    def _append(self, request: SimulationRequest, result: SimulationResult) -> None:
        self._entries.append((request, result))
        self._by_request[request] = result

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def normalized_time(
        self, design: str, baseline: str = "unsafe-baseline", **filters: Any
    ) -> float:
        """``design``'s cycles over ``baseline``'s, within the filtered set."""
        scoped = self.where(**filters) if filters else self
        return scoped.cycles(design=design) / scoped.cycles(design=baseline)

    def geomean_cycles(self, **filters: Any) -> float:
        """Geometric mean of cycle counts across the (filtered) entries."""
        from repro.experiments.runner import geometric_mean

        scoped = self.where(**filters) if filters else self
        return geometric_mean(float(result.cycles) for result in scoped.results)

    def geomean_normalized_time(
        self, design: str, baseline: str = "unsafe-baseline", **filters: Any
    ) -> float:
        """Geometric mean of per-workload normalized times (Figure 7's row)."""
        from repro.experiments.runner import geometric_mean

        scoped = self.where(**filters) if filters else self
        return geometric_mean(
            group.normalized_time(design, baseline)
            for group in scoped.group_by("workload").values()
        )

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def export_rows(self) -> List[Dict[str, Any]]:
        """Plain-data rows, one per entry (JSON-serializable).

        Rows are sorted by :meth:`SimulationRequest.sort_key` — a stable
        total order over the request axes — not by insertion order, so the
        same result set exports identically no matter which backend, job
        interleaving, or cache state produced it.
        """
        ordered = sorted(self._entries, key=lambda entry: entry[0].sort_key())
        return [
            {
                "workload": request.workload.name,
                "design": request.design,
                "config": request.config.digest(),
                "btu_flush_interval": request.btu_flush_interval,
                "warmup_passes": request.warmup_passes,
                "cycles": result.cycles,
                "instructions": result.stats.instructions,
                "ipc": round(result.ipc, 4),
            }
            for request, result in ordered
        ]

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.export_rows(), indent=indent)

    def export_csv(self) -> str:
        """The :meth:`export_rows` table as CSV — same stable sort order."""
        return rows_to_csv(self.export_rows())

    # ------------------------------------------------------------------ #
    # Wire round-trip
    # ------------------------------------------------------------------ #
    def to_wire(self) -> str:
        """Full-fidelity JSON: every request *and* result field, in order.

        Unlike :meth:`to_json` (sorted human-readable rows), this is the
        lossless server→client payload: :meth:`from_wire` rebuilds an
        equivalent :class:`ResultSet` — same entry order, same stats — on
        the other side of a socket.  The text is byte-identical to
        ``json.dumps`` of the nested dicts (sorted keys, compact), built by
        joining each entry's request and result encodings.
        """
        entries = ",".join(
            f'{{"request":{request.to_json()},"result":{result.to_json()}}}'
            for request, result in self._entries
        )
        return f'{{"entries":[{entries}],"version":{WIRE_FORMAT_VERSION}}}'

    @classmethod
    def from_wire(cls, text: str) -> "ResultSet":
        """Rehydrate a :meth:`to_wire` payload (a remote service's answer)."""
        payload = json.loads(text)
        version = payload.get("version")
        if version != WIRE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported ResultSet wire format {version!r} "
                f"(this build speaks {WIRE_FORMAT_VERSION})"
            )
        return cls(
            [
                (
                    SimulationRequest.from_dict(entry["request"]),
                    SimulationResult.from_dict(entry["result"]),
                )
                for entry in payload["entries"]
            ]
        )
