"""The warehouse's views layer: the paper's tables as queries over history.

A *view* re-renders one of the registered experiments from stored rows
instead of live simulation: :class:`WarehouseContext` duck-types the
:class:`~repro.api.service.ExperimentContext` surface the
simulation-driven experiments actually touch (``run``, ``workloads``,
``artifact(...).suite``), answering every expanded request from the store
— so ``spec.run(ctx)`` followed by ``spec.format(...)`` executes the
*same* experiment code over the *same* typed entries, and the rendered
table is byte-identical to a direct run (pinned by
``tests/warehouse/test_views.py``).

Only experiments whose ``run(ctx)`` is a pure function of simulation
results are viewable; the artifact studies (table1, table2, figure10,
trace-runtime) read prepared traces the warehouse does not store.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.api.matrix import ScenarioMatrix, expand_many
from repro.api.request import SimulationRequest
from repro.api.results import ResultSet
from repro.warehouse.query import WarehouseError
from repro.warehouse.store import WarehouseStore, point_key_of

#: Experiments renderable from stored results alone.
VIEWABLE_EXPERIMENTS = (
    "figure7",
    "figure8",
    "figure9",
    "interrupts",
    "cassandra-lite",
    "sweep",
)


class _SuiteOnly:
    """The one artifact attribute viewable experiments read: the suite."""

    __slots__ = ("suite",)

    def __init__(self, suite: str) -> None:
        self.suite = suite


class WarehouseContext:
    """An experiment context answered from the warehouse, not a service."""

    def __init__(
        self,
        store: WarehouseStore,
        fingerprint: str,
        workloads: Sequence[str],
    ) -> None:
        self.store = store
        self.fingerprint = fingerprint
        self._workloads = list(workloads)
        self.results = ResultSet()
        self.tag: Optional[str] = None
        self._by_key = {
            row.point_key: row
            for row in store.select(fingerprint=fingerprint)
        }

    @property
    def workloads(self) -> List[str]:
        return list(self._workloads)

    @property
    def jobs(self) -> int:
        return 1

    def artifact(self, ref) -> _SuiteOnly:
        """The workload's suite, resolved without any preparation."""
        name = ref if isinstance(ref, str) else ref.name
        suite = getattr(ref, "suite", "")
        if not suite:
            from repro.crypto.workloads import get_workload

            try:
                suite = get_workload(name).suite
            except KeyError:
                if name.startswith("synthetic-"):
                    suite = "synthetic"
                else:
                    raise
        return _SuiteOnly(suite)

    def artifacts(self):  # pragma: no cover - guards misuse
        raise WarehouseError(
            "warehouse views cannot prepare artifacts; only "
            "simulation-result experiments are viewable"
        )

    def run(self, what, priority: int = 0, tags: Sequence[str] = ()) -> ResultSet:
        """Answer an experiment's matrix entirely from stored rows."""
        requests = self._expand(what)
        entries = []
        for request in requests:
            row = self._by_key.get(point_key_of(request))
            if row is None:
                raise WarehouseError(
                    f"fingerprint {self.fingerprint!r} has no stored result "
                    f"for {request.workload.name} × {request.design}; run the "
                    "experiment (with --warehouse) or ingest its export first"
                )
            stored_request, result = row.entry()
            # Answer under the *expanded* request object: its config carries
            # the full identity the stored digest was derived from.
            assert stored_request == request
            entries.append((request, result))
        answer = ResultSet(entries)
        self.results = self.results.merged(answer)
        return answer

    def _expand(self, what) -> List[SimulationRequest]:
        if isinstance(what, (ScenarioMatrix, SimulationRequest)):
            what = [what]
        return expand_many(what, default_workloads=self._workloads)


def view_workloads(
    store: WarehouseStore, fingerprint: str
) -> List[str]:
    """The workload axis a direct run over the stored set would use.

    Workload *order* decides table row order, so it must reproduce the
    producing run's: the canonical selectors keep their canonical order
    (the stored set matching the quick subset renders in quick order, the
    full registry in registry order); anything else falls back to registry
    order filtered to what is stored.
    """
    from repro.crypto.workloads import QUICK_WORKLOADS, workload_names

    stored = {row.workload for row in store.select(fingerprint=fingerprint)}
    registry_stored = {name for name in workload_names() if name in stored}
    if registry_stored == set(QUICK_WORKLOADS):
        return list(QUICK_WORKLOADS)
    return [name for name in workload_names() if name in stored]


def render_view(
    store: WarehouseStore,
    name: str,
    fingerprint: Optional[str] = None,
    workloads: Optional[Sequence[str]] = None,
) -> str:
    """Re-render experiment ``name``'s table from the store.

    ``fingerprint`` defaults to the most recently written one;
    ``workloads`` may be a name list or a CLI selector string
    (``"all"``/``"quick"``/comma-separated) and defaults to
    :func:`view_workloads` — the order a direct run over the stored set
    would have used.
    """
    if name not in VIEWABLE_EXPERIMENTS:
        raise WarehouseError(
            f"experiment {name!r} is not viewable from stored results; "
            f"viewable: {', '.join(VIEWABLE_EXPERIMENTS)}"
        )
    from repro.experiments import resolve_experiments

    spec = resolve_experiments([name])[0]
    if fingerprint is None:
        latest = store.latest_fingerprints(1)
        if not latest:
            raise WarehouseError("the store is empty; nothing to render")
        fingerprint = latest[0]
    if workloads is None:
        workloads = view_workloads(store, fingerprint)
    elif isinstance(workloads, str):
        from repro.crypto.workloads import resolve_workload_names

        try:
            workloads = resolve_workload_names(workloads)
        except KeyError as exc:
            raise WarehouseError(exc.args[0]) from None
    ctx = WarehouseContext(store, fingerprint, workloads)
    data = spec.run(ctx)
    return spec.format(data)
