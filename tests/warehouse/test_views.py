"""Warehouse views: stored results re-render the paper's tables exactly.

The acceptance pin for the whole subsystem: a figure rendered from the
warehouse is byte-identical to the one the direct experiment run printed.
"""

import pytest

from repro.api import SimulationService
from repro.experiments import resolve_experiments
from repro.warehouse import (
    WarehouseContext,
    WarehouseError,
    WarehouseRow,
    WarehouseStore,
    attach_ingestor,
    render_view,
)
from repro.warehouse.views import view_workloads

WORKLOAD = "ChaCha20_ct"
FINGERPRINT = "fp-view"


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    """Run figure7 live with the ingestor attached; keep both artifacts."""
    store = WarehouseStore(str(tmp_path_factory.mktemp("wh") / "wh.sqlite3"))
    service = SimulationService(names=[WORKLOAD], jobs=1, backend="serial")
    attach_ingestor(service, store, fingerprint=FINGERPRINT)
    spec = resolve_experiments(["figure7"])[0]
    ctx = service.context()
    direct = spec.format(spec.run(ctx))
    service.close()  # scheduler drained: every point event has been ingested
    import time

    deadline = time.monotonic() + 30.0
    while store.count() < len(ctx.results) and time.monotonic() < deadline:
        time.sleep(0.02)
    yield store, direct
    store.close()


def test_view_is_byte_identical_to_direct_run(rendered):
    store, direct = rendered
    assert render_view(store, "figure7") == direct
    # Pinning the fingerprint and workload axis explicitly changes nothing.
    assert (
        render_view(
            store, "figure7", fingerprint=FINGERPRINT, workloads=[WORKLOAD]
        )
        == direct
    )


def test_view_accepts_cli_workload_selectors(rendered):
    store, direct = rendered
    assert render_view(store, "figure7", workloads=WORKLOAD) == direct


def test_missing_points_fail_loudly(rendered):
    store, _ = rendered
    ctx = WarehouseContext(store, FINGERPRINT, [WORKLOAD])
    from repro.api import ScenarioMatrix

    with pytest.raises(WarehouseError, match="no stored result"):
        # figure7 never simulates SHA-256 here; the store cannot answer it.
        ctx.run(ScenarioMatrix(workloads=("SHA-256",), designs=("cassandra",)))


@pytest.mark.parametrize("selector", ["", "NoSuchKernel"])
def test_bad_workload_selector_fails_loudly(rendered, selector):
    store, _ = rendered
    with pytest.raises(WarehouseError, match="workload"):
        render_view(store, "figure7", fingerprint=FINGERPRINT, workloads=selector)


def test_unknown_fingerprint_fails_loudly(rendered):
    store, _ = rendered
    with pytest.raises(WarehouseError, match="no stored result"):
        render_view(store, "figure7", fingerprint="ghost", workloads=[WORKLOAD])


def test_non_viewable_experiment_is_rejected(rendered):
    store, _ = rendered
    with pytest.raises(WarehouseError, match="not viewable"):
        render_view(store, "table1")


def test_empty_store_is_rejected(tmp_path):
    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    with pytest.raises(WarehouseError, match="empty"):
        render_view(store, "figure7")
    store.close()


def test_view_workloads_reproduces_quick_order(tmp_path):
    """A stored quick run must render in quick-preset order, not registry
    order — row order is part of byte-identity."""
    from repro.crypto.workloads import QUICK_WORKLOADS
    from repro.crypto.workloads import workload_names

    store = WarehouseStore(str(tmp_path / "wh.sqlite3"))
    for name in sorted(QUICK_WORKLOADS):  # insert in a scrambled order
        store.upsert(
            WarehouseRow(
                point_key=f'["{name}","cassandra","d",false,0,1]',
                fingerprint="fp",
                workload=name,
                design="cassandra",
                config_digest="d",
                btu_flush_interval=None,
                warmup_passes=1,
                cycles=100,
                recorded=1.0,
            )
        )
    assert view_workloads(store, "fp") == list(QUICK_WORKLOADS)
    registry_order = [n for n in workload_names() if n in set(QUICK_WORKLOADS)]
    assert list(QUICK_WORKLOADS) != registry_order  # the pin is meaningful
    store.close()
