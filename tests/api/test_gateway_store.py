"""GatewayStore semantics: tenants, keys, quotas, ledger, durability.

The store is the gateway's only memory, so everything here is about what
survives — reopening the same state dir (including "after a crash": the
store is fsync-per-commit), revocation really revoking, and the
``store-write`` fault site leaving acknowledged state untouched when a
write dies before its commit.
"""

import pytest

from repro.api.gateway.admin import admin_main
from repro.api.gateway.store import KEY_PREFIX, GatewayStore, UsageRecord
from repro.testing import Fault, FaultPlan, InjectedFault, activate


@pytest.fixture()
def store(tmp_path):
    with GatewayStore(str(tmp_path)) as gateway_store:
        yield gateway_store


# --------------------------------------------------------------------------- #
# Tenants and keys
# --------------------------------------------------------------------------- #
def test_tenant_and_key_lifecycle(store):
    tenant = store.create_tenant("acme", points_per_day=100)
    assert store.get_tenant(tenant.tenant_id) == tenant
    assert store.tenant_by_name("acme") == tenant
    assert store.list_tenants() == [tenant]

    plaintext, key = store.issue_key(tenant.tenant_id, label="ci")
    assert plaintext.startswith(KEY_PREFIX)
    assert key.active and key.label == "ci"
    assert store.lookup_key(plaintext) == tenant

    assert store.revoke_key(key.key_id)
    assert store.lookup_key(plaintext) is None  # revoked keys stop working
    assert not store.revoke_key(key.key_id)  # idempotent: already revoked
    assert not store.list_keys(tenant.tenant_id)[0].active


def test_duplicate_tenant_name_rejected(store):
    store.create_tenant("acme")
    with pytest.raises(ValueError):
        store.create_tenant("acme")


def test_unknown_key_and_unknown_tenant(store):
    assert store.lookup_key("rk_" + "0" * 64) is None
    with pytest.raises(KeyError):
        store.issue_key("t-missing")
    with pytest.raises(KeyError):
        store.set_quotas("t-missing", points_per_day=1)


def test_set_quotas_replaces_overrides(store):
    tenant = store.create_tenant("acme", max_concurrent_jobs=2)
    updated = store.set_quotas(tenant.tenant_id, points_per_day=10)
    assert updated.points_per_day == 10
    assert updated.max_concurrent_jobs is None  # replace, not merge


def test_keys_are_stored_hashed(store, tmp_path):
    tenant = store.create_tenant("acme")
    plaintext, _key = store.issue_key(tenant.tenant_id)
    raw = (tmp_path / "gateway.sqlite3").read_bytes()
    assert plaintext.encode() not in raw


# --------------------------------------------------------------------------- #
# Job ownership and the usage ledger
# --------------------------------------------------------------------------- #
def test_job_ownership_and_active_load(store):
    tenant = store.create_tenant("acme")
    other = store.create_tenant("rival")
    store.record_job("job-1", tenant.tenant_id, points=3, state="queued")
    store.record_job("job-2", tenant.tenant_id, points=2, state="running")
    store.record_job("job-3", other.tenant_id, points=9, state="running")

    assert store.job_owner("job-1") == tenant.tenant_id
    assert store.job_owner("job-9") is None
    assert store.active_load(tenant.tenant_id) == (2, 5)

    # The ledger row commits the job's terminal state with it.
    store.record_usage(UsageRecord(tenant.tenant_id, "job-1", 1.0, 3, 2, 1, 0.5))
    assert store.active_load(tenant.tenant_id) == (1, 2)


def test_usage_totals_and_window(store):
    tenant = store.create_tenant("acme")
    now = 1_000_000.0
    for index, recorded in enumerate((now - 500, now - 100)):
        store.record_usage(
            UsageRecord(
                tenant_id=tenant.tenant_id,
                job_id=f"job-{index}",
                recorded=recorded,
                points=4,
                computed=3,
                cache_hits=1,
                wall_seconds=1.5,
                native_compile_seconds=0.25,
            )
        )
    totals = store.usage_totals(tenant.tenant_id)
    assert totals["jobs"] == 2
    assert totals["points"] == 8
    assert totals["computed"] == 6
    assert totals["cache_hits"] == 2
    assert totals["wall_seconds"] == pytest.approx(3.0)
    assert totals["native_compile_seconds"] == pytest.approx(0.5)

    # A 300s window only sees the newer row; retry-after is the time until
    # that row (the window's oldest) ages out.
    points, retry = store.points_in_window(tenant.tenant_id, 300.0, now=now)
    assert points == 4
    assert retry == pytest.approx(200.0)
    # A wide window sees both; the older row expires first.
    points, retry = store.points_in_window(tenant.tenant_id, 1000.0, now=now)
    assert points == 8
    assert retry == pytest.approx(500.0)
    # An empty window is free.
    assert store.points_in_window(tenant.tenant_id, 50.0, now=now) == (0, 0.0)


# --------------------------------------------------------------------------- #
# Durability
# --------------------------------------------------------------------------- #
def test_reopen_sees_every_acknowledged_write(tmp_path):
    with GatewayStore(str(tmp_path)) as first:
        assert first._conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        tenant = first.create_tenant("acme", points_per_day=50)
        plaintext, key = first.issue_key(tenant.tenant_id, label="dev")
        first.record_job("job-1", tenant.tenant_id, points=2, state="running")
        first.record_usage(
            UsageRecord(tenant.tenant_id, "job-0", 123.0, 1, 1, 0, 0.5)
        )

    with GatewayStore(str(tmp_path)) as second:
        assert second.lookup_key(plaintext) == tenant
        assert second.job_owner("job-1") == tenant.tenant_id
        assert second.usage_totals(tenant.tenant_id)["jobs"] == 1
        assert [k.key_id for k in second.list_keys()] == [key.key_id]


def test_store_write_crash_leaves_store_unchanged(tmp_path):
    """A ``store-write`` crash fires *before* the execute+commit: the
    acknowledged store state is exactly what it was, and a reopen (the
    post-kill restart) confirms nothing torn landed."""
    with GatewayStore(str(tmp_path)) as store:
        store.create_tenant("acme")
        plan = FaultPlan.scripted(Fault("store-write", 0, "crash"))
        with activate(plan) as active:
            with pytest.raises(InjectedFault):
                store.create_tenant("doomed")
            assert [fault.site for fault in active.fired] == ["store-write"]
        assert store.tenant_by_name("doomed") is None

    with GatewayStore(str(tmp_path)) as reopened:
        assert reopened.tenant_by_name("doomed") is None
        assert reopened.tenant_by_name("acme") is not None


# --------------------------------------------------------------------------- #
# The admin CLI
# --------------------------------------------------------------------------- #
def test_admin_cli_full_lifecycle(tmp_path, capsys):
    state = str(tmp_path)
    assert admin_main(["--state-dir", state, "create-tenant", "acme",
                       "--points-per-day", "100"]) == 0
    capsys.readouterr()

    assert admin_main(["--state-dir", state, "create-key", "acme",
                       "--label", "ci"]) == 0
    out = capsys.readouterr().out
    key_id = next(l.split(": ")[1] for l in out.splitlines() if l.startswith("key-id:"))
    plaintext = next(
        l.split(": ")[1] for l in out.splitlines() if l.startswith("api-key:")
    )
    assert plaintext.startswith(KEY_PREFIX)

    with GatewayStore(state) as store:
        tenant = store.lookup_key(plaintext)
        assert tenant is not None and tenant.name == "acme"
        assert tenant.points_per_day == 100

    assert admin_main(["--state-dir", state, "set-quota", "acme",
                       "--max-concurrent-jobs", "3"]) == 0
    assert admin_main(["--state-dir", state, "list-tenants", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"max_concurrent_jobs": 3' in out.splitlines()[-1]

    assert admin_main(["--state-dir", state, "list-keys"]) == 0
    assert key_id in capsys.readouterr().out

    assert admin_main(["--state-dir", state, "revoke-key", key_id]) == 0
    with GatewayStore(state) as store:
        assert store.lookup_key(plaintext) is None

    capsys.readouterr()
    assert admin_main(["--state-dir", state, "revoke-key", key_id]) == 2
    assert admin_main(["--state-dir", state, "create-key", "ghost"]) == 2
    assert admin_main(["--state-dir", state, "create-tenant", "acme"]) == 2
