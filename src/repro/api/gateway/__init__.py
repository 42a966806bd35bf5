"""The HTTP/JSON server over the durable scheduler, open or multi-tenant.

Three layers, mirroring the routers/services/models split:

* :mod:`~repro.api.gateway.store` — **models**: the SQLite
  :class:`~repro.api.gateway.store.GatewayStore` (tenants, hashed API
  keys, quotas, usage ledger, job ownership) living next to the job
  journal in ``--state-dir``.
* :mod:`~repro.api.gateway.auth` / :mod:`~repro.api.gateway.quota` /
  :mod:`~repro.api.gateway.usage` — **services**: bearer-key
  authentication, pre-submit admission control, and event-stream usage
  metering.
* :mod:`~repro.api.gateway.http` — **routers**: the stdlib HTTP/1.1
  server mapping ``/v1`` routes onto the scheduler, including the
  Server-Sent Events job stream with ``Last-Event-ID`` resume.

``repro gateway`` (and ``repro gateway admin``) in :mod:`repro.cli` is
the keyed operational entry and ``repro serve`` the open one (no store:
no tenants, every ``/v1`` route open);
:class:`~repro.api.gateway.http.GatewayServer` is the embeddable one.
"""

from repro.api.gateway.auth import AuthError, AuthService
from repro.api.gateway.http import GatewayServer
from repro.api.gateway.quota import QuotaDefaults, QuotaExceeded, QuotaService
from repro.api.gateway.store import ApiKey, GatewayStore, Tenant, UsageRecord
from repro.api.gateway.usage import UsageService, tenant_from_tags, tenant_tag

__all__ = [
    "ApiKey",
    "AuthError",
    "AuthService",
    "GatewayServer",
    "GatewayStore",
    "QuotaDefaults",
    "QuotaExceeded",
    "QuotaService",
    "Tenant",
    "UsageRecord",
    "UsageService",
    "tenant_from_tags",
    "tenant_tag",
]
