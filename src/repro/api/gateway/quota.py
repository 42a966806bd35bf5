"""Per-tenant admission control, enforced *before* ``Scheduler.submit``.

Three limits, each either a per-tenant override (a column on the tenant
row) or the gateway-wide default (:class:`QuotaDefaults`, configurable via
CLI flags / ``REPRO_GATEWAY_*`` env vars); ``None`` anywhere means
unlimited:

* **concurrent jobs** — live (queued or running) jobs the tenant may hold;
* **queued points** — points across those live jobs;
* **points per window** — ledger points in the rolling usage window
  (default one day — the "points/day" quota).

A breach raises :class:`QuotaExceeded` carrying ``retry_after`` seconds —
for the windowed quota that is the honest time until the oldest ledger row
ages out; for load quotas it is a short poll hint, since the limit clears
whenever one of the tenant's own jobs finishes.  The router maps it to a
429 with a ``Retry-After`` header.  Live load is read off the scheduler:
the tenant's unfinished handles and their points.  Nothing is reserved:
the check is advisory-read + submit, and the submitted handle is what the
next check counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.api.gateway.store import GatewayStore, Tenant
from repro.api.gateway.usage import tenant_from_tags

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.scheduler import Scheduler

#: The rolling usage window (seconds) behind "points per day".
DEFAULT_WINDOW_SECONDS = 86400.0

#: Retry hint for load quotas, which clear as soon as a job finishes.
LOAD_RETRY_AFTER = 5.0


@dataclass(frozen=True)
class QuotaDefaults:
    """Gateway-wide fallback limits (``None`` = unlimited)."""

    max_concurrent_jobs: Optional[int] = None
    max_queued_points: Optional[int] = None
    points_per_day: Optional[int] = None


class QuotaExceeded(RuntimeError):
    """A submit would breach a quota (→ HTTP 429 + ``Retry-After``)."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QuotaService:
    """Answer "may this tenant enqueue N more points right now?"."""

    def __init__(
        self,
        store: GatewayStore,
        scheduler: "Scheduler",
        defaults: Optional[QuotaDefaults] = None,
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
    ) -> None:
        self.store = store
        self.scheduler = scheduler
        self.defaults = defaults if defaults is not None else QuotaDefaults()
        self.window_seconds = window_seconds

    def effective(self, tenant: Tenant) -> Dict[str, Optional[int]]:
        """The limits that actually apply: tenant override, else default."""
        defaults = self.defaults
        return {
            "max_concurrent_jobs": (
                tenant.max_concurrent_jobs
                if tenant.max_concurrent_jobs is not None
                else defaults.max_concurrent_jobs
            ),
            "max_queued_points": (
                tenant.max_queued_points
                if tenant.max_queued_points is not None
                else defaults.max_queued_points
            ),
            "points_per_day": (
                tenant.points_per_day
                if tenant.points_per_day is not None
                else defaults.points_per_day
            ),
        }

    def live_load(self, tenant_id: str) -> Tuple[int, int]:
        """``(unfinished jobs, their points)`` the tenant holds right now."""
        live = [
            handle
            for handle in self.scheduler.jobs()
            if not handle.done and tenant_from_tags(handle.tags) == tenant_id
        ]
        return len(live), sum(len(handle.requests) for handle in live)

    def check(self, tenant: Tenant, points: int) -> None:
        """Raise :class:`QuotaExceeded` if admitting ``points`` would breach.

        Called before ``Scheduler.submit`` so a rejected request never
        touches the journal or the queue.
        """
        limits = self.effective(tenant)
        active_jobs, queued_points = self.live_load(tenant.tenant_id)

        limit = limits["max_concurrent_jobs"]
        if limit is not None and active_jobs >= limit:
            raise QuotaExceeded(
                f"concurrent job limit reached ({active_jobs}/{limit})",
                retry_after=LOAD_RETRY_AFTER,
            )

        limit = limits["max_queued_points"]
        if limit is not None and queued_points + points > limit:
            raise QuotaExceeded(
                f"queued point limit would be exceeded "
                f"({queued_points} queued + {points} requested > {limit})",
                retry_after=LOAD_RETRY_AFTER,
            )

        limit = limits["points_per_day"]
        if limit is not None:
            used, expires_in = self.store.points_in_window(
                tenant.tenant_id, self.window_seconds
            )
            if used + points > limit:
                # Retry when the oldest windowed ledger row ages out; an
                # empty window (limit smaller than the batch) can only
                # clear via a config change, so quote the full window.
                retry_after = expires_in if expires_in > 0 else self.window_seconds
                raise QuotaExceeded(
                    f"usage window limit would be exceeded "
                    f"({used} used + {points} requested > {limit} per "
                    f"{self.window_seconds:.0f}s)",
                    retry_after=retry_after,
                )
