"""The retry/timeout policy of the HTTP client.

:class:`RetryPolicy` is the one frozen, explicit contract — and the only
timeout knob — of :class:`~repro.api.remote.RemoteServiceClient` and
:class:`~repro.api.remote.RemoteBackend`:

* **Bounded attempts** — ``max_attempts`` tries with exponential backoff
  (``base_delay * backoff**attempt``, capped at ``max_delay``).
* **Deterministic jitter** — the jitter fraction is derived from a hash of
  the attempt's ``token``, not ``random``: two runs of the same scenario
  back off identically, which is what makes the fault-injection suite
  reproducible.
* **Deadline** — an optional overall wall-clock budget across attempts; the
  last error is re-raised once it is spent.
* **Timeout defaults** — ``connect_timeout`` for dialing,
  ``io_timeout`` for individual reads on an established connection
  (``None`` = block).
* **Reconnection** — ``reconnect`` marks policies whose stream consumers
  (:class:`~repro.api.remote.RemoteJobHandle`) may transparently re-open
  the event stream and resume after the last seen event ``seq``
  (``Last-Event-ID``) instead of failing the sweep.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, Type, TypeVar

T = TypeVar("T")


class RetryError(ConnectionError):
    """Every attempt failed; carries the last underlying error as cause."""


@dataclass(frozen=True)
class RetryPolicy:
    """How a networked operation retries, backs off, and times out."""

    #: Attempts per operation (1 = no retry).
    max_attempts: int = 4
    #: Delay before the second attempt, in seconds.
    base_delay: float = 0.05
    #: Multiplier applied per subsequent attempt.
    backoff: float = 2.0
    #: Upper bound on any single delay.
    max_delay: float = 2.0
    #: Jitter fraction in [0, 1]: each delay is scaled by a deterministic
    #: factor in [1 - jitter, 1 + jitter] derived from the attempt token.
    jitter: float = 0.1
    #: Overall wall-clock budget across attempts (None = unbounded).
    deadline: Optional[float] = None
    #: Timeout for establishing a connection.
    connect_timeout: float = 10.0
    #: Default per-read timeout on established connections (None = block).
    io_timeout: Optional[float] = 120.0
    #: Whether stream consumers may transparently reconnect and resume.
    reconnect: bool = True

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The pre-policy behavior: one attempt, blocking I/O, no reconnect."""
        return cls(max_attempts=1, io_timeout=None, reconnect=False)

    def with_(self, **overrides) -> "RetryPolicy":
        """A copy with ``overrides`` applied (it's a frozen dataclass)."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------ #
    # Delay schedule
    # ------------------------------------------------------------------ #
    def delay(self, attempt: int, token: str = "") -> float:
        """The deterministic pause after failed attempt number ``attempt``.

        ``attempt`` counts from 0 (the delay before the *second* attempt).
        The jitter factor hashes ``token``/``attempt`` so distinct callers
        desynchronize while any single scenario replays identically.
        """
        base = min(self.base_delay * (self.backoff ** attempt), self.max_delay)
        if not self.jitter:
            return base
        digest = hashlib.sha256(f"{token}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:4], "big") / 0xFFFFFFFF  # [0, 1]
        return max(0.0, base * (1.0 + self.jitter * (2.0 * unit - 1.0)))

    # ------------------------------------------------------------------ #
    # Driver
    # ------------------------------------------------------------------ #
    def call(
        self,
        attempt: Callable[[], T],
        retry_on: Tuple[Type[BaseException], ...] = (OSError,),
        token: str = "",
        sleep: Callable[[float], None] = time.sleep,
    ) -> T:
        """Run ``attempt`` under this policy; return its first success.

        Exceptions not in ``retry_on`` propagate immediately.  When every
        attempt fails (or the deadline is spent first) the last error is
        re-raised as-is, so callers keep their typed ``except`` clauses.
        """
        started = time.monotonic()
        last: Optional[BaseException] = None
        for index in range(max(1, self.max_attempts)):
            try:
                return attempt()
            except retry_on as exc:  # noqa: PERF203 - retry loop by design
                last = exc
                if index + 1 >= max(1, self.max_attempts):
                    break
                pause = self.delay(index, token=token)
                if self.deadline is not None:
                    remaining = self.deadline - (time.monotonic() - started)
                    if remaining <= pause:
                        break
                sleep(pause)
        assert last is not None
        raise last
