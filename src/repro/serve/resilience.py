"""Retry and circuit-breaker primitives for the serving layer.

The recovery model follows standard fleet practice:

* **Bounded retry with exponential backoff** (:class:`RetryPolicy`) —
  transient faults (injected OOMs, a device dying mid-request) are
  retried on the least-loaded healthy device, up to ``max_attempts``
  total executions.  Backoff is *accounted* into request latency rather
  than slept, keeping simulated replays fast while the latency
  histograms still show the tail cost.
* **Per-device circuit breaker** (:class:`CircuitBreaker`) — a device
  failing ``failure_threshold`` consecutive times (or once fatally) is
  ejected from placement; after ``cooldown_s`` it is probed again
  (half-open) and re-admitted on the first success.

Graceful degradation (rebuilding an OOMing CELL plan as CSR) lives in
:class:`repro.serve.server.SpMMServer`, which owns the plans; this module
is deliberately plan-agnostic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

#: Backoff before the first retry; each further retry doubles it, up to
#: :data:`BACKOFF_MAX_MS`.
BACKOFF_BASE_MS = 0.5
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_MS = 20.0

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff.

    ``max_attempts`` counts total executions (1 = no retries).  The
    backoff is only accounted — :meth:`backoff_ms` feeds the request's
    latency — so chaos replays do not serialize on wall-clock sleeps.
    """

    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    @staticmethod
    def backoff_ms(retry_number: int) -> float:
        """Backoff before the ``retry_number``-th retry (1-based)."""
        if retry_number < 1:
            raise ValueError(f"retry_number must be >= 1, got {retry_number}")
        return min(BACKOFF_MAX_MS, BACKOFF_BASE_MS * BACKOFF_FACTOR ** (retry_number - 1))


@dataclass
class CircuitBreaker:
    """Three-state (closed / open / half-open) breaker for one device.

    ``allow()`` gates placement: closed always admits; open admits only
    after ``cooldown_s`` has elapsed, transitioning to half-open; half-open
    admits probes until a result is recorded (the server is sequential, so
    at most one probe is in flight).  A fatal failure (device lost) trips
    the breaker immediately regardless of the threshold.
    """

    failure_threshold: int = 3
    cooldown_s: float = 1.0
    clock: Callable[[], float] = field(default=time.monotonic)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        #: Times the breaker tripped closed/half-open -> open.
        self.trips = 0

    def allow(self) -> bool:
        """May the device take traffic right now?"""
        if self.state == CLOSED or self.state == HALF_OPEN:
            return True
        if self.opened_at is None or self.clock() - self.opened_at >= self.cooldown_s:
            self.state = HALF_OPEN
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self.state = CLOSED
        self.opened_at = None

    def record_failure(self, fatal: bool = False) -> bool:
        """Record one failed launch; returns True when this trips open."""
        self.consecutive_failures += 1
        should_trip = (
            fatal
            or self.state == HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        )
        if should_trip and self.state != OPEN:
            self.state = OPEN
            self.opened_at = self.clock()
            self.trips += 1
            return True
        if should_trip:
            # already open (e.g. a straggling failure): refresh the cooldown
            self.opened_at = self.clock()
        return False
