"""The shared retry policy: bounded exponential backoff with jitter.

Transient failures — an injected io-error, a flaky disk, a briefly
broken pool — are retried under one :class:`RetryPolicy` shape
everywhere (ResultCache store reads, aggregate partial dispatch,
spilled-session restore) so the robustness behaviour is analysable in one
place:

* the *backoff schedule* is pure and monotone non-decreasing —
  ``base_delay_s * multiplier**attempt`` capped at ``max_delay_s``;
* *jitter* multiplies each delay by ``1 + jitter * u`` with ``u``
  drawn uniformly from ``[0, 1]`` off a :class:`~repro.sim.rng.
  SeededRng`, so the jittered delay stays within
  ``[backoff, backoff * (1 + jitter)]`` and is deterministic under a
  fixed seed;
* the total time slept never exceeds ``budget_s`` (the per-site
  timeout budget) — the final delay is truncated to the remaining
  budget, and an exhausted budget stops retrying early;
* exhaustion raises a typed :class:`RetriesExhaustedError` carrying
  the site, the attempt count, and the last underlying error — the
  signal callers turn into a graceful degradation (cache miss, typed
  error response) instead of an anonymous crash.

Each retry publishes a :class:`~repro.telemetry.RetryAttemptEvent`
(first-attempt successes publish nothing, keeping the happy path
silent and cheap).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple, Type, TypeVar

from ..sim.rng import SeededRng, derive_seed

T = TypeVar("T")

_bus = None  # module-level lazy bus so capture() can hook it


class RetriesExhaustedError(RuntimeError):
    """Every allowed attempt at a site failed (or the budget ran out)."""

    def __init__(
        self,
        site: str,
        attempts: int,
        slept_s: float,
        last_error: Optional[BaseException],
    ) -> None:
        super().__init__(
            f"retries exhausted at {site} after {attempts} attempt(s) "
            f"({slept_s:.3f}s backoff): {last_error!r}"
        )
        self.site = site
        self.attempts = attempts
        self.slept_s = slept_s
        self.last_error = last_error


@dataclass(frozen=True)
class RetryPolicy:
    """One site's retry shape; every field is validated at construction."""

    attempts: int = 3  # total tries, including the first
    base_delay_s: float = 0.005
    multiplier: float = 2.0
    max_delay_s: float = 0.1
    jitter: float = 0.5  # max extra fraction of each backoff delay
    budget_s: float = 1.0  # total sleep allowed across all retries

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts {self.attempts!r} must be >= 1")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s {self.base_delay_s!r} must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier {self.multiplier!r} must be >= 1")
        if self.max_delay_s < 0:
            raise ValueError(f"max_delay_s {self.max_delay_s!r} must be >= 0")
        if self.jitter < 0:
            raise ValueError(f"jitter {self.jitter!r} must be >= 0")
        if self.budget_s < 0:
            raise ValueError(f"budget_s {self.budget_s!r} must be >= 0")

    def backoff(self, attempt: int) -> float:
        """The pure (un-jittered) delay after failed attempt ``attempt``.

        Monotone non-decreasing in ``attempt`` and capped at
        ``max_delay_s`` — the properties the hypothesis suite pins.
        """
        if attempt < 0:
            raise ValueError(f"attempt {attempt!r} must be >= 0")
        return min(self.base_delay_s * self.multiplier**attempt, self.max_delay_s)

    def schedule(self) -> Tuple[float, ...]:
        """The full un-jittered backoff schedule (one delay per retry)."""
        return tuple(self.backoff(i) for i in range(self.attempts - 1))

    def delay_for(self, attempt: int, rng: SeededRng) -> float:
        """The jittered delay after failed attempt ``attempt``.

        Always within ``[backoff, backoff * (1 + jitter)]``.
        """
        return self.backoff(attempt) * (1.0 + self.jitter * rng.uniform(0.0, 1.0))


#: The shape shared by every adopted call site.
DEFAULT_RETRY_POLICY = RetryPolicy()


def retry_rng(site: str, seed: Optional[int] = None) -> SeededRng:
    """The jitter stream for one site (plane seed by default).

    With an armed fault plane the stream forks from the plane's seed,
    so a chaos run's jitter replays with the run; otherwise seed 0
    keeps un-seeded callers deterministic too.
    """
    if seed is None:
        from .plane import active_plane

        plane = active_plane()
        seed = plane.seed if plane is not None else 0
    return SeededRng(derive_seed(seed, f"retry:{site}"))


def run_with_retry(
    fn: Callable[[], T],
    site: str,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    retry_on: Tuple[Type[BaseException], ...] = (OSError,),
    rng: Optional[SeededRng] = None,
    sleep: Callable[[float], Any] = time.sleep,
) -> T:
    """Call ``fn`` under ``policy``, retrying ``retry_on`` failures.

    The first attempt costs one ``try`` — no rng, no events.  ``rng``
    and ``sleep`` are injectable so the property tests can observe the
    exact delays without wall-clock sleeping.
    """
    last: Optional[BaseException] = None
    slept = 0.0
    attempt = 0
    for attempt in range(policy.attempts):
        try:
            return fn()
        except retry_on as exc:
            last = exc
            if attempt == policy.attempts - 1:
                break
            remaining = policy.budget_s - slept
            if remaining <= 0.0:
                break
            if rng is None:
                rng = retry_rng(site)
            delay = min(policy.delay_for(attempt, rng), remaining)
            _publish_retry(site, attempt + 1, delay, exc)
            sleep(delay)
            slept += delay
    raise RetriesExhaustedError(site, attempt + 1, slept, last) from last


def _publish_retry(site: str, attempt: int, delay_s: float, error: BaseException) -> None:
    from ..telemetry import RetryAttemptEvent, TelemetryBus

    global _bus
    if _bus is None:
        _bus = TelemetryBus()
    _bus.publish(
        RetryAttemptEvent(
            time=0.0,
            site=site,
            attempt=attempt,
            delay_s=delay_s,
            error=repr(error),
        )
    )
