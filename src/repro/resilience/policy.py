"""Retry policies, deadlines and transient-error classification.

The exploration system's north star is a fleet of workers, external
tools and long-lived services — substrates that fail *partially*: a
worker process dies, a tool hangs, a connection is refused while a
daemon restarts.  The recovery rules live here, shared by every layer:

:class:`RetryPolicy`
    Bounded attempts with exponential backoff and *deterministic* seeded
    jitter (sha256 of ``(seed, key, attempt)``, never ``random`` — two
    runs of the same chaos test sleep the same schedule).  The policy
    only retries errors classified *transient*; permanent errors (bad
    input, model bugs, expired deadlines) propagate immediately, because
    retrying a deterministic computation cannot change its answer.

:class:`Deadline`
    A monotonic-clock budget propagated through the hot paths: backends
    check it between design points, ``run_tool`` clips subprocess
    timeouts to it, and the service derives one per request.  Crossing
    it raises :class:`DeadlineExceededError` — classified permanent, so
    a retry loop never burns the caller's remaining budget on attempts
    that start already doomed.

:class:`MetricFamily`
    The one counter type of the whole system: the resilience
    :data:`COUNTERS`, every pipeline's cache and stage-time counts, the
    dense backend, the disk cache and the service each declare their
    families where they count, and ``/metrics`` renders them as
    declared.  Counters are observability, not behaviour: nothing
    canonical (report bytes, golden files) may ever depend on them.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
import threading
from typing import Callable, Iterable

from repro import record
from repro.obs.logs import get_logger, log_event

_LOG = get_logger("resilience")

__all__ = [
    "COUNTERS",
    "Deadline",
    "DeadlineExceededError",
    "MetricFamily",
    "PermanentError",
    "RetryBudgetExceededError",
    "RetryPolicy",
    "TransientError",
    "is_transient",
    "seeded_unit",
    "sum_families",
]


class TransientError(RuntimeError):
    """An error worth retrying: the substrate failed, not the request."""


class PermanentError(RuntimeError):
    """An error no retry can fix: the request itself is wrong."""


class DeadlineExceededError(PermanentError):
    """The caller's time budget ran out.

    Permanent by classification: a retry starts with even less budget,
    so the only useful reaction is to report the expiry upward (the
    service turns it into an error event; a promoted coalesce follower
    with a fresher budget may still pick the work up).
    """

    def __init__(self, what: str = "", budget_seconds: float | None = None):
        detail = f" ({what})" if what else ""
        budget = (f" after its {budget_seconds:g}s budget"
                  if budget_seconds is not None else "")
        super().__init__(f"deadline exceeded{budget}{detail}")
        self.what = what
        self.budget_seconds = budget_seconds


class RetryBudgetExceededError(RuntimeError):
    """A retry loop exhausted its attempt budget; carries the last cause."""

    def __init__(self, what: str, attempts: int, last: BaseException):
        super().__init__(
            f"{what} still failing after {attempts} attempt(s): {last}")
        self.attempts = attempts
        self.last = last


#: exception types (beyond :class:`TransientError` subclasses) treated as
#: transient
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    TransientError,
    ConnectionError,
    TimeoutError,
)


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` is worth retrying.

    Permanent classifications win over transient base classes —
    :class:`DeadlineExceededError` stays permanent even though
    retry-worthy errors often wrap timeouts.
    """
    if isinstance(exc, PermanentError):
        return False
    return isinstance(exc, _TRANSIENT_TYPES)


def seeded_unit(*token) -> float:
    """A deterministic uniform draw in ``[0, 1)`` derived from ``token``.

    sha256-based, not ``hash()`` (salted per process) and not ``random``
    (global state): the same token gives the same draw in every process
    of a fleet, which is what makes fault plans and jittered backoff
    schedules reproducible.
    """
    digest = hashlib.sha256(repr(token).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class Deadline:
    """A monotonic time budget that hot paths check as they go."""

    __slots__ = ("seconds", "_expires_at", "_clock")

    def __init__(self, seconds: float | None,
                 clock: Callable[[], float] = time.monotonic):
        if seconds is not None and seconds <= 0:
            raise ValueError(f"deadline budget must be positive, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._expires_at = None if seconds is None else clock() + seconds

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        return cls(seconds)

    @classmethod
    def none(cls) -> "Deadline":
        """The infinite deadline: ``check`` never raises."""
        return cls(None)

    def remaining(self) -> float:
        """Seconds left (``inf`` for the infinite deadline, floored at 0)."""
        if self._expires_at is None:
            return math.inf
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._expires_at is not None and self._clock() >= self._expires_at

    def check(self, what: str = "") -> None:
        """Raise :class:`DeadlineExceededError` once the budget is spent."""
        if self.expired:
            raise DeadlineExceededError(what, self.seconds)

    def clip(self, timeout: float) -> float:
        """``timeout`` clipped to the remaining budget (for subprocesses)."""
        return min(timeout, self.remaining())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self._expires_at is None:
            return "Deadline(none)"
        return f"Deadline({self.seconds:g}s, {self.remaining():.3f}s left)"


@record(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``delay(attempt, key)`` is a pure function of ``(seed, key,
    attempt)``; the ``key`` separates the jitter streams of unrelated
    call sites so a thundering herd of workers retrying the same failure
    spreads out instead of stampeding in lockstep.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    #: +/- fraction of the raw backoff the jitter may shift a delay by
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"a retry policy needs at least one attempt, got "
                f"{self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {self.jitter}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """The single-attempt policy: failures propagate immediately."""
        return cls(max_attempts=1)

    # ------------------------------------------------------------------
    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered."""
        raw = min(self.max_delay, self.base_delay * self.multiplier ** attempt)
        spread = 2.0 * seeded_unit(self.seed, key, attempt) - 1.0
        return max(0.0, raw * (1.0 + self.jitter * spread))

    def attempts(self) -> Iterable[int]:
        return range(self.max_attempts)

    # ------------------------------------------------------------------
    def call(self, fn: Callable[[int], object], *, key: str = "",
             what: str = "operation",
             deadline: Deadline | None = None,
             classify: Callable[[BaseException], bool] = is_transient,
             on_retry: Callable[[int, BaseException], None] | None = None,
             sleep: Callable[[float], None] = time.sleep):
        """Run ``fn(attempt)`` until it returns, the error goes permanent,
        or the budget runs out.

        Transient errors on the last attempt are wrapped in
        :class:`RetryBudgetExceededError` (so callers can distinguish "the
        substrate never recovered" from the first failure); permanent
        errors propagate untouched and uncounted.
        """
        last: BaseException | None = None
        for attempt in self.attempts():
            if deadline is not None:
                deadline.check(what)
            try:
                return fn(attempt)
            except BaseException as exc:  # noqa: BLE001 - reclassified below
                if not classify(exc):
                    raise
                last = exc
                if attempt == self.max_attempts - 1:
                    break
                COUNTERS.bump("retries")
                COUNTERS.bump(f"retries.{key or what}")
                log_event(
                    _LOG,
                    "retry",
                    level=logging.DEBUG,
                    site="retry_policy",
                    key=key or what,
                    cause=f"{type(exc).__name__}: {exc}",
                    attempt=attempt + 1,
                    budget=self.max_attempts,
                )
                if on_retry is not None:
                    on_retry(attempt, exc)
                pause = self.delay(attempt, key)
                if deadline is not None:
                    pause = min(pause, deadline.remaining())
                if pause > 0:
                    sleep(pause)
        assert last is not None
        raise RetryBudgetExceededError(what, self.max_attempts, last) from last


class MetricFamily:
    """A labelled metric family: label-value tuple -> number under one lock.

    The one counter type every stat surface keeps, shaped like a
    Prometheus family (name, kind ``counter`` or ``gauge``, label names,
    help text).  A series key is its label-value tuple; a one-label
    family also takes the bare value (``COUNTERS.bump("retries")``).
    Deliberately dumb so a hot-path ``bump`` is one dict update under
    one lock.  Pickles without the lock, as a snapshot of its counts;
    :func:`sum_families` adds same-named families up.
    """

    __slots__ = ("name", "kind", "labelnames", "help", "_lock", "_values")

    def __init__(self, name: str, labelnames: tuple[str, ...] = (),
                 help: str = "", kind: str = "counter") -> None:
        if kind not in ("counter", "gauge"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.help = help
        self._lock = threading.Lock()
        self._values: dict = {}

    def bump(self, key=(), n: float = 1) -> None:
        with self._lock:
            self._values[key] = self._values.get(key, 0) + n

    def set(self, key, value: float) -> None:
        """Set a gauge series (counters only ever ``bump``)."""
        if self.kind != "gauge":
            raise TypeError(f"{self.name} is a {self.kind}; only gauges are set")
        with self._lock:
            self._values[key] = value

    def get(self, key=()) -> float:
        with self._lock:
            return self._values.get(key, 0)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(sorted(self._values.items()))

    def add(self, snapshot: dict) -> None:
        """Sum another family's snapshot into this one."""
        with self._lock:
            for key, value in snapshot.items():
                self._values[key] = self._values.get(key, 0) + value

    def reset(self, values: dict | None = None) -> None:
        """Replace every series with ``values`` (default: none) in one
        step, so a concurrent snapshot sees the old or the new series,
        never a half-filled family (a gauge re-read, or test isolation)."""
        with self._lock:
            self._values = dict(values or {})

    def __getstate__(self):
        return (self.name, self.kind, self.labelnames, self.help,
                self.snapshot())

    def __setstate__(self, state) -> None:
        self.name, self.kind, self.labelnames, self.help, values = state
        self._lock = threading.Lock()
        self._values = values


def sum_families(families: Iterable[MetricFamily]) -> dict[str, MetricFamily]:
    """Same-named families summed into one fresh family each, by name."""
    totals: dict[str, MetricFamily] = {}
    for family in families:
        total = totals.get(family.name)
        if total is None:
            total = totals[family.name] = MetricFamily(
                family.name, family.labelnames, family.help, family.kind)
        total.add(family.snapshot())
    return totals


#: the process-wide resilience counters (retries, injected faults,
#: fallbacks, leader promotions) every layer bumps and ``/metrics`` exposes
COUNTERS = MetricFamily(
    "tybec_resilience_events_total", ("counter",),
    "Resilience events: retries, injected faults, fallbacks, promotions.")
