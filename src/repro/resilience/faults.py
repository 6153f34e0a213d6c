"""Deterministic fault injection at named sites.

Chaos testing a deterministic system needs deterministic chaos: a
:class:`FaultPlan` decides, from a seed and a per-site call counter,
exactly which invocations fail — the same plan produces the same fault
schedule in every run, so a test asserting "the report survives 20%
failed costing calls byte-identically" is reproducible, not probabilistic.

Instrumented sites call :func:`maybe_fail` with their site name; the
call is a no-op (one dict lookup) unless a plan is active.  The known
sites:

``cache.read`` / ``cache.write``
    :class:`~repro.cost.cache.DiskCache` entry load / persist.  A read
    fault becomes a cache miss; a write fault simulates a process dying
    between temp-write and atomic rename (the ``.tmp`` orphan the
    eviction sweep must clean up).
``worker``
    One costing attempt in the serial backend: a cost group's resolution
    on the whole-space path, a design point's costing in a job batch.
    The backend's retry policy makes the attempt again, so the report
    never changes.
``tool``
    One external-tool subprocess invocation (:func:`repro.flows.tools.run_tool`).
``service.handler``
    One service request handler, before it computes — the "leader dies
    mid-request" scenario coalesce promotion recovers from.

Activation is either lexical (``with plan.active():``) or ambient via
``TYBEC_FAULT_PLAN`` — a JSON object (or a path to one), which child
processes inherit through the environment:

.. code-block:: json

    {"seed": 7, "sites": {"worker": {"rate": 0.2},
                          "cache.read": {"rate": 0.1}}}
"""

from __future__ import annotations

import json
import logging
import os
import threading
from contextlib import contextmanager
from pathlib import Path

from repro import record
from repro.obs.logs import get_logger, log_event
from repro.resilience.policy import COUNTERS, TransientError, seeded_unit

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "current_fault_plan",
    "maybe_fail",
]

FAULT_PLAN_ENV = "TYBEC_FAULT_PLAN"

_LOG = get_logger("resilience")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class InjectedFault(TransientError):
    """The failure a fault plan injects at a site (always transient)."""

    def __init__(self, site: str, count: int | None = None):
        where = site if count is None else f"{site} (call #{count})"
        super().__init__(f"injected fault at {where}")
        self.site = site
        self.count = count

    def __reduce__(self):
        # pickle with fields intact (``__init__`` takes the site, not
        # the message)
        return (InjectedFault, (self.site, self.count))


@record(frozen=True)
class FaultSpec:
    """What one site's failures look like.

    ``rate``
        Probability any given call fails, drawn deterministically from
        ``(seed, site, salt, call_index)``.
    ``indices``
        Explicit 0-based call indices that fail (exact scripting for
        unit tests; combined with ``rate`` by OR).
    ``mode``
        ``raise`` (the default and the only mode) raises
        :class:`InjectedFault`.
    ``max_failures``
        Cap on injections at this site (None = unlimited); lets a test
        script "fail exactly twice, then recover".
    """

    rate: float = 0.0
    indices: tuple[int, ...] = ()
    mode: str = "raise"
    max_failures: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be within [0, 1], got {self.rate}")
        if self.mode != "raise":
            raise ValueError(f"unknown fault mode {self.mode!r} "
                             "(expected 'raise')")

    @classmethod
    def from_spec(cls, spec: "FaultSpec | dict | float") -> "FaultSpec":
        """A spec from a rate or a JSON object; ill-typed fields are a
        ``ValueError`` naming the field."""
        if isinstance(spec, cls):
            return spec
        if _is_number(spec):
            spec = {"rate": spec}
        if not isinstance(spec, dict):
            raise ValueError(
                f"a fault site spec is an object or a rate, got {spec!r}")
        unknown = sorted(set(spec) - {"rate", "indices", "mode", "max_failures"})
        if unknown:
            raise ValueError(f"unknown fault spec field(s) {unknown}")
        rate = spec.get("rate", 0.0)
        indices = spec.get("indices", ())
        mode = spec.get("mode", "raise")
        max_failures = spec.get("max_failures")
        # compared before ``float``: an int beyond the float range overflows
        if not (_is_number(rate) and 0 <= rate <= 1):
            raise ValueError(f"fault rate must be a number within [0, 1], got {rate!r}")
        if not (isinstance(indices, (list, tuple))
                and all(_is_int(i) and i >= 0 for i in indices)):
            raise ValueError(
                f"fault indices must be a list of call indices >= 0, "
                f"got {indices!r}")
        if not isinstance(mode, str):
            raise ValueError(f"fault mode must be a string, got {mode!r}")
        if not (max_failures is None or (_is_int(max_failures)
                                         and max_failures >= 0)):
            raise ValueError(
                f"fault max_failures must be an int >= 0 or null, "
                f"got {max_failures!r}")
        return cls(rate=float(rate), indices=tuple(indices), mode=mode,
                   max_failures=max_failures)

    def as_dict(self) -> dict:
        return {"rate": self.rate, "indices": list(self.indices),
                "mode": self.mode, "max_failures": self.max_failures}


class FaultPlan:
    """A seeded schedule of failures across named sites.

    Thread-safe: per-site call counters advance under a lock, so the
    schedule stays deterministic even when the service's handler threads
    hit the same site concurrently (which calls fail then depends on
    arrival order, but the report bytes never do — that is the whole
    point of the recovery layers this harness exercises).
    """

    def __init__(self, sites: dict[str, FaultSpec | dict | float],
                 seed: int = 0):
        self.seed = int(seed)
        self.sites = {}
        for name, spec in sites.items():
            try:
                self.sites[name] = FaultSpec.from_spec(spec)
            except ValueError as exc:
                raise ValueError(f"fault site {name!r}: {exc}") from None
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._injected: dict[str, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Load a plan; anything ill-typed is a ``ValueError`` naming it."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or "sites" not in payload:
            raise ValueError(
                "a fault plan is a JSON object with a 'sites' mapping "
                "(and an optional 'seed')")
        unknown = sorted(set(payload) - {"sites", "seed"})
        if unknown:
            raise ValueError(f"unknown fault plan field(s) {unknown}")
        sites, seed = payload["sites"], payload.get("seed", 0)
        if not isinstance(sites, dict):
            raise ValueError(
                f"fault plan sites must be an object of site specs, "
                f"got {sites!r}")
        if not _is_int(seed):
            raise ValueError(f"fault plan seed must be an int, got {seed!r}")
        return cls(sites, seed=seed)

    def as_json(self) -> str:
        return json.dumps({
            "seed": self.seed,
            "sites": {name: spec.as_dict()
                      for name, spec in sorted(self.sites.items())},
        }, sort_keys=True)

    # ------------------------------------------------------------------
    def should_fail(self, site: str, salt: int = 0) -> bool:
        """Advance the site's call counter; decide whether this call fails."""
        spec = self.sites.get(site)
        if spec is None:
            return False
        with self._lock:
            index = self._calls.get(site, 0)
            self._calls[site] = index + 1
            injected = self._injected.get(site, 0)
            if spec.max_failures is not None and injected >= spec.max_failures:
                return False
            fail = index in spec.indices or (
                spec.rate > 0.0
                and seeded_unit(self.seed, site, salt, index) < spec.rate)
            if fail:
                self._injected[site] = injected + 1
        return fail

    def fire(self, site: str, salt: int = 0) -> None:
        """Raise :class:`InjectedFault` if the schedule says so."""
        if not self.should_fail(site, salt):
            return
        COUNTERS.bump("faults.injected")
        COUNTERS.bump(f"faults.{site}")
        raise InjectedFault(site, self._calls.get(site, 1) - 1)

    def stats(self) -> dict:
        """Per-site call/injection counts (for ``/metrics`` and tests)."""
        with self._lock:
            return {
                "seed": self.seed,
                "sites": {
                    name: {"calls": self._calls.get(name, 0),
                           "injected": self._injected.get(name, 0)}
                    for name in sorted(self.sites)
                },
            }

    # ------------------------------------------------------------------
    @contextmanager
    def active(self):
        """Lexically activate this plan for the current process."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            previous, _ACTIVE = _ACTIVE, self
        try:
            yield self
        finally:
            with _ACTIVE_LOCK:
                _ACTIVE = previous


_ACTIVE: FaultPlan | None = None
_ACTIVE_LOCK = threading.Lock()

#: parsed plans per environment value, so the ambient path costs one
#: dict lookup per call — counters live on the cached instance, which is
#: what keeps an env-activated schedule advancing instead of restarting
#: on every read.  Only plans that loaded are cached: a plan file written
#: after the first probe is still picked up.
_ENV_PLANS: dict[str, FaultPlan] = {}

#: environment values already reported as unusable (counted and logged once)
_ENV_REFUSED: set[str] = set()


def _plan_from_env(raw: str) -> FaultPlan | None:
    """The plan an environment value names; an unusable one is ignored,
    counted as ``fallbacks.fault_plan`` and logged, once per value."""
    plan = _ENV_PLANS.get(raw)
    if plan is not None:
        return plan
    text = raw.strip()
    if not text:
        return None
    try:
        if not text.startswith("{"):
            text = Path(text).read_text()
        plan = FaultPlan.from_json(text)
    except (OSError, ValueError) as exc:
        with _ACTIVE_LOCK:
            first = raw not in _ENV_REFUSED
            _ENV_REFUSED.add(raw)
        if first:
            COUNTERS.bump("fallbacks.fault_plan")
            log_event(_LOG, "fallback.fault_plan", level=logging.WARNING,
                      site="fault_plan", key=FAULT_PLAN_ENV,
                      cause=f"{type(exc).__name__}: {exc}")
        return None
    with _ACTIVE_LOCK:
        return _ENV_PLANS.setdefault(raw, plan)


def current_fault_plan() -> FaultPlan | None:
    """The active plan: lexical activation first, then the environment."""
    plan = _ACTIVE
    if plan is not None:
        return plan
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    return _plan_from_env(raw)


def maybe_fail(site: str, salt: int = 0) -> None:
    """Fail here if an active fault plan schedules it; else a no-op."""
    plan = current_fault_plan()
    if plan is not None:
        plan.fire(site, salt)
