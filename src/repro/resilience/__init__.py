"""The fault-tolerant execution layer.

Retry policies with deterministic backoff, deadlines propagated through
the hot paths, and a seeded fault-injection harness — the substrate the
engine, flows, cache and service lean on to survive transient failures,
hung tools and dying leaders without ever changing a report byte.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.resilience.faults": (
        "FAULT_PLAN_ENV", "FaultPlan", "FaultSpec", "InjectedFault",
        "current_fault_plan", "maybe_fail",
    ),
    "repro.resilience.policy": (
        "COUNTERS", "Deadline", "DeadlineExceededError", "MetricFamily",
        "PermanentError", "RetryBudgetExceededError", "RetryPolicy",
        "TransientError", "is_transient", "seeded_unit",
        "sum_families",
    ),
})
