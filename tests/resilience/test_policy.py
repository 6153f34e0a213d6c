"""Tests for retry policies, deadlines and error classification."""

from __future__ import annotations

import pickle

import pytest

from repro.resilience import (
    COUNTERS,
    Deadline,
    DeadlineExceededError,
    InjectedFault,
    PermanentError,
    RetryBudgetExceededError,
    RetryPolicy,
    TransientError,
    is_transient,
    seeded_unit,
)


class TestClassification:
    def test_transient_base_types(self):
        assert is_transient(TransientError("substrate died"))
        assert is_transient(ConnectionError("refused"))
        assert is_transient(TimeoutError("hung"))
        assert is_transient(InjectedFault("worker"))

    def test_permanent_and_unknown(self):
        assert not is_transient(PermanentError("bad request"))
        assert not is_transient(ValueError("model bug"))

    def test_deadline_exceeded_is_permanent(self):
        """Retrying an expired budget cannot un-expire it."""
        assert not is_transient(DeadlineExceededError("sweep", 1.0))


class TestSeededUnit:
    def test_deterministic_and_uniform_range(self):
        draws = [seeded_unit("site", i) for i in range(200)]
        assert draws == [seeded_unit("site", i) for i in range(200)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # not all equal; roughly spread over the unit interval
        assert len({round(d, 2) for d in draws}) > 50

    def test_token_sensitivity(self):
        assert seeded_unit("a", 0) != seeded_unit("a", 1)
        assert seeded_unit("a", 0) != seeded_unit("b", 0)


class TestDeadline:
    def test_infinite_deadline_never_expires(self):
        deadline = Deadline.none()
        assert deadline.remaining() == float("inf")
        assert not deadline.expired
        deadline.check("anything")  # does not raise

    def test_expiry_with_fake_clock(self):
        now = [0.0]
        deadline = Deadline(2.0, clock=lambda: now[0])
        assert deadline.remaining() == pytest.approx(2.0)
        now[0] = 1.5
        deadline.check("half way")
        now[0] = 2.5
        assert deadline.expired
        with pytest.raises(DeadlineExceededError, match="half-done sweep"):
            deadline.check("half-done sweep")

    def test_clip_bounds_subprocess_timeouts(self):
        now = [0.0]
        deadline = Deadline(10.0, clock=lambda: now[0])
        assert deadline.clip(300.0) == pytest.approx(10.0)
        assert deadline.clip(5.0) == pytest.approx(5.0)
        now[0] = 11.0
        assert deadline.clip(300.0) == 0.0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestRetryPolicy:
    def test_delay_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=1.0,
                             jitter=0.25, seed=3)
        delays = [policy.delay(a, key="k") for a in range(6)]
        assert delays == [policy.delay(a, key="k") for a in range(6)]
        for attempt, delay in enumerate(delays):
            raw = min(1.0, 0.1 * 2.0 ** attempt)
            assert 0.0 <= delay <= raw * 1.25
        # different keys draw different jitter streams
        assert delays != [policy.delay(a, key="other") for a in range(6)]

    def test_call_retries_transient_until_success(self):
        sleeps: list[float] = []
        attempts: list[int] = []

        def flaky(attempt: int):
            attempts.append(attempt)
            if attempt < 2:
                raise TransientError("substrate hiccup")
            return "ok"

        policy = RetryPolicy(max_attempts=4, base_delay=0.01)
        result = policy.call(flaky, key="t", sleep=sleeps.append)
        assert result == "ok"
        assert attempts == [0, 1, 2]
        assert len(sleeps) == 2
        assert COUNTERS.get("retries") == 2

    def test_call_propagates_permanent_immediately(self):
        calls = []

        def broken(attempt: int):
            calls.append(attempt)
            raise ValueError("deterministic model bug")

        policy = RetryPolicy(max_attempts=5)
        with pytest.raises(ValueError):
            policy.call(broken, sleep=lambda _: None)
        assert calls == [0]
        assert COUNTERS.get("retries") == 0

    def test_exhausted_budget_wraps_last_error(self):
        def always_down(attempt: int):
            raise TransientError(f"still down (attempt {attempt})")

        policy = RetryPolicy(max_attempts=3, base_delay=0.0)
        with pytest.raises(RetryBudgetExceededError) as excinfo:
            policy.call(always_down, what="probe", sleep=lambda _: None)
        assert excinfo.value.attempts == 3
        assert "attempt 2" in str(excinfo.value.last)

    def test_call_respects_deadline(self):
        now = [0.0]
        deadline = Deadline(1.0, clock=lambda: now[0])

        def down_forever(attempt: int):
            now[0] += 0.6    # each attempt burns over half the budget
            raise TransientError("down")

        policy = RetryPolicy(max_attempts=10, base_delay=0.0)
        with pytest.raises(DeadlineExceededError):
            policy.call(down_forever, deadline=deadline, sleep=lambda _: None)

    def test_single_attempt_policy(self):
        policy = RetryPolicy.none()
        with pytest.raises(RetryBudgetExceededError):
            policy.call(lambda a: (_ for _ in ()).throw(TransientError("x")),
                        sleep=lambda _: None)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestInjectedFaultPickling:
    def test_roundtrip_keeps_fields(self):
        fault = InjectedFault("worker", 7)
        clone = pickle.loads(pickle.dumps(fault))
        assert isinstance(clone, InjectedFault)
        assert clone.site == "worker"
        assert clone.count == 7
        assert is_transient(clone)
