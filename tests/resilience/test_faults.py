"""Tests for the deterministic fault-injection harness."""

from __future__ import annotations

import copy
import json
import logging

import pytest
from hypothesis import given, settings, strategies as st

from repro.resilience import (
    COUNTERS,
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    current_fault_plan,
    maybe_fail,
)


class TestFaultSpec:
    def test_from_scalar_and_dict(self):
        assert FaultSpec.from_spec(0.25).rate == 0.25
        spec = FaultSpec.from_spec({"indices": [0, 3], "mode": "raise",
                                    "max_failures": 2})
        assert spec.indices == (0, 3)
        assert spec.mode == "raise"
        assert spec.max_failures == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(mode="explode")

    @pytest.mark.parametrize("mode", ["crash", "explode"])
    def test_only_raise_mode_exists(self, mode):
        """``crash`` (it once killed the calling process) is refused like
        any other unknown mode: a ``ValueError`` naming the site."""
        text = json.dumps({"sites": {"worker": {"rate": 0.2, "mode": mode}}})
        with pytest.raises(ValueError,
                           match=f"fault site 'worker': unknown fault mode "
                                 f"'{mode}' \\(expected 'raise'\\)"):
            FaultPlan.from_json(text)

    def test_crash_plan_in_the_environment_is_ignored_and_counted(
            self, monkeypatch):
        raw = json.dumps({"seed": 11, "sites": {"worker": {"mode": "crash"}}})
        monkeypatch.setenv(FAULT_PLAN_ENV, raw)
        before = COUNTERS.get("fallbacks.fault_plan")
        assert current_fault_plan() is None
        maybe_fail("worker")  # no plan, no fault, no exit
        assert COUNTERS.get("fallbacks.fault_plan") == before + 1


class TestFaultPlan:
    def test_schedule_is_deterministic(self):
        decide = lambda plan: [plan.should_fail("s") for _ in range(100)]
        first = decide(FaultPlan({"s": 0.3}, seed=11))
        assert first == decide(FaultPlan({"s": 0.3}, seed=11))
        assert any(first) and not all(first)
        assert first != decide(FaultPlan({"s": 0.3}, seed=12))

    def test_salt_shifts_the_schedule(self):
        plan_a = FaultPlan({"s": 0.3}, seed=5)
        plan_b = FaultPlan({"s": 0.3}, seed=5)
        a = [plan_a.should_fail("s", salt=0) for _ in range(50)]
        b = [plan_b.should_fail("s", salt=1) for _ in range(50)]
        assert a != b   # a respawned epoch draws a fresh schedule

    def test_explicit_indices_and_max_failures(self):
        plan = FaultPlan({"s": {"indices": [1, 2, 3], "max_failures": 2}})
        decisions = [plan.should_fail("s") for _ in range(5)]
        assert decisions == [False, True, True, False, False]

    def test_unknown_site_never_fails(self):
        plan = FaultPlan({"s": 1.0})
        assert not plan.should_fail("other")

    def test_fire_raises_and_counts(self):
        plan = FaultPlan({"s": {"indices": [0]}})
        with pytest.raises(InjectedFault) as excinfo:
            plan.fire("s")
        assert excinfo.value.site == "s"
        assert plan.stats()["sites"]["s"] == {"calls": 1, "injected": 1}
        assert COUNTERS.get("faults.injected") == 1
        assert COUNTERS.get("faults.s") == 1
        plan.fire("s")  # second call is scheduled clean

    def test_json_roundtrip(self):
        plan = FaultPlan({"worker": {"rate": 0.2, "mode": "raise"},
                          "cache.read": 0.1}, seed=7)
        clone = FaultPlan.from_json(plan.as_json())
        assert clone.seed == 7
        assert clone.sites == plan.sites

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_json(json.dumps({"seed": 1}))


VALID_PLAN = {"seed": 3, "sites": {"worker": {
    "rate": 0.5, "indices": [1], "mode": "raise", "max_failures": 2}}}


class TestPlanValidation:
    @pytest.mark.parametrize("plan, field", [
        ([], "JSON object"),
        ({"sites": []}, "sites must be an object"),
        ({"sites": {"worker": "often"}}, "'worker': a fault site spec"),
        ({"sites": {"worker": {"max_failures": "x", "rate": 1.0}}},
         "max_failures"),
        ({"sites": {"worker": {"max_failures": -1}}}, "max_failures"),
        ({"sites": {"worker": {"rate": True}}}, "rate"),
        ({"sites": {"worker": True}}, "site spec"),
        ({"sites": {"worker": {"rate": 2}}}, "rate"),
        ({"sites": {"worker": {"indices": [1.5]}}}, "indices"),
        ({"sites": {"worker": {"indices": [True]}}}, "indices"),
        ({"sites": {"worker": {"indices": 3}}}, "indices"),
        ({"sites": {"worker": {"mode": 7}}}, "mode"),
        ({"sites": {"worker": {"mode": "explode"}}}, "mode"),
        ({"sites": {}, "seed": "7"}, "seed"),
        ({"sites": {}, "seed": 1.5}, "seed"),
        ({"sites": {}, "sed": 1}, r"unknown fault plan field\(s\) \['sed'\]"),
        ({"sites": {"worker": {"rte": 0.5}}},
         r"unknown fault spec field\(s\) \['rte'\]"),
    ])
    def test_ill_typed_fields_are_refused_by_name(self, plan, field):
        with pytest.raises(ValueError, match=field):
            FaultPlan.from_json(json.dumps(plan))

    @settings(max_examples=50, deadline=None)
    @given(
        path=st.sampled_from([
            (), ("seed",), ("sites",), ("extra",), ("sites", "worker"),
            ("sites", "worker", "rate"), ("sites", "worker", "indices"),
            ("sites", "worker", "mode"), ("sites", "worker", "max_failures"),
            ("sites", "worker", "extra"),
        ]),
        value=st.recursive(
            st.none() | st.booleans() | st.integers(-2, 4)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(["", "x", "raise", "crash"]),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(["rate", "mode", "x"]), inner,
                              max_size=2),
            max_leaves=5),
    )
    def test_every_mutated_plan_loads_or_is_refused(self, path, value):
        plan = copy.deepcopy(VALID_PLAN)
        if path:
            *parents, leaf = path
            target = plan
            for key in parents:
                target = target[key]
            target[leaf] = value
        else:
            plan = value
        try:
            loaded = FaultPlan.from_json(json.dumps(plan))
        except ValueError:
            return
        # a plan that loads is usable: deciding and re-encoding never raise
        for site in loaded.sites:
            loaded.should_fail(site)
        assert FaultPlan.from_json(loaded.as_json()).sites == loaded.sites


class TestActivation:
    def test_no_plan_means_noop(self, monkeypatch):
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        assert current_fault_plan() is None
        maybe_fail("anything")  # must be a no-op, not an error

    def test_lexical_activation_nests_and_restores(self):
        plan = FaultPlan({"s": {"indices": [0]}})
        assert current_fault_plan() is None
        with plan.active():
            assert current_fault_plan() is plan
            with pytest.raises(InjectedFault):
                maybe_fail("s")
        assert current_fault_plan() is None

    def test_env_activation_memoizes_counters(self, monkeypatch):
        raw = json.dumps({"seed": 1, "sites": {"s": {"indices": [0, 1]}}})
        monkeypatch.setenv(FAULT_PLAN_ENV, raw)
        plan = current_fault_plan()
        assert plan is not None
        with pytest.raises(InjectedFault):
            maybe_fail("s")
        # the counter advanced on the memoized instance, so the second
        # scheduled failure (index 1) fires on the *next* call
        assert current_fault_plan() is plan
        with pytest.raises(InjectedFault):
            maybe_fail("s")
        maybe_fail("s")  # index 2: clean

    def test_env_activation_from_file(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(
            {"sites": {"s": {"indices": [0]}}}))
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        with pytest.raises(InjectedFault):
            maybe_fail("s")

    def test_env_plan_file_written_after_first_probe_is_picked_up(
            self, tmp_path, monkeypatch):
        path = tmp_path / "late.json"
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        assert current_fault_plan() is None  # not there yet: ignored
        path.write_text(json.dumps({"sites": {"s": {"indices": [0]}}}))
        with pytest.raises(InjectedFault):
            maybe_fail("s")
        assert COUNTERS.get("fallbacks.fault_plan") == 1

    def test_env_garbage_is_ignored(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "/nonexistent/plan.json")
        assert current_fault_plan() is None
        monkeypatch.setenv(FAULT_PLAN_ENV, "{not json")
        assert current_fault_plan() is None

    def test_unusable_env_plan_is_counted_and_logged_once(self, monkeypatch,
                                                          caplog):
        raw = json.dumps({"seed": 41, "sites": {
            "worker": {"max_failures": "x", "rate": 1.0}}})
        monkeypatch.setenv(FAULT_PLAN_ENV, raw)
        with caplog.at_level(logging.WARNING, logger="tybec.resilience"):
            assert current_fault_plan() is None
            maybe_fail("worker")  # ignored, not a TypeError mid-sweep
            assert current_fault_plan() is None
        assert COUNTERS.get("fallbacks.fault_plan") == 1
        refusals = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("fallback.fault_plan")]
        assert len(refusals) == 1
        assert "max_failures" in refusals[0]
