"""Chaos tests: injected faults must never change a report byte.

Each test computes a fault-free golden first, then repeats the identical
computation under a seeded :class:`FaultPlan` — failing costing calls,
failing disk-cache reads, dying leaders — and asserts the recovered
output is byte-identical.  Determinism is what makes these tests exact
rather than probabilistic: the same seed injects the same faults in
every run.
"""

from __future__ import annotations

import json

import pytest

from repro.compiler.pipeline import clear_calibration_cache
from repro.cost.cache import redirected_cache_dir
from repro.explore.engine import SerialBackend
from repro.resilience import FAULT_PLAN_ENV, FaultPlan
from repro.suite import SuiteConfig, WorkloadSuite


def _tiny_config() -> SuiteConfig:
    return SuiteConfig.tiny(kernels=("sor", "matmul"))


@pytest.fixture
def golden_report() -> str:
    """The fault-free report bytes for the tiny two-kernel suite."""
    return WorkloadSuite(_tiny_config()).run().report.to_json()


class TestSerialChaos:
    def test_injected_worker_faults_do_not_change_report_bytes(
            self, golden_report):
        plan = FaultPlan({"worker": {"rate": 0.3}}, seed=3)
        with plan.active():
            chaotic = WorkloadSuite(
                _tiny_config(), backend=SerialBackend()).run()
        stats = plan.stats()
        assert stats["sites"]["worker"]["injected"] > 0, \
            "seed produced no faults; the test would be vacuous"
        assert chaotic.report.to_json() == golden_report

    def test_cache_read_faults_become_recomputed_misses(
            self, golden_report, tmp_path):
        plan = FaultPlan({"cache.read": {"rate": 0.5}}, seed=5)
        with redirected_cache_dir(tmp_path / "chaos-cache"):
            clear_calibration_cache()
            try:
                with plan.active():
                    chaotic = WorkloadSuite(
                        _tiny_config(), backend=SerialBackend()).run()
            finally:
                clear_calibration_cache()
        assert plan.stats()["sites"]["cache.read"]["injected"] > 0
        assert chaotic.report.to_json() == golden_report

    def test_cache_write_faults_leave_orphans_not_corruption(
            self, golden_report, tmp_path):
        """A writer dying pre-rename costs persistence, never correctness."""
        from repro.cost.cache import default_disk_cache

        plan = FaultPlan({"cache.write": {"rate": 0.5}}, seed=9)
        with redirected_cache_dir(tmp_path / "chaos-cache"):
            clear_calibration_cache()
            try:
                with plan.active():
                    chaotic = WorkloadSuite(
                        _tiny_config(), backend=SerialBackend()).run()
                cache = default_disk_cache()
                orphans = (list(cache.version_dir.rglob("*.tmp"))
                           if cache is not None else [])
            finally:
                clear_calibration_cache()
        assert plan.stats()["sites"]["cache.write"]["injected"] > 0
        assert orphans, "injected write faults should leave .tmp corpses"
        assert chaotic.report.to_json() == golden_report


    def test_unrecoverable_fault_rate_exhausts_the_budget(self):
        """A plan that fails every costing call must fail loudly."""
        from repro.resilience import RetryBudgetExceededError

        plan = FaultPlan({"worker": {"rate": 1.0, "mode": "raise"}})
        with plan.active(), pytest.raises(RetryBudgetExceededError):
            WorkloadSuite(_tiny_config(), backend=SerialBackend()).run()


class TestOptimizerChaos:
    def test_worker_faults_converge_to_the_fault_free_answer(self):
        """The optimizer driver loop rides the serial backend's per-point
        retries: ~20% of costing calls failing mid-round must not change
        a byte of the run's entries or the optimizer's conclusion."""
        from repro.explore import (
            DesignSpace,
            ExhaustiveOptimizer,
            ExplorationEngine,
        )

        def spaces():
            return [DesignSpace(kernel=k, grid=(8, 8, 8), iterations=10,
                                max_lanes=4) for k in ("sor", "matmul")]

        golden = ExplorationEngine(SerialBackend()).run_optimizer(
            ExhaustiveOptimizer(spaces()))
        golden_dicts = golden.sweep().canonical_dicts()

        plan = FaultPlan({"worker": {"rate": 0.2, "mode": "raise"}}, seed=2)
        with plan.active():
            chaotic = ExplorationEngine(SerialBackend()).run_optimizer(
                ExhaustiveOptimizer(spaces()))

        assert plan.stats()["sites"]["worker"]["injected"] > 0, \
            "seed produced no faults; the test would be vacuous"
        assert chaotic.sweep().canonical_dicts() == golden_dicts
        assert chaotic.result == golden.result


class TestCombinedChaos:
    def test_cache_and_worker_faults_together(self, golden_report, tmp_path):
        """The full acceptance plan: failing costing calls *and* a flaky
        cache."""
        plan = FaultPlan({"worker": {"rate": 0.2, "mode": "raise"},
                          "cache.read": {"rate": 0.1}}, seed=7)
        with redirected_cache_dir(tmp_path / "chaos-cache"):
            clear_calibration_cache()
            try:
                with plan.active():
                    chaotic = WorkloadSuite(
                        _tiny_config(), backend=SerialBackend()).run()
            finally:
                clear_calibration_cache()
        stats = plan.stats()["sites"]
        assert stats["worker"]["injected"] > 0
        assert chaotic.report.to_json() == golden_report

    def test_ambient_plan_from_the_environment(self, golden_report, tmp_path,
                                               monkeypatch):
        """The CI chaos step's route: the plan arrives through
        ``TYBEC_FAULT_PLAN``, not a lexical activation."""
        from repro.resilience import COUNTERS, current_fault_plan

        plan = FaultPlan({"worker": {"rate": 0.2, "mode": "raise"},
                          "cache.read": {"rate": 0.1}}, seed=2)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.as_json())
        before = COUNTERS.get("faults.worker")
        with redirected_cache_dir(tmp_path / "chaos-cache"):
            clear_calibration_cache()
            try:
                ambient = current_fault_plan()
                chaotic = WorkloadSuite(
                    _tiny_config(), backend=SerialBackend()).run()
            finally:
                clear_calibration_cache()
        assert ambient is not None and ambient.seed == 2
        assert COUNTERS.get("faults.worker") > before, \
            "seed produced no faults; the test would be vacuous"
        assert chaotic.report.to_json() == golden_report

    def test_plan_stats_roundtrip_through_json(self):
        plan = FaultPlan({"worker": {"rate": 0.2, "mode": "raise"},
                          "cache.read": 0.1}, seed=7)
        payload = json.loads(plan.as_json())
        assert payload["seed"] == 7
        assert set(payload["sites"]) == {"worker", "cache.read"}
