"""Tests for the staged, memoizing estimation pipeline."""

import time

import pytest

from repro.compiler import CompilationOptions, EstimationPipeline, module_content_key
from repro.ir import print_module
from repro.kernels import SORKernel
from repro.substrate import MAIA_STRATIX_V_GSD8, SMALL_EDU_DEVICE

GRID = (8, 8, 8)


@pytest.fixture
def kernel():
    return SORKernel()


@pytest.fixture
def pipeline():
    return EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))


@pytest.fixture
def variant_inputs(kernel):
    module = kernel.build_module(lanes=4, grid=GRID)
    workload = kernel.workload(GRID, iterations=10)
    return module, workload


class TestContentKeys:
    def test_identical_modules_share_a_key(self, kernel):
        a = kernel.build_module(lanes=2, grid=GRID)
        b = kernel.build_module(lanes=2, grid=GRID)
        assert a is not b
        assert module_content_key(a) == module_content_key(b)

    def test_different_lanes_differ(self, kernel):
        a = kernel.build_module(lanes=2, grid=GRID)
        b = kernel.build_module(lanes=4, grid=GRID)
        assert module_content_key(a) != module_content_key(b)


class TestStageMemoization:
    def test_analysis_is_memoized_on_content(self, pipeline, kernel):
        a = kernel.build_module(lanes=2, grid=GRID)
        b = kernel.build_module(lanes=2, grid=GRID)  # separate but identical build
        first = pipeline.analyze(a)
        second = pipeline.analyze(b)
        assert second is first
        assert pipeline.cache_requests.get(("variant", "hit")) == 1
        assert pipeline.cache_requests.get(("variant", "miss")) == 1

    def test_parse_is_memoized_on_text(self, pipeline, kernel):
        text = print_module(kernel.build_module(lanes=1, grid=GRID))
        first = pipeline.parse(text, name="x")
        second = pipeline.parse(text, name="x")
        assert second is first
        assert pipeline.cache_requests.get(("parse", "hit")) == 1

    def test_repeated_cost_hits_resource_cache(self, pipeline, variant_inputs):
        from repro.compiler.pipeline import clear_calibration_cache

        clear_calibration_cache()  # start from cold process-wide caches
        module, workload = variant_inputs
        pipeline.cost(module, workload)
        assert pipeline.cache_requests.get(("resource", "miss")) == 1
        pipeline.cost(module, workload)
        assert pipeline.cache_requests.get(("resource", "hit")) == 1
        assert pipeline.cache_requests.get(("resource", "miss")) == 1

    def test_cached_reports_are_equivalent(self, pipeline, variant_inputs):
        from repro.explore import canonical_report_dict

        module, workload = variant_inputs
        first = pipeline.cost(module, workload)
        second = pipeline.cost(module, workload)
        assert canonical_report_dict(first) == canonical_report_dict(second)

    def test_latency_model_change_invalidates_variant(self, kernel):
        """Regression: mutating the latency model must not serve stale
        schedules from the variant cache."""
        from repro.compiler import OperatorLatencyModel

        module = kernel.build_module(lanes=2, grid=GRID)
        pipeline = EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        before = pipeline.analyze(module).pipeline_depth
        pipeline.options.latency_model = OperatorLatencyModel(input_stage_cycles=5)
        after = pipeline.analyze(module).pipeline_depth
        assert after > before

    def test_cached_resources_are_isolated_per_report(self, pipeline, variant_inputs):
        """Regression: mutating one report's resources must not leak into
        other reports of the same variant."""
        module, workload = variant_inputs
        first = pipeline.cost(module, workload)
        from repro.substrate.synthesis import ResourceUsage

        first.resources.total += ResourceUsage(alut=1e9)
        second = pipeline.cost(module, workload)
        assert second.usage.alut < 1e9

    def test_clock_change_invalidates_variant(self, kernel):
        module = kernel.build_module(lanes=2, grid=GRID)
        at_fmax = EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        slow = EstimationPipeline(
            CompilationOptions(device=MAIA_STRATIX_V_GSD8, clock_mhz=100.0)
        )
        assert at_fmax.analyze(module).pipeline_spec.clock_mhz != (
            slow.analyze(module).pipeline_spec.clock_mhz
        )


class TestCalibrationSharing:
    def test_calibration_is_shared_across_pipelines(self):
        a = EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE))
        b = EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE))
        assert a.cost_db is b.cost_db
        assert a.dram_bandwidth is b.dram_bandwidth
        assert a.host_bandwidth is b.host_bandwidth
        # the second pipeline never pays for calibration
        assert b.cache_requests.get(("calibration", "miss")) == 0

    def test_injected_models_win(self):
        warm = EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE))
        db = warm.cost_db
        injected = EstimationPipeline(
            CompilationOptions(device=SMALL_EDU_DEVICE, cost_db=db)
        )
        assert injected.cost_db is db

    def test_calibration_leaves_the_options_as_given(self):
        options = CompilationOptions(device=SMALL_EDU_DEVICE)
        key = options.session_key()
        artifacts = EstimationPipeline(options).calibrate()
        assert artifacts.cost_db is not None
        assert artifacts.dram_bandwidth is not None
        assert artifacts.host_bandwidth is not None
        assert options.cost_db is None
        assert options.dram_bandwidth is None
        assert options.host_bandwidth is None
        assert options.session_key() == key

    def test_only_a_memory_miss_builds_the_disk_tokens(self, monkeypatch):
        from repro.compiler.pipeline import clear_calibration_cache
        from repro.substrate.fpga_device import FPGADevice

        EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE)).calibrate()
        reprs = []
        plain = FPGADevice.__repr__
        monkeypatch.setattr(FPGADevice, "__repr__",
                            lambda device: reprs.append(device) or plain(device))

        warm = EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE))
        warm.calibrate()
        assert reprs == []
        assert warm.cache_requests.snapshot() == {("calibration", "hit"): 1}

        # a cold run still keys the disk store on the device's repr
        clear_calibration_cache()
        cold = EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE))
        cold.calibrate()
        assert reprs == [SMALL_EDU_DEVICE] * 3
        assert cold.cache_requests.get(("calibration", "hit")) == 1
        assert cold.cache_requests.get(("disk", "hit")) == 3

    def test_clearing_the_cache_reaches_a_calibrated_session(self):
        from repro.compiler.pipeline import clear_calibration_cache

        pipeline = EstimationPipeline(CompilationOptions(device=SMALL_EDU_DEVICE))
        first = pipeline.calibrated()
        assert pipeline.calibrated() is first
        clear_calibration_cache()
        assert pipeline.calibrated() is not first


class TestSessionKey:
    def test_equal_options_share_a_key(self):
        a = CompilationOptions(device=MAIA_STRATIX_V_GSD8)
        b = CompilationOptions(device=MAIA_STRATIX_V_GSD8)
        assert a.session_key() == b.session_key()

    def test_clock_and_form_change_the_key(self):
        base = CompilationOptions(device=MAIA_STRATIX_V_GSD8)
        assert base.session_key() != CompilationOptions(
            device=MAIA_STRATIX_V_GSD8, clock_mhz=100.0
        ).session_key()
        assert base.session_key() != CompilationOptions(
            device=MAIA_STRATIX_V_GSD8, form="B"
        ).session_key()


class TestRepeatFamily:
    def test_each_lane_variant_is_costed_under_its_own_name(self, pipeline, kernel):
        workload = kernel.workload(GRID, 10)
        reports = [pipeline.cost(kernel.build_module(lanes=lanes, grid=GRID), workload)
                   for lanes in (4, 1, 2)]
        assert [r.design for r in reports] == ["sor_l4", "sor_l1", "sor_l2"]

    def test_repeat_family_is_at_least_2x_faster(self, kernel):
        """The acceptance criterion: memoization pays on repeated families."""
        from repro.compiler.pipeline import clear_calibration_cache

        clear_calibration_cache()  # cold first pass, warm repeat pass
        pipeline = EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        pipeline.calibrate()  # one-time per-device inputs out of the timing
        workload = kernel.workload(GRID, 10)
        modules = [kernel.build_module(lanes=lanes, grid=GRID)
                   for lanes in (1, 2, 4, 8, 16, 32)]

        started = time.perf_counter()
        first = [pipeline.cost(module, workload) for module in modules]
        first_pass = time.perf_counter() - started

        started = time.perf_counter()
        second = [pipeline.cost(module, workload) for module in modules]
        second_pass = time.perf_counter() - started

        assert len(first) == len(second) == len(modules)
        assert pipeline.cache_requests.get(("variant", "hit")) >= len(modules)
        assert first_pass >= 2 * second_pass
