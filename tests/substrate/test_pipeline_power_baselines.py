"""Tests for the pipeline simulator, power model and baselines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.substrate import (
    BaselineHLSFlow,
    CPUModel,
    HLSKernelCharacteristics,
    MAIA_STRATIX_V_GSD8,
    MemorySystemSimulator,
    NodePowerModel,
    PipelineSimulator,
    PipelineSpec,
    ResourceUsage,
)


def make_spec(**kwargs):
    defaults = dict(
        name="sor",
        lanes=1,
        vectorization=1,
        pipeline_depth=25,
        instructions=19,
        cycles_per_instruction=1,
        offset_fill_words=576,
        input_words_per_item=9,
        output_words_per_item=2,
        element_bytes=4,
        clock_mhz=200.0,
    )
    defaults.update(kwargs)
    return PipelineSpec(**defaults)


class TestPipelineSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(lanes=0)
        with pytest.raises(ValueError):
            make_spec(pipeline_depth=0)
        with pytest.raises(ValueError):
            make_spec(clock_mhz=0)

    def test_ideal_rate(self):
        assert make_spec(lanes=4).ideal_items_per_cycle == 4.0
        folded = make_spec(cycles_per_instruction=4, instructions=10)
        assert folded.ideal_items_per_cycle == pytest.approx(1 / 40)

    def test_words_per_item(self):
        assert make_spec().words_per_item == 11


class TestPipelineSimulator:
    def test_compute_bound_cycles(self):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=0)
        res = sim.run_kernel_instance(spec, 10_000)
        # unconstrained memory: one item per cycle plus pipeline fill
        assert res.cycles == 10_000 + spec.pipeline_depth
        assert res.limited_by == "compute"
        assert res.stall_cycles == 0
        assert res.cycles_per_kernel_instance == res.cycles

    def test_lanes_divide_cycles(self):
        sim = PipelineSimulator()
        one = sim.run_kernel_instance(make_spec(offset_fill_words=0), 40_000)
        four = sim.run_kernel_instance(make_spec(offset_fill_words=0, lanes=4), 40_000)
        assert one.cycles / four.cycles == pytest.approx(4.0, rel=0.01)

    def test_offset_fill_adds_cycles(self):
        sim = PipelineSimulator()
        without = sim.run_kernel_instance(make_spec(offset_fill_words=0), 1000)
        with_off = sim.run_kernel_instance(make_spec(offset_fill_words=576), 1000)
        assert with_off.cycles - without.cycles == pytest.approx(576, abs=2)

    def test_memory_bound_when_bandwidth_low(self):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=0)
        # 11 words * 4 B per item at 200 MHz needs 8.8 GB/s; give it far less
        res = sim.run_kernel_instance(spec, 10_000, memory_gbps=1.0)
        assert res.limited_by == "memory"
        assert res.stall_cycles > 0
        assert res.cycles > 10_000 + spec.pipeline_depth

    def test_memory_bandwidth_from_simulator_default(self):
        sim = PipelineSimulator(MemorySystemSimulator(MAIA_STRATIX_V_GSD8))
        res = sim.run_kernel_instance(make_spec(offset_fill_words=0), 10_000)
        assert res.cycles >= 10_000

    def test_invalid_items(self):
        with pytest.raises(ValueError):
            PipelineSimulator().run_kernel_instance(make_spec(), 0)

    def test_cycle_accurate_agrees_with_analytic(self):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=64, lanes=2)
        analytic = sim.run_kernel_instance(spec, 2000)
        stepped = sim.run_kernel_instance(spec, 2000, cycle_accurate=True)
        assert stepped.cycles == pytest.approx(analytic.cycles, abs=spec.pipeline_depth + 4)

    def test_cycle_accurate_memory_bound_agrees(self):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=0)
        analytic = sim.run_kernel_instance(spec, 1500, memory_gbps=2.0)
        stepped = sim.run_kernel_instance(spec, 1500, memory_gbps=2.0, cycle_accurate=True)
        assert stepped.cycles == pytest.approx(analytic.cycles, rel=0.05)

    @given(
        items=st.integers(min_value=1, max_value=100_000),
        lanes=st.integers(min_value=1, max_value=16),
        depth=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_cycles_at_least_items_over_lanes(self, items, lanes, depth):
        sim = PipelineSimulator()
        spec = make_spec(lanes=lanes, pipeline_depth=depth, offset_fill_words=0)
        res = sim.run_kernel_instance(spec, items)
        assert res.cycles >= items / lanes
        assert res.cycles >= depth
        assert res.seconds == pytest.approx(res.cycles / spec.clock_hz)


class TestPowerModel:
    def test_cpu_energy(self):
        pm = NodePowerModel()
        rep = pm.cpu_energy("cpu", runtime_s=10.0)
        assert rep.delta_power_w == pytest.approx(pm.cpu_active_w - pm.cpu_idle_w)
        assert rep.delta_energy_j == pytest.approx(rep.delta_power_w * 10.0)

    def test_fpga_energy_lower_power_than_cpu(self):
        pm = NodePowerModel()
        usage = ResourceUsage(alut=50_000, reg=80_000, bram_bits=2_000_000, dsp=100)
        fpga = pm.fpga_energy("fpga", 10.0, usage, MAIA_STRATIX_V_GSD8)
        cpu = pm.cpu_energy("cpu", 10.0)
        assert fpga.delta_power_w < cpu.delta_power_w

    def test_dynamic_power_scales_with_resources(self):
        pm = NodePowerModel()
        small = pm.fpga_dynamic_power(ResourceUsage(alut=1000))
        big = pm.fpga_dynamic_power(ResourceUsage(alut=100_000))
        assert big > small

    def test_report_dict(self):
        rep = NodePowerModel().cpu_energy("x", 1.0)
        d = rep.as_dict()
        assert d["label"] == "x"
        assert d["delta_energy_j"] > 0


class TestCPUModel:
    def test_compute_bound_small_grid(self):
        cpu = CPUModel()
        est = cpu.estimate_iteration(n_items=24**3, ops_per_item=20, bytes_per_item=44)
        assert est.bound == "compute"
        assert est.seconds > 0

    def test_memory_bound_large_grid(self):
        cpu = CPUModel(ops_per_cycle=8.0)  # very fast core -> memory bound
        est = cpu.estimate_iteration(n_items=192**3, ops_per_item=5, bytes_per_item=44)
        assert est.bound == "memory"

    def test_cache_resident_faster(self):
        cpu = CPUModel()
        n = 10_000
        in_cache = cpu.estimate_iteration(n, 2, 44, working_set_bytes=1 << 20)
        out_cache = cpu.estimate_iteration(n, 2, 44, working_set_bytes=1 << 30)
        assert in_cache.memory_seconds < out_cache.memory_seconds

    def test_application_scales_with_iterations(self):
        cpu = CPUModel()
        one = cpu.estimate_application(1000, 20, 44, iterations=1)
        thousand = cpu.estimate_application(1000, 20, 44, iterations=1000)
        assert thousand == pytest.approx(1000 * one)

    def test_validation(self):
        with pytest.raises(ValueError):
            CPUModel().estimate_iteration(0, 1, 1)
        with pytest.raises(ValueError):
            CPUModel().estimate_application(10, 1, 1, iterations=0)


class TestBaselineHLS:
    def _kernel(self):
        return HLSKernelCharacteristics(
            name="sor",
            operations_per_item=19,
            input_words_per_item=9,
            output_words_per_item=2,
            element_bytes=4,
            dataflow_depth=20,
            max_offset_span_words=576,
        )

    def test_pipeline_is_single_lane_and_deeper(self):
        flow = BaselineHLSFlow(MAIA_STRATIX_V_GSD8)
        spec = flow.build_pipeline_spec(self._kernel())
        assert spec.lanes == 1
        assert spec.pipeline_depth > 20
        assert spec.clock_mhz < MAIA_STRATIX_V_GSD8.fmax_mhz

    def test_runtime_scales_with_iterations(self):
        flow = BaselineHLSFlow(MAIA_STRATIX_V_GSD8)
        t10, _ = flow.estimate_runtime(self._kernel(), 24**3, iterations=10)
        t1000, _ = flow.estimate_runtime(self._kernel(), 24**3, iterations=1000)
        assert t1000 > 50 * t10

    def test_call_overhead_grows_with_streams(self):
        flow = BaselineHLSFlow(MAIA_STRATIX_V_GSD8)
        assert flow.call_overhead(self._kernel(), streams=22) > flow.call_overhead(
            self._kernel(), streams=11
        )

    def test_estimate_report_time_order_of_a_minute(self):
        flow = BaselineHLSFlow(MAIA_STRATIX_V_GSD8)
        t = flow.estimate_report_time(19)
        assert 55 <= t <= 90
