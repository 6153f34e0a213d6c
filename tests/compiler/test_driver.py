"""Tests for the TyBEC compiler driver (costing + emission)."""

import pytest

from repro.compiler import CompilationOptions, TybecCompiler
from repro.cost import SustainedBandwidthModel
from repro.ir import print_module
from repro.models import KernelInstance, MemoryExecutionForm, NDRange
from repro.substrate import MAIA_STRATIX_V_GSD8, SMALL_EDU_DEVICE

from tests.conftest import build_stencil_module


@pytest.fixture(scope="module")
def compiler():
    return TybecCompiler(CompilationOptions(device=MAIA_STRATIX_V_GSD8))


@pytest.fixture(scope="module")
def workload():
    return KernelInstance("stencil", NDRange.cube(8), repetitions=100, words_per_item=3)


class TestAnalyze:
    def test_analyze_single_lane(self, compiler):
        variant = compiler.analyze(build_stencil_module(lanes=1))
        assert variant.lanes == 1
        assert variant.pipeline_depth > 1
        assert variant.pipeline_spec.clock_mhz == MAIA_STRATIX_V_GSD8.fmax_mhz
        assert variant.balancing_register_bits >= 0

    def test_analyze_four_lane(self, compiler):
        variant = compiler.analyze(build_stencil_module(lanes=4))
        assert variant.lanes == 4

    def test_parse_roundtrip_then_analyze(self, compiler):
        module = build_stencil_module(lanes=1)
        reparsed = compiler.parse(print_module(module), name=module.name)
        variant = compiler.analyze(reparsed)
        assert variant.lanes == 1


class TestCost:
    def test_cost_report_complete(self, compiler, workload):
        report = compiler.cost(build_stencil_module(lanes=1), workload)
        assert report.usage.alut > 0
        assert report.ekit > 0
        assert report.feasible
        assert report.estimation_seconds < 1.0  # the estimator is fast
        assert "form" in report.notes[0] or "form" in report.notes[0].lower()
        text = report.to_text()
        assert "Cost report" in text and "limiting factor" in text

    def test_cost_accepts_ir_text(self, compiler, workload):
        text = print_module(build_stencil_module(lanes=1))
        report = compiler.cost(text, workload)
        assert report.ekit > 0

    def test_more_lanes_more_resources_more_throughput(self, compiler, workload):
        one = compiler.cost(build_stencil_module(lanes=1), workload)
        four = compiler.cost(build_stencil_module(lanes=4), workload)
        assert four.usage.alut > 2 * one.usage.alut
        assert four.ekit > one.ekit

    def test_form_forced(self, workload):
        forced = TybecCompiler(
            CompilationOptions(device=MAIA_STRATIX_V_GSD8, form=MemoryExecutionForm.A)
        )
        report = forced.cost(build_stencil_module(lanes=1), workload)
        assert report.throughput.form is MemoryExecutionForm.A

    def test_form_auto_selects_by_footprint(self, compiler):
        # an 8^3 grid of 3-byte words trivially fits in BRAM -> form C
        small = compiler.cost(
            build_stencil_module(lanes=1, grid=(8, 8, 8)),
            KernelInstance("s", NDRange.cube(8), repetitions=10),
        )
        assert small.throughput.form is MemoryExecutionForm.C
        # a 192^3 grid does not fit in BRAM but fits in DRAM -> form B
        big = compiler.cost(
            build_stencil_module(lanes=1, grid=(192, 192, 192)),
            KernelInstance("s", NDRange.cube(192), repetitions=10),
        )
        assert big.throughput.form is MemoryExecutionForm.B

    def test_infeasible_on_small_device(self, workload):
        tiny = TybecCompiler(CompilationOptions(device=SMALL_EDU_DEVICE))
        report = tiny.cost(build_stencil_module(lanes=16, grid=(32, 32, 32)),
                           KernelInstance("s", NDRange.cube(32), repetitions=10))
        assert not report.feasibility.fits_resources
        assert not report.feasible

    def test_injected_bandwidth_model(self, workload):
        options = CompilationOptions(
            device=MAIA_STRATIX_V_GSD8,
            dram_bandwidth=SustainedBandwidthModel.paper_figure10(),
        )
        compiler = TybecCompiler(options)
        report = compiler.cost(build_stencil_module(lanes=1), workload)
        assert report.ekit > 0

    def test_compile_convenience(self, compiler, workload):
        report, files = compiler.compile(build_stencil_module(lanes=1), workload, emit=True)
        assert report.ekit > 0
        assert any(name.endswith(".v") for name in files)
        assert any(name.endswith(".maxj") for name in files)
        report2, files2 = compiler.compile(build_stencil_module(lanes=2), workload, emit=False)
        assert files2 == {}


class TestGroundTruth:
    def test_synthesize_actual_close_to_estimate(self, compiler, workload):
        module = build_stencil_module(lanes=1, grid=(16, 16, 16))
        report = compiler.cost(module, KernelInstance("s", NDRange.cube(16), repetitions=10))
        variant = compiler.analyze(module)
        actual = compiler.synthesize_actual(variant)
        # Table II behaviour: estimates land within ~10% of "actual"
        for resource in ("alut", "bram_bits"):
            est = getattr(report.usage, resource)
            act = getattr(actual, resource)
            if act > 100:
                assert abs(est - act) / act < 0.15

    def test_simulate_actual_cpki_close_to_estimate(self, compiler):
        module = build_stencil_module(lanes=1, grid=(16, 16, 16))
        wl = KernelInstance("s", NDRange.cube(16), repetitions=10)
        report = compiler.cost(module, wl)
        variant = compiler.analyze(module)
        sim = compiler.simulate_actual(variant, wl)
        est_cpki = report.throughput.cycles_per_kernel_instance
        act_cpki = sim.cycles_per_kernel_instance
        assert act_cpki > 0
        assert abs(est_cpki - act_cpki) / act_cpki < 0.35

    def test_emit_hdl_without_wrapper(self, compiler):
        files = compiler.emit_hdl(build_stencil_module(lanes=1), include_wrapper=False)
        assert not any(name.endswith(".maxj") for name in files)
        assert any(name.endswith(".v") for name in files)
