"""The core tentpole guarantee: RTL simulation of every kernel's generated
Verilog matches the kernel Python reference bit for bit, and the cycle
counts agree with the pipeline simulator within one pipeline depth plus
one issue interval."""

import pytest

from repro.compiler.codegen.verilog import VerilogGenerator
from repro.flows import (
    ElaborateFlow,
    FlowSettings,
    IcarusSimFlow,
    RTLSimFlow,
    compare_outcome,
    elaborate,
    kernel_stimulus,
    parse_module_text,
    reference_outputs,
    simulate_stream,
)
from repro.kernels import REGISTRY, get_kernel
from repro.suite.runner import tiny_grid

ALL_KERNELS = REGISTRY.names()


def _tiny_module(name: str, lanes: int = 1):
    kernel = get_kernel(name)
    return kernel.build_module(lanes=lanes, grid=tiny_grid(kernel.default_grid))


@pytest.mark.parametrize("kernel_name", ALL_KERNELS)
class TestRTLSimFlowPerKernel:
    def test_outputs_and_reductions_match_reference_exactly(self, kernel_name):
        flow = RTLSimFlow(_tiny_module(kernel_name),
                          FlowSettings(n_items=64, use_cache=False))
        payload = flow.run().payload
        functional = payload["functional"]
        assert functional["outputs_checked"] >= 64
        assert functional["output_mismatches"] == 0
        assert functional["reductions_match"] is True
        assert payload["lint"] == []
        assert payload["ok"] is True

    def test_cycles_within_depth_plus_issue_interval(self, kernel_name):
        flow = RTLSimFlow(_tiny_module(kernel_name),
                          FlowSettings(n_items=64, use_cache=False))
        cycles = flow.run().payload["cycles"]
        assert cycles["gap_analytic"] <= cycles["bound"]
        assert cycles["gap_stepped"] <= cycles["bound"]
        assert cycles["ok"] is True

    def test_elaborate_flow_clean(self, kernel_name):
        flow = ElaborateFlow(_tiny_module(kernel_name, lanes=2),
                             FlowSettings(use_cache=False))
        payload = flow.run().payload
        assert payload["ok"] is True
        kernel_files = [name for name, report in payload["files"].items()
                        if report["modules"]]
        assert kernel_files  # at least the kernel pipeline elaborated


class TestElaborateFlow:
    def test_each_file_is_parsed_once(self, monkeypatch):
        from repro.flows import flows

        parsed = []
        parse_modules = flows.parse_modules

        def counting_parse(text):
            parsed.append(text)
            return parse_modules(text)

        # lint and elaboration must share one parse of each file
        monkeypatch.setattr(flows, "parse_modules", counting_parse)
        flow = ElaborateFlow(_tiny_module("sor"), FlowSettings(use_cache=False))
        payload = flow.run().payload
        assert payload["ok"] is True
        assert sorted(parsed) == sorted(
            text for name, text in flow.cached_artifacts().items() if name.endswith(".v"))

    def test_a_file_that_fails_to_parse_is_its_one_violation(self):
        class WithBrokenFile(ElaborateFlow):
            def artifacts(self):
                return {**super().artifacts(), "broken.v": "module broken ("}

        payload = WithBrokenFile(_tiny_module("nw"), FlowSettings(use_cache=False)).run().payload
        assert payload["ok"] is False
        assert payload["files"]["broken.v"] == {
            "lint": ["unexpected end of input"], "modules": {}}
        clean = [report for name, report in payload["files"].items() if name != "broken.v"]
        assert clean and all(not report["lint"] for report in clean)


class TestLaneFamilies:
    @pytest.mark.parametrize("lanes", [1, 2, 4])
    def test_lane_replication_keeps_functional_identity(self, lanes):
        # the kernel pipeline is lane-invariant: every lane count must
        # verify against the same per-lane stream semantics
        module = _tiny_module("nw", lanes=lanes)
        flow = RTLSimFlow(module, FlowSettings(n_items=32, use_cache=False))
        payload = flow.run().payload
        assert payload["ok"] is True


class TestFaultDetection:
    """The whole point of the subsystem: injected codegen bugs are caught."""

    def _verify(self, source: str, module, func):
        netlist = elaborate(parse_module_text(source))
        n = 48
        stimulus = kernel_stimulus(func, n)
        reference = reference_outputs(module, func, n)
        outcome = simulate_stream(
            netlist, stimulus, n, ["t_new"], ["maxDelta"],
            max_extra_cycles=256, drain_cycles=32)
        return compare_outcome(outcome, reference)

    def test_wrong_operator_detected(self):
        module = _tiny_module("hotspot")
        func = module.get_function("hotspot_pe")
        source = VerilogGenerator(module).generate_kernel(func)
        assert self._verify(source, module, func)["ok"] is True
        # flip the final add of t_new into a subtract, as a codegen bug would
        broken = source.replace(" + w_v12;", " - w_v12;", 1)
        assert broken != source
        verdict = self._verify(broken, module, func)
        assert verdict["output_mismatches"] > 0
        assert verdict["ok"] is False

    def test_missing_balancing_stage_detected(self):
        module = _tiny_module("hotspot")
        func = module.get_function("hotspot_pe")
        source = VerilogGenerator(module).generate_kernel(func)
        # shorten a balancing delay line by one stage: operands desynchronise
        assert "w_temp_d" in source
        import re

        match = re.search(r"w_temp_d(\d+)", source)
        depth = int(match.group(1))
        broken = source.replace(
            f"balbuf_temp_d{depth}[{depth - 1}]",
            f"balbuf_temp_d{depth}[{depth - 2}]")
        assert broken != source
        verdict = self._verify(broken, module, func)
        assert verdict["output_mismatches"] > 0


class TestSignedAndDivisionSemantics:
    """Signed opcodes emit $signed RTL and the reference mirrors true
    two's-complement semantics — not an enshrined unsigned bug — and
    division is zero-guarded identically everywhere."""

    def _build(self, body):
        from repro.ir import IRBuilder, ScalarType

        ty = ScalarType.int_(16)
        b = IRBuilder("signed_dp")
        f = b.function("f0", kind="pipe", args=[(ty, "a"), (ty, "b")])
        body(f, ty)
        b.port("f0", "out", ty, direction="ostream")
        main = b.function("main", kind="none")
        main.call("f0", ["a", "b"], kind="pipe")
        return b.build()

    def _eval_rtl(self, module, a_vals, b_vals):
        from repro.compiler.codegen.verilog import VerilogGenerator
        from repro.flows import elaborate, parse_module_text, simulate_stream

        func = module.get_function("f0")
        source = VerilogGenerator(module).generate_kernel(func)
        netlist = elaborate(parse_module_text(source))
        n = len(a_vals)
        outcome = simulate_stream(
            netlist, {"a": a_vals, "b": b_vals}, n, ["out"], [],
            max_extra_cycles=128, drain_cycles=8)
        return outcome.outputs["out"]

    def _eval_reference(self, module, a_vals, b_vals):
        from repro.flows.refmodel import evaluate_items

        func = module.get_function("f0")
        outputs, _, _ = evaluate_items(
            module, func, {"a": a_vals, "b": b_vals}, len(a_vals))
        return outputs["out"]

    @pytest.mark.parametrize("opcode, py", [
        # hand-computed 16-bit two's-complement expectations
        ("ashr", lambda a, b: (a >> 1)),
        ("max", lambda a, b: max(a, b)),
        ("min", lambda a, b: min(a, b)),
        ("abs", lambda a, b: abs(a)),
        ("div", lambda a, b: 0 if b == 0 else int(a / b)),
    ])
    def test_signed_opcode_rtl_matches_true_semantics(self, opcode, py):
        mask = (1 << 16) - 1

        def body(f, ty):
            if opcode == "ashr":
                f.instr("ashr", ty, f.arg("a"), 1, result="out")
            elif opcode == "abs":
                f.instr("abs", ty, f.arg("a"), result="out")
            else:
                f.instr(opcode, ty, f.arg("a"), f.arg("b"), result="out")

        module = self._build(body)
        signed_pairs = [(-2, 3), (-32768, -1), (5, -7), (100, 0), (-1, -1)]
        a_vals = [a & mask for a, _ in signed_pairs]
        b_vals = [b & mask for _, b in signed_pairs]
        expected = [py(a, b) & mask for a, b in signed_pairs]
        assert self._eval_reference(module, a_vals, b_vals) == expected
        assert self._eval_rtl(module, a_vals, b_vals) == expected

    def test_unsigned_division_zero_guarded(self):
        from repro.ir import IRBuilder, ScalarType

        ty = ScalarType.uint(16)
        b = IRBuilder("udiv_dp")
        f = b.function("f0", kind="pipe", args=[(ty, "a"), (ty, "b")])
        f.instr("udiv", ty, f.arg("a"), f.arg("b"), result="out")
        b.port("f0", "out", ty, direction="ostream")
        main = b.function("main", kind="none")
        main.call("f0", ["a", "b"], kind="pipe")
        module = b.build()
        a_vals, b_vals = [100, 7, 9], [3, 0, 2]
        expected = [33, 0, 4]
        assert self._eval_reference(module, a_vals, b_vals) == expected
        assert self._eval_rtl(module, a_vals, b_vals) == expected


class TestExternalAdapters:
    def test_unavailable_tools_reported_not_raised(self):
        # availability checks are pure PATH queries; they never raise
        assert isinstance(IcarusSimFlow.available(), bool)

    @pytest.mark.skipif(not IcarusSimFlow.available(),
                        reason="iverilog not on PATH")
    def test_iverilog_agrees_with_reference(self):
        flow = IcarusSimFlow(_tiny_module("nw"),
                             FlowSettings(n_items=32, use_cache=False))
        payload = flow.run().payload
        assert payload["ok"] is True
        assert payload["functional"]["output_mismatches"] == 0
