"""The compiled netlist simulator against the recursive interpreter oracle.

Every generated kernel family (6 kernels x lanes 1, 2, 4) is driven with
seeded random stimulus through both simulators; the sampled outputs must
agree on every cycle and the final ``values``/``arrays`` state must be
identical.  Small hand-written modules pin the edge semantics the
generated kernels rarely reach, and the design errors the interpreter
raised mid-cycle must still surface as :class:`ElaborationError`.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netlist_oracle import InterpretedSimulator
from repro.compiler.codegen.testbench import select_leaf_function
from repro.compiler.codegen.verilog import VerilogGenerator
from repro.flows.netlist import (
    ElaborationError,
    NetlistSimulator,
    compile_netlist,
    elaborate,
)
from repro.flows.verilog import parse_module_text
from repro.kernels import get_kernel, kernel_names
from repro.suite.runner import tiny_grid

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@lru_cache(maxsize=None)
def kernel_netlist(kernel_name: str, lanes: int):
    kernel = get_kernel(kernel_name)
    module = kernel.build_module(lanes=lanes, grid=tiny_grid(kernel.default_grid))
    func = select_leaf_function(module, None)
    text = VerilogGenerator(module).generate_kernel(func)
    return elaborate(parse_module_text(text))


def netlist_of(source: str):
    return elaborate(parse_module_text(source))


def random_stimulus(netlist, seed: int, cycles: int) -> list[dict[str, int]]:
    """Per-cycle inputs, one bit wider than each port so masking is
    exercised, with occasional resets and gaps in ``in_valid``."""
    rng = random.Random(seed)
    ports = [p for p in netlist.inputs if p != "clk"]
    stimulus = []
    for _ in range(cycles):
        inputs = {p: rng.getrandbits(netlist.widths[p] + 1) for p in ports}
        if "rst" in inputs:
            inputs["rst"] = int(rng.random() < 0.05)
        if "in_valid" in inputs:
            inputs["in_valid"] = int(rng.random() < 0.85)
        stimulus.append(inputs)
    return stimulus


def assert_same_run(netlist, stimulus) -> list[dict[str, int]]:
    """Both simulators agree on every cycle and on the final state."""
    oracle = InterpretedSimulator(netlist)
    compiled = NetlistSimulator(netlist)
    sampled = []
    for cycle, inputs in enumerate(stimulus):
        expected = oracle.step(inputs)
        got = compiled.step(inputs)
        assert got == expected, f"cycle {cycle}: {got} != {expected}"
        sampled.append(got)
    assert compiled.values == oracle.values
    assert compiled.arrays == oracle.arrays
    # ints, not bools that merely compare equal (JSON would say "true")
    assert {type(v) for s in sampled for v in s.values()} <= {int}
    assert {type(v) for v in compiled.values.values()} == {int}
    return sampled


# ----------------------------------------------------------------------
# every generated kernel family
# ----------------------------------------------------------------------


@pytest.mark.parametrize("lanes", [1, 2, 4])
@pytest.mark.parametrize("kernel_name", kernel_names())
@settings(max_examples=2, deadline=None)
@given(seed=SEEDS)
def test_kernel_families_match_the_oracle(kernel_name, lanes, seed):
    netlist = kernel_netlist(kernel_name, lanes)
    assert_same_run(netlist, random_stimulus(netlist, seed, cycles=80))


def test_settle_matches_the_oracle():
    netlist = kernel_netlist("sor", 1)
    oracle, compiled = InterpretedSimulator(netlist), NetlistSimulator(netlist)
    for inputs in random_stimulus(netlist, 3, cycles=5):
        oracle.step(inputs)
        compiled.step(inputs)
    for sim in (oracle, compiled):
        sim.values["s_p"] = 12345
        sim.settle()
    assert compiled.values == oracle.values


def test_compiled_step_keeps_all_state_in_its_dicts():
    netlist = kernel_netlist("nw", 1)
    step = compile_netlist(netlist)
    stimulus = random_stimulus(netlist, 9, cycles=30)
    sim = NetlistSimulator(netlist)
    values = {name: 0 for name in netlist.widths}
    arrays = {name: [0] * size for name, (_, size) in netlist.arrays.items()}
    sampled = []
    for inputs in stimulus:
        # the caller applies inputs at their port widths
        values.update({p: v & ((1 << netlist.widths[p]) - 1) for p, v in inputs.items()})
        sampled.append(step(values, arrays))
    assert [sim.step(s) for s in stimulus] == sampled
    assert sim.values == values and sim.arrays == arrays
    assert "def step(values, arrays):" in step.source


# ----------------------------------------------------------------------
# edge semantics, one small module each
# ----------------------------------------------------------------------

OUT_OF_RANGE = """
module oob (input wire clk, input wire [3:0] idx, input wire [7:0] din,
            output wire [7:0] q, output wire [7:0] q_low, output wire [7:0] q_far);
  reg [7:0] mem [0:3];
  always @(posedge clk) begin
    mem[idx] <= din;
    mem[idx - 4'd2] <= din + 8'd1;
    mem[7] <= din;
  end
  assign q = mem[idx];
  assign q_low = mem[idx - 4'd2];
  assign q_far = mem[9];
endmodule
"""

SHIFTS = """
module shifts (input wire clk, input wire [7:0] a, input wire [7:0] b,
               output wire [63:0] logical, output wire [15:0] arith,
               output wire [15:0] plain);
  assign logical = (a - b) >> 2;
  assign arith = $signed(a) >>> 2;
  assign plain = a >>> 1;
endmodule
"""

DIVISION = """
module division (input wire clk, input wire [7:0] a, input wire [7:0] b,
                 output wire [7:0] q, output wire [7:0] r,
                 output wire [7:0] sq, output wire [7:0] sr);
  assign q = a / b;
  assign r = a % b;
  assign sq = $signed(a) / $signed(b);
  assign sr = $signed(a) % $signed(b);
endmodule
"""

COMPARES = """
module compares (input wire clk, input wire [7:0] a, input wire [7:0] b,
                 output wire lt, output wire ge, output wire mixed, output wire ult,
                 output wire both, output wire either);
  assign lt = ($signed(a) < $signed(b)) ? 1'b1 : 1'b0;
  assign both = (a > 8'd3) && (b < 8'd9);
  assign either = (a > 8'd3) || (b < 8'd9);
  assign ge = $signed(a) >= $signed(b);
  assign mixed = $signed(a) < b;
  assign ult = a < b;
endmodule
"""

INVERT = """
module invert (input wire clk, input wire [7:0] a, input wire [3:0] b,
               output wire [15:0] y, output wire [15:0] z, output wire [15:0] w);
  assign y = ~a;
  assign z = ~(a + b);
  assign w = {~b, ~a[3:0]};
endmodule
"""

SQRT = """
module root (input wire clk, input wire [15:0] a, input wire [15:0] b,
             output wire [15:0] y, output wire [15:0] n);
  assign y = fu_sqrt(a);
  assign n = fu_sqrt(a - b);
endmodule
"""

TWO_WRITES = """
module twice (input wire clk, input wire [7:0] a, input wire [7:0] b,
              output wire [7:0] x, output wire [7:0] y, output wire [7:0] m);
  reg [7:0] r;
  reg [7:0] s;
  reg [7:0] mem [0:1];
  always @(posedge clk) begin
    r <= a;
    if (b[0]) r <= b;
    mem[0] <= a;
    mem[0] <= b;
    s <= r;
  end
  always @(posedge clk) s <= s + 8'd1;
  assign x = r;
  assign y = s;
  assign m = mem[0];
endmodule
"""

LOOP_VARIABLE = """
module loopvar (input wire clk, input wire [7:0] din, input wire [3:0] sel,
                output wire [7:0] seen, output wire [7:0] last,
                output wire [7:0] acc_out, output wire [7:0] rev,
                output wire [31:0] low_out);
  reg [7:0] line [0:3];
  reg [7:0] mirror [0:3];
  reg [7:0] seen_r;
  reg [7:0] acc;
  reg [31:0] low;
  integer i;
  integer j;
  integer k;
  always @(posedge clk) begin
    seen_r <= i;
    line[0] <= din;
    for (i = 1; i <= 3; i = i + 1)
      line[i] <= line[i - 1];
  end
  always @(posedge clk) begin
    for (j = 0; j < 4; j = j + 1) begin
      if (sel[j]) acc <= acc + line[j];
      mirror[j] <= line[3 - j];
    end
    for (k = 0; k > 0 - 3; k = k - 1) begin end
    low <= k;
  end
  assign seen = seen_r;
  assign last = line[3];
  assign acc_out = acc;
  assign rev = mirror[0];
  assign low_out = low;
endmodule
"""

EDGE_MODULES = {
    "out_of_range": OUT_OF_RANGE,
    "shifts": SHIFTS,
    "division": DIVISION,
    "compares": COMPARES,
    "invert": INVERT,
    "sqrt": SQRT,
    "two_writes": TWO_WRITES,
    "loop_variable": LOOP_VARIABLE,
}


@pytest.mark.parametrize("name", sorted(EDGE_MODULES))
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_edge_modules_match_the_oracle(name, seed):
    netlist = netlist_of(EDGE_MODULES[name])
    assert_same_run(netlist, random_stimulus(netlist, seed, cycles=12))


def _run(source: str, inputs: dict[str, int], cycles: int = 1) -> dict[str, int]:
    netlist = netlist_of(source)
    return assert_same_run(netlist, [inputs] * cycles)[-1]


class TestEdgeSemantics:
    def test_out_of_range_reads_are_zero_and_writes_dropped(self):
        out = _run(OUT_OF_RANGE, {"idx": 1, "din": 7}, cycles=2)
        # mem[1] <= 7 and mem[-1] (dropped): q reads mem[1], q_low mem[-1]
        assert (out["q"], out["q_low"], out["q_far"]) == (7, 0, 0)
        sim = NetlistSimulator(netlist_of(OUT_OF_RANGE))
        for idx in (9, 15, 5):
            sim.step({"idx": idx, "din": 99})
        assert sim.arrays["mem"][0] == 0 and len(sim.arrays["mem"]) == 4

    def test_shift_right_of_a_negative_value(self):
        out = _run(SHIFTS, {"a": 1, "b": 3})
        assert out["logical"] == ((1 - 3) & (2**64 - 1)) >> 2   # 2**62 - 1
        assert out["arith"] == 0
        out = _run(SHIFTS, {"a": 0x80, "b": 0})
        assert out["arith"] == (-128 >> 2) & 0xFFFF   # sign-extended
        assert out["plain"] == 0x40                     # unsigned: logical

    def test_division_and_modulo_by_zero_yield_zero(self):
        assert _run(DIVISION, {"a": 200, "b": 0}) == {"q": 0, "r": 0, "sq": 0, "sr": 0}
        out = _run(DIVISION, {"a": 0xF9, "b": 2})       # -7 / 2 signed
        assert (out["q"], out["r"]) == (124, 1)
        assert (out["sq"], out["sr"]) == ((-3) & 0xFF, (-1) & 0xFF)

    def test_signed_compare(self):
        out = _run(COMPARES, {"a": 0xFF, "b": 0x01})    # -1 vs 1
        assert out == {"lt": 1, "ge": 0, "mixed": 1, "ult": 0, "both": 1, "either": 1}
        out = _run(COMPARES, {"a": 0x01, "b": 0x20})
        assert (out["both"], out["either"]) == (0, 0)

    def test_invert_masks_to_the_operand_width(self):
        out = _run(INVERT, {"a": 0x0F, "b": 0x1})
        assert out["y"] == 0xF0
        assert out["z"] == (~0x10) & 0xFF
        assert out["w"] == (0xE << 4) | 0x0

    def test_fu_sqrt(self):
        assert _run(SQRT, {"a": 1000, "b": 2000}) == {"y": 31, "n": 0}

    def test_last_nonblocking_write_wins(self):
        sim = NetlistSimulator(netlist_of(TWO_WRITES))
        sim.step({"a": 5, "b": 8})                      # b[0] = 0
        assert (sim.values["r"], sim.arrays["mem"][0]) == (5, 8)
        sim.step({"a": 5, "b": 9})
        assert (sim.values["r"], sim.arrays["mem"][0]) == (9, 9)
        # the later process wins the race for s
        assert sim.values["s"] == 2

    def test_loop_variable_read_before_assignment_is_its_signal(self):
        out = _run(LOOP_VARIABLE, {"din": 3, "sel": 0b1111}, cycles=6)
        assert out["seen"] == 0
        assert out["last"] == 3
        assert out["low_out"] == (-3) & 0xFFFFFFFF   # a negative loop value
        sim = NetlistSimulator(netlist_of(LOOP_VARIABLE))
        for value in (1, 2, 3, 4):
            sim.step({"din": value, "sel": 0})
        assert sim.arrays["line"] == [4, 3, 2, 1]


# ----------------------------------------------------------------------
# typed errors from compiled code
# ----------------------------------------------------------------------


class TestTypedErrors:
    def test_undriven_signal(self):
        sim = NetlistSimulator(netlist_of("""
        module m (input wire clk, output wire [3:0] y);
          assign y = missing + 4'd1;
        endmodule"""))
        with pytest.raises(ElaborationError, match="undriven signal 'missing'"):
            sim.step({})

    def test_unknown_input(self):
        sim = NetlistSimulator(netlist_of(SHIFTS))
        with pytest.raises(ElaborationError, match="unknown input 'nope'"):
            sim.step({"a": 1, "nope": 2})

    def test_unknown_functional_unit(self):
        sim = NetlistSimulator(netlist_of("""
        module m (input wire clk, input wire [7:0] a, output wire [7:0] y);
          assign y = fu_cbrt(a);
        endmodule"""))
        with pytest.raises(ElaborationError, match="unknown functional unit 'fu_cbrt'"):
            sim.step({"a": 8})

    def test_assign_to_undeclared_target(self):
        sim = NetlistSimulator(netlist_of("""
        module m (input wire clk, input wire [7:0] a, output wire [7:0] y);
          assign ghost = a;
          assign y = a;
        endmodule"""))
        with pytest.raises(ElaborationError, match="undeclared 'ghost'"):
            sim.step({"a": 1})

    def test_runaway_for_loop(self):
        sim = NetlistSimulator(netlist_of("""
        module m (input wire clk, output wire y);
          integer i;
          always @(posedge clk) begin
            for (i = 0; i < 1; i = i) begin end
          end
          assign y = 1'b0;
        endmodule"""))
        with pytest.raises(ElaborationError, match="runaway for loop"):
            sim.step({})
