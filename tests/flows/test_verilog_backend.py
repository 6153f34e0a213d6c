"""Unit tests for the pure-Python RTL backend: parser, netlist, lint."""

import pytest

from repro.flows.netlist import (
    ElaborationError,
    NetlistSimulator,
    elaborate,
    lint_module,
)
from repro.flows.verilog import VerilogParseError, parse_module_text, parse_modules


def lint_text(source: str) -> list[str]:
    """Lint as ``ElaborateFlow`` does: parse once, lint every module; a
    parse error is the text's one violation."""
    try:
        modules = parse_modules(source)
    except VerilogParseError as exc:
        return [str(exc)]
    return [problem for module in modules for problem in lint_module(module)]

COUNTER = """
module counter (
  input  wire clk,
  input  wire rst,
  output wire [7:0] value
);
  reg [7:0] count;
  always @(posedge clk) begin
    if (rst) count <= 0;
    else     count <= count + 8'd1;
  end
  assign value = count;
endmodule
"""

SHIFTER = """
module shifter (
  input  wire clk,
  input  wire [3:0] din,
  output wire [3:0] dout
);
  reg [3:0] line [0:2];
  integer i;
  always @(posedge clk) begin
    line[0] <= din;
    for (i = 1; i < 3; i = i + 1)
      line[i] <= line[i - 1];
  end
  wire [3:0] dout_w = line[2];
  assign dout = dout_w;
endmodule
"""


class TestParser:
    def test_module_ports_and_items(self):
        module = parse_module_text(COUNTER)
        assert module.name == "counter"
        assert [p.name for p in module.inputs()] == ["clk", "rst"]
        assert module.port("value").width == 8
        assert len(module.always_blocks) == 1
        assert len(module.assigns) == 1

    def test_expressions_round_trip_through_eval(self):
        source = """
        module expr (input wire clk, input wire [7:0] a, output wire [7:0] y);
          wire [7:0] t = (a > 8'd3) ? a - 8'd1 : {a[3:0], 4'd2};
          assign y = ~t ^ (a << 1);
        endmodule
        """
        module = parse_module_text(source)
        sim = NetlistSimulator(elaborate(module))
        out = sim.step({"a": 10})
        t = 10 - 1  # a > 3
        assert out["y"] == ((~t) ^ (10 << 1)) & 0xFF

    def test_signed_compare(self):
        source = """
        module s (input wire clk, input wire [7:0] a, output wire y);
          assign y = ($signed(a) < $signed(8'd0)) ? 1'b1 : 1'b0;
        endmodule
        """
        sim = NetlistSimulator(elaborate(parse_module_text(source)))
        assert sim.step({"a": 0xFF})["y"] == 1  # -1 < 0 signed
        assert sim.step({"a": 0x01})["y"] == 0

    def test_unbalanced_begin_end_rejected(self):
        bad = COUNTER.replace("  end\n  assign", "  assign")
        with pytest.raises(VerilogParseError):
            parse_modules(bad)

    def test_x_literals_rejected(self):
        with pytest.raises(VerilogParseError):
            parse_modules("module m (input wire clk); wire a = 1'bx; endmodule")

    def test_multiple_modules(self):
        both = COUNTER + SHIFTER
        assert [m.name for m in parse_modules(both)] == ["counter", "shifter"]


class TestSimulation:
    def test_counter_counts(self):
        sim = NetlistSimulator(elaborate(parse_module_text(COUNTER)))
        sim.step({"rst": 1})
        values = [sim.step({"rst": 0})["value"] for _ in range(5)]
        assert values == [0, 1, 2, 3, 4]

    def test_shift_register_delays_by_depth(self):
        sim = NetlistSimulator(elaborate(parse_module_text(SHIFTER)))
        seen = []
        for i in range(8):
            seen.append(sim.step({"din": i + 1})["dout"])
        # three-deep line: input at cycle i appears at cycle i + 3
        assert seen[:3] == [0, 0, 0]
        assert seen[3:] == [1, 2, 3, 4, 5]

    def test_nonblocking_semantics_read_pre_edge_state(self):
        source = """
        module swap (input wire clk, output wire [3:0] xa, output wire [3:0] xb);
          reg [3:0] a;
          reg [3:0] b;
          always @(posedge clk) begin
            a <= b + 4'd1;
            b <= a;
          end
          assign xa = a;
          assign xb = b;
        endmodule
        """
        sim = NetlistSimulator(elaborate(parse_module_text(source)))
        sim.step({})  # a=1, b=0
        out = sim.step({})
        assert (out["xa"], out["xb"]) == (1, 0)

    def test_combinational_loop_detected(self):
        source = """
        module loop (input wire clk, output wire y);
          wire a = b;
          wire b = a;
          assign y = a;
        endmodule
        """
        with pytest.raises(ElaborationError):
            elaborate(parse_module_text(source))

    def test_hierarchical_simulation_rejected(self):
        source = """
        module top (input wire clk, output wire y);
          wire t;
          counter c0 (.clk(clk), .rst(t), .value(t));
          assign y = t;
        endmodule
        """
        netlist = elaborate(parse_module_text(source))
        with pytest.raises(ElaborationError):
            NetlistSimulator(netlist)


class TestLint:
    def test_clean_module(self):
        assert lint_text(COUNTER) == []
        assert lint_text(SHIFTER) == []

    def test_undeclared_wire_reported(self):
        source = COUNTER.replace("assign value = count;", "assign value = missing;")
        problems = lint_text(source)
        assert any("missing" in p for p in problems)

    def test_use_before_declaration_reported(self):
        source = """
        module late (input wire clk, output wire y);
          assign y = t;
          wire t = 1'b1;
        endmodule
        """
        problems = lint_text(source)
        assert any("'t'" in p for p in problems)

    def test_multiple_drivers_reported(self):
        source = """
        module dd (input wire clk, input wire a, output wire y);
          wire t = a;
          assign t = ~a;
          assign y = t;
        endmodule
        """
        problems = lint_text(source)
        assert any("multiple drivers" in p for p in problems)

    def test_parse_error_becomes_violation(self):
        assert lint_text("module broken (") == ["unexpected end of input"]

    def test_reg_driven_from_two_processes_reported(self):
        source = """
        module race (input wire clk, output wire [3:0] y);
          reg [3:0] r;
          always @(posedge clk) r <= r + 4'd1;
          always @(posedge clk) r <= r - 4'd1;
          assign y = r;
        endmodule
        """
        problems = lint_text(source)
        assert any("multiple drivers" in p for p in problems)

    def test_reset_and_else_branch_is_one_driver(self):
        # reset/else assignments inside ONE process are not a race
        assert lint_text(COUNTER) == []
