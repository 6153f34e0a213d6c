"""The compiled stream runner against the per-cycle testbench loop.

:meth:`NetlistSimulator.stream` runs a whole stimulus in one call of the
netlist's generated runner.  Here it is held to the per-cycle loop it
replaced (``drive_stream`` in ``netlist_oracle.py``): over the compiled
per-cycle step on long streams, and over the recursive interpreter on
short ones.  Both must give the same :class:`RTLSimOutcome` and leave
the same ``values``/``arrays``.  Stimulus words are one bit wider than
their ports, so the masks folded into the runner are exercised.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netlist_oracle import InterpretedSimulator, drive_stream
from repro.flows import FlowSettings, RTLSimFlow, rtlsim
from repro.flows.netlist import (
    ElaborationError,
    NetlistSimulator,
    compile_runner,
    elaborate,
)
from repro.flows.rtlsim import RTLSimulationError, simulate_stream
from repro.flows.verilog import parse_module_text
from repro.kernels import get_kernel, kernel_names
from repro.suite.runner import tiny_grid
from test_netlist_compile import OUT_OF_RANGE, SHIFTS

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
FAMILIES = [(kernel, lanes) for kernel in kernel_names() for lanes in (1, 2, 4)]


class PerCycleSimulator(NetlistSimulator):
    """The compiled step, driven one cycle at a time."""

    stream = drive_stream


@lru_cache(maxsize=None)
def family_case(kernel_name: str, lanes: int):
    """(netlist, stream names, output names, reduction names, extra, drain)
    as ``RTLSimFlow`` simulates the family."""
    kernel = get_kernel(kernel_name)
    module = kernel.build_module(lanes=lanes, grid=tiny_grid(kernel.default_grid))
    flow = RTLSimFlow(module, FlowSettings(use_cache=False))
    func = flow.target_function()
    geometry = flow.generator.geometry(func.name)
    source = flow.generator.generate_kernel(func)
    return (elaborate(parse_module_text(source)), [name for _, name in func.args],
            flow.output_names(func), flow.reduction_names(func),
            geometry.latency + 64, geometry.schedule_depth + 4)


def run_with(simulator_class, netlist, stimulus, n_items, outputs, reductions,
             extra=64, drain=8):
    """``simulate_stream`` on ``simulator_class``; returns the outcome and
    the simulator's final state."""
    built = []

    class Recording(simulator_class):
        def __init__(self, target):
            super().__init__(target)
            built.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rtlsim, "NetlistSimulator", Recording)
        outcome = simulate_stream(netlist, stimulus, n_items, outputs, reductions,
                                  max_extra_cycles=extra, drain_cycles=drain)
    return outcome, built[0].values, built[0].arrays


def wide_words(netlist, names, seed: int, n_items: int) -> dict[str, list[int]]:
    """Random words one bit wider than each stream's port."""
    rng = random.Random(seed)
    return {name: [rng.getrandbits(netlist.widths[f"s_{name}"] + 1)
                   for _ in range(n_items)] for name in names}


def assert_same_as(oracle_class, netlist, stimulus, n_items, outputs, reductions,
                   extra=64, drain=8):
    runner = run_with(NetlistSimulator, netlist, stimulus, n_items, outputs,
                      reductions, extra, drain)
    oracle = run_with(oracle_class, netlist, stimulus, n_items, outputs,
                      reductions, extra, drain)
    assert runner[0] == oracle[0]
    assert runner[1] == oracle[1]
    assert runner[2] == oracle[2]
    assert {type(v) for v in runner[1].values()} == {int}
    return runner[0]


# ----------------------------------------------------------------------
# every golden family
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel_name, lanes", FAMILIES)
@settings(max_examples=3, deadline=None)
@given(seed=SEEDS, n_items=st.integers(min_value=1, max_value=2048))
@example(seed=1, n_items=2048)  # fills every delay line and wraps it many times
def test_families_match_the_per_cycle_loop(kernel_name, lanes, seed, n_items):
    netlist, names, outputs, reductions, extra, drain = family_case(kernel_name, lanes)
    stimulus = wide_words(netlist, names, seed, n_items)
    outcome = assert_same_as(PerCycleSimulator, netlist, stimulus, n_items,
                             outputs, reductions, extra, drain)
    assert outcome.n_items == n_items


@pytest.mark.parametrize("kernel_name, lanes", FAMILIES)
@settings(max_examples=2, deadline=None)
@given(seed=SEEDS, n_items=st.integers(min_value=1, max_value=40))
def test_families_match_the_interpreter(kernel_name, lanes, seed, n_items):
    netlist, names, outputs, reductions, extra, drain = family_case(kernel_name, lanes)
    stimulus = wide_words(netlist, names, seed, n_items)
    assert_same_as(InterpretedSimulator, netlist, stimulus, n_items,
                   outputs, reductions, extra, drain)


def test_every_kernel_input_line_is_a_ring():
    """The generator's argument, offset and balancing buffers are all
    plain delay lines, so the runner holds each one as a deque."""
    for kernel_name, lanes in FAMILIES:
        netlist = family_case(kernel_name, lanes)[0]
        source = compile_runner(netlist).source
        for name in netlist.arrays:
            assert f"_deque(arrays[{name!r}]" in source, (kernel_name, name)


def test_no_loop_variable_is_only_stored():
    """A shift loop's final loop-variable value is stored only where a
    later statement of its process reads it: no family's runner holds a
    loop-variable local that appears once."""
    for kernel_name, lanes in FAMILIES:
        source = compile_runner(family_case(kernel_name, lanes)[0]).source
        for local in set(re.findall(r"\be\d+_\d+\b", source)):
            assert len(re.findall(rf"\b{local}\b", source)) > 1, \
                (kernel_name, lanes, local)


# ----------------------------------------------------------------------
# handcrafted netlists
# ----------------------------------------------------------------------


def streamable(source: str) -> str:
    """``source`` with a reset, a valid strobe and a 2-stage ``out_valid``."""
    end = source.index(");")
    return (source[:end]
            + ", input wire rst, input wire in_valid, output wire out_valid);\n"
            + "  reg [1:0] vsr;\n"
            + "  always @(posedge clk) begin\n"
            + "    if (rst) vsr <= 0;\n"
            + "    else vsr <= {vsr[0], in_valid};\n"
            + "  end\n"
            + "  assign out_valid = vsr[1];\n"
            + source[end + 2:])


def line_module(head: str, shift_stop: int, reads: str = "") -> str:
    """A 4-word line ``d`` written by ``head`` and a loop up to ``shift_stop``."""
    return streamable(f"""
module line (input wire clk, input wire en, input wire [7:0] din,
             output wire [7:0] q, output wire [7:0] q1);
  reg [7:0] d [0:3];
  integer i;
  always @(posedge clk) begin
    {head}
    for (i = 1; i < {shift_stop}; i = i + 1)
      d[i] <= d[i - 1];
  end
  assign q = d[3];
  assign q1 = d[1];{reads}
endmodule
""")


QUEUED = streamable("""
module queued (input wire clk, input wire [1:0] idx, input wire [7:0] din,
               output wire [7:0] q, output wire [7:0] q0);
  reg [7:0] mem [0:3];
  always @(posedge clk) begin
    mem[idx] <= din;
    mem[0] <= mem[0] + din;
  end
  assign q = mem[idx];
  assign q0 = mem[0];
endmodule
""")

#: a delay line whose loop variable is read after the shift loop
READ_AFTER_SHIFT = streamable("""
module after (input wire clk, input wire [7:0] din,
              output wire [7:0] q, output wire [7:0] n);
  reg [7:0] d [0:3];
  reg [7:0] count;
  integer i;
  always @(posedge clk) begin
    d[0] <= din;
    for (i = 1; i < 4; i = i + 1)
      d[i] <= d[i - 1];
    count <= i;
  end
  assign q = d[3];
  assign n = count;
endmodule
""")

#: name -> (source, whether its array ``d`` must be a ring)
HANDCRAFTED = {
    "shifts": (streamable(SHIFTS), None),
    "out_of_range": (streamable(OUT_OF_RANGE), None),
    "full_line": (line_module("d[0] <= din;", 4), True),
    "partial_shift": (line_module("d[0] <= din;", 3), False),
    "conditional_head": (line_module("if (en) d[0] <= din;", 4), False),
    "dynamic_read": (line_module("d[0] <= din;", 4,
                                 "\n  wire [7:0] qd = d[din[1:0]];"), False),
    "queued": (QUEUED, None),
    "read_after_shift": (READ_AFTER_SHIFT, True),
}


def port_words(netlist, seed: int, n_items: int) -> dict[str, list[int]]:
    """Words one bit wider than each non-control input port."""
    rng = random.Random(seed)
    return {port: [rng.getrandbits(netlist.widths[port] + 1) for _ in range(n_items)]
            for port in netlist.inputs if port not in ("clk", "rst", "in_valid")}


@pytest.mark.parametrize("name", sorted(HANDCRAFTED))
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS, n_items=st.integers(min_value=1, max_value=24),
       drain=st.integers(min_value=-1, max_value=6))
def test_handcrafted_streams_match_the_interpreter(name, seed, n_items, drain):
    netlist = elaborate(parse_module_text(HANDCRAFTED[name][0]))
    words = port_words(netlist, seed, n_items)
    results = []
    for simulator_class in (NetlistSimulator, InterpretedSimulator):
        sim = simulator_class(netlist)
        results.append((sim.stream(words, n_items, n_items + 4, drain),
                        sim.values, sim.arrays))
    assert results[0] == results[1]
    cycles, outputs = results[0][0]
    assert cycles == list(range(2, n_items + 2))  # the 2-stage out_valid
    assert set(outputs) == {p for p in netlist.outputs if p != "out_valid"}


@pytest.mark.parametrize("name", sorted(k for k, v in HANDCRAFTED.items()
                                        if v[1] is not None))
def test_only_plain_delay_lines_become_rings(name):
    netlist = elaborate(parse_module_text(HANDCRAFTED[name][0]))
    ring = "_deque(arrays['d']" in compile_runner(netlist).source
    assert ring is HANDCRAFTED[name][1]


def test_a_stream_continues_from_the_simulator_state():
    """``stream`` reads and writes the simulator's dicts, as ``step`` does."""
    netlist = elaborate(parse_module_text(HANDCRAFTED["full_line"][0]))
    words = port_words(netlist, 5, 6)
    sims = [NetlistSimulator(netlist), InterpretedSimulator(netlist)]
    for sim in sims:
        sim.step({"din": 77, "en": 1})
        sim.stream(words, 6, 6, 1)
        sim.step({"din": 78, "en": 0})
    assert sims[0].values == sims[1].values
    assert sims[0].arrays == sims[1].arrays


def test_an_undriven_input_keeps_its_value():
    netlist = elaborate(parse_module_text(HANDCRAFTED["conditional_head"][0]))
    sims = [NetlistSimulator(netlist), InterpretedSimulator(netlist)]
    for sim in sims:
        sim.step({"en": 1})
        sim.stream({"din": [5, 6, 7]}, 3, 8, 2)
    assert sims[0].values == sims[1].values
    assert sims[0].values["en"] == 1
    assert sims[0].arrays == sims[1].arrays


# ----------------------------------------------------------------------
# typed errors, on the runner and on the per-cycle loop alike
# ----------------------------------------------------------------------

SIMULATORS = pytest.mark.parametrize(
    "simulator_class", [NetlistSimulator, PerCycleSimulator, InterpretedSimulator])


def _nw_case():
    netlist, names, outputs, reductions, *_ = family_case("nw", 1)
    return netlist, wide_words(netlist, names, 1, 8), outputs, reductions


@SIMULATORS
class TestTypedErrors:
    def test_missing_reduction_port(self, simulator_class):
        netlist, stimulus, outputs, _ = _nw_case()
        with pytest.raises(RTLSimulationError, match="no port 'g_ghost'"):
            run_with(simulator_class, netlist, stimulus, 8, outputs, ["ghost"])

    def test_missing_stream_port(self, simulator_class):
        netlist, stimulus, outputs, _ = _nw_case()
        with pytest.raises(RTLSimulationError, match="no port 's_ghost'"):
            run_with(simulator_class, netlist, {**stimulus, "ghost": [0] * 8}, 8,
                     outputs, [])

    def test_missing_output_port(self, simulator_class):
        netlist, stimulus, outputs, _ = _nw_case()
        with pytest.raises(RTLSimulationError, match="no port 's_ghost'"):
            run_with(simulator_class, netlist, stimulus, 8, outputs + ["ghost"], [])

    def test_out_valid_never_catching_up(self, simulator_class):
        netlist, stimulus, outputs, _ = _nw_case()
        with pytest.raises(RTLSimulationError,
                           match=r"^nw_pe_kernel: 7/8 outputs after 10 cycles — "
                                 r"out_valid never caught up$"):
            run_with(simulator_class, netlist, stimulus, 8, outputs, [], extra=2)

    def test_unknown_input(self, simulator_class):
        netlist = elaborate(parse_module_text("""
        module no_reset (input wire clk, input wire in_valid,
                         input wire [7:0] s_a, output wire out_valid,
                         output wire [7:0] s_y);
          assign out_valid = in_valid;
          assign s_y = s_a;
        endmodule"""))
        with pytest.raises(ElaborationError, match="unknown input 'rst'"):
            run_with(simulator_class, netlist, {"a": [1]}, 1, ["y"], [])

    def test_non_positive_n_items(self, simulator_class):
        netlist, stimulus, outputs, _ = _nw_case()
        with pytest.raises(ValueError, match="n_items must be positive"):
            run_with(simulator_class, netlist, stimulus, 0, outputs, [])
