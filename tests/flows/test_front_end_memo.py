"""The per-process RTL front end: each distinct kernel Verilog source is
parsed, linted and elaborated once, and its netlist compiles its stream
runner once.

The lane-1/2/4 families of a kernel simulate the same leaf module, so a
golden-grid run meets 6 distinct sources among its 18 families.  Every
flow still simulates its own stimulus against a fresh simulator; these
tests pin that the memo changes no payload and keeps no failure.
"""

from __future__ import annotations

import pytest

from netlist_oracle import InterpretedSimulator
from repro.cost.cache import BoundedCache, redirected_cache_dir
from repro.flows import FlowSettings, RTLSimFlow, flows, netlist, rtlsim, run_flow_suite
from repro.flows.netlist import ElaborationError, NetlistSimulator
from repro.flows.verilog import VerilogParseError
from repro.kernels import get_kernel, kernel_names
from repro.suite.golden import golden_config
from repro.suite.runner import tiny_grid

LANES = (1, 2, 4)


@pytest.fixture
def memo(monkeypatch) -> BoundedCache:
    """A cleared front-end memo with fresh counters."""
    fresh = BoundedCache(64, name="flows.front-end")
    monkeypatch.setattr(flows, "_FRONT_END", fresh)
    return fresh


def _family_flow(kernel_name: str, lanes: int) -> RTLSimFlow:
    kernel = get_kernel(kernel_name)
    module = kernel.build_module(lanes=lanes, grid=tiny_grid(kernel.default_grid))
    return RTLSimFlow(module, FlowSettings(n_items=48, use_cache=False))


def test_golden_grid_elaborates_each_distinct_source_once(memo, tmp_path):
    with redirected_cache_dir(tmp_path / "cold"):
        cold = run_flow_suite(golden_config())
    assert cold.ok, cold.failures
    assert cold.families == 3 * len(kernel_names())
    assert (memo.misses, memo.hits, len(memo)) == (6, 12, 6)

    # a warm memo serves every family, and the report keeps its bytes
    with redirected_cache_dir(tmp_path / "warm"):
        warm = run_flow_suite(golden_config())
    assert (memo.misses, memo.hits) == (6, 30)
    assert warm.report.to_json() == cold.report.to_json()


def test_lane_families_share_one_netlist_compiled_once(memo, monkeypatch):
    runners, steps, simulated = [], [], []
    compile_runner, compile_step = netlist.compile_runner, netlist.compile_netlist
    simulate_stream = flows.simulate_stream

    def counting_runner(target):
        runners.append(target)
        return compile_runner(target)

    def counting_step(target):
        steps.append(target)
        return compile_step(target)

    def recording_simulate(target, *args, **kwargs):
        simulated.append(target)
        return simulate_stream(target, *args, **kwargs)

    monkeypatch.setattr(netlist, "compile_runner", counting_runner)
    monkeypatch.setattr(netlist, "compile_netlist", counting_step)
    monkeypatch.setattr(flows, "simulate_stream", recording_simulate)
    for lanes in LANES:
        assert _family_flow("sor", lanes).run().ok
    assert len(simulated) == len(LANES)
    assert all(target is simulated[0] for target in simulated)
    # one runner per distinct netlist; the flow path never compiles a step
    assert runners == [simulated[0]]
    assert steps == []
    assert simulated[0].compiled_runner is not None
    assert simulated[0].compiled_step is None
    assert (memo.misses, memo.hits) == (1, 2)


@pytest.mark.parametrize("kernel_name", ["nw", "lavamd"])
def test_payloads_equal_cold_and_warm(memo, kernel_name):
    cold = []
    for lanes in LANES:
        memo.clear()
        cold.append(_family_flow(kernel_name, lanes).run().payload)
    assert memo.hits == 0
    # the lane-4 entry left in the memo serves all three families
    warm = [_family_flow(kernel_name, lanes).run().payload for lanes in LANES]
    assert memo.hits == len(LANES)
    assert warm == cold


def test_mutating_the_lint_list_leaves_the_memo_alone(memo):
    first = _family_flow("matmul", 1).run().payload
    assert first["lint"] == []
    first["lint"].append("caller's note")
    second = _family_flow("matmul", 2).run().payload
    assert memo.hits == 1
    assert second["lint"] == []
    assert second["ok"]


class TestFailuresAreNotKept:
    def test_parse_error(self, memo):
        for _ in range(2):
            with pytest.raises(VerilogParseError, match="end of input"):
                flows._front_end("module broken (")
        assert len(memo) == 0

    def test_elaboration_error(self, memo):
        source = """
        module loop (input wire clk, output wire y);
          wire a = b;
          wire b = a;
          assign y = a;
        endmodule
        """
        for _ in range(2):
            with pytest.raises(ElaborationError, match="combinational loop"):
                flows._front_end(source)
        assert len(memo) == 0

    def test_compile_error(self, memo):
        source = """
        module reversed (input wire clk, input wire [7:0] a, output wire [3:0] y);
          assign y = a[0:3];
        endmodule
        """
        _, target = flows._front_end(source)
        for _ in range(2):
            with pytest.raises(ElaborationError, match="part-select"):
                NetlistSimulator(target)
        assert target.compiled_runner is None


def test_a_patched_simulator_class_is_still_used(memo, monkeypatch):
    compiled = [_family_flow("hotspot", lanes).run().payload for lanes in LANES]
    built = []

    class CountingOracle(InterpretedSimulator):
        def __init__(self, target):
            built.append(target)
            super().__init__(target)

    monkeypatch.setattr(rtlsim, "NetlistSimulator", CountingOracle)
    oracle = [_family_flow("hotspot", lanes).run().payload for lanes in LANES]
    assert len(built) == len(LANES)
    assert oracle == compiled
