"""Tests for configuration analysis and pipeline scheduling."""

import pytest

from repro.compiler import (
    DataflowGraph,
    OperatorLatencyModel,
    build_configuration_tree,
    classify_module,
    schedule_function,
)
from repro.compiler.scheduling import pipeline_spec_from_schedule, schedule_module
from repro.cost.resource_model import ModuleStructure
from repro.ir import IRBuilder, ScalarType
from repro.ir.functions import FunctionKind
from repro.models import ConfigurationClass

from tests.conftest import build_stencil_module

UI18 = ScalarType.uint(18)
UI32 = ScalarType.uint(32)


def build_coarse_grained_with_comb():
    """The Figure-8 style design: a coarse-grained pipeline whose second
    peer kernel uses a custom combinatorial block."""
    b = IRBuilder("coarse_comb")
    combf = b.function("combA", kind="comb", args=[(UI18, "x")])
    combf.instr("xor", UI18, combf.arg("x"), 255)
    pa = b.function("pipeA", kind="pipe", args=[(UI18, "x")])
    pa.add(UI18, pa.arg("x"), 1)
    pb = b.function("pipeB", kind="pipe", args=[(UI18, "x")])
    pb.mul(UI18, pb.arg("x"), 3)
    pb.call("combA", ["x"], kind="comb")
    top = b.function("top", kind="pipe", args=[(UI18, "x")])
    top.call("pipeA", ["x"], kind="pipe")
    top.call("pipeB", ["x"], kind="pipe")
    main = b.function("main", kind="none")
    main.call("top", ["x"], kind="pipe")
    return b.build()


class TestConfigurationTree:
    def test_single_pipeline_tree(self, stencil_module):
        tree = build_configuration_tree(stencil_module)
        assert tree.root.function == "main"
        assert tree.depth() == 2
        assert tree.lanes() == 1
        assert len(tree.leaves()) == 1
        assert tree.leaves()[0].function == "f0"

    def test_par_tree_has_lanes(self, stencil_module_4lane):
        tree = build_configuration_tree(stencil_module_4lane)
        assert tree.lanes() == 4
        assert tree.count("pipe") == 4
        assert tree.count("par") == 1
        # instance indices distinguish the four lanes
        assert sorted(n.instance for n in tree.leaves()) == [0, 1, 2, 3]

    def test_coarse_grained_tree_figure8(self):
        module = build_coarse_grained_with_comb()
        tree = build_configuration_tree(module)
        text = tree.to_text()
        assert "@top [pipe]" in text
        assert "@pipeA [pipe]" in text
        assert "@combA [comb]" in text
        assert tree.count(FunctionKind.COMB) == 1
        assert tree.depth() == 4  # main -> top -> pipeB -> combA
        assert tree.lanes() == 1

    def test_classification(self, stencil_module, stencil_module_4lane):
        single = classify_module(stencil_module)
        multi = classify_module(stencil_module_4lane)
        assert single.configuration_class is ConfigurationClass.C2
        assert multi.configuration_class is ConfigurationClass.C1
        assert multi.lanes == 4
        assert single.pipelined and multi.pipelined


class TestDataflowGraph:
    def test_graph_structure(self, stencil_module):
        f0 = stencil_module.get_function("f0")
        g = DataflowGraph.from_function(f0)
        assert len(g.nodes) == 6
        assert "pip1" in g.sources and "p" in g.sources
        # the two constant multiplies are roots (they read only offset streams)
        assert len(g.roots()) >= 2
        muls = [i for i in g.nodes.values() if i.opcode == "mul"]
        assert all(not g.producers(m) for m in muls)

class TestScheduling:
    def test_schedule_depth_and_ii(self, stencil_module):
        f0 = stencil_module.get_function("f0")
        sched = schedule_function(f0)
        assert sched.initiation_interval == 1
        # depth = critical path + input registering stage (1); the path is
        # mul(const->LUT, 3cy) -> add -> add -> sub -> reduction add (7)
        assert sched.pipeline_depth == 8
        assert sched.stage_of("p_new") > 0

    def test_balancing_registers_for_unbalanced_paths(self):
        b = IRBuilder("unbalanced")
        f = b.function("f0", kind="pipe", args=[(UI32, "a"), (UI32, "b")])
        slow = f.instr("div", UI32, f.arg("a"), f.arg("b"))     # long latency
        fast = f.instr("add", UI32, f.arg("a"), 1)              # 1 cycle
        f.instr("add", UI32, slow, fast, result="out")
        main = b.function("main", kind="none")
        main.call("f0", ["a", "b"], kind="pipe")
        module = b.build()
        sched = schedule_function(module.get_function("f0"))
        # 'fast' finishes at cycle 1+1=2 but is consumed at div's end (32)
        assert sched.balancing_register_bits >= (32 - 2) * 32
        assert sched.pipeline_depth >= 33

    def test_width_dependent_divider_latency(self):
        lm = OperatorLatencyModel()
        assert lm.latency("div", 64) == 64
        assert lm.latency("div", 18) == 18
        assert lm.latency("add", 64) == 1
        assert lm.latency("fdiv", 32) == 28  # float divider latency is fixed

    def test_comb_function_single_cycle(self):
        module = build_coarse_grained_with_comb()
        sched = schedule_function(module.get_function("combA"))
        assert sched.pipeline_depth == 1
        assert sched.balancing_register_bits == 0

    def test_schedule_module_covers_leaves(self, stencil_module_4lane):
        schedules = schedule_module(stencil_module_4lane)
        assert set(schedules) == {"f0"}

    def test_input_delay_bits_counted(self, stencil_module):
        sched = schedule_function(stencil_module.get_function("f0"))
        # 'rhs' and 'p' are consumed deep in the pipeline and need delay lines
        assert sched.input_delay_bits > 0

    def test_pipeline_spec_from_schedule(self, stencil_module_4lane):
        structure = ModuleStructure.from_module(stencil_module_4lane)
        schedules = schedule_module(stencil_module_4lane)
        spec = pipeline_spec_from_schedule(
            stencil_module_4lane, structure, schedules, clock_mhz=200.0
        )
        assert spec.lanes == 4
        assert spec.pipeline_depth == schedules["f0"].pipeline_depth
        assert spec.offset_fill_words == 64
        assert spec.element_bytes == 3  # ui18 -> 3 bytes
        assert spec.input_words_per_item == 2
        assert spec.output_words_per_item == 1

    def test_coarse_grained_depth_accumulates(self):
        module = build_coarse_grained_with_comb()
        structure = ModuleStructure.from_module(module)
        schedules = schedule_module(module)
        spec = pipeline_spec_from_schedule(module, structure, schedules, clock_mhz=150.0)
        individual = sum(s.pipeline_depth for s in schedules.values())
        assert spec.pipeline_depth == individual
        assert spec.lanes == 1

    def test_as_dict(self, stencil_module):
        sched = schedule_function(stencil_module.get_function("f0"))
        d = sched.as_dict()
        assert d["function"] == "f0"
        assert d["pipeline_depth"] == sched.pipeline_depth
