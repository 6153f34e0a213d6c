"""Tests for the queries of ``IRFunction`` and ``Module``: the call graph,
the names a function defines, its streams and the module's mutators."""

import pytest

from repro.ir import IRValidationError, ScalarType
from repro.ir.functions import (
    FunctionKind,
    PortDeclaration,
    StreamDirection,
    StreamObject,
)
from repro.ir.instructions import OperandKind
from repro.kernels import REGISTRY

UI18 = ScalarType.uint(18)
KERNELS = REGISTRY.names()


def reachable(module, root: str) -> set[str]:
    graph = module.call_graph()
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name])
    return seen


class TestKernelModules:
    @pytest.mark.parametrize("lanes", [1, 4])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_call_graph_is_closed_and_rooted_at_main(self, kernel, lanes):
        module = REGISTRY.create(kernel).build_module(lanes=lanes)
        graph = module.call_graph()
        assert set(graph) == set(module.functions)
        assert all(module.has_function(c) for callees in graph.values()
                   for c in callees)
        assert module.entry.name == module.main == "main"
        assert reachable(module, module.main) == set(module.functions)
        leaves = {name for name, f in module.functions.items() if f.is_leaf}
        assert leaves == {name for name, callees in graph.items() if not callees}
        pars = [f for f in module.functions.values()
                if f.kind is FunctionKind.PAR]
        if lanes == 1:
            assert not pars
        else:
            (par,) = pars
            (pe,) = set(graph[par.name])
            assert graph[par.name] == [pe] * lanes
            assert module.get_function(pe).is_leaf

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_streams_scale_with_lanes(self, kernel):
        one = REGISTRY.create(kernel).build_module(lanes=1)
        four = REGISTRY.create(kernel).build_module(lanes=4)
        assert len(one.output_streams()) == 1
        assert len(four.output_streams()) == 4
        assert len(four.input_streams()) == 4 * len(one.input_streams())
        assert all(s.direction is StreamDirection.INPUT
                   for s in four.input_streams())

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_every_ssa_use_is_defined_in_its_function(self, kernel):
        module = REGISTRY.create(kernel).build_module(lanes=1)
        for func in module.functions.values():
            defined = func.defined_names()
            assert set(func.arg_names) <= defined
            for off in func.offsets():
                assert off.source in defined, (func.name, off.source)
                assert off.result in defined
            for ins in func.instructions():
                for op in ins.operands:
                    if op.kind is OperandKind.SSA:
                        assert op.name in defined, (func.name, op.name)
            if func.name != module.main:  # main's call arguments name ports
                for call in func.calls():
                    assert set(call.args) <= defined, (func.name, call.args)


class TestFunctionQueries:
    def test_leaf_and_wrapper(self, stencil_module_4lane):
        f0 = stencil_module_4lane.get_function("f0")
        f1 = stencil_module_4lane.get_function("@f1")
        assert f0.is_leaf and not f1.is_leaf
        assert stencil_module_4lane.call_graph()["f1"] == ["f0"] * 4
        assert f1.instruction_count() == 0

    def test_arg_types_and_defined_names(self, stencil_module):
        f0 = stencil_module.get_function("f0")
        assert f0.arg_types == {"p": UI18, "rhs": UI18}
        defined = f0.defined_names()
        assert {"p", "rhs", "pip1", "pkn1", "p_new"} <= defined
        (reduction,) = f0.reductions()
        assert reduction.result == "errAcc" and reduction.result_is_global
        assert "errAcc" in defined
        assert len(defined) == 2 + len(f0.offsets()) + f0.instruction_count()

    def test_unknown_function(self, stencil_module):
        assert stencil_module.has_function("@f0")
        assert not stencil_module.has_function("f9")
        with pytest.raises(IRValidationError, match="@f9"):
            stencil_module.get_function("f9")


class TestModuleMutators:
    def test_duplicate_stream_object_rejected(self, stencil_module):
        with pytest.raises(IRValidationError, match="strobj_p0"):
            stencil_module.add_stream_object(StreamObject("strobj_p0", "mobj_p"))

    @pytest.mark.parametrize("mutate", ["stream", "port", "constant"])
    def test_mutators_invalidate_the_fingerprint(self, stencil_module, mutate):
        before = stencil_module.content_fingerprint()
        if mutate == "stream":
            stencil_module.add_stream_object(
                StreamObject("strobj_extra", "mobj_p"))
        elif mutate == "port":
            stencil_module.add_port_declaration(PortDeclaration(
                "f0", "rhs", UI18, stream_object="strobj_rhs0"))
        else:
            stencil_module.set_constant("ND1", 9)
        assert stencil_module.content_fingerprint() != before
