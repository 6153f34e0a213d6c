"""The compiled reference model: one function per distinct leaf datapath.

:func:`repro.flows.refmodel.evaluate_items` decodes a leaf function to a
program and keeps the Python function compiled from it in a per-process
memo (``refmodel._PROGRAMS``).  These tests pin what that memo must not
change: two datapaths that differ in a single opcode, signedness,
predicate, constant or width never share a function; the golden grid
compiles each distinct program once; a failing program is never kept;
and the edge cases of the item loop (no items, no stream arguments)
behave as the per-item interpreter oracle does.
"""

from __future__ import annotations

import pytest

import reference_oracle
from repro.compiler.codegen.testbench import select_leaf_function
from repro.cost.cache import BoundedCache
from repro.flows import flows, refmodel
from repro.flows.refmodel import ReferenceEvaluationError, kernel_stimulus, reference_outputs
from repro.ir.builder import IRBuilder
from repro.ir.instructions import OPCODES
from repro.ir.types import ScalarType
from repro.kernels import get_kernel, kernel_names
from repro.suite.runner import tiny_grid

#: every (a, b) pair of a 4-bit ``a`` and a 3-bit ``b``
PAIRS = [(a, b) for a in range(16) for b in range(8)]
STIMULUS = {"a": [a for a, _ in PAIRS], "b": [b for _, b in PAIRS]}


@pytest.fixture
def memo(monkeypatch) -> BoundedCache:
    """An empty reference memo with fresh counters."""
    fresh = BoundedCache(64, name="flows.reference")
    monkeypatch.setattr(refmodel, "_PROGRAMS", fresh)
    return fresh


@pytest.fixture
def compiles(monkeypatch) -> list:
    """The programs compiled while the test runs."""
    seen = []
    compile_program = refmodel._compile

    def counting(program):
        seen.append(program)
        return compile_program(program)

    monkeypatch.setattr(refmodel, "_compile", counting)
    return seen


def single(opcode: str, *, signed: bool = False, width: int = 5,
           predicate: str | None = None, operand=None):
    """``out = opcode a[, <operand>]`` over a 4-bit ``a`` and a 3-bit
    ``b``; the second operand is ``b`` unless ``operand`` is a constant."""
    make = ScalarType.int_ if signed else ScalarType.uint
    builder = IRBuilder("one")
    f = builder.function("f0", kind="pipe", args=[(make(4), "a"), (make(3), "b")])
    ops = ["a", "b" if operand is None else operand][:OPCODES[opcode].arity]
    f.instr(opcode, make(width), *ops, result="out", predicate=predicate)
    builder.port("f0", "out", make(width), direction="ostream")
    builder.function("main", kind="none").call("f0", ["a", "b"], kind="pipe")
    return builder.build()


def outputs(module, stimulus=STIMULUS, n_items=len(PAIRS)):
    func = module.get_function("f0")
    return reference_outputs(module, func, n_items, stimulus=stimulus).outputs


def oracle_outputs(module, stimulus=STIMULUS, n_items=len(PAIRS)):
    func = module.get_function("f0")
    return reference_oracle.evaluate_items(module, func, stimulus, n_items)[0]


@pytest.mark.parametrize("first, second", [
    pytest.param({"opcode": "add"}, {"opcode": "sub"}, id="opcode"),
    pytest.param({"opcode": "ashr", "signed": True}, {"opcode": "sdiv", "signed": True},
                 id="opcode-both-helpers"),
    pytest.param({"opcode": "max"}, {"opcode": "max", "signed": True}, id="signedness"),
    pytest.param({"opcode": "icmp", "predicate": "lt"},
                 {"opcode": "icmp", "predicate": "gt"}, id="predicate"),
    pytest.param({"opcode": "icmp", "predicate": "ult"},
                 {"opcode": "icmp", "predicate": "slt"}, id="predicate-signedness"),
    pytest.param({"opcode": "add", "operand": 3}, {"opcode": "add", "operand": 5},
                 id="constant"),
    pytest.param({"opcode": "sub", "operand": 3}, {"opcode": "sub", "operand": 3.6},
                 id="float-constant"),
    pytest.param({"opcode": "mul", "width": 5}, {"opcode": "mul", "width": 4}, id="width"),
])
def test_programs_differing_in_one_field_never_share(memo, compiles, first, second):
    a, b = single(**first), single(**second)
    got_a, got_b = outputs(a), outputs(b)
    assert got_a != got_b
    assert got_a == oracle_outputs(a)
    assert got_b == oracle_outputs(b)
    # each compiled once, and each served again from its own entry
    assert len(compiles) == len(memo) == 2
    assert (outputs(a), outputs(b)) == (got_a, got_b)
    assert len(compiles) == 2


def test_golden_families_compile_once_per_distinct_program(memo, compiles):
    families = []
    for kernel_name in kernel_names():
        kernel = get_kernel(kernel_name)
        for lanes in (1, 2, 4):
            module = kernel.build_module(lanes=lanes, grid=tiny_grid(kernel.default_grid))
            families.append((module, select_leaf_function(module, None)))

    def one_pass():
        return [reference_outputs(module, func, 48, seed)
                for seed in (1, 2, 3) for module, func in families]

    first = one_pass()
    # the lane families of a kernel share their leaf datapath
    assert len(compiles) == len(set(compiles)) == len(memo) == len(kernel_names())
    assert memo.misses == len(compiles)
    second = one_pass()
    assert len(compiles) == len(kernel_names())
    assert memo.hits == 2 * len(first) - len(compiles)
    assert second == first


def test_an_opcode_without_integer_semantics_is_never_kept(memo, compiles):
    module = single("fexp")
    for _ in range(3):
        with pytest.raises(ReferenceEvaluationError, match="fexp"):
            outputs(module)
    assert len(memo) == 0
    assert len(compiles) == 3


@pytest.mark.parametrize("n_items", [0, -1])
def test_no_items_is_empty_and_compiles_nothing(memo, compiles, n_items):
    builder = IRBuilder("acc")
    ty = ScalarType.uint(8)
    f = builder.function("f0", kind="pipe", args=[(ty, "a"), (ty, "b")])
    total = f.instr("add", ty, "a", "b", result="out")
    f.reduction("add", ty, "acc", total)
    builder.port("f0", "out", ty, direction="ostream")
    builder.function("main", kind="none").call("f0", ["a", "b"], kind="pipe")
    module = builder.build()
    func = module.get_function("f0")
    result = reference_outputs(module, func, n_items, stimulus={"a": [], "b": []})
    assert (result.outputs, result.reductions, result.interior) == (
        {"out": []}, {"acc": 0}, [])
    assert compiles == [] and len(memo) == 0


def test_a_function_reading_no_stream_still_yields_every_item(memo):
    builder = IRBuilder("consts")
    ty = ScalarType.uint(8)
    f = builder.function("f0", kind="pipe", args=[])
    f.instr("add", ty, 200, 100, result="out")
    builder.port("f0", "out", ty, direction="ostream")
    builder.function("main", kind="none").call("f0", [], kind="pipe")
    module = builder.build()
    assert outputs(module, {}, 5) == oracle_outputs(module, {}, 5) == {"out": [44] * 5}


def test_a_function_without_instructions_compiles(memo):
    builder = IRBuilder("empty")
    builder.function("f0", kind="pipe", args=[(ScalarType.uint(8), "a")])
    builder.function("main", kind="none").call("f0", ["a"], kind="pipe")
    module = builder.build()
    func = module.get_function("f0")
    result = reference_outputs(module, func, 3, stimulus={"a": [1, 2, 3]})
    assert (result.outputs, result.reductions, result.interior) == (
        {}, {}, [True, True, True])


def test_a_longer_stimulus_yields_n_items_outputs(memo):
    module = single("add")
    got = outputs(module, STIMULUS, 5)
    assert got == oracle_outputs(module, STIMULUS, 5)
    assert len(got["out"]) == 5


def test_reference_outputs_calls_the_module_global_evaluator(monkeypatch):
    module = single("add")
    func = module.get_function("f0")
    sentinel = ({"out": [7]}, {}, [True])
    monkeypatch.setattr(refmodel, "evaluate_items", lambda *args: sentinel)
    result = reference_outputs(module, func, 1, stimulus=kernel_stimulus(func, 1))
    assert (result.outputs, result.reductions, result.interior) == sentinel
    # the flow reaches the reference through its own module global
    assert flows.reference_outputs is reference_outputs
