"""The compiled reference model against the per-item interpreter oracle.

:func:`repro.flows.refmodel.evaluate_items` compiles an IR function once
per process into one straight-line Python function and runs it over the
items; ``reference_oracle.py`` keeps the interpreter it replaced, which
classifies every operand and walks an opcode ``if`` chain for every item.
The compiled functions stay in the process memo across examples, so
datapaths that differ in one field must not share one.  Hypothesis holds the two to the
same ``outputs``, ``reductions`` and ``interior`` on every kernel family
(including streams shorter than the offset window, where every item
reads flushed zeros), on small random datapaths over every opcode, width
and signedness, where they must also fail alike, and on every operand
pair of one small instruction per opcode and predicate.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_oracle
from repro.compiler.codegen.testbench import select_leaf_function
from repro.flows.refmodel import kernel_stimulus, reference_outputs
from repro.ir.builder import IRBuilder
from repro.ir.instructions import COMPARE_PREDICATES, OPCODES
from repro.ir.types import ScalarType
from repro.kernels import get_kernel, kernel_names
from repro.suite.runner import tiny_grid
from tests.conftest import fuzz_examples


@lru_cache(maxsize=None)
def family(kernel_name: str, lanes: int):
    """(module, leaf function, offset span) of one tiny-grid family."""
    kernel = get_kernel(kernel_name)
    module = kernel.build_module(lanes=lanes, grid=tiny_grid(kernel.default_grid))
    func = select_leaf_function(module, None)
    offsets = [module.resolve_offset(off.offset) for off in func.offsets()]
    return module, func, max(offsets, default=0) - min(offsets, default=0)


@pytest.mark.parametrize("lanes", [1, 2, 4])
@pytest.mark.parametrize("kernel_name", kernel_names())
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), fraction=st.floats(0.0, 1.0))
@example(seed=1, fraction=0.0)
def test_kernel_families_match_the_oracle(kernel_name, lanes, seed, fraction):
    module, func, span = family(kernel_name, lanes)
    # up to twice the offset span: the shorter streams never fill it
    n_items = 1 + int(fraction * (2 * span + 16))
    stimulus = kernel_stimulus(func, n_items, seed)
    result = reference_outputs(module, func, n_items, stimulus=stimulus)
    outputs, reductions, interior = reference_oracle.evaluate_items(
        module, func, stimulus, n_items)
    assert result.outputs == outputs
    assert result.reductions == reductions
    assert result.interior == interior


#: opcodes of random datapaths: every IR opcode (those without integer
#: semantics must fail alike)
OPCODE_NAMES = sorted(OPCODES)


@st.composite
def datapaths(draw):
    """A small leaf function over two argument streams: random opcodes,
    types up to 12 bits (so shifts stay small), constants and an optional
    reduction, with every instruction's result an output stream."""
    types = st.builds(lambda make, width: make(width),
                      st.sampled_from((ScalarType.int_, ScalarType.uint)),
                      st.integers(1, 12))
    builder = IRBuilder("dp")
    args = [(draw(types), "a"), (draw(types), "b")]
    f = builder.function("f0", kind="pipe", args=args)
    names = [f.arg("a"), f.arg("b")]
    reduce = draw(st.booleans())
    if draw(st.booleans()):
        names.append(f.offset("a", draw(st.integers(-3, 3)), args[0][0], result="a_off"))
    operand = st.one_of(
        st.sampled_from(names),
        st.integers(-4, 300),
        st.floats(-4.0, 300.0, allow_nan=False),
        *([st.just("@acc")] if reduce else []),
    )
    for index in range(draw(st.integers(1, 8))):
        opcode = draw(st.sampled_from(OPCODE_NAMES))
        ops = [draw(operand) for _ in range(OPCODES[opcode].arity)]
        predicate = None
        if opcode in ("icmp", "fcmp"):
            predicate = draw(st.none() | st.sampled_from(sorted(COMPARE_PREDICATES)))
        result_type = draw(types)
        name = f.instr(opcode, result_type, *ops, result=f"v{index}", predicate=predicate)
        builder.port("f0", name, result_type, direction="ostream")
        operand = st.one_of(operand, st.just(name))
    if reduce:
        f.reduction(draw(st.sampled_from(("add", "max", "xor"))), draw(types), "acc",
                    name)
    builder.function("main", kind="none").call("f0", ["a", "b"], kind="pipe")
    return builder.build()


def outcome(evaluate):
    try:
        return evaluate()
    except Exception as exc:  # the two must fail with the same error type
        return type(exc)


@settings(max_examples=fuzz_examples(300), deadline=None)
@given(module=datapaths(), seed=st.integers(0, 2**31 - 1), n_items=st.integers(1, 12))
def test_random_datapaths_match_the_oracle(module, seed, n_items):
    func = module.get_function("f0")
    stimulus = kernel_stimulus(func, n_items, seed)

    def decoded():
        result = reference_outputs(module, func, n_items, stimulus=stimulus)
        return result.outputs, result.reductions, result.interior

    expected = outcome(lambda: reference_oracle.evaluate_items(
        module, func, stimulus, n_items))
    assert outcome(decoded) == expected


def one_instruction(opcode: str, predicate: str | None, signed: bool):
    """``out = opcode a, b[, a]`` over a 4-bit ``a`` and a 3-bit ``b``."""
    make = ScalarType.int_ if signed else ScalarType.uint
    builder = IRBuilder("one")
    f = builder.function("f0", kind="pipe", args=[(make(4), "a"), (make(3), "b")])
    ops = ["a", "b", "a"][:OPCODES[opcode].arity]
    f.instr(opcode, make(5), *ops, result="out", predicate=predicate)
    builder.port("f0", "out", make(5), direction="ostream")
    builder.function("main", kind="none").call("f0", ["a", "b"], kind="pipe")
    return builder.build()


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("opcode, predicate", [
    (opcode, None) for opcode in OPCODE_NAMES if opcode not in ("icmp", "fcmp")
] + [(opcode, predicate) for opcode in ("icmp", "fcmp")
     for predicate in sorted(COMPARE_PREDICATES)])
def test_every_opcode_matches_the_oracle_on_every_operand_pair(opcode, predicate, signed):
    module = one_instruction(opcode, predicate, signed)
    func = module.get_function("f0")
    pairs = [(a, b) for a in range(16) for b in range(8)]
    stimulus = {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}

    def decoded():
        return reference_outputs(module, func, len(pairs), stimulus=stimulus).outputs

    expected = outcome(lambda: reference_oracle.evaluate_items(
        module, func, stimulus, len(pairs))[0])
    assert outcome(decoded) == expected
