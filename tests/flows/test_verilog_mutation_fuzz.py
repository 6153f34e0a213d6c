"""Mutation fuzzing of the emitted Verilog through the pure-Python front end.

Hypothesis takes one kernel's emitted ``_kernel.v`` and mutates its
characters: deletes one, inserts or substitutes a Verilog character, or
duplicates a run.  Whatever comes out goes through the whole front end
of :class:`~repro.flows.RTLSimFlow` — parse, lint, elaborate and compile
— and the only errors that may escape are :class:`VerilogParseError` and
:class:`ElaborationError`, each naming the problem: never a bare
``ValueError``, ``RecursionError`` or ``KeyError`` a flow caller would
have to guess at.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler.codegen.verilog import VerilogGenerator
from repro.flows.netlist import ElaborationError, compile_netlist, elaborate, lint_module
from repro.flows.verilog import VerilogParseError, parse_module_text
from repro.kernels import get_kernel, kernel_names
from repro.suite.runner import tiny_grid
from tests.conftest import fuzz_examples

#: the characters an insert or substitution may use: identifier and
#: literal characters, the operators and punctuation of the subset,
#: whitespace, and a few characters outside it
VERILOG_CHARS = "aeiklnsrtw_$019'bdhxz+-*/%&|^~!<>=?:;,.()[]{}#@ \n`\"\\"


@lru_cache(maxsize=None)
def kernel_source(kernel_name: str) -> str:
    kernel = get_kernel(kernel_name)
    module = kernel.build_module(lanes=2, grid=tiny_grid(kernel.default_grid))
    (text,) = [text for name, text in VerilogGenerator(module).generate_all().items()
               if name.endswith("_kernel.v")]
    return text


@st.composite
def mutated_kernels(draw) -> str:
    chars = list(kernel_source(draw(st.sampled_from(kernel_names()))))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(("delete", "insert", "substitute", "duplicate")))
        if op == "insert":
            chars.insert(i, draw(st.sampled_from(VERILOG_CHARS)))
        elif i < len(chars):
            if op == "delete":
                del chars[i]
            elif op == "substitute":
                chars[i] = draw(st.sampled_from(VERILOG_CHARS))
            else:
                chars[i:i] = chars[i:i + draw(st.integers(1, 12))]
    return "".join(chars)


def front_end(text: str) -> None:
    """What RTLSimFlow does with the text before it simulates."""
    module = parse_module_text(text)
    lint_module(module)
    compile_netlist(elaborate(module))


@settings(max_examples=fuzz_examples(50), deadline=None)
@given(mutated_kernels())
@example(kernel_source("sor").replace("18'd171", "4'd1f"))
@example(kernel_source("sor").replace("18'd171", "4'b2"))
def test_mutated_verilog_parses_or_raises_a_typed_error(text):
    try:
        front_end(text)
    except (VerilogParseError, ElaborationError):
        pass


@pytest.mark.parametrize("literal", ["4'd1f", "4'b2", "8'h_"])
def test_malformed_sized_literals_raise_a_parse_error_with_their_line(literal):
    text = f"module m (input wire clk, output wire [3:0] q);\n  assign q = {literal};\nendmodule\n"
    with pytest.raises(VerilogParseError, match=rf"^line 2: malformed sized literal"):
        parse_module_text(text)


def test_a_real_literal_as_a_constant_raises_a_parse_error_with_its_line():
    text = "module m (input wire clk,\n  output wire [3.5:0] q);\nendmodule\n"
    with pytest.raises(VerilogParseError, match=r"^line 2: expected constant, got '3.5'"):
        parse_module_text(text)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("{", "}"), ("-", "")])
def test_deep_nesting_raises_a_parse_error_with_its_line(opening, closing):
    depth = 3000
    text = ("module m (input wire clk, output wire [3:0] q);\n"
            f"  assign q =\n    {opening * depth}1'b1{closing * depth};\nendmodule\n")
    with pytest.raises(VerilogParseError, match=r"^line 3: nested too deeply"):
        parse_module_text(text)
