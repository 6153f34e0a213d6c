"""Mutation fuzzing of the ``.tirl`` front end.

Hypothesis takes the printed module of every registered kernel and
mutates its lines: deletes one, inserts a copy of another (or a line of
noise), swaps two, or duplicates a span.  Whatever comes out, parsing and
validating it either succeeds or raises an :class:`~repro.ir.errors.IRError`
subclass: never a bare ``ValueError``, ``KeyError`` or ``IndexError``
that a CLI or service caller would have to guess at.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import parse_module, print_module, validate_module
from repro.ir.errors import IRError
from repro.kernels import get_kernel, kernel_names
from tests.conftest import fuzz_examples

#: a line of noise the insert mutation may use instead of a copied line
NOISE = ("", "}", "{", "define void @f(", "%x = add ui18 %x, %x",
         "@main.x = addrSpace(1) ui18, !\"istream\", !\"CONT\", !0, !\"x\"", "#")


@lru_cache(maxsize=None)
def printed_lines(kernel: str) -> tuple[str, ...]:
    module = get_kernel(kernel).build_module(lanes=2, grid=(8, 8, 8))
    return tuple(print_module(module).splitlines())


@st.composite
def mutated_texts(draw) -> str:
    lines = list(printed_lines(draw(st.sampled_from(kernel_names()))))
    index = st.integers(min_value=0, max_value=10**6)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        op = draw(st.sampled_from(("delete", "insert", "swap", "duplicate")))
        if not lines:
            lines.append(draw(st.sampled_from(NOISE)))
            continue
        i, j = draw(index) % len(lines), draw(index) % len(lines)
        if op == "delete":
            del lines[i]
        elif op == "insert":
            line = draw(st.one_of(st.sampled_from(NOISE), st.just(lines[j])))
            lines.insert(i, line)
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            start, stop = min(i, j), max(i, j) + 1
            lines[stop:stop] = lines[start:stop]
    return "\n".join(lines) + "\n"


@settings(max_examples=fuzz_examples(50), deadline=None)
@given(mutated_texts())
def test_mutated_modules_parse_or_raise_an_ir_error(text):
    try:
        validate_module(parse_module(text, name="fuzzed"))
    except IRError:
        pass


def test_unmutated_modules_parse():
    """The corpus itself is valid, so every failure above is the mutation's."""
    for kernel in kernel_names():
        validate_module(parse_module("\n".join(printed_lines(kernel)) + "\n"))
