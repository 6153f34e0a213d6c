"""Round-trip tests for the .tirl parser and printer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    IRBuilder,
    IRParseError,
    ScalarType,
    parse_module,
    print_module,
    validate_module,
)
from repro.ir.functions import AccessPatternKind, FunctionKind, StreamDirection

UI18 = ScalarType.uint(18)

SOR_LIKE_TIRL = """
; **** example close to the paper's Figure 12 ****
module "sor_c2"
const ND1 = 24
const ND2 = 24

; **** MANAGE-IR ****
%mobj_p = memobj addrSpace(1) ui18, !size, !13824, !"p"
%mobj_rhs = memobj addrSpace(1) ui18, !size, !13824
%strobj_p = streamobj %mobj_p, !"istream", !"CONT", !stride, !1
%strobj_rhs = streamobj %mobj_rhs, !"istream", !"CONT", !stride, !1

; **** COMPUTE-IR ****
@f0.p = addrSpace(1) ui18, !"istream", !"CONT", !0, !"strobj_p"
@f0.rhs = addrSpace(1) ui18, !"istream", !"CONT", !0, !"strobj_rhs"

define void @f0 (ui18 %p, ui18 %rhs, ui18 %cn2l, ui18 %cn2s) pipe {
  ;stream offsets
  ui18 %pip1 = ui18 %p, !offset, !+1
  ui18 %pin1 = ui18 %p, !offset, !-1
  ui18 %pkn1 = ui18 %p, !offset, !-ND1*ND2
  ;datapath instructions
  ui18 %1 = mul ui18 %pip1, %cn2l
  ui18 %2 = mul ui18 %pin1, %cn2s
  ui18 %3 = add ui18 %1, %2
  ui18 %4 = sub ui18 %3, %rhs
  ;reduction operation on global variable
  ui18 @sorErrAcc = add ui18 %4, @sorErrAcc
}

define void @main () {
  call @f0(%p, %rhs, %cn2l, %cn2s) pipe }
"""


class TestParser:
    def test_parse_sor_like(self):
        m = parse_module(SOR_LIKE_TIRL)
        assert m.name == "sor_c2"
        assert m.constants == {"ND1": 24, "ND2": 24}
        assert set(m.memory_objects) == {"mobj_p", "mobj_rhs"}
        assert set(m.stream_objects) == {"strobj_p", "strobj_rhs"}
        assert len(m.port_declarations) == 2
        f0 = m.get_function("f0")
        assert f0.kind is FunctionKind.PIPE
        assert len(f0.offsets()) == 3
        assert f0.instruction_count() == 5
        assert f0.reductions()[0].result == "sorErrAcc"
        assert m.entry.calls()[0].callee == "f0"

    def test_parse_memory_object_fields(self):
        m = parse_module(SOR_LIKE_TIRL)
        mobj = m.memory_objects["mobj_p"]
        assert mobj.size == 13824
        assert mobj.addr_space == 1
        assert mobj.label == "p"
        assert str(mobj.element_type) == "ui18"

    def test_parse_stream_object_fields(self):
        m = parse_module(SOR_LIKE_TIRL)
        s = m.stream_objects["strobj_p"]
        assert s.memory == "mobj_p"
        assert s.direction is StreamDirection.INPUT
        assert s.pattern is AccessPatternKind.CONTIGUOUS
        assert s.stride == 1

    def test_parse_symbolic_offset(self):
        m = parse_module(SOR_LIKE_TIRL)
        f0 = m.get_function("f0")
        symbolic = [o for o in f0.offsets() if o.is_symbolic]
        assert len(symbolic) == 1
        assert m.resolve_offset(symbolic[0].offset) == -576

    def test_parsed_module_validates(self):
        validate_module(parse_module(SOR_LIKE_TIRL))

    def test_closing_brace_same_line(self):
        text = """
define void @f0 (ui18 %x) pipe {
  ui18 %1 = add ui18 %x, 1 }
define void @main () {
  call @f0(%x) pipe }
"""
        m = parse_module(text)
        assert m.get_function("f0").instruction_count() == 1

    def test_par_wrapper(self):
        text = """
define void @f0 (ui18 %x) pipe {
  ui18 %1 = add ui18 %x, 1
}
define void @f1 (ui18 %x) par {
  call @f0(%x) pipe
  call @f0(%x) pipe
  call @f0(%x) pipe
  call @f0(%x) pipe
}
define void @main () {
  call @f1(%x) par
}
"""
        m = parse_module(text)
        f1 = m.get_function("f1")
        assert f1.kind is FunctionKind.PAR
        assert len(f1.calls()) == 4
        validate_module(m)

    @pytest.mark.parametrize(
        "bad",
        [
            "define void @f0 (ui18 %x) wibble {\n}",
            "ui18 %x = add ui18 %a, %b",  # statement outside function
            "%m = memobj addrSpace(9zz) ui18, !size, !10",
            "}",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(IRParseError):
            parse_module(bad)

    def test_missing_close_brace(self):
        with pytest.raises(IRParseError):
            parse_module("define void @f0 (ui18 %x) pipe {\n  ui18 %1 = add ui18 %x, 1")

    def test_unknown_call_kind(self):
        with pytest.raises(IRParseError):
            parse_module(
                "define void @main () {\n  call @f0(%x) sideways\n}"
            )

    @pytest.mark.parametrize("kind", ["streamobj", "addrSpace"])
    def test_unknown_access_pattern_is_a_parse_error(self, kind):
        # a printed kernel with one stream or port pattern misspelt
        from repro.kernels import SORKernel

        lines = print_module(SORKernel().build_module(lanes=1, grid=(8, 8, 8))).splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if kind in line and '!"CONT"' in line)
        lines[lineno - 1] = lines[lineno - 1].replace('!"CONT"', '!"CON0T"')
        with pytest.raises(IRParseError, match="CON0T") as info:
            parse_module("\n".join(lines))
        assert info.value.line == lineno
        assert str(info.value).startswith(f"line {lineno}: ")

    def test_comments_and_blank_lines_ignored(self):
        text = """

; a comment
; another

define void @main () {
  call @f0() pipe   ; trailing comment
}
define void @f0 () pipe {
  ui18 %1 = add ui18 1, 2
}
"""
        m = parse_module(text)
        assert m.entry.calls()[0].callee == "f0"


class TestRoundTrip:
    def test_roundtrip_parsed(self):
        m1 = parse_module(SOR_LIKE_TIRL)
        text = print_module(m1)
        m2 = parse_module(text)
        assert print_module(m2) == text
        assert set(m2.functions) == set(m1.functions)
        assert m2.constants == m1.constants
        f1, f2 = m1.get_function("f0"), m2.get_function("f0")
        assert [str(s) for s in f1.body] == [str(s) for s in f2.body]

    def test_roundtrip_built(self, stencil_module):
        text = print_module(stencil_module)
        m2 = parse_module(text)
        assert print_module(m2) == text
        validate_module(m2)

    def test_roundtrip_4lane(self, stencil_module_4lane):
        text = print_module(stencil_module_4lane)
        m2 = parse_module(text)
        f1 = m2.get_function("f1")
        assert len(f1.calls()) == 4
        assert print_module(m2) == text


# ---------------------------------------------------------------------------
# Property-based round trip over randomly generated straight-line pipelines
# ---------------------------------------------------------------------------

_opcodes = st.sampled_from(["add", "sub", "mul", "and", "or", "xor", "min", "max"])
_widths = st.sampled_from([8, 16, 18, 24, 32])


@st.composite
def random_pipeline_module(draw):
    width = draw(_widths)
    ty = ScalarType.uint(width)
    n_args = draw(st.integers(min_value=1, max_value=4))
    n_instrs = draw(st.integers(min_value=1, max_value=12))
    b = IRBuilder("random")
    args = [(ty, f"a{i}") for i in range(n_args)]
    f = b.function("f0", kind="pipe", args=args)
    available = [f"a{i}" for i in range(n_args)]
    for i in range(n_instrs):
        op = draw(_opcodes)
        lhs = draw(st.sampled_from(available))
        use_const = draw(st.booleans())
        rhs = draw(st.integers(min_value=0, max_value=255)) if use_const else draw(
            st.sampled_from(available)
        )
        name = f.instr(op, ty, lhs, rhs, result=f"v{i}")
        available.append(name)
    main = b.function("main", kind="none")
    main.call("f0", [a for _, a in args], kind="pipe")
    return b.build()


@given(random_pipeline_module())
@settings(max_examples=40, deadline=None)
def test_roundtrip_property(module):
    text = print_module(module)
    reparsed = parse_module(text)
    assert print_module(reparsed) == text
    validate_module(reparsed)
    f0a = module.get_function("f0")
    f0b = reparsed.get_function("f0")
    assert f0a.instruction_count() == f0b.instruction_count()
    assert [s.opcode for s in f0a.instructions()] == [s.opcode for s in f0b.instructions()]
