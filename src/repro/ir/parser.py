"""Parser for the textual TyTra-IR (``.tirl``) concrete syntax.

The grammar is line-oriented; every statement fits on one line.  It follows
the examples of the paper (Figures 12 and 14) with a small amount of
regularisation so the format round-trips exactly through
:func:`repro.ir.printer.print_module`:

.. code-block:: text

    ; comments run to end of line
    module "sor_c2"
    const ND1 = 24

    ; **** MANAGE-IR ****
    %mobj_p = memobj addrSpace(1) ui18, !size, !13824, !"p"
    %strobj_p = streamobj %mobj_p, !"istream", !"CONT", !stride, !1

    ; **** COMPUTE-IR ****
    @f0.p = addrSpace(1) ui18, !"istream", !"CONT", !0, !"strobj_p"

    define void @f0 (ui18 %p, ui18 %rhs) pipe {
      ui18 %pip1 = ui18 %p, !offset, !+1
      ui18 %1 = mul ui18 %pip1, %rhs
      ui18 @acc = add ui18 %1, @acc
      call @f1(%a, %b) pipe
    }

    define void @main () {
      call @f0(%p, %rhs) pipe }

A closing ``}`` may appear on its own line or at the end of the last body
statement (as in the paper's listings).
"""

from __future__ import annotations

import re

from repro.ir.errors import IRParseError
from repro.ir.functions import (
    AccessPatternKind,
    FunctionKind,
    IRFunction,
    MemoryObject,
    Module,
    PortDeclaration,
    StreamObject,
)
from repro.ir.instructions import (
    CallInstruction,
    Instruction,
    OffsetInstruction,
    Operand,
)
from repro.ir.types import parse_type

__all__ = ["parse_module"]


_KINDS = {k.value for k in FunctionKind if k is not FunctionKind.NONE}

_RE_MODULE = re.compile(r'^module\s+"(?P<name>[^"]+)"$')
_RE_CONST = re.compile(r"^const\s+(?P<name>[A-Za-z_]\w*)\s*=\s*(?P<value>-?\d+)$")
_RE_MEMOBJ = re.compile(
    r"^%(?P<name>[\w.]+)\s*=\s*memobj\s+addrSpace\((?P<aspace>\d+)\)\s+(?P<type>[\w.]+)\s*,"
    r"\s*!size\s*,\s*!(?P<size>\d+)(?:\s*,\s*!\"(?P<label>[^\"]*)\")?$"
)
_RE_STREAMOBJ = re.compile(
    r"^%(?P<name>[\w.]+)\s*=\s*streamobj\s+%(?P<mem>[\w.]+)\s*,"
    r"\s*!\"(?P<dir>istream|ostream)\"\s*,\s*!\"(?P<pattern>\w+)\"\s*,"
    r"\s*!stride\s*,\s*!(?P<stride>\d+)$"
)
_RE_PORT = re.compile(
    r"^@(?P<func>[\w]+)\.(?P<port>[\w]+)\s*=\s*addrSpace\((?P<aspace>\d+)\)\s+(?P<type>[\w.]+)\s*,"
    r"\s*!\"(?P<dir>istream|ostream)\"\s*,\s*!\"(?P<pattern>\w+)\"\s*,"
    r"\s*!(?P<offset>-?\d+)\s*,\s*!\"(?P<strobj>[^\"]*)\"$"
)
_RE_DEFINE = re.compile(
    r"^define\s+void\s+@(?P<name>[\w]+)\s*\((?P<args>[^)]*)\)\s*(?P<kind>\w+)?\s*\{$"
)
_RE_OFFSET = re.compile(
    r"^(?P<rtype>[\w.]+)\s+%(?P<res>[\w.]+)\s*=\s*(?P<stype>[\w.]+)\s+%(?P<src>[\w.]+)\s*,"
    r"\s*!offset\s*,\s*!(?P<off>[^\s].*)$"
)
_RE_INSTR = re.compile(
    r"^(?P<rtype>[\w.]+)\s+(?P<sigil>[%@])(?P<res>[\w.]+)\s*=\s*"
    r"(?P<opcode>[a-z_]+)(?:\.(?P<pred>[a-z]+))?\s+"
    r"(?P<otype>[\w.]+)\s+(?P<operands>.+)$"
)
_RE_CALL = re.compile(
    r"^call\s+@(?P<callee>[\w]+)\s*\((?P<args>[^)]*)\)\s*(?P<kind>\w+)?$"
)


def _strip_comment(line: str) -> str:
    """Remove a ``;`` comment, respecting nothing fancier (no strings contain ';')."""
    idx = line.find(";")
    if idx >= 0:
        line = line[:idx]
    return line.strip()


def _parse_args(text: str, lineno: int) -> list:
    """Parse a ``ui18 %p, ui18 %rhs`` argument list."""
    text = text.strip()
    if not text:
        return []
    args = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        parts = piece.split()
        if len(parts) != 2 or not parts[1].startswith("%"):
            raise IRParseError(f"malformed argument {piece!r}", lineno)
        args.append((parse_type(parts[0]), parts[1].lstrip("%")))
    return args


def _parse_operand(text: str, lineno: int) -> Operand:
    text = text.strip()
    if text.startswith("%"):
        return Operand.ssa(text)
    if text.startswith("@"):
        return Operand.global_(text)
    try:
        if any(c in text for c in ".eE") and not text.lstrip("+-").isdigit():
            return Operand.const(float(text))
        return Operand.const(int(text, 0))
    except ValueError as exc:
        raise IRParseError(f"malformed operand {text!r}", lineno) from exc


def _parse_call_args(text: str) -> list[str]:
    text = text.strip()
    if not text or text in ("...", "...args..."):
        return []
    return [a.strip().lstrip("%") for a in text.split(",") if a.strip()]


def _parse_offset_value(text: str, lineno: int) -> int | str:
    text = text.strip()
    try:
        return int(text.replace("+", ""), 10) if text.lstrip("+-").isdigit() else _symbolic(text)
    except ValueError as exc:  # pragma: no cover - defensive
        raise IRParseError(f"malformed offset {text!r}", lineno) from exc


def _symbolic(text: str) -> str:
    return text


def _parse_pattern(text: str, lineno: int) -> AccessPatternKind:
    try:
        return AccessPatternKind(text)
    except ValueError:
        choices = ", ".join(repr(kind.value) for kind in AccessPatternKind)
        raise IRParseError(
            f"unknown access pattern {text!r} (expected one of {choices})",
            lineno) from None


def _parse_body_line(line: str, lineno: int):
    """Parse a single statement inside a function body."""
    m = _RE_OFFSET.match(line)
    if m and "!offset" in line:
        return OffsetInstruction(
            result=m.group("res"),
            result_type=parse_type(m.group("rtype")),
            source=m.group("src"),
            offset=_parse_offset_value(m.group("off"), lineno),
        )
    m = _RE_CALL.match(line)
    if m:
        kind = m.group("kind")
        if kind is not None and kind not in _KINDS:
            raise IRParseError(f"unknown call kind {kind!r}", lineno)
        return CallInstruction(
            callee=m.group("callee"),
            args=_parse_call_args(m.group("args")),
            kind=kind,
        )
    m = _RE_INSTR.match(line)
    if m:
        operands = [
            _parse_operand(tok, lineno)
            for tok in m.group("operands").split(",")
            if tok.strip()
        ]
        return Instruction(
            result=m.group("res"),
            result_type=parse_type(m.group("rtype")),
            opcode=m.group("opcode"),
            operands=operands,
            result_is_global=m.group("sigil") == "@",
            predicate=m.group("pred"),
        )
    raise IRParseError(f"cannot parse statement {line!r}", lineno)


def parse_module(text: str, name: str = "design") -> Module:
    """Parse ``.tirl`` text into a :class:`repro.ir.Module`.

    Parameters
    ----------
    text:
        The IR source.
    name:
        Fallback module name when the source has no ``module`` directive.
    """
    module = Module(name=name)
    current: IRFunction | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue

        # A body may end with '}' on the same line as its last statement.
        closes = False
        if current is not None and line.endswith("}") and not line.endswith("{"):
            line = line[:-1].rstrip()
            closes = True
            if not line:
                current = None
                continue

        if current is not None:
            current.body.append(_parse_body_line(line, lineno))
            if closes:
                current = None
            continue

        if closes:
            raise IRParseError("unexpected '}' outside of a function body", lineno)

        m = _RE_MODULE.match(line)
        if m:
            module.name = m.group("name")
            continue
        m = _RE_CONST.match(line)
        if m:
            module.set_constant(m.group("name"), int(m.group("value")))
            continue
        m = _RE_MEMOBJ.match(line)
        if m:
            module.add_memory_object(
                MemoryObject(
                    name=m.group("name"),
                    element_type=parse_type(m.group("type")),
                    size=int(m.group("size")),
                    addr_space=int(m.group("aspace")),
                    label=m.group("label"),
                )
            )
            continue
        m = _RE_STREAMOBJ.match(line)
        if m:
            module.add_stream_object(
                StreamObject(
                    name=m.group("name"),
                    memory=m.group("mem"),
                    direction=m.group("dir"),
                    pattern=_parse_pattern(m.group("pattern"), lineno),
                    stride=int(m.group("stride")),
                )
            )
            continue
        m = _RE_PORT.match(line)
        if m:
            module.add_port_declaration(
                PortDeclaration(
                    function=m.group("func"),
                    port=m.group("port"),
                    element_type=parse_type(m.group("type")),
                    direction=m.group("dir"),
                    pattern=_parse_pattern(m.group("pattern"), lineno),
                    base_offset=int(m.group("offset")),
                    stream_object=m.group("strobj") or None,
                    addr_space=int(m.group("aspace")),
                )
            )
            continue
        m = _RE_DEFINE.match(line)
        if m:
            kind = m.group("kind")
            if kind is not None and kind not in _KINDS:
                raise IRParseError(f"unknown function kind {kind!r}", lineno)
            func = IRFunction(
                name=m.group("name"),
                kind=FunctionKind(kind) if kind else FunctionKind.NONE,
                args=_parse_args(m.group("args"), lineno),
            )
            module.add_function(func)
            current = func
            continue

        raise IRParseError(f"cannot parse line {line!r}", lineno)

    if current is not None:
        raise IRParseError(f"function @{current.name} is missing a closing '}}'")
    return module
