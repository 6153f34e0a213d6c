"""SSA statements of the Compute-IR.

Three statement species appear in the body of a TyTra-IR function (see
Figure 12 of the paper):

* *stream offsets* — ``ui18 %pip1 = ui18 %p, !offset, !+1`` — declare a new
  stream that is a (positive or negative) offset of an existing input
  stream.  On hardware these become offset/delay buffers in the stream
  controller and they drive the ``Noff`` term of the throughput model.

* *datapath instructions* — ``ui18 %1 = mul ui18 %p_i_p1, %cn2l`` — LLVM
  style SSA arithmetic.  Each opcode has an entry in :data:`OPCODES`
  describing its category, default pipeline latency and whether it can be
  mapped onto DSP blocks; those attributes feed both the scheduler and the
  resource cost model.

* *calls* — ``call @f0(...) pipe`` — instantiate a child function with a
  parallelism keyword, used to build the configuration hierarchy.

Global accumulations (``ui18 @sorErrAcc = add ui18 %sorErr, %sorErrAcc``)
are ordinary :class:`Instruction` objects whose result name starts with
``@``; they model reductions onto a global variable.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Union

from repro import field, record
from repro.ir.errors import IRTypeError
from repro.ir.types import ScalarType

__all__ = [
    "OperandKind",
    "Operand",
    "OpcodeInfo",
    "OPCODES",
    "COMPARE_PREDICATES",
    "decode_predicate",
    "opcode_info",
    "Instruction",
    "OffsetInstruction",
    "CallInstruction",
    "Statement",
]


class OperandKind(str, Enum):
    """How an operand is referenced."""

    SSA = "ssa"          # %name — a local SSA value or function argument
    GLOBAL = "global"    # @name — a module level (accumulator) variable
    CONST = "const"      # an immediate literal


@record(frozen=True)
class Operand:
    """A single operand of an instruction."""

    kind: OperandKind
    name: str | None = None
    value: float | int | None = None

    def __init__(self, kind, name=None, value=None) -> None:
        put = object.__setattr__
        put(self, "kind", kind)
        put(self, "name", name)
        put(self, "value", value)
        if kind in (OperandKind.SSA, OperandKind.GLOBAL) and not name:
            raise IRTypeError("named operand requires a name")
        if kind is OperandKind.CONST and value is None:
            raise IRTypeError("constant operand requires a value")

    # -- constructors ---------------------------------------------------
    @staticmethod
    def ssa(name: str) -> "Operand":
        return Operand(OperandKind.SSA, name=name.lstrip("%"))

    @staticmethod
    def global_(name: str) -> "Operand":
        return Operand(OperandKind.GLOBAL, name=name.lstrip("@"))

    @staticmethod
    def const(value: float | int) -> "Operand":
        return Operand(OperandKind.CONST, value=value)

    # -- predicates -----------------------------------------------------
    @property
    def is_const(self) -> bool:
        return self.kind is OperandKind.CONST

    @property
    def is_ssa(self) -> bool:
        return self.kind is OperandKind.SSA

    @property
    def is_global(self) -> bool:
        return self.kind is OperandKind.GLOBAL

    def __str__(self) -> str:
        if self.kind is OperandKind.SSA:
            return f"%{self.name}"
        if self.kind is OperandKind.GLOBAL:
            return f"@{self.name}"
        return repr(self.value)


@record(frozen=True)
class OpcodeInfo:
    """Static description of an IR opcode.

    Attributes
    ----------
    name:
        Mnemonic as it appears in the IR text.
    category:
        Coarse family used by the resource model: ``add``, ``mul``, ``div``,
        ``logic``, ``shift``, ``cmp``, ``select``, ``special`` or ``mem``.
    latency:
        Default pipeline latency in cycles for a 32-bit operand; the
        scheduler scales some categories with operand width.
    dsp_eligible:
        Whether the operation can be mapped to hard DSP blocks (only
        relevant to multiply-like operations).
    commutative:
        Whether operand order is irrelevant (used by CSE-style helpers).
    float_only / int_only:
        Constrain the operand type family.
    """

    name: str
    category: str
    latency: int = 1
    dsp_eligible: bool = False
    commutative: bool = False
    float_only: bool = False
    int_only: bool = False
    arity: int = 2


def _mk(name, category, latency=1, dsp=False, comm=False, f=False, i=False, arity=2):
    return OpcodeInfo(
        name=name,
        category=category,
        latency=latency,
        dsp_eligible=dsp,
        commutative=comm,
        float_only=f,
        int_only=i,
        arity=arity,
    )


#: Registry of the opcodes understood by the compiler and the cost model.
OPCODES: dict[str, OpcodeInfo] = {
    op.name: op
    for op in [
        # integer / fixed point arithmetic
        _mk("add", "add", latency=1, comm=True),
        _mk("sub", "add", latency=1),
        _mk("mul", "mul", latency=3, dsp=True, comm=True),
        _mk("div", "div", latency=18, i=True),
        _mk("udiv", "div", latency=18, i=True),
        _mk("sdiv", "div", latency=20, i=True),
        _mk("rem", "div", latency=18, i=True),
        _mk("urem", "div", latency=18, i=True),
        # bitwise / logic
        _mk("and", "logic", latency=1, comm=True, i=True),
        _mk("or", "logic", latency=1, comm=True, i=True),
        _mk("xor", "logic", latency=1, comm=True, i=True),
        _mk("not", "logic", latency=1, i=True, arity=1),
        _mk("shl", "shift", latency=1, i=True),
        _mk("lshr", "shift", latency=1, i=True),
        _mk("ashr", "shift", latency=1, i=True),
        # comparison / selection
        _mk("icmp", "cmp", latency=1, i=True),
        _mk("fcmp", "cmp", latency=2, f=True),
        _mk("select", "select", latency=1, arity=3),
        _mk("min", "cmp", latency=1, comm=True),
        _mk("max", "cmp", latency=1, comm=True),
        _mk("abs", "cmp", latency=1, arity=1),
        # floating point
        _mk("fadd", "add", latency=7, f=True, comm=True),
        _mk("fsub", "add", latency=7, f=True),
        _mk("fmul", "mul", latency=5, dsp=True, f=True, comm=True),
        _mk("fdiv", "div", latency=28, f=True),
        _mk("fsqrt", "special", latency=28, f=True, arity=1),
        _mk("fexp", "special", latency=17, f=True, arity=1),
        _mk("flog", "special", latency=21, f=True, arity=1),
        # fused / misc
        _mk("mac", "mul", latency=4, dsp=True, arity=3),
        _mk("sqrt", "special", latency=16, i=True, arity=1),
        _mk("mov", "logic", latency=0, arity=1),
        _mk("trunc", "logic", latency=0, arity=1),
        _mk("zext", "logic", latency=0, arity=1),
        _mk("sext", "logic", latency=0, arity=1),
    ]
}


def opcode_info(name: str) -> OpcodeInfo:
    """Look up an opcode, raising :class:`IRTypeError` for unknown names."""
    try:
        return OPCODES[name]
    except KeyError as exc:
        raise IRTypeError(f"unknown opcode {name!r}") from exc


#: comparison predicates accepted by ``icmp``/``fcmp``.  The bare forms take
#: their signedness from the operand type; the ``u``/``s`` prefixed forms pin
#: it explicitly (LLVM style).  ``lt`` is the historical default: an ``icmp``
#: without a predicate compares with ``<``.
COMPARE_PREDICATES = frozenset(
    ["eq", "ne", "lt", "le", "gt", "ge",
     "ult", "ule", "ugt", "uge", "slt", "sle", "sgt", "sge"]
)

#: opcodes that may carry a comparison predicate
_PREDICATED_OPCODES = ("icmp", "fcmp")


def decode_predicate(predicate: str | None, signed_default: bool) -> tuple[bool, str]:
    """Resolve a comparison predicate to ``(signed, base relation)``.

    ``base`` is one of eq/ne/lt/le/gt/ge; bare predicates take their
    signedness from ``signed_default`` (the operand type), the ``u``/``s``
    prefixed forms pin it.  One decoder shared by the Verilog generator
    and the Python reference model — the two must agree bit for bit.
    """
    pred = predicate or "lt"
    if pred in ("eq", "ne", "lt", "le", "gt", "ge"):
        return signed_default, pred
    if pred[0] == "u":
        return False, pred[1:]
    return True, pred[1:]  # s-prefixed


@record
class Instruction:
    """A datapath SSA instruction (``%res = opcode type %a, %b``).

    Comparison instructions (``icmp``/``fcmp``) may carry a ``predicate``
    naming the comparison relation (``icmp.eq``, ``icmp.sge`` ... in the
    concrete syntax); without one they compare with the historical ``lt``.
    """

    result: str
    result_type: ScalarType
    opcode: str
    operands: list[Operand] = field(default_factory=list)
    #: True if the result is a module-level global (reduction accumulator)
    result_is_global: bool = False
    #: comparison predicate for icmp/fcmp (None = default ``lt``)
    predicate: str | None = None

    def __init__(self, result, result_type, opcode, operands=None,
                 result_is_global=False, predicate=None) -> None:
        self.result = result
        self.result_type = result_type
        self.opcode = opcode
        self.operands = [] if operands is None else operands
        self.result_is_global = result_is_global
        self.predicate = predicate
        self.__post_init__()

    def __post_init__(self) -> None:
        self.result = self.result.lstrip("%@")
        opcode_info(self.opcode)  # raises for unknown opcodes
        if self.predicate is not None:
            if self.opcode not in _PREDICATED_OPCODES:
                raise IRTypeError(
                    f"opcode {self.opcode!r} cannot carry a comparison predicate"
                )
            if self.predicate not in COMPARE_PREDICATES:
                raise IRTypeError(
                    f"unknown comparison predicate {self.predicate!r}; "
                    f"expected one of {sorted(COMPARE_PREDICATES)}"
                )

    @property
    def info(self) -> OpcodeInfo:
        return OPCODES[self.opcode]

    @property
    def is_reduction(self) -> bool:
        """A global accumulation, e.g. ``@acc = add %x, %acc``."""
        return self.result_is_global

    @property
    def input_names(self) -> list[str]:
        """Names of non-constant operands (SSA and global reads)."""
        return [op.name for op in self.operands if not op.is_const]

    @property
    def constant_operands(self) -> list[Operand]:
        return [op for op in self.operands if op.is_const]

    def uses(self, name: str) -> bool:
        return name in self.input_names

    @property
    def qualified_opcode(self) -> str:
        """The opcode with its predicate suffix (``icmp.eq``), if any."""
        return f"{self.opcode}.{self.predicate}" if self.predicate else self.opcode

    def __str__(self) -> str:
        sigil = "@" if self.result_is_global else "%"
        ops = ", ".join(str(o) for o in self.operands)
        return (
            f"{self.result_type} {sigil}{self.result} = "
            f"{self.qualified_opcode} {self.result_type} {ops}"
        )


@record
class OffsetInstruction:
    """A stream-offset declaration (``%pip1 = %p, !offset, !+1``).

    ``offset`` may be a resolved integer or a symbolic expression string
    such as ``"-ND1*ND2"`` referring to module constants; symbolic offsets
    are resolved by :meth:`repro.ir.functions.Module.resolve_offset`.
    """

    result: str
    result_type: ScalarType
    source: str
    offset: int | str

    def __post_init__(self) -> None:
        self.result = self.result.lstrip("%")
        self.source = self.source.lstrip("%")

    @property
    def is_symbolic(self) -> bool:
        return isinstance(self.offset, str)

    def resolved(self, constants: dict[str, int]) -> int:
        """Return the integer offset, resolving symbols against ``constants``."""
        if isinstance(self.offset, int):
            return self.offset
        return _eval_offset_expression(self.offset, constants)

    def __str__(self) -> str:
        off = self.offset if isinstance(self.offset, str) else f"{self.offset:+d}"
        return (
            f"{self.result_type} %{self.result} = "
            f"{self.result_type} %{self.source}, !offset, !{off}"
        )


@record
class CallInstruction:
    """A call to a child IR function with a parallelism keyword."""

    callee: str
    args: list[str] = field(default_factory=list)
    kind: str | None = None  # 'pipe' | 'par' | 'seq' | 'comb' | None

    def __post_init__(self) -> None:
        self.callee = self.callee.lstrip("@")
        self.args = [a.lstrip("%") for a in self.args]

    def __str__(self) -> str:
        args = ", ".join(f"%{a}" for a in self.args)
        suffix = f" {self.kind}" if self.kind else ""
        return f"call @{self.callee}({args}){suffix}"


Statement = Union[Instruction, OffsetInstruction, CallInstruction]


# ----------------------------------------------------------------------
# Symbolic offset expressions
# ----------------------------------------------------------------------

_ALLOWED_OFFSET_CHARS = set("+-*() _0123456789")


def _eval_offset_expression(expr: str, constants: dict[str, int]) -> int:
    """Safely evaluate a symbolic offset expression like ``-ND1*ND2``.

    Only identifiers found in ``constants``, integer literals and the
    operators ``+ - * ( )`` are permitted.
    """
    import re as _re

    names = set(_re.findall(r"[A-Za-z_][A-Za-z_0-9]*", expr))
    unknown = names - set(constants)
    if unknown:
        raise IRTypeError(
            f"offset expression {expr!r} references unknown constants {sorted(unknown)}"
        )
    stripped = _re.sub(r"[A-Za-z_][A-Za-z_0-9]*", "", expr)
    bad = set(stripped) - _ALLOWED_OFFSET_CHARS
    if bad:
        raise IRTypeError(f"offset expression {expr!r} contains invalid characters {bad}")
    value = eval(expr, {"__builtins__": {}}, dict(constants))  # noqa: S307 - sanitised above
    if not isinstance(value, int):
        raise IRTypeError(f"offset expression {expr!r} did not evaluate to an integer")
    return value


def iter_ssa_uses(statements: Iterable[Statement]):
    """Yield ``(statement, operand_name)`` pairs for every SSA use."""
    for stmt in statements:
        if isinstance(stmt, Instruction):
            for name in stmt.input_names:
                yield stmt, name
        elif isinstance(stmt, OffsetInstruction):
            yield stmt, stmt.source
        elif isinstance(stmt, CallInstruction):
            for name in stmt.args:
                yield stmt, name
