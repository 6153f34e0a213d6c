"""Scalar type system of the TyTra-IR.

The TyTra-IR is strongly and statically typed.  Every SSA value, stream
port and memory object has a scalar element type.  The concrete syntax
follows the paper's examples (``ui18`` in Figure 12) and the LLVM-IR
heritage of the language:

``ui<N>``
    Unsigned integer of ``N`` bits (``ui18``, ``ui32`` ...).

``i<N>``
    Signed (two's complement) integer of ``N`` bits.

``fix<I>.<F>``
    Signed fixed point with ``I`` integer bits and ``F`` fraction bits
    (total width ``I + F``).

``float16`` / ``float32`` / ``float64``
    IEEE-754 binary floating point.

``bool``
    Single-bit predicate (the result of ``icmp``); an alias for ``ui1``.

The type object is deliberately small and hashable so it can be used as a
dictionary key throughout the cost model (resource cost expressions are
keyed on ``(opcode, type kind, width)``).
"""

from __future__ import annotations

import re
from enum import Enum

from repro import record
from repro.ir.errors import IRTypeError

__all__ = ["TypeKind", "ScalarType", "parse_type"]


class TypeKind(str, Enum):
    """The families of scalar types supported by the IR."""

    UINT = "ui"
    INT = "i"
    FIXED = "fix"
    FLOAT = "float"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_FLOAT_WIDTHS = (16, 32, 64)

_TYPE_RE = re.compile(
    r"""^(?:
        (?P<uint>ui(?P<uwidth>\d+)) |
        (?P<fix>fix(?P<ibits>\d+)\.(?P<fbits>\d+)) |
        (?P<float>float(?P<fwidth>\d+)) |
        (?P<bool>bool) |
        (?P<int>i(?P<iwidth>\d+))
    )$""",
    re.VERBOSE,
)


@record(frozen=True, order=True)
class ScalarType:
    """A scalar TyTra-IR type.

    Parameters
    ----------
    kind:
        The type family (unsigned, signed, fixed point or float).
    width:
        Total width in bits.
    fraction_bits:
        Number of fraction bits; only meaningful for ``TypeKind.FIXED``.
    """

    kind: TypeKind
    width: int
    fraction_bits: int = 0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise IRTypeError(f"type width must be positive, got {self.width}")
        if self.kind is TypeKind.FLOAT and self.width not in _FLOAT_WIDTHS:
            raise IRTypeError(
                f"float width must be one of {_FLOAT_WIDTHS}, got {self.width}"
            )
        if self.kind is not TypeKind.FIXED and self.fraction_bits:
            raise IRTypeError("fraction_bits only valid for fixed-point types")
        if self.kind is TypeKind.FIXED and not (0 < self.fraction_bits < self.width):
            raise IRTypeError(
                "fixed-point fraction bits must be in (0, width) "
                f"got {self.fraction_bits} for width {self.width}"
            )

    # -- predicates ---------------------------------------------------
    @property
    def is_integer(self) -> bool:
        """True for (un)signed integer types."""
        return self.kind in (TypeKind.UINT, TypeKind.INT)

    @property
    def is_signed(self) -> bool:
        """True if the type can represent negative values."""
        return self.kind in (TypeKind.INT, TypeKind.FIXED, TypeKind.FLOAT)

    @property
    def is_float(self) -> bool:
        return self.kind is TypeKind.FLOAT

    @property
    def is_fixed(self) -> bool:
        return self.kind is TypeKind.FIXED

    @property
    def is_bool(self) -> bool:
        return self.kind is TypeKind.UINT and self.width == 1

    # -- numeric helpers ----------------------------------------------
    @property
    def integer_bits(self) -> int:
        """Integer (non-fraction) bits of the representation."""
        return self.width - self.fraction_bits

    @property
    def bytes(self) -> int:
        """Width rounded up to whole bytes (used for stream word sizing)."""
        return (self.width + 7) // 8

    def min_value(self) -> float:
        if self.kind is TypeKind.UINT:
            return 0
        if self.kind is TypeKind.INT:
            return -(1 << (self.width - 1))
        if self.kind is TypeKind.FIXED:
            return -(1 << (self.integer_bits - 1))
        return float("-inf")

    def max_value(self) -> float:
        if self.kind is TypeKind.UINT:
            return (1 << self.width) - 1
        if self.kind is TypeKind.INT:
            return (1 << (self.width - 1)) - 1
        if self.kind is TypeKind.FIXED:
            return (1 << (self.integer_bits - 1)) - 2.0 ** (-self.fraction_bits)
        return float("inf")

    # -- presentation ---------------------------------------------------
    def __str__(self) -> str:
        if self.kind is TypeKind.FIXED:
            return f"fix{self.integer_bits}.{self.fraction_bits}"
        if self.kind is TypeKind.FLOAT:
            return f"float{self.width}"
        return f"{self.kind.value}{self.width}"

    # -- constructors ---------------------------------------------------
    @staticmethod
    def uint(width: int) -> "ScalarType":
        return ScalarType(TypeKind.UINT, width)

    @staticmethod
    def int_(width: int) -> "ScalarType":
        return ScalarType(TypeKind.INT, width)

    @staticmethod
    def fixed(integer_bits: int, fraction_bits: int) -> "ScalarType":
        return ScalarType(TypeKind.FIXED, integer_bits + fraction_bits, fraction_bits)

    @staticmethod
    def float_(width: int = 32) -> "ScalarType":
        return ScalarType(TypeKind.FLOAT, width)

    @staticmethod
    def bool_() -> "ScalarType":
        return ScalarType(TypeKind.UINT, 1)


def parse_type(text: str) -> ScalarType:
    """Parse the concrete syntax of a scalar type.

    >>> parse_type("ui18")
    ScalarType(kind=<TypeKind.UINT: 'ui'>, width=18, fraction_bits=0)
    >>> str(parse_type("fix8.10"))
    'fix8.10'
    """
    text = text.strip()
    m = _TYPE_RE.match(text)
    if m is None:
        raise IRTypeError(f"cannot parse type {text!r}")
    if m.group("uint"):
        return ScalarType.uint(int(m.group("uwidth")))
    if m.group("int"):
        return ScalarType.int_(int(m.group("iwidth")))
    if m.group("fix"):
        return ScalarType.fixed(int(m.group("ibits")), int(m.group("fbits")))
    if m.group("float"):
        return ScalarType.float_(int(m.group("fwidth")))
    if m.group("bool"):
        return ScalarType.bool_()
    raise IRTypeError(f"cannot parse type {text!r}")  # pragma: no cover
