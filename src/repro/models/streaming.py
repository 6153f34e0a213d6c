"""Streaming data-pattern model (paper §III-6).

TyTra compute units work with streams of data; streaming from global
memory is equivalent to looping over an array.  Because the pattern of
index access has an order-of-magnitude impact on sustained bandwidth
(paper §V-C, Figure 10), the pattern is modelled explicitly so it can be
expressed in the IR and costed.

The prototype model considers contiguous access and strided access with
constant stride; the paper notes that fixed-stride and true random access
sustain essentially the same (low) bandwidth, so ``RANDOM`` is costed like
a large stride.
"""

from __future__ import annotations

from enum import Enum

from repro import record

__all__ = ["PatternKind", "AccessPattern"]


class PatternKind(str, Enum):
    CONTIGUOUS = "contiguous"
    STRIDED = "strided"
    RANDOM = "random"


@record(frozen=True)
class AccessPattern:
    """A stream's index-access pattern.

    Attributes
    ----------
    kind:
        Contiguous, constant-stride or random.
    stride_elements:
        Stride between consecutive accesses, in elements (1 for contiguous).
    element_bytes:
        Size of one element in bytes.
    """

    kind: PatternKind = PatternKind.CONTIGUOUS
    stride_elements: int = 1
    element_bytes: int = 4

    def __post_init__(self) -> None:
        if self.stride_elements < 1:
            raise ValueError("stride must be >= 1")
        if self.element_bytes < 1:
            raise ValueError("element size must be >= 1 byte")
        if self.kind is PatternKind.CONTIGUOUS and self.stride_elements != 1:
            raise ValueError("contiguous access must have stride 1")

    @property
    def stride_bytes(self) -> int:
        return self.stride_elements * self.element_bytes

    @property
    def is_contiguous(self) -> bool:
        return self.kind is PatternKind.CONTIGUOUS

    @staticmethod
    def contiguous(element_bytes: int = 4) -> "AccessPattern":
        return AccessPattern(PatternKind.CONTIGUOUS, 1, element_bytes)

    @staticmethod
    def strided(stride_elements: int, element_bytes: int = 4) -> "AccessPattern":
        if stride_elements == 1:
            return AccessPattern.contiguous(element_bytes)
        return AccessPattern(PatternKind.STRIDED, stride_elements, element_bytes)

    @staticmethod
    def random(element_bytes: int = 4, typical_span_elements: int = 1 << 20) -> "AccessPattern":
        """Random access: costed as a large-stride pattern (paper §V-C)."""
        return AccessPattern(PatternKind.RANDOM, max(2, typical_span_elements), element_bytes)

    @staticmethod
    def from_ir(pattern_kind: str, stride: int, element_bytes: int) -> "AccessPattern":
        """Construct from the Manage-IR (``CONT`` / ``STRIDED`` / ``RANDOM``)."""
        kind = pattern_kind.upper()
        if kind == "CONT" or kind == "CONTIGUOUS":
            return AccessPattern.contiguous(element_bytes)
        if kind == "STRIDED":
            return AccessPattern.strided(max(stride, 2), element_bytes)
        if kind == "RANDOM":
            return AccessPattern.random(element_bytes)
        raise ValueError(f"unknown access pattern kind {pattern_kind!r}")
