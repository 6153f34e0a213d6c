"""Execution model (paper §III-3).

The execution model is adopted from the OpenCL standard: *kernel*,
*work-item*, *work-group*, *NDRange*, *global size* and *kernel instance*.
The **kernel instance** is of special interest because the paper's
throughput measure — EKIT, Effective Kernel-Instance Throughput — is
defined against it: a kernel instance is the combination of a kernel (the
function executed on the device) and the entire index space (NDRange) over
which it executes.  Executing a kernel instance means executing the kernel
for *all* work-items of the NDRange.
"""

from __future__ import annotations

import math

from repro import field, record

__all__ = ["NDRange", "WorkGroup", "KernelInstance"]


@record(frozen=True)
class NDRange:
    """An index space of up to three dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (1 <= len(self.dims) <= 3):
            raise ValueError("NDRange must have 1 to 3 dimensions")
        if any(d <= 0 for d in self.dims):
            raise ValueError("NDRange dimensions must be positive")

    @property
    def global_size(self) -> int:
        """Total number of work-items (``NGS`` in the throughput model)."""
        return math.prod(self.dims)

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def reshape(self, new_dims: tuple[int, ...]) -> "NDRange":
        """Return an NDRange with the same global size and new shape."""
        new = NDRange(new_dims)
        if new.global_size != self.global_size:
            raise ValueError(
                f"cannot reshape NDRange of size {self.global_size} into {new_dims}"
            )
        return new

    @staticmethod
    def cube(side: int) -> "NDRange":
        """A convenience constructor for the im = jm = km grids of the paper."""
        return NDRange((side, side, side))

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


@record(frozen=True)
class WorkGroup:
    """A work-group: a tile of the NDRange executed together."""

    size: tuple[int, ...]

    @property
    def items(self) -> int:
        return math.prod(self.size)


@record
class KernelInstance:
    """A kernel plus the full NDRange over which it executes.

    Attributes
    ----------
    kernel:
        Kernel (IR function / program) name.
    ndrange:
        The index space executed per kernel-instance.
    repetitions:
        ``NKI`` — how many times the kernel instance is executed over the
        course of the application (e.g. the ``nmaxp`` iterations of the SOR
        solver).
    words_per_item:
        ``NWPT`` — words moved per tuple per work-item, i.e. the number of
        stream words entering/leaving the PE for each work-item.
    """

    kernel: str
    ndrange: NDRange
    repetitions: int = 1
    words_per_item: int = 1
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions (NKI) must be >= 1")
        if self.words_per_item < 1:
            raise ValueError("words_per_item (NWPT) must be >= 1")

    @property
    def global_size(self) -> int:
        return self.ndrange.global_size

    @property
    def total_work_items(self) -> int:
        """Work-items executed over the whole application run."""
        return self.global_size * self.repetitions

    def total_words(self) -> int:
        """Stream words moved per single kernel-instance execution."""
        return self.global_size * self.words_per_item

    def __str__(self) -> str:
        return (
            f"KernelInstance({self.kernel}, NDRange={self.ndrange}, "
            f"NKI={self.repetitions}, NWPT={self.words_per_item})"
        )
