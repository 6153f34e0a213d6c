"""Sized vectors with order-preserving reshaping.

``Vect`` mirrors the dependently-typed vectors of the paper's Idris
front end: the (nested) size is part of the value's type, and the
``reshape_to`` operation used by the type transformations is explicitly
order- and size-preserving — reshaping a vector of ``im*jm*km`` elements
into ``km`` rows of ``im*jm`` elements keeps every element at the same
linear position.
"""

from __future__ import annotations

import numpy as np

from repro import record

__all__ = ["Vect"]


@record(frozen=True)
class Vect:
    """A vector whose (possibly nested) shape is part of its identity.

    ``shape`` is the logical nesting: ``(n,)`` is a flat vector of ``n``
    elements, ``(rows, cols)`` a vector of ``rows`` vectors of ``cols``
    elements, and so on.  The backing data is always stored flat in row
    major (C) order so that reshaping never reorders elements.
    """

    data: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self) -> None:
        flat = np.asarray(self.data).reshape(-1)
        object.__setattr__(self, "data", flat)
        if not self.shape:
            raise ValueError("Vect shape cannot be empty")
        if any(dim <= 0 for dim in self.shape):
            raise ValueError(f"Vect dimensions must be positive, got {self.shape}")
        if int(np.prod(self.shape)) != flat.size:
            raise ValueError(
                f"shape {self.shape} does not match {flat.size} elements"
            )

    # -- constructors ------------------------------------------------------
    @staticmethod
    def of(values, shape: tuple[int, ...] | None = None) -> "Vect":
        arr = np.asarray(values)
        return Vect(arr, shape or (arr.size,))

    # -- basic queries -------------------------------------------------------
    @property
    def size(self) -> int:
        """Total number of scalar elements."""
        return int(self.data.size)

    @property
    def outer(self) -> int:
        """Size of the outermost dimension."""
        return self.shape[0]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def dtype(self):
        return self.data.dtype

    def nested(self) -> np.ndarray:
        """View the data with its logical nesting applied."""
        return self.data.reshape(self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vect):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.data, other.data))

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self.shape, self.data.tobytes()))

    # -- the type transformations --------------------------------------------
    def reshape_to(self, outer: int) -> "Vect":
        """``reshapeTo outer`` — split the outermost dimension.

        A flat vector of ``n`` elements becomes ``outer`` rows of
        ``n // outer`` elements; element order is preserved.  Raises when
        ``outer`` does not divide the (outermost) size — the same condition
        the dependent types enforce statically in Idris.
        """
        if outer <= 0:
            raise ValueError("outer size must be positive")
        total = self.size
        if total % outer != 0:
            raise ValueError(
                f"cannot reshape a vector of {total} elements into {outer} equal parts"
            )
        inner = total // outer
        return Vect(self.data, (outer, inner))

    def flatten(self) -> "Vect":
        """Collapse all nesting back into a flat vector (order preserving)."""
        return Vect(self.data, (self.size,))

    def rows(self) -> list["Vect"]:
        """The outermost-dimension slices as flat vectors (the lanes)."""
        if self.ndim == 1:
            return [self]
        inner = self.size // self.outer
        return [
            Vect(self.data[i * inner: (i + 1) * inner], (inner,))
            for i in range(self.outer)
        ]

    def map(self, fn) -> "Vect":
        """Apply an elementwise function (vectorised when possible)."""
        try:
            result = fn(self.data)
            result = np.asarray(result)
            if result.shape != self.data.shape:
                raise ValueError
        except Exception:
            result = np.asarray([fn(x) for x in self.data])
        return Vect(result, self.shape)

    def __len__(self) -> int:
        return self.outer

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Vect(shape={self.shape}, dtype={self.dtype})"
