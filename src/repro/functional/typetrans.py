"""Type transformations: generating correct-by-construction variants.

The paper's central front-end idea is that reshaping a vector in an order-
and size-preserving way, and inferring the corresponding program, yields a
family of program variants that all compute the same result but imply
different stream arrangements — and therefore different FPGA
configurations.  The baseline::

    ps = map^pipe p_sor pps

becomes, after ``reshapeTo L``::

    ps = map^par (map^pipe p_sor) (reshapeTo L pps)

i.e. ``L`` concurrent pipeline lanes each processing ``N/L`` elements.

This module implements that transformation on :class:`Program` trees,
lists the lane counts for which it is valid (divisors of the vector
size), and provides the equivalence check that stands in for the paper's
dependent-type guarantee (and is exercised by property-based tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.functional.program import Input, Map, Parallelism, Program, Reshape

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TransformationError",
    "reshape_transform",
    "valid_lane_counts",
    "verify_variant_equivalence",
]


class TransformationError(Exception):
    """Raised when a type transformation cannot be applied."""


def _baseline_parts(program: Program) -> tuple[Map, Input]:
    """Decompose a baseline program into its map and input nodes."""
    root = program.root
    if not isinstance(root, Map) or root.nesting != 1:
        raise TransformationError(
            "reshape_transform expects a baseline program (a single elemental map)"
        )
    child = root.child
    if not isinstance(child, Input):
        raise TransformationError("baseline program must map directly over the input vector")
    return root, child


def reshape_transform(program: Program, lanes: int) -> Program:
    """Apply ``reshapeTo lanes`` and re-decorate the maps (par over pipe)."""
    root, input_node = _baseline_parts(program)
    if lanes <= 0:
        raise TransformationError("lane count must be positive")
    if input_node.size % lanes != 0:
        raise TransformationError(
            f"{lanes} lanes do not evenly divide the vector size {input_node.size}; "
            "the order/size-preserving reshape is not defined"
        )
    if lanes == 1:
        return Program(root=Map(root.kernel, input_node, Parallelism.PIPE, nesting=1),
                       name=f"{root.kernel.name}_l1")
    # one nested-map node decorated PAR stands for map^par (map^pipe k): each
    # of its rows is processed by the pipelined elemental map
    outer = Map(root.kernel, Reshape(input_node, lanes), Parallelism.PAR, nesting=2)
    return Program(root=outer, name=f"{root.kernel.name}_l{lanes}")


def valid_lane_counts(size: int, max_lanes: int | None = None) -> list[int]:
    """Lane counts for which the reshape transformation is defined."""
    if size <= 0:
        raise TransformationError("vector size must be positive")
    limit = max_lanes or size
    return [lanes for lanes in range(1, min(limit, size) + 1) if size % lanes == 0]


def verify_variant_equivalence(
    baseline: Program,
    variant: Program,
    bindings: dict[str, np.ndarray],
    *,
    rtol: float = 1e-9,
    atol: float = 0.0,
) -> bool:
    """Check that a transformed variant computes the same result.

    This is the dynamic counterpart of the paper's correct-by-construction
    guarantee: both programs are evaluated on the same inputs and every
    output component must match.
    """
    import numpy as np

    a = baseline.evaluate(bindings)
    b = variant.evaluate(bindings)
    if set(a) != set(b):
        return False
    for key in a:
        lhs, rhs = np.asarray(a[key]), np.asarray(b[key])
        if lhs.shape != rhs.shape:
            return False
        if np.issubdtype(lhs.dtype, np.integer) and np.issubdtype(rhs.dtype, np.integer):
            if not np.array_equal(lhs, rhs):
                return False
        elif not np.allclose(lhs, rhs, rtol=rtol, atol=atol):
            return False
    return True
