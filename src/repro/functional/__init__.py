"""The functional front end of the TyTra flow (paper §II).

The design entry of the TyTra flow is a pure-software functional program:
vectors with sizes carried in their types, ``map`` applied to an elemental
kernel function, and *type transformations* such as ``reshapeTo`` that
reshape the data in an order- and size-preserving way.  Each reshaped
program corresponds to a different arrangement of streams — and therefore
to a different parallel configuration on the FPGA — while the type system
guarantees the variants are correct by construction.

The paper uses Idris for this layer because the transformations need
dependent types; here the same invariants are enforced dynamically (shape
and order preservation are checked, and the property-based tests verify
that every generated variant evaluates to the same result as the baseline
program).

Modules
-------
``vector``
    Sized vectors (``Vect``) backed by NumPy arrays with order-preserving
    ``reshape_to`` / ``flatten``.
``program``
    The expression DSL: ``Input``, ``Map``, ``Reshape``, ``Program`` and the
    :class:`KernelSpec` describing an elemental function (its golden NumPy
    semantics and how to build its datapath in the IR).
``typetrans``
    The ``reshapeTo`` type transformation, the lane counts it is defined
    for, and the variant equivalence check.
``lower``
    Lowering a (possibly transformed) program to a TyTra-IR module.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.functional.vector": ("Vect",),
    "repro.functional.program": (
        "Input", "KernelSpec", "Map", "Parallelism", "Program", "Reshape",
    ),
    "repro.functional.typetrans": (
        "TransformationError", "reshape_transform", "verify_variant_equivalence",
    ),
    "repro.functional.lower": ("lower_program",),
})
