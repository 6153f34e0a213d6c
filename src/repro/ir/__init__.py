"""TyTra Intermediate Representation (TyTra-IR).

The TyTra-IR is the language in which design variants are expressed and
costed (paper, Section IV).  It is strongly and statically typed, uses
Static Single Assignment (SSA) form for all computation, and is split into
two components:

* **Manage-IR** — declares *memory objects* (anything that can source or
  sink a stream: in software terms an array in main memory) and *stream
  objects* that connect a streaming port of a processing element to a
  memory object, together with the access pattern of the stream.

* **Compute-IR** — describes the processing element(s): a hierarchy of IR
  functions, each annotated with a parallelism keyword (``pipe``, ``par``,
  ``seq`` or ``comb``), whose bodies are SSA instructions, stream-offset
  declarations and calls to child functions.

The public surface of this package:

``ScalarType``, ``parse_type``
    The scalar type system (``ui18``, ``i32``, ``float32``, ...).

``Instruction``, ``OffsetInstruction``, ``CallInstruction``, ``Operand``
    SSA statements appearing inside Compute-IR functions.

``IRFunction``, ``MemoryObject``, ``StreamObject``, ``PortDeclaration``,
``Module``
    Structural containers.

``IRBuilder``
    A programmatic, type-checked way of constructing modules.

``parse_module`` / ``print_module``
    Text round-trip for ``.tirl`` files (the concrete syntax used in the
    paper's Figures 12 and 14).

``validate_module``
    Structural / SSA / type validation.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.ir.errors": (
        "IRError", "IRParseError", "IRTypeError", "IRValidationError",
    ),
    "repro.ir.types": ("ScalarType", "TypeKind", "parse_type"),
    "repro.ir.instructions": (
        "OPCODES", "CallInstruction", "Instruction", "OffsetInstruction",
        "OpcodeInfo", "Operand", "opcode_info",
    ),
    "repro.ir.functions": (
        "FunctionKind", "IRFunction", "MemoryObject", "Module",
        "PortDeclaration", "StreamDirection", "StreamObject",
    ),
    "repro.ir.builder": ("IRBuilder", "FunctionBuilder"),
    "repro.ir.parser": ("parse_module",),
    "repro.ir.printer": ("print_module",),
    "repro.ir.validator": ("validate_module",),
})
