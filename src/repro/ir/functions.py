"""Structural containers of the TyTra-IR: functions, objects and modules.

A *design variant* is captured by a :class:`Module`:

* Manage-IR: :class:`MemoryObject` and :class:`StreamObject` declarations,
  plus :class:`PortDeclaration` entries binding the streaming ports of the
  top-level function to stream objects (Figure 12, lines 2-4).

* Compute-IR: a set of :class:`IRFunction` definitions, each with a
  :class:`FunctionKind` parallelism keyword, and a distinguished ``main``
  that instantiates the top of the configuration hierarchy.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

from repro import field, record
from repro.ir.errors import IRValidationError
from repro.ir.instructions import (
    CallInstruction,
    Instruction,
    OffsetInstruction,
    Statement,
)
from repro.ir.types import ScalarType

__all__ = [
    "FunctionKind",
    "StreamDirection",
    "AccessPatternKind",
    "MemoryObject",
    "StreamObject",
    "PortDeclaration",
    "IRFunction",
    "Module",
]


class FunctionKind(str, Enum):
    """Parallelism keyword attached to an IR function (paper §IV).

    * ``pipe`` — pipeline parallelism: the function body is a streaming
      datapath; one work-item enters per cycle in steady state.
    * ``par``  — thread parallelism: the children of the function execute
      concurrently as replicated lanes.
    * ``seq``  — sequential execution of the children (degree of re-use
      axis of the design space).
    * ``comb`` — a custom single-cycle combinatorial block.
    * ``none`` — the ``main`` entry, which merely instantiates the top of
      the hierarchy.
    """

    PIPE = "pipe"
    PAR = "par"
    SEQ = "seq"
    COMB = "comb"
    NONE = "none"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class StreamDirection(str, Enum):
    """Direction of a stream object with respect to the processing element."""

    INPUT = "istream"
    OUTPUT = "ostream"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class AccessPatternKind(str, Enum):
    """Streaming data-pattern model (paper §III-6)."""

    CONTIGUOUS = "CONT"
    STRIDED = "STRIDED"
    RANDOM = "RANDOM"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@record
class MemoryObject:
    """Manage-IR memory object: a source or sink for streams.

    In a software description this corresponds to an array in (host or
    device) memory.  ``addr_space`` follows the memory-hierarchy model:
    0 = private (registers), 1 = global (device DRAM), 2 = local
    (on-chip block RAM), 3 = constant.
    """

    name: str
    element_type: ScalarType
    size: int
    addr_space: int = 1
    label: str | None = None

    def __post_init__(self) -> None:
        self.name = self.name.lstrip("%@")
        if self.size <= 0:
            raise IRValidationError(f"memory object {self.name!r} must have positive size")
        if self.addr_space not in (0, 1, 2, 3):
            raise IRValidationError(
                f"memory object {self.name!r}: address space must be 0..3, got {self.addr_space}"
            )

    @property
    def size_bits(self) -> int:
        return self.size * self.element_type.width

    @property
    def size_bytes(self) -> int:
        return self.size * self.element_type.bytes


@record
class StreamObject:
    """Manage-IR stream object connecting a PE port to a memory object."""

    name: str
    memory: str
    direction: StreamDirection = StreamDirection.INPUT
    pattern: AccessPatternKind = AccessPatternKind.CONTIGUOUS
    stride: int = 1

    def __init__(self, name, memory, direction=StreamDirection.INPUT,
                 pattern=AccessPatternKind.CONTIGUOUS, stride=1) -> None:
        self.name = name
        self.memory = memory
        self.direction = direction
        self.pattern = pattern
        self.stride = stride
        self.__post_init__()

    def __post_init__(self) -> None:
        self.name = self.name.lstrip("%@")
        self.memory = self.memory.lstrip("%@")
        if isinstance(self.direction, str):
            self.direction = StreamDirection(self.direction)
        if isinstance(self.pattern, str):
            self.pattern = AccessPatternKind(self.pattern)
        if self.stride < 1:
            raise IRValidationError(f"stream {self.name!r}: stride must be >= 1")

    @property
    def is_contiguous(self) -> bool:
        return self.pattern is AccessPatternKind.CONTIGUOUS and self.stride == 1


@record
class PortDeclaration:
    """Binding of a top-level function port to a stream object.

    Mirrors lines such as::

        @main.p = addrSpace(1) ui18, !"istream", !"CONT", !0, !"strobj_p"
    """

    function: str
    port: str
    element_type: ScalarType
    direction: StreamDirection = StreamDirection.INPUT
    pattern: AccessPatternKind = AccessPatternKind.CONTIGUOUS
    base_offset: int = 0
    stream_object: str | None = None
    addr_space: int = 1

    def __post_init__(self) -> None:
        self.function = self.function.lstrip("@")
        if isinstance(self.direction, str):
            self.direction = StreamDirection(self.direction)
        if isinstance(self.pattern, str):
            self.pattern = AccessPatternKind(self.pattern)

    @property
    def qualified_name(self) -> str:
        return f"{self.function}.{self.port}"


@record
class IRFunction:
    """A Compute-IR function: a node of the configuration hierarchy."""

    name: str
    kind: FunctionKind = FunctionKind.PIPE
    args: list[tuple[ScalarType, str]] = field(default_factory=list)
    body: list[Statement] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.name = self.name.lstrip("@")
        if isinstance(self.kind, str):
            self.kind = FunctionKind(self.kind)
        self.args = [(t, n.lstrip("%")) for (t, n) in self.args]

    # -- queries --------------------------------------------------------
    @property
    def arg_names(self) -> list[str]:
        return [n for _, n in self.args]

    @property
    def arg_types(self) -> dict[str, ScalarType]:
        return {n: t for t, n in self.args}

    def instructions(self) -> list[Instruction]:
        """Datapath SSA instructions (excluding offsets and calls)."""
        return [s for s in self.body if isinstance(s, Instruction)]

    def offsets(self) -> list[OffsetInstruction]:
        return [s for s in self.body if isinstance(s, OffsetInstruction)]

    def calls(self) -> list[CallInstruction]:
        return [s for s in self.body if isinstance(s, CallInstruction)]

    def reductions(self) -> list[Instruction]:
        return [s for s in self.instructions() if s.is_reduction]

    @property
    def is_leaf(self) -> bool:
        """True if the function contains no calls (a pure datapath)."""
        return not self.calls()

    def defined_names(self) -> set[str]:
        names = set(self.arg_names)
        for stmt in self.body:
            if isinstance(stmt, (Instruction, OffsetInstruction)):
                names.add(stmt.result)
        return names

    def instruction_count(self) -> int:
        """Number of datapath instructions — the ``NI`` of the cost model."""
        return len(self.instructions())

    def __str__(self) -> str:
        return f"@{self.name} [{self.kind}] ({len(self.body)} statements)"


@record
class Module:
    """A complete TyTra-IR design variant (Manage-IR + Compute-IR)."""

    name: str = "design"
    constants: dict[str, int] = field(default_factory=dict)
    memory_objects: dict[str, MemoryObject] = field(default_factory=dict)
    stream_objects: dict[str, StreamObject] = field(default_factory=dict)
    port_declarations: list[PortDeclaration] = field(default_factory=list)
    functions: dict[str, IRFunction] = field(default_factory=dict)
    main: str = "main"

    # -- construction ---------------------------------------------------
    def set_constant(self, name: str, value: int) -> None:
        """Define (or redefine) a named module constant."""
        self.constants[name] = int(value)
        self.invalidate_fingerprint()

    def add_memory_object(self, obj: MemoryObject) -> MemoryObject:
        if obj.name in self.memory_objects:
            raise IRValidationError(f"duplicate memory object {obj.name!r}")
        self.memory_objects[obj.name] = obj
        self.invalidate_fingerprint()
        return obj

    def add_stream_object(self, obj: StreamObject) -> StreamObject:
        if obj.name in self.stream_objects:
            raise IRValidationError(f"duplicate stream object {obj.name!r}")
        self.stream_objects[obj.name] = obj
        self.invalidate_fingerprint()
        return obj

    def add_port_declaration(self, decl: PortDeclaration) -> PortDeclaration:
        self.port_declarations.append(decl)
        self.invalidate_fingerprint()
        return decl

    def add_function(self, func: IRFunction) -> IRFunction:
        if func.name in self.functions:
            raise IRValidationError(f"duplicate function @{func.name}")
        self.functions[func.name] = func
        self.invalidate_fingerprint()
        return func

    # -- content identity ------------------------------------------------
    def content_fingerprint(self) -> str:
        """The structural content hash of this module, computed lazily.

        The hash is cached on the instance so repeated memoization lookups
        cost one attribute read instead of a pretty-print.  The module's
        own mutation methods invalidate the cache; code that mutates the
        module *directly* (e.g. replacing a function's body in place) must
        call :meth:`invalidate_fingerprint` afterwards.
        """
        cached = self.__dict__.get("_content_fingerprint")
        if cached is None:
            from repro.ir.fingerprint import structural_fingerprint

            cached = structural_fingerprint(self)
            self.__dict__["_content_fingerprint"] = cached
        return cached

    def invalidate_fingerprint(self) -> None:
        """Drop the cached content fingerprint after a mutation."""
        self.__dict__.pop("_content_fingerprint", None)

    # -- queries --------------------------------------------------------
    def get_function(self, name: str) -> IRFunction:
        name = name.lstrip("@")
        try:
            return self.functions[name]
        except KeyError as exc:
            raise IRValidationError(f"no function named @{name}") from exc

    @property
    def entry(self) -> IRFunction:
        """The ``main`` function."""
        return self.get_function(self.main)

    def has_function(self, name: str) -> bool:
        return name.lstrip("@") in self.functions

    def leaf_functions(self) -> list[IRFunction]:
        return [f for f in self.functions.values() if f.is_leaf and f.name != self.main]

    def iter_functions(self) -> Iterator[IRFunction]:
        return iter(self.functions.values())

    def resolve_offset(self, offset: int | str) -> int:
        """Resolve a (possibly symbolic) stream offset to an integer."""
        if isinstance(offset, int):
            return offset
        from repro.ir.instructions import _eval_offset_expression

        return _eval_offset_expression(offset, self.constants)

    def input_streams(self) -> list[StreamObject]:
        return [s for s in self.stream_objects.values() if s.direction is StreamDirection.INPUT]

    def output_streams(self) -> list[StreamObject]:
        return [s for s in self.stream_objects.values() if s.direction is StreamDirection.OUTPUT]

    def input_ports(self) -> list[PortDeclaration]:
        return [p for p in self.port_declarations if p.direction is StreamDirection.INPUT]

    def output_ports(self) -> list[PortDeclaration]:
        return [p for p in self.port_declarations if p.direction is StreamDirection.OUTPUT]

    def total_stream_words_per_item(self) -> int:
        """Words moved per work item over all declared ports (``NWPT``)."""
        return len(self.port_declarations)

    def callees_of(self, func_name: str) -> list[tuple[str, FunctionKind | None]]:
        """Return ``(callee, call kind)`` pairs for a function's calls."""
        func = self.get_function(func_name)
        out = []
        for call in func.calls():
            kind = FunctionKind(call.kind) if call.kind else None
            out.append((call.callee, kind))
        return out

    def call_graph(self) -> dict[str, list[str]]:
        """Adjacency list of the static call graph."""
        return {
            name: [c.callee for c in func.calls()]
            for name, func in self.functions.items()
        }

    def __str__(self) -> str:
        return (
            f"Module {self.name!r}: {len(self.functions)} functions, "
            f"{len(self.memory_objects)} memory objects, "
            f"{len(self.stream_objects)} stream objects"
        )
