"""The functional program DSL: inputs, maps and kernel specifications.

A TyTra design starts life as a functional program such as the paper's
baseline SOR::

    ps = map p_sor pps

where ``pps`` is a vector of tuples (each tuple carrying the pressure
point, its six neighbours, the coefficients and the right-hand side) and
``p_sor`` is the elemental function.  Type transformations then reshape
``pps`` and decorate the maps with parallelism keywords::

    ppst = reshapeTo km pps
    pst  = map^par (map^pipe p_sor) ppst

This module represents such programs as small expression trees over a
named *tuple vector* — a bundle of equally-sized component vectors — and
describes elemental functions with :class:`KernelSpec`, which carries both
their golden NumPy semantics (for correctness checks) and the recipe for
building their streaming datapath in the TyTra-IR (for lowering).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Callable

from repro import field, record
from repro.ir.types import ScalarType

if TYPE_CHECKING:
    import numpy as np

    from repro.functional.vector import Vect

__all__ = ["Parallelism", "KernelSpec", "Input", "Reshape", "Map", "Program", "TupleValue"]


class Parallelism(str, Enum):
    """The parallelism decoration of a ``map`` (paper §II)."""

    PIPE = "pipe"
    PAR = "par"
    SEQ = "seq"


@record
class KernelSpec:
    """Description of an elemental kernel function.

    Attributes
    ----------
    name:
        Kernel name; becomes the IR function name prefix.
    element_type:
        Stream element type of the generated IR.
    inputs:
        Names of the streamed inputs consumed per work item (one stream
        port each).
    outputs:
        Names of the streamed outputs produced per work item.
    offsets:
        Stream offsets to declare, as ``{input name: [offset, ...]}`` where
        an offset is an int or a symbolic expression over ``constants``.
    constants:
        Module constants referenced by symbolic offsets (e.g. grid sizes).
    golden:
        ``golden(components) -> dict`` — the reference semantics applied
        elementwise to the gathered tuple components (flat NumPy arrays of
        equal length), returning the output components.
    build_datapath:
        ``build_datapath(fb, streams)`` — emit the kernel's SSA body into a
        :class:`repro.ir.builder.FunctionBuilder`; ``streams`` maps logical
        stream names (inputs and declared offsets like ``"p@+1"``) to SSA
        names.
    ops_per_item / bytes_per_item:
        Work characterisation used by the CPU baseline and roofline views.
    """

    name: str
    element_type: ScalarType
    inputs: list[str]
    outputs: list[str]
    golden: Callable[[dict[str, np.ndarray]], dict[str, np.ndarray]]
    build_datapath: Callable[["object", dict[str, str]], None]
    offsets: dict[str, list] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)
    ops_per_item: int = 1
    bytes_per_item: int | None = None

    @property
    def words_per_item(self) -> int:
        return len(self.inputs) + len(self.outputs)

    def offset_stream_name(self, source: str, offset) -> str:
        """The logical name of an offset stream (used as a ``streams`` key).

        Integer offsets are rendered with an explicit sign so that
        ``p@+1`` / ``p@-1`` read like the IR's ``!offset`` annotations.
        """
        rendered = f"{offset:+d}" if isinstance(offset, int) else str(offset)
        return f"{source}@{rendered}"

    def apply_golden(self, components: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        import numpy as np

        missing = [name for name in self.inputs if name not in components]
        if missing:
            raise ValueError(f"kernel {self.name!r}: missing input components {missing}")
        sizes = {np.asarray(components[name]).size for name in self.inputs}
        if len(sizes) != 1:
            raise ValueError(f"kernel {self.name!r}: input components differ in size")
        out = self.golden({k: np.asarray(v).reshape(-1) for k, v in components.items()})
        if set(out) != set(self.outputs):
            raise ValueError(
                f"kernel {self.name!r}: golden returned {sorted(out)}, expected {self.outputs}"
            )
        return out


@record
class TupleValue:
    """A bundle of equally-shaped component vectors (the 'vector of tuples')."""

    components: dict[str, Vect]

    def __post_init__(self) -> None:
        shapes = {v.shape for v in self.components.values()}
        if len(shapes) > 1:
            raise ValueError(f"tuple components have mismatched shapes: {shapes}")
        if not self.components:
            raise ValueError("tuple value needs at least one component")

    @property
    def shape(self) -> tuple[int, ...]:
        return next(iter(self.components.values())).shape

    @property
    def size(self) -> int:
        return next(iter(self.components.values())).size

    def reshape_to(self, outer: int) -> "TupleValue":
        return TupleValue({k: v.reshape_to(outer) for k, v in self.components.items()})

    def rows(self) -> list["TupleValue"]:
        row_lists = {k: v.rows() for k, v in self.components.items()}
        n = len(next(iter(row_lists.values())))
        return [TupleValue({k: rows[i] for k, rows in row_lists.items()}) for i in range(n)]

    def flat(self) -> dict[str, np.ndarray]:
        return {k: v.data for k, v in self.components.items()}


# ----------------------------------------------------------------------
# Expression nodes
# ----------------------------------------------------------------------


@record
class Input:
    """The program's input tuple vector (the NDRange's gathered tuples)."""

    name: str
    size: int

    def evaluate(self, bindings: dict[str, np.ndarray]) -> TupleValue:
        import numpy as np

        from repro.functional.vector import Vect

        components = {
            key: Vect.of(np.asarray(value).reshape(-1))
            for key, value in bindings.items()
        }
        value = TupleValue(components)
        if value.size != self.size:
            raise ValueError(
                f"input {self.name!r} expects {self.size} elements, got {value.size}"
            )
        return value


@record
class Reshape:
    """``reshapeTo outer`` applied to the child expression."""

    child: "Expression"
    outer: int

    def evaluate(self, bindings: dict[str, np.ndarray]) -> TupleValue:
        return self.child.evaluate(bindings).reshape_to(self.outer)


@record
class Map:
    """``map`` of an elemental kernel (or of an inner map) over the child."""

    kernel: KernelSpec
    child: "Expression"
    parallelism: Parallelism = Parallelism.PIPE
    #: depth of map nesting this node represents (1 = elemental map)
    nesting: int = 1

    def evaluate(self, bindings: dict[str, np.ndarray]) -> TupleValue:
        import numpy as np

        from repro.functional.vector import Vect

        value = self.child.evaluate(bindings)
        if self.nesting == 1:
            # elemental map over a flat tuple vector
            flat = value.flat()
            out = self.kernel.apply_golden(flat)
            shape = value.shape
            return TupleValue({k: Vect.of(v, shape) for k, v in out.items()})
        # nested map: apply the elemental map to each row independently
        rows = value.rows()
        row_results = []
        for row in rows:
            out = self.kernel.apply_golden(row.flat())
            row_results.append(out)
        merged = {
            key: np.concatenate([np.asarray(r[key]).reshape(-1) for r in row_results])
            for key in self.kernel.outputs
        }
        return TupleValue({k: Vect.of(v, value.shape) for k, v in merged.items()})


Expression = Input | Reshape | Map


@record
class Program:
    """A complete functional program (one top-level expression)."""

    root: Expression
    name: str = "program"

    # -- semantics ---------------------------------------------------------
    def evaluate(self, bindings: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Run the golden semantics and return flat output arrays."""
        result = self.root.evaluate(bindings)
        return {k: v.data for k, v in result.components.items()}

    # -- structural queries ---------------------------------------------------
    def kernel(self) -> KernelSpec:
        node = self.root
        while isinstance(node, (Reshape, Map)):
            if isinstance(node, Map):
                return node.kernel
            node = node.child
        raise ValueError("program contains no map")

    def input(self) -> Input:
        node = self.root
        while not isinstance(node, Input):
            node = node.child
        return node

    def lanes(self) -> int:
        """Parallel lanes implied by the program's par maps and reshapes."""
        node = self.root
        lanes = 1
        while isinstance(node, (Map, Reshape)):
            if isinstance(node, Map) and node.parallelism is Parallelism.PAR:
                child = node.child
                if isinstance(child, Reshape):
                    lanes *= child.outer
            node = node.child
        return lanes

    def parallelism_chain(self) -> list[Parallelism]:
        chain = []
        node = self.root
        while isinstance(node, (Map, Reshape)):
            if isinstance(node, Map):
                chain.append(node.parallelism)
            node = node.child
        return chain

    # -- constructors ------------------------------------------------------
    @staticmethod
    def baseline(kernel: KernelSpec, size: int, name: str | None = None) -> "Program":
        """The baseline program: a single pipelined map over the flat vector."""
        return Program(
            root=Map(kernel, Input("pps", size), Parallelism.PIPE, nesting=1),
            name=name or f"{kernel.name}_baseline",
        )
