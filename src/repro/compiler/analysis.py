"""Configuration analysis: from the IR's function hierarchy to the
configuration tree (paper Figure 8) and the design-space classification.

The TyTra compiler parses the parallelism constructs of the IR (``pipe``,
``par``, ``seq``, ``comb``) and extracts the architecture they imply.  The
result is a *configuration tree* whose root is the entry function and
whose children are the instantiated kernels; replication under a ``par``
node corresponds to thread-parallel lanes, nesting of ``pipe`` nodes to
coarse-grained pipelines and ``comb`` leaves to single-cycle custom
combinatorial blocks.
"""

from __future__ import annotations

from repro import field, record
from repro.cost.resource_model import ModuleStructure
from repro.ir.functions import FunctionKind, Module
from repro.models.design_space import ConfigurationClass, DesignPoint, classify_design_point

__all__ = [
    "ConfigurationNode",
    "ConfigurationTree",
    "build_configuration_tree",
    "classify_from_parts",
    "classify_module",
    "ModuleClassification",
]


@record
class ConfigurationNode:
    """One instantiated function in the configuration hierarchy."""

    function: str
    kind: FunctionKind
    instance: int = 0
    children: list["ConfigurationNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def count(self, kind: FunctionKind) -> int:
        total = 1 if self.kind is kind else 0
        return total + sum(child.count(kind) for child in self.children)

    def leaves(self) -> list["ConfigurationNode"]:
        if self.is_leaf:
            return [self]
        out: list[ConfigurationNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self.children)


@record
class ConfigurationTree:
    """The whole configuration extracted from a module."""

    module_name: str
    root: ConfigurationNode

    def leaves(self) -> list[ConfigurationNode]:
        return self.root.leaves()

    def count(self, kind: FunctionKind | str) -> int:
        return self.root.count(FunctionKind(kind))

    def depth(self) -> int:
        return self.root.depth()

    def lanes(self) -> int:
        """Parallel lanes: the widest ``par`` fan-out in the tree (1 if none)."""
        widest = 1

        def visit(node: ConfigurationNode) -> None:
            nonlocal widest
            if node.kind is FunctionKind.PAR:
                widest = max(widest, len(node.children))
            for child in node.children:
                visit(child)

        visit(self.root)
        return widest

    # -- rendering ---------------------------------------------------------
    def to_text(self) -> str:
        """ASCII rendering of the tree (the reproduction of Figure 8)."""
        lines: list[str] = [f"configuration of {self.module_name!r}"]

        def visit(node: ConfigurationNode, prefix: str, is_last: bool) -> None:
            connector = "`-- " if is_last else "|-- "
            label = f"@{node.function} [{node.kind}]"
            if node.instance:
                label += f" #{node.instance}"
            lines.append(prefix + connector + label)
            child_prefix = prefix + ("    " if is_last else "|   ")
            for i, child in enumerate(node.children):
                visit(child, child_prefix, i == len(node.children) - 1)

        lines.append(f"@{self.root.function} [{self.root.kind}]")
        for i, child in enumerate(self.root.children):
            visit(child, "", i == len(self.root.children) - 1)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


def build_configuration_tree(module: Module) -> ConfigurationTree:
    """Extract the configuration tree implied by the IR's call hierarchy."""
    instance_counters: dict[str, int] = {}

    def visit(name: str) -> ConfigurationNode:
        func = module.get_function(name)
        index = instance_counters.get(name, 0)
        instance_counters[name] = index + 1
        node = ConfigurationNode(function=name, kind=func.kind, instance=index)
        for call in func.calls():
            node.children.append(visit(call.callee))
        return node

    return ConfigurationTree(module_name=module.name, root=visit(module.main))


@record(frozen=True)
class ModuleClassification:
    """The design-space coordinates and class of a module."""

    design_point: DesignPoint
    configuration_class: ConfigurationClass
    lanes: int
    pipelined: bool


def classify_from_parts(
    module: Module,
    tree: ConfigurationTree,
    structure: ModuleStructure,
    vectorization: int = 1,
) -> ModuleClassification:
    """Classify a variant from already-computed analysis products.

    A caller that already holds the configuration tree and the module
    structure passes them in, which keeps classification from re-deriving
    both (a pure function of their values, so the result is identical to
    :func:`classify_module`'s).  A ``seq`` function in the tree marks
    resource reuse.
    """
    pipelined = any(
        module.get_function(leaf.function).kind in (FunctionKind.PIPE, FunctionKind.COMB)
        for leaf in tree.leaves()
    )
    point = DesignPoint(
        pipelined=pipelined,
        lanes=structure.lanes,
        vectorization=vectorization,
        reuse_factor=2 if tree.count(FunctionKind.SEQ) > 0 else 1,
    )
    return ModuleClassification(
        design_point=point,
        configuration_class=classify_design_point(point),
        lanes=structure.lanes,
        pipelined=pipelined,
    )


def classify_module(module: Module, vectorization: int = 1) -> ModuleClassification:
    """Locate a design variant in the design-space model of Figure 5."""
    tree = build_configuration_tree(module)
    structure = ModuleStructure.from_module(module)
    return classify_from_parts(module, tree, structure, vectorization)
