"""IR-level optimisation passes.

The TyTra-IR is deliberately LLVM-like so that standard scalar
optimisations can be applied before costing and code generation (the paper
notes this as a motivation for basing the IR on LLVM, as e.g. LegUp does).
Three simple, cost-relevant passes are provided; all operate on leaf
datapath functions only and preserve the streaming semantics:

* **constant folding** — instructions whose operands are all literals are
  evaluated at compile time and propagated, removing functional units from
  the datapath (and therefore from the resource estimate);
* **common sub-expression elimination (CSE)** — syntactically identical
  pure instructions are computed once (commutative opcodes are matched up
  to operand order);
* **dead-code elimination (DCE)** — instructions whose results are never
  used by another instruction, an output port, a call argument or a global
  reduction are removed.

``optimize_module`` runs the pipeline to a fixed point and returns a
report of what was removed, so the effect on the cost estimates can be
inspected (and is exercised in the test-suite).
"""

from __future__ import annotations

from repro import field, record
from repro.ir.errors import IRValidationError
from repro.ir.functions import FunctionKind, IRFunction, Module
from repro.ir.instructions import Instruction, OffsetInstruction, Operand
from repro.ir.types import TypeKind

__all__ = ["OptimizationReport", "constant_fold", "eliminate_common_subexpressions",
           "eliminate_dead_code", "optimize_function", "optimize_module"]


@record
class OptimizationReport:
    """What the optimisation pipeline changed."""

    folded: int = 0
    cse_removed: int = 0
    dead_removed: int = 0
    iterations: int = 0
    per_function: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def total_removed(self) -> int:
        return self.folded + self.cse_removed + self.dead_removed

    def merge(self, function: str, folded: int, cse: int, dead: int) -> None:
        self.folded += folded
        self.cse_removed += cse
        self.dead_removed += dead
        entry = self.per_function.setdefault(
            function, {"folded": 0, "cse_removed": 0, "dead_removed": 0}
        )
        entry["folded"] += folded
        entry["cse_removed"] += cse
        entry["dead_removed"] += dead


# ----------------------------------------------------------------------
# Constant folding
# ----------------------------------------------------------------------

_FOLDABLE = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a // b if b else 0,
    "udiv": lambda a, b: a // b if b else 0,
    "and": lambda a, b: int(a) & int(b),
    "or": lambda a, b: int(a) | int(b),
    "xor": lambda a, b: int(a) ^ int(b),
    "shl": lambda a, b: int(a) << int(b),
    "lshr": lambda a, b: int(a) >> int(b),
    "min": min,
    "max": max,
}


def _mask_to_type(value, ty):
    if ty.kind is TypeKind.UINT:
        return int(value) & ((1 << ty.width) - 1)
    return value


def constant_fold(func: IRFunction) -> int:
    """Fold instructions with all-constant operands; returns the fold count."""
    constants: dict[str, float | int] = {}
    new_body = []
    folded = 0
    for stmt in func.body:
        if isinstance(stmt, Instruction) and not stmt.is_reduction:
            operands = []
            for op in stmt.operands:
                if op.is_const:
                    operands.append(op.value)
                elif op.is_ssa and op.name in constants:
                    operands.append(constants[op.name])
                else:
                    operands.append(None)
            fn = _FOLDABLE.get(stmt.opcode)
            if fn is not None and all(v is not None for v in operands) and len(operands) == 2:
                constants[stmt.result] = _mask_to_type(fn(*operands), stmt.result_type)
                folded += 1
                continue
            # propagate known constants into remaining instructions
            if any(op.is_ssa and op.name in constants for op in stmt.operands):
                stmt.operands = [
                    Operand.const(constants[op.name])
                    if (op.is_ssa and op.name in constants) else op
                    for op in stmt.operands
                ]
        new_body.append(stmt)
    func.body = new_body
    return folded


# ----------------------------------------------------------------------
# Common sub-expression elimination
# ----------------------------------------------------------------------


def _expression_key(instr: Instruction):
    ops = [str(o) for o in instr.operands]
    if instr.info.commutative:
        ops = sorted(ops)
    return (instr.opcode, str(instr.result_type), tuple(ops))


def eliminate_common_subexpressions(func: IRFunction) -> int:
    """Replace repeated pure expressions with the first occurrence's result."""
    seen: dict[tuple, str] = {}
    replacements: dict[str, str] = {}
    new_body = []
    removed = 0
    for stmt in func.body:
        if isinstance(stmt, Instruction) and not stmt.is_reduction:
            # apply earlier replacements to the operand list first
            stmt.operands = [
                Operand.ssa(replacements[op.name])
                if (op.is_ssa and op.name in replacements) else op
                for op in stmt.operands
            ]
            key = _expression_key(stmt)
            if key in seen:
                replacements[stmt.result] = seen[key]
                removed += 1
                continue
            seen[key] = stmt.result
        elif isinstance(stmt, Instruction) and stmt.is_reduction:
            stmt.operands = [
                Operand.ssa(replacements[op.name])
                if (op.is_ssa and op.name in replacements) else op
                for op in stmt.operands
            ]
        new_body.append(stmt)
    func.body = new_body
    return removed


# ----------------------------------------------------------------------
# Dead code elimination
# ----------------------------------------------------------------------


def _live_roots(func: IRFunction, module: Module | None) -> set[str]:
    roots: set[str] = set()
    for stmt in func.body:
        if isinstance(stmt, Instruction) and stmt.is_reduction:
            roots.update(name for name in stmt.input_names)
        if hasattr(stmt, "args"):
            roots.update(stmt.args)
    if module is not None:
        for port in module.port_declarations:
            if port.function == func.name:
                roots.add(port.port)
    return roots


def eliminate_dead_code(func: IRFunction, module: Module | None = None) -> int:
    """Remove instructions whose results are never observed."""
    live = _live_roots(func, module)
    # iterate to a fixed point: anything used by a live instruction is live
    changed = True
    instructions = {s.result: s for s in func.instructions() if not s.is_reduction}
    while changed:
        changed = False
        for name, instr in instructions.items():
            if name in live:
                for used in instr.input_names:
                    if used not in live:
                        live.add(used)
                        changed = True

    removed = 0
    new_body = []
    for stmt in func.body:
        if (
            isinstance(stmt, Instruction)
            and not stmt.is_reduction
            and stmt.result not in live
        ):
            removed += 1
            continue
        if isinstance(stmt, OffsetInstruction) and stmt.result not in live:
            # unused offset streams also disappear (saving their buffers)
            used_elsewhere = any(
                isinstance(s, Instruction) and stmt.result in s.input_names
                for s in func.body
            )
            if not used_elsewhere:
                removed += 1
                continue
        new_body.append(stmt)
    func.body = new_body
    return removed


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------


def optimize_function(func: IRFunction, module: Module | None = None,
                      report: OptimizationReport | None = None) -> OptimizationReport:
    """Run fold → CSE → DCE on one leaf datapath function to a fixed point."""
    report = report or OptimizationReport()
    if func.kind not in (FunctionKind.PIPE, FunctionKind.COMB) or not func.is_leaf:
        return report
    while True:
        folded = constant_fold(func)
        cse = eliminate_common_subexpressions(func)
        dead = eliminate_dead_code(func, module)
        report.merge(func.name, folded, cse, dead)
        report.iterations += 1
        if folded + cse + dead == 0:
            break
        if report.iterations > 50:  # pragma: no cover - safety net
            raise IRValidationError(f"optimiser failed to converge on @{func.name}")
    return report


def optimize_module(module: Module) -> OptimizationReport:
    """Optimise every leaf datapath function of a module in place."""
    report = OptimizationReport()
    for func in module.functions.values():
        if func.name == module.main:
            continue
        optimize_function(func, module, report)
    return report
