"""The per-item reference interpreter, kept as a test oracle.

:func:`evaluate_items` walks the IR function's instructions for every
work item, classifying each operand and dispatching on the opcode each
time, straight from the RTL semantics.  It is slow, and it is
deliberately simple, so the compiled reference in
:mod:`repro.flows.refmodel` is checked against it item for item
(``test_reference_oracle.py``) and timed against it
(``benchmarks/test_flow_throughput.py``).
"""

from __future__ import annotations

from repro.flows.numeric import as_signed, mask, truncdiv
from repro.flows.refmodel import ReferenceEvaluationError
from repro.ir.functions import IRFunction, Module, StreamDirection
from repro.ir.instructions import Instruction, OperandKind, decode_predicate

__all__ = ["evaluate_items"]


def _compare(instr: Instruction, ops: list[int], widths: list[int]) -> int:
    signed, base = decode_predicate(instr.predicate, instr.result_type.is_signed)
    a, b = ops
    if signed:
        # the RTL wraps each operand *wire* in $signed: sign-extend each
        # at its own width (numerically identical to Verilog's
        # extend-to-max-width signed comparison)
        a, b = as_signed(a, widths[0]), as_signed(b, widths[1])
    if base == "eq":
        return 1 if a == b else 0
    if base == "ne":
        return 1 if a != b else 0
    if base == "lt":
        return 1 if a < b else 0
    if base == "le":
        return 1 if a <= b else 0
    if base == "gt":
        return 1 if a > b else 0
    return 1 if a >= b else 0  # ge


def _evaluate(instr: Instruction, ops: list[int], widths: list[int]) -> int:
    """One IR instruction over integer operands, RTL-faithful.

    Semantics mirror the generated Verilog: width-wrapped two's-complement
    arithmetic, zero-guarded truncating division, logical shifts on
    unsigned values and arithmetic shifts / signed compares on signed
    types.  ``widths`` carries each operand's *defining* width — the RTL
    applies ``$signed`` to the operand wires, so sign interpretation
    happens at the wire width, not the (possibly narrower) result width.
    """
    opcode = instr.opcode
    ty = instr.result_type
    width = ty.width

    def s(index: int) -> int:
        return as_signed(ops[index], widths[index]) if ty.is_signed else ops[index]

    if opcode in ("add", "fadd"):
        return mask(ops[0] + ops[1], width)
    if opcode in ("sub", "fsub"):
        return mask(ops[0] - ops[1], width)
    if opcode in ("mul", "fmul"):
        return mask(ops[0] * ops[1], width)
    if opcode in ("div", "udiv", "sdiv", "fdiv"):
        if opcode == "sdiv" or (opcode in ("div", "fdiv") and ty.is_signed):
            return mask(truncdiv(as_signed(ops[0], widths[0]),
                                 as_signed(ops[1], widths[1])), width)
        return mask(truncdiv(ops[0], ops[1]), width)
    if opcode in ("rem", "urem"):
        a, b = (as_signed(ops[0], widths[0]), as_signed(ops[1], widths[1])) \
            if (opcode == "rem" and ty.is_signed) else (ops[0], ops[1])
        if b == 0:
            return 0
        return mask(a - b * truncdiv(a, b), width)
    if opcode == "and":
        return ops[0] & ops[1]
    if opcode == "or":
        return ops[0] | ops[1]
    if opcode == "xor":
        return ops[0] ^ ops[1]
    if opcode == "not":
        return mask(~ops[0], width)
    if opcode == "shl":
        return mask(ops[0] << ops[1], width)
    if opcode == "lshr":
        return ops[0] >> ops[1]
    if opcode == "ashr":
        return mask(s(0) >> ops[1], width)
    if opcode in ("icmp", "fcmp"):
        return _compare(instr, ops, widths)
    if opcode == "select":
        return ops[1] if ops[0] else ops[2]
    if opcode == "min":
        return ops[0] if s(0) < s(1) else ops[1]
    if opcode == "max":
        return ops[0] if s(0) > s(1) else ops[1]
    if opcode == "abs":
        return mask(abs(s(0)), width)
    if opcode in ("mov", "trunc", "zext", "sext"):
        return mask(ops[0], width)
    if opcode == "mac":
        return mask(ops[0] * ops[1] + ops[2], width)
    if opcode == "sqrt":
        import math

        return math.isqrt(ops[0])
    raise ReferenceEvaluationError(
        f"opcode {opcode!r} has no integer reference semantics")


def evaluate_items(
    module: Module,
    func: IRFunction,
    stimulus: dict[str, list[int]],
    n_items: int,
):
    """Evaluate the datapath elementwise; returns (outputs, reductions, interior)."""
    resolved = {off.result: (off.source, module.resolve_offset(off.offset))
                for off in func.offsets()}
    out_ports = [p.port for p in module.port_declarations
                 if p.function == func.name and p.direction is StreamDirection.OUTPUT]
    reductions = {r.result: 0 for r in func.reductions()}

    # defining width of every named value — the RTL sign-interprets
    # operands at their wire width, so the reference must match
    value_widths: dict[str, int] = {name: ty.width for ty, name in func.args}
    for off in func.offsets():
        value_widths[off.result] = off.result_type.width
    for instr in func.instructions():
        value_widths[instr.result] = instr.result_type.width

    outputs: dict[str, list[int]] = {name: [] for name in out_ports}
    interior: list[bool] = []

    def sample(source: str, index: int) -> int:
        if 0 <= index < n_items:
            return stimulus[source][index]
        return 0  # flushed delay lines / zero-driven tail

    for i in range(n_items):
        env: dict[str, int] = {name: stimulus[name][i] for _, name in func.args}
        in_window = True
        for result, (source, offset) in resolved.items():
            position = i + offset
            env[result] = sample(source, position)
            if not 0 <= position < n_items:
                in_window = False
        interior.append(in_window)

        for instr in func.instructions():
            ops: list[int] = []
            widths: list[int] = []
            result_width = instr.result_type.width
            for op in instr.operands:
                if op.kind is OperandKind.CONST:
                    value = op.value
                    ops.append(int(round(value)) if isinstance(value, float)
                               else int(value))
                    widths.append(result_width)  # consts render at result width
                elif op.kind is OperandKind.GLOBAL:
                    ops.append(reductions.get(op.name, 0))
                    widths.append(value_widths.get(op.name, result_width))
                else:
                    ops.append(env[op.name])
                    widths.append(value_widths.get(op.name, result_width))
            value = mask(_evaluate(instr, ops, widths), result_width)
            if instr.is_reduction:
                reductions[instr.result] = value
            else:
                env[instr.result] = value

        for name in out_ports:
            outputs[name].append(env[name])

    return outputs, reductions, interior
