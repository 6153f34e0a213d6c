"""The kernel Python reference for RTL verification.

The kernels' float golden semantics (``KernelSpec.golden``) validate the
*algorithm*; the generated RTL implements the *integer datapath* the cost
model prices (fixed-point constants, width-wrapped arithmetic).  The
reference that an RTL simulation can be held to **exactly** is therefore
the elementwise evaluation, in Python, of the very IR function the
generator emitted — fed with the same deterministic stimulus the
testbench drives (:func:`repro.compiler.codegen.testbench.stimulus_words`)
and with the same boundary convention the hardware realises (delay lines
flushed with zeros: an offset that reaches before the first or past the
last stream item reads zero).

:func:`reference_outputs` returns per-item values for every output
stream, the final value of every reduction accumulator, and the item
validity window (items whose full offset neighbourhood lies inside the
stream) — everything a flow needs to check a simulation bit for bit.
"""

from __future__ import annotations

import math
import operator

from repro import record
from repro.compiler.codegen.testbench import DEFAULT_STIMULUS_SEED, stimulus_words
from repro.flows.numeric import as_signed, truncdiv
from repro.ir.functions import IRFunction, Module, StreamDirection
from repro.ir.instructions import Instruction, OperandKind, decode_predicate

__all__ = ["ReferenceResult", "reference_outputs", "kernel_stimulus", "evaluate_items"]


class ReferenceEvaluationError(ValueError):
    """The IR uses an opcode the integer reference cannot evaluate."""


@record(frozen=True)
class ReferenceResult:
    """Expected RTL behaviour of one leaf datapath over one stimulus."""

    function: str
    n_items: int
    #: output stream name -> per-item expected words
    outputs: dict[str, list[int]]
    #: reduction accumulator name -> final expected value
    reductions: dict[str, int]
    #: item index -> True when its full offset window is in-stream
    interior: list[bool]

    @property
    def interior_items(self) -> int:
        return sum(self.interior)


# Each evaluator takes the operand values, their defining widths and the
# instruction's signedness, and returns the result before the result-width
# mask, which the caller applies.  Semantics mirror the generated Verilog:
# width-wrapped two's-complement arithmetic, zero-guarded truncating
# division, logical shifts on unsigned values and arithmetic shifts /
# signed compares on signed types.  The RTL applies ``$signed`` to the
# operand *wires*, so sign interpretation happens at each operand's
# defining width, not at the (possibly narrower) result width.


def _operand(ops, widths, signed, index: int) -> int:
    """Operand ``index``, two's complement at its own width when signed."""
    return as_signed(ops[index], widths[index]) if signed else ops[index]


def _div(ops, widths, signed):
    return truncdiv(_operand(ops, widths, signed, 0), _operand(ops, widths, signed, 1))


def _rem(ops, widths, signed):
    a, b = _operand(ops, widths, signed, 0), _operand(ops, widths, signed, 1)
    return 0 if b == 0 else a - b * truncdiv(a, b)


def _min(ops, widths, signed):
    a, b = _operand(ops, widths, signed, 0), _operand(ops, widths, signed, 1)
    return ops[0] if a < b else ops[1]


def _max(ops, widths, signed):
    a, b = _operand(ops, widths, signed, 0), _operand(ops, widths, signed, 1)
    return ops[0] if a > b else ops[1]


def _relation(test):
    """A compare; ``signed`` is the predicate's signedness."""

    def evaluate(ops, widths, signed):
        a, b = ops
        if signed:
            # sign-extend each operand at its own width (numerically
            # identical to Verilog's extend-to-max-width signed compare)
            a, b = as_signed(a, widths[0]), as_signed(b, widths[1])
        return 1 if test(a, b) else 0

    return evaluate


def _mov(ops, widths, signed):
    return ops[0]


#: opcode (or, for ``icmp``/``fcmp``, the predicate's base relation) ->
#: evaluator; ``signed`` selects the signed variant where there is one
_EVALUATORS = {
    "add": lambda ops, widths, signed: ops[0] + ops[1],
    "sub": lambda ops, widths, signed: ops[0] - ops[1],
    "mul": lambda ops, widths, signed: ops[0] * ops[1],
    "div": _div,
    "udiv": lambda ops, widths, signed: _div(ops, widths, False),
    "sdiv": lambda ops, widths, signed: _div(ops, widths, True),
    "rem": _rem,
    "urem": lambda ops, widths, signed: _rem(ops, widths, False),
    "and": lambda ops, widths, signed: ops[0] & ops[1],
    "or": lambda ops, widths, signed: ops[0] | ops[1],
    "xor": lambda ops, widths, signed: ops[0] ^ ops[1],
    "not": lambda ops, widths, signed: ~ops[0],
    "shl": lambda ops, widths, signed: ops[0] << ops[1],
    "lshr": lambda ops, widths, signed: ops[0] >> ops[1],
    "ashr": lambda ops, widths, signed: _operand(ops, widths, signed, 0) >> ops[1],
    "eq": _relation(operator.eq),
    "ne": _relation(operator.ne),
    "lt": _relation(operator.lt),
    "le": _relation(operator.le),
    "gt": _relation(operator.gt),
    "ge": _relation(operator.ge),
    "select": lambda ops, widths, signed: ops[1] if ops[0] else ops[2],
    "min": _min,
    "max": _max,
    "abs": lambda ops, widths, signed: abs(_operand(ops, widths, signed, 0)),
    "mov": _mov,
    "trunc": _mov,
    "zext": _mov,
    "sext": _mov,
    "mac": lambda ops, widths, signed: ops[0] * ops[1] + ops[2],
    "sqrt": lambda ops, widths, signed: math.isqrt(ops[0]),
}
# the float opcodes run the integer datapath
_EVALUATORS.update({"f" + name: _EVALUATORS[name] for name in ("add", "sub", "mul", "div")})


def _decode_evaluator(instr: Instruction):
    """(evaluator, signed) of one instruction.

    An opcode without integer semantics fails when the entry first runs,
    so the instructions before it fail first, in program order."""
    opcode, signed = instr.opcode, instr.result_type.is_signed
    key = opcode
    if opcode in ("icmp", "fcmp"):
        signed, key = decode_predicate(instr.predicate, signed)
    evaluate = _EVALUATORS.get(key)
    if evaluate is None:
        def evaluate(ops, widths, signed):
            raise ReferenceEvaluationError(
                f"opcode {opcode!r} has no integer reference semantics")
    return evaluate, signed


def kernel_stimulus(func: IRFunction, n_items: int,
                    seed: int = DEFAULT_STIMULUS_SEED) -> dict[str, list[int]]:
    """The exact input words the generated testbench drives, per stream."""
    return {
        name: stimulus_words(seed, index, n_items, min(ty.width, 32))
        for index, (ty, name) in enumerate(func.args)
    }


def _reader(keys: tuple[str, ...]):
    """A function of the value table returning the operands at ``keys``."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return lambda values: tuple(values[key] for key in keys)


def evaluate_items(
    module: Module,
    func: IRFunction,
    stimulus: dict[str, list[int]],
    n_items: int,
):
    """Evaluate the datapath elementwise; returns (outputs, reductions, interior).

    The function is decoded once into a flat program over one table of
    values: SSA values under their names, reduction accumulators and other
    globals under ``@name`` and constants under ``#<index>``.  An item then
    loads its stream words and runs the program's entries in order.
    """
    resolved = {off.result: (off.source, module.resolve_offset(off.offset))
                for off in func.offsets()}
    out_ports = [p.port for p in module.port_declarations
                 if p.function == func.name and p.direction is StreamDirection.OUTPUT]
    reductions = {r.result: 0 for r in func.reductions()}
    outputs: dict[str, list[int]] = {name: [] for name in out_ports}
    if n_items <= 0:
        return outputs, reductions, []
    instructions = func.instructions()

    # defining width of every named value — the RTL sign-interprets
    # operands at their wire width, so the reference must match
    value_widths: dict[str, int] = {name: ty.width for ty, name in func.args}
    for off in func.offsets():
        value_widths[off.result] = off.result_type.width
    for instr in instructions:
        value_widths[instr.result] = instr.result_type.width

    # the stream words each item loads: its own argument words, then the
    # offset words, zero where the offset reaches outside the stream
    # (flushed delay lines / zero-driven tail)
    columns = [(name, stimulus[name]) for _, name in func.args]
    for result, (source, offset) in resolved.items():
        words = stimulus[source]
        columns.append((result, [words[j] if 0 <= j < n_items else 0
                                 for j in range(offset, offset + n_items)]))
    offsets = [offset for _, offset in resolved.values()]
    low, high = min(offsets, default=0), max(offsets, default=0)
    interior = [0 <= i + low and i + high < n_items for i in range(n_items)]

    values: dict[str, int] = {"@" + name: 0 for name in reductions}
    program = []
    for instr in instructions:
        result_width = instr.result_type.width
        keys, widths = [], []
        for op in instr.operands:
            if op.kind is OperandKind.CONST:
                key = f"#{len(values)}"
                value = op.value
                values[key] = int(round(value)) if isinstance(value, float) else int(value)
                widths.append(result_width)  # consts render at result width
            elif op.kind is OperandKind.GLOBAL:
                key = "@" + op.name
                values.setdefault(key, 0)
                widths.append(value_widths.get(op.name, result_width))
            else:
                key = op.name
                widths.append(value_widths.get(op.name, result_width))
            keys.append(key)
        evaluate, signed = _decode_evaluator(instr)
        target = ("@" if instr.is_reduction else "") + instr.result
        program.append((evaluate, _reader(tuple(keys)), widths, signed,
                        (1 << result_width) - 1, target))

    for i in range(n_items):
        for name, words in columns:
            values[name] = words[i]
        for evaluate, read, widths, signed, result_mask, target in program:
            values[target] = evaluate(read(values), widths, signed) & result_mask
        for name in out_ports:
            outputs[name].append(values[name])

    for instr in instructions:
        if instr.is_reduction:
            reductions[instr.result] = values["@" + instr.result]
    return outputs, reductions, interior


def reference_outputs(
    module: Module,
    func: IRFunction,
    n_items: int,
    seed: int = DEFAULT_STIMULUS_SEED,
    stimulus: dict[str, list[int]] | None = None,
) -> ReferenceResult:
    """The full expected behaviour of one leaf datapath for one stimulus.

    Pass a precomputed ``stimulus`` (from :func:`kernel_stimulus`) to
    avoid regenerating it; by default it is derived from ``seed``.
    """
    if stimulus is None:
        stimulus = kernel_stimulus(func, n_items, seed)
    outputs, reductions, interior = evaluate_items(module, func, stimulus, n_items)
    return ReferenceResult(
        function=func.name,
        n_items=n_items,
        outputs=outputs,
        reductions=reductions,
        interior=interior,
    )
