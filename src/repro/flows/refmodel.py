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

:func:`evaluate_items` compiles the datapath once per process: the IR
function decodes to a hashable program, which renders as one
straight-line Python function — column words, SSA values and
accumulators in locals, each instruction one inline expression from the
``_TEMPLATES`` table with its result mask folded in — and ``_PROGRAMS``
keeps the compiled function under that program.  The lane families of
one kernel share their leaf datapath, so a repeated kernel only runs its
own stimulus.  ``tests/flows/reference_oracle.py`` keeps the per-item
interpreter as the oracle it is checked and timed against.
"""

from __future__ import annotations

import math

from repro import record
from repro.compiler.codegen.testbench import DEFAULT_STIMULUS_SEED, stimulus_words
from repro.cost.cache import BoundedCache
from repro.flows.numeric import as_signed, truncdiv
from repro.ir.functions import IRFunction, Module, StreamDirection
from repro.ir.instructions import OperandKind, decode_predicate

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


# Each template renders one instruction's value before the result-width
# mask, which the compiler folds in as a constant.  ``{0}``..``{2}`` are
# the operand values and ``{s0}``/``{s1}`` the same operands, two's
# complement at their own width when the instruction is signed.
# Semantics mirror the generated Verilog: width-wrapped two's-complement
# arithmetic, zero-guarded truncating division, logical shifts on
# unsigned values and arithmetic shifts / signed compares on signed
# types.  The RTL applies ``$signed`` to the operand *wires*, so sign
# interpretation happens at each operand's defining width, not at the
# (possibly narrower) result width.

_DIV = "truncdiv({s0}, {s1})"
_REM = "0 if {s1} == 0 else {s0} - {s1} * truncdiv({s0}, {s1})"

#: opcode (or, for ``icmp``/``fcmp``, the predicate's base relation) ->
#: (template, signedness the opcode pins, or None for the instruction's)
_TEMPLATES = {
    "add": ("{0} + {1}", None),
    "sub": ("{0} - {1}", None),
    "mul": ("{0} * {1}", None),
    "div": (_DIV, None),
    "udiv": (_DIV, False),
    "sdiv": (_DIV, True),
    "rem": (_REM, None),
    "urem": (_REM, False),
    "and": ("{0} & {1}", None),
    "or": ("{0} | {1}", None),
    "xor": ("{0} ^ {1}", None),
    "not": ("~{0}", None),
    "shl": ("{0} << {1}", None),
    "lshr": ("{0} >> {1}", None),
    "ashr": ("{s0} >> {1}", None),
    "eq": ("1 if {s0} == {s1} else 0", None),
    "ne": ("1 if {s0} != {s1} else 0", None),
    "lt": ("1 if {s0} < {s1} else 0", None),
    "le": ("1 if {s0} <= {s1} else 0", None),
    "gt": ("1 if {s0} > {s1} else 0", None),
    "ge": ("1 if {s0} >= {s1} else 0", None),
    "select": ("{1} if {0} else {2}", None),
    "min": ("{0} if {s0} < {s1} else {1}", None),
    "max": ("{0} if {s0} > {s1} else {1}", None),
    "abs": ("abs({s0})", None),
    "mov": ("{0}", None),
    "trunc": ("{0}", None),
    "zext": ("{0}", None),
    "sext": ("{0}", None),
    "mac": ("{0} * {1} + {2}", None),
    "sqrt": ("isqrt({0})", None),
}
# the float opcodes run the integer datapath
_TEMPLATES.update({"f" + name: _TEMPLATES[name] for name in ("add", "sub", "mul", "div")})

#: everything a generated function reads besides its own locals: fixed
#: helpers only, so its text alone determines what it computes
_RUNTIME = {"as_signed": as_signed, "truncdiv": truncdiv, "isqrt": math.isqrt,
            "ReferenceEvaluationError": ReferenceEvaluationError}

#: decoded program -> its compiled reference function, per process
_PROGRAMS = BoundedCache(64, name="flows.reference")


def _decode(func: IRFunction, out_ports: list[str],
            accumulators: list[str]) -> tuple:
    """Everything of ``func`` that its reference function depends on, as
    one hashable tuple of strings and integers: the program
    :func:`_source` renders, and so the key of its compiled function.

    Operands decode to their integer value (a constant), ``@name`` (a
    global) or ``%name`` (an SSA value).  Offset amounts and the
    stimulus are absent: they shape the columns, not the function.
    """
    entries = []
    for instr in func.instructions():
        operands = []
        for op in instr.operands:
            kind = op.kind
            if kind is OperandKind.CONST:
                value = op.value
                operands.append(int(round(value)) if isinstance(value, float)
                                else int(value))
            else:
                operands.append(("@" if kind is OperandKind.GLOBAL else "%") + op.name)
        ty = instr.result_type
        entries.append((instr.opcode, instr.predicate, ty.is_signed, ty.width,
                        instr.result_is_global, instr.result, tuple(operands)))
    return (tuple([(name, ty.width) for ty, name in func.args]),
            tuple([(off.result, off.result_type.width) for off in func.offsets()]),
            tuple(entries), tuple(out_ports), tuple(accumulators))


def _source(program: tuple) -> str:
    """The Python source of the reference function of a :func:`_decode`
    program.

    ``reference(n_items, c0, c1, ...)`` takes one word column per stream
    argument and then per distinct offset, and makes one pass over the
    items: the column words, SSA values and accumulators are locals, and
    each instruction is one expression with its result mask folded in.
    It returns the list of each distinct output port and the final value
    of each accumulator.

    An opcode without integer semantics, or a value read before it is
    defined, raises at its own place in the body, so the instructions
    before it fail first, in program order.
    """
    args, offsets, entries, out_ports, accumulators = program
    # defining width of every named value — the RTL sign-interprets
    # operands at their wire width, so the reference must match
    value_widths = dict(args)
    value_widths.update(offsets)
    for entry in entries:
        value_widths[entry[5]] = entry[3]

    values: dict[str, str] = {}    # SSA name -> local
    globals_: dict[str, str] = {}  # accumulator / global name -> local

    def value(name: str) -> str:
        return values.setdefault(name, f"v{len(values)}")

    def accumulator(name: str) -> str:
        return globals_.setdefault(name, f"g{len(globals_)}")

    def operand(op: int | str, signed: bool, result_width: int) -> tuple[str, str]:
        """(value, value as the instruction's signedness reads it) of one
        operand; ``KeyError`` for an SSA value not defined yet."""
        if isinstance(op, int):  # consts render at result width
            return str(op), str(as_signed(op, result_width) if signed else op)
        name = op[1:]
        text = accumulator(name) if op[0] == "@" else values[name]
        if signed:
            return text, f"as_signed({text}, {value_widths.get(name, result_width)})"
        return text, text

    targets = [value(name) for name, _ in args]
    targets += [value(name) for name in dict.fromkeys(name for name, _ in offsets)]
    ports = list(dict.fromkeys(out_ports))
    body = []
    for opcode, predicate, signed, result_width, is_reduction, result, operands in entries:
        key = opcode
        if opcode in ("icmp", "fcmp"):
            signed, key = decode_predicate(predicate, signed)
        template, pinned = _TEMPLATES.get(key, (None, None))
        if template is None:
            message = f"opcode {opcode!r} has no integer reference semantics"
            body.append(f"raise ReferenceEvaluationError({message!r})")
            break
        try:
            rendered = [operand(op, signed if pinned is None else pinned, result_width)
                        for op in operands]
        except KeyError as missing:
            body.append(f"raise KeyError({missing.args[0]!r})")
            break
        expression = template.format(*[text for text, _ in rendered],
                                     **{f"s{i}": text for i, (_, text) in enumerate(rendered)})
        target = accumulator(result) if is_reduction else value(result)
        body.append(f"{target} = ({expression}) & {(1 << result_width) - 1}")
    else:
        for name in out_ports:
            if name not in values:
                body.append(f"raise KeyError({name!r})")
                break
            body.append(f"a{ports.index(name)}({values[name]})")

    if not targets:
        loop = "for _ in range(n_items):"
    elif len(targets) == 1:
        loop = f"for {targets[0]} in c0:"
    else:
        loop = (f"for {', '.join(targets)} in "
                f"zip({', '.join(f'c{i}' for i in range(len(targets)))}):")
    outs = "".join(f"o{k}, " for k in range(len(ports)))
    finals = "".join(f"{accumulator(name)}, " for name in accumulators)
    head = [f"def reference(n_items{''.join(f', c{i}' for i in range(len(targets)))}):"]
    head += [f"    {local} = 0" for local in globals_.values()]
    for k in range(len(ports)):
        head += [f"    o{k} = []", f"    a{k} = o{k}.append"]
    tail = [f"    return ({outs}), ({finals})"]
    return "\n".join(head + ["    " + loop] + ["        " + line for line in body or ["pass"]]
                     + tail) + "\n"


def _compile(program: tuple):
    """The reference function of a :func:`_decode` program."""
    namespace = dict(_RUNTIME)
    exec(compile(_source(program), "<reference>", "exec"), namespace)
    return namespace["reference"]


def kernel_stimulus(func: IRFunction, n_items: int,
                    seed: int = DEFAULT_STIMULUS_SEED) -> dict[str, list[int]]:
    """The exact input words the generated testbench drives, per stream."""
    return {
        name: stimulus_words(seed, index, n_items, min(ty.width, 32))
        for index, (ty, name) in enumerate(func.args)
    }


def _stream(words: list[int], n_items: int) -> list[int]:
    """The first ``n_items`` words of a stimulus stream."""
    if len(words) < n_items:
        raise IndexError(f"stimulus stream has {len(words)} words, "
                         f"{n_items} items need one each")
    return words if len(words) == n_items else words[:n_items]


def _shifted(words: list[int], offset: int, n_items: int) -> list[int]:
    """The word each item reads at ``offset``: zero where the offset
    reaches outside the stream (flushed delay lines / zero-driven tail)."""
    if offset >= 0:
        inside = words[offset:]
        return inside + [0] * (n_items - len(inside))
    lead = min(-offset, n_items)
    return [0] * lead + words[:n_items - lead]


def evaluate_items(
    module: Module,
    func: IRFunction,
    stimulus: dict[str, list[int]],
    n_items: int,
):
    """Evaluate the datapath elementwise; returns (outputs, reductions, interior).

    The function decodes to a program (:func:`_decode`) that compiles to
    one straight-line Python function (:func:`_source`), kept for the
    process in ``_PROGRAMS``; a call builds the stream and offset columns
    and runs it once over the items.  A program that fails raises again
    on every call and is never stored.
    """
    resolved = {off.result: (off.source, module.resolve_offset(off.offset))
                for off in func.offsets()}
    out_ports = [p.port for p in module.port_declarations
                 if p.function == func.name and p.direction is StreamDirection.OUTPUT]
    reductions = {r.result: 0 for r in func.reductions()}
    if n_items <= 0:
        return {name: [] for name in out_ports}, reductions, []

    columns = [_stream(stimulus[name], n_items) for _, name in func.args]
    columns += [_shifted(_stream(stimulus[source], n_items), offset, n_items)
                for source, offset in resolved.values()]
    program = _decode(func, out_ports, list(reductions))
    run = _PROGRAMS.get(program)
    if run is None:
        run = _compile(program)
        lists, finals = run(n_items, *columns)
        _PROGRAMS.put(program, run)
    else:
        lists, finals = run(n_items, *columns)

    offsets = [offset for _, offset in resolved.values()]
    low, high = min(offsets, default=0), max(offsets, default=0)
    # item i is interior when [i + low, i + high] lies inside the stream
    first = min(max(0, -low), n_items)
    end = max(first, min(n_items, n_items - high))
    interior = [False] * first + [True] * (end - first) + [False] * (n_items - end)
    return (dict(zip(dict.fromkeys(out_ports), lists)),
            dict(zip(reductions, finals)), interior)


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
