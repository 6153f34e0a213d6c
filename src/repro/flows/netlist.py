"""Structural netlists elaborated from generated Verilog, compiled to
Python for cycle simulation.

:func:`elaborate` turns one parsed :class:`~repro.flows.verilog.VerilogModule`
into a :class:`Netlist`: a signal table with widths, the continuous
assignments in dependency (topological) order, and the clocked processes.

One compiler generates the Python code of a clock cycle with Verilog
semantics — continuous assigns settle combinationally, every process
reads pre-edge state, non-blocking assignments commit together in
program order — with widths, masks and signedness folded to constants
and signals held in locals.  That is what lets the pure-Python RTL
backend reproduce exactly what an event-driven simulator would print
for this subset.  It emits that cycle in two functions:

* :func:`compile_runner` wraps it in one loop that drives a whole
  stimulus — reset, the driven items, a zero-driven tail and the drain
  — as the generated testbench does (:meth:`NetlistSimulator.stream`).
  Signals stay in locals across cycles, and each delay line (an array
  only ever shifted by one word at the front) is a ``deque`` that
  shifts with one ``appendleft``.
* :func:`compile_netlist` makes it a straight-line ``step`` function,
  one cycle per :meth:`NetlistSimulator.step` call.

Neither function holds state (both read and write the simulator's
dicts), so a netlist compiles each at most once and every simulator of
that netlist reuses it: the runner when its first simulator is built,
the step on the first :meth:`~NetlistSimulator.step`.  The recursive
interpreter the compiler replaced and the per-cycle testbench loop the
runner replaced are kept under ``tests/flows`` as test oracles.

:func:`lint_module` runs the structural checks the satellite tests pin
for every generated file: legal identifiers and balanced ``begin``/``end``
come free with parsing; on top of that it checks that every referenced
signal is declared *before* use and that no signal has two drivers.
"""

from __future__ import annotations

import re
from collections import deque

from repro import record
from repro.flows.numeric import truncdiv
from repro.flows.verilog import (
    AlwaysBlock,
    ArrayDecl,
    ContinuousAssign,
    Expr,
    Instance,
    NetDecl,
    VerilogModule,
)

__all__ = [
    "ElaborationError",
    "Netlist",
    "NetlistSimulator",
    "compile_netlist",
    "compile_runner",
    "elaborate",
    "lint_module",
]


class ElaborationError(ValueError):
    """The module cannot be turned into a simulatable netlist."""


def _isqrt(value: int) -> int:
    import math

    return math.isqrt(max(0, value))


#: functional-unit cores the generator may reference for special opcodes
_FUNCTIONAL_UNITS = {
    "fu_sqrt": _isqrt,
}


# ----------------------------------------------------------------------
# Elaboration
# ----------------------------------------------------------------------


@record
class Netlist:
    """A flattened, simulatable view of one Verilog module."""

    name: str
    #: signal name -> width (ports, wires, regs; integers are 32 wide)
    widths: dict[str, int]
    #: array name -> (element width, size)
    arrays: dict[str, tuple[int, int]]
    #: simulation-only ``integer`` loop variables (not hardware state)
    integers: frozenset[str]
    inputs: list[str]
    outputs: list[str]
    #: continuous assignments in topological evaluation order
    assigns: list[ContinuousAssign]
    processes: list[AlwaysBlock]
    instances: list[Instance]
    #: the compiled stream runner and per-cycle step function (not
    #: fields): each is compiled by the first :class:`NetlistSimulator`
    #: of this netlist that needs it and shared by the later ones
    compiled_runner = None
    compiled_step = None

    def stats(self) -> dict:
        """Cell-level statistics (the ``SynthFlow`` report payload)."""
        assigned = {a.target for a in self.assigns}
        reg_bits = sum(
            width for name, width in self.widths.items()
            if name not in assigned and name not in self.inputs
            and name not in self.integers
        )
        array_bits = sum(width * size for width, size in self.arrays.values())
        return {
            "signals": len(self.widths) - len(self.integers),
            "arrays": len(self.arrays),
            "continuous_assigns": len(self.assigns),
            "processes": len(self.processes),
            "instances": len(self.instances),
            "register_bits": reg_bits,
            "delay_line_bits": array_bits,
        }


def _expr_identifiers(expr: Expr) -> set[str]:
    kind = expr[0]
    if kind == "const":
        return set()
    if kind == "id":
        return {expr[1]}
    if kind in ("index",):
        return {expr[1]} | _expr_identifiers(expr[2])
    if kind == "slice":
        return {expr[1]}
    if kind == "concat":
        out: set[str] = set()
        for part in expr[1]:
            out |= _expr_identifiers(part)
        return out
    if kind in ("unary", "signed"):
        return _expr_identifiers(expr[-1])
    if kind == "binary":
        return _expr_identifiers(expr[2]) | _expr_identifiers(expr[3])
    if kind == "ternary":
        return (_expr_identifiers(expr[1]) | _expr_identifiers(expr[2])
                | _expr_identifiers(expr[3]))
    if kind == "call":
        out = set()
        for part in expr[2]:
            out |= _expr_identifiers(part)
        return out
    raise ElaborationError(f"unknown expression node {kind!r}")  # pragma: no cover


def _toposort_assigns(assigns: list[ContinuousAssign]) -> list[ContinuousAssign]:
    by_target = {a.target: a for a in assigns}
    ordered: list[ContinuousAssign] = []
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(assign: ContinuousAssign) -> None:
        mark = state.get(assign.target)
        if mark == 1:
            return
        if mark == 0:
            raise ElaborationError(
                f"combinational loop through {assign.target!r}")
        state[assign.target] = 0
        for name in _expr_identifiers(assign.expr):
            dep = by_target.get(name)
            if dep is not None:
                visit(dep)
        state[assign.target] = 1
        ordered.append(assign)

    for assign in assigns:
        visit(assign)
    return ordered


def elaborate(module: VerilogModule) -> Netlist:
    """Flatten one module into a simulatable netlist."""
    widths: dict[str, int] = {}
    arrays: dict[str, tuple[int, int]] = {}
    for port in module.ports:
        widths[port.name] = port.width
    for item in module.items:
        if isinstance(item, NetDecl):
            if item.name in widths or item.name in arrays:
                raise ElaborationError(f"signal {item.name!r} declared twice")
            widths[item.name] = item.width
        elif isinstance(item, ArrayDecl):
            if item.name in widths or item.name in arrays:
                raise ElaborationError(f"signal {item.name!r} declared twice")
            arrays[item.name] = (item.width, item.size)

    assigns = _toposort_assigns(module.assigns)
    return Netlist(
        name=module.name,
        widths=widths,
        arrays=arrays,
        integers=frozenset(
            item.name for item in module.items
            if isinstance(item, NetDecl) and item.net_kind == "integer"
        ),
        inputs=[p.name for p in module.inputs()],
        outputs=[p.name for p in module.outputs()],
        assigns=assigns,
        processes=module.always_blocks,
        instances=module.instances,
    )


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------

#: iterations after which a ``for`` loop is reported as runaway
MAX_LOOP_ITERATIONS = 1_000_000

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")
_PLAIN_OPERATORS = ("+", "-", "*", "&", "|", "^", "<<")
#: operators that reinterpret both operands as two's complement when
#: either one is written ``$signed(...)``
_SIGNED_OPERATORS = ("<", "<=", ">", ">=", "/", "%")


def _undriven(name: str) -> int:
    raise ElaborationError(f"undriven signal {name!r}")


def _fail(message: str) -> int:
    raise ElaborationError(message)


def _truncmod(a: int, b: int) -> int:
    return 0 if b == 0 else a - b * truncdiv(a, b)


#: the inputs a stream drives itself (reset, then the valid strobe)
_CONTROL = ("rst", "in_valid")

#: the globals every compiled function runs against
_RUNTIME = {
    "_deque": deque,
    "_undriven": _undriven,
    "_fail": _fail,
    "_truncdiv": truncdiv,
    "_truncmod": _truncmod,
    **_FUNCTIONAL_UNITS,
}


@record(frozen=True)
class _ShiftLoop:
    """A ``for`` loop that copies a run of one array into another —
    the generator's delay-line idiom — compiled to one slice copy."""

    var: str
    target: str
    target_start: int
    source: str
    source_start: int
    count: int
    #: the loop variable's value after the loop
    final: int

    def __init__(self, var, target, target_start, source, source_start, count,
                 final) -> None:
        put = object.__setattr__
        put(self, "var", var)
        put(self, "target", target)
        put(self, "target_start", target_start)
        put(self, "source", source)
        put(self, "source_start", source_start)
        put(self, "count", count)
        put(self, "final", final)


def _loop_offset(expr: Expr, var: str) -> int | None:
    """``k`` when ``expr`` is ``var``, ``var + k`` or ``var - k``."""
    if expr == ("id", var):
        return 0
    if (expr[0] == "binary" and expr[1] in ("+", "-")
            and expr[2] == ("id", var) and expr[3][0] == "const"):
        return expr[3][1] if expr[1] == "+" else -expr[3][1]
    return None


def _dynamic_reads(expr: Expr, out: set[str]) -> None:
    """Add to ``out`` every name ``expr`` indexes with a non-constant index."""
    kind = expr[0]
    if kind == "index":
        if expr[2][0] != "const":
            out.add(expr[1])
        _dynamic_reads(expr[2], out)
    elif kind in ("concat", "call"):
        for part in expr[-1]:
            _dynamic_reads(part, out)
    elif kind in ("unary", "signed", "binary", "ternary"):
        for part in expr[1:]:
            if type(part) is tuple:
                _dynamic_reads(part, out)


def _always_assigned(statements) -> set[str]:
    """Scalar NBA targets every run of ``statements`` assigns."""
    out: set[str] = set()
    for stmt in statements:
        if stmt[0] == "nba" and stmt[1][0] == "id":
            out.add(stmt[1][1])
        elif stmt[0] == "if":
            out |= _always_assigned(stmt[2]) & _always_assigned(stmt[3])
    return out


def _blocking_names(statements, out: dict[str, None]) -> dict[str, None]:
    """Loop variables (blocking-assignment targets), in first-use order."""
    for stmt in statements:
        kind = stmt[0]
        if kind == "blocking":
            out.setdefault(stmt[1])
        elif kind == "if":
            _blocking_names(stmt[2], out)
            _blocking_names(stmt[3], out)
        elif kind == "for":
            _blocking_names((stmt[1], stmt[3]) + tuple(stmt[4]), out)
    return out


class _StepCompiler:
    """Generates the Python source of one netlist's step function or
    stream runner.

    Signals live in locals ``v<i>`` and arrays in ``a<i>``, loaded from
    the simulator's dicts on entry and stored back on exit.  Every process
    reads pre-edge state: a register's non-blocking assignments write its
    temporary ``n<i>``, committed after every process ran.  Array writes
    with constant indices and delay-line loops at process top level
    commit statically in program order; an array written anywhere else
    queues ``(value, index)`` pairs in ``q<i>``.  With ``rings``, each
    array :meth:`_delay_lines` finds is a ``deque`` whose head write
    commits as one ``appendleft`` and whose shift loop emits nothing.
    """

    def __init__(self, netlist: Netlist, rings: bool = False):
        self.netlist = netlist
        self.widths = netlist.widths
        self.arrays = netlist.arrays
        self.local = {name: f"v{i}" for i, name in enumerate(netlist.widths)}
        self.array_local = {name: f"a{i}" for i, name in enumerate(netlist.arrays)}
        self.temps = 0
        #: loop variables of the process being compiled -> their locals
        self.env: dict[str, str] = {}
        #: loop variables definitely assigned at the point being compiled
        self.assigned: set[str] = set()
        #: loop variables read where they may not be assigned yet
        self.read_unassigned: set[str] = set()
        #: loop variables -> body lines storing a shift loop's final value
        #: that nothing has read since (dropped when the process ends)
        self.finals: dict[str, list[int]] = {}
        self.registers: dict[str, None] = {}
        self.queued: set[str] = set()
        always: set[str] = set()
        for process in netlist.processes:
            self._scan(process.statements, top=True)
            always |= _always_assigned(process.statements)
        self.next_local = {name: f"n{i}" for i, name in enumerate(
            n for n in self.registers if n in self.widths)}
        self.next_init = [n for n in self.next_local if n not in always]
        self.queue_local = {n: f"q{i}" for i, n in enumerate(self.arrays)
                            if n in self.queued}
        #: delay lines held as deques (the runner keeps arrays across cycles)
        self.rings: set[str] = self._delay_lines() if rings else set()

    def _scan(self, statements, top: bool) -> None:
        """Note every scalar NBA target, and every array written other than
        at a constant index or by a delay-line loop at process top level."""
        for stmt in statements:
            kind = stmt[0]
            if kind == "nba":
                target = stmt[1]
                if target[0] == "id":
                    self.registers.setdefault(target[1])
                elif not (top and target[2][0] == "const"):
                    self.queued.add(target[1])
            elif kind == "if":
                self._scan(stmt[2] + stmt[3], top=False)
            elif kind == "for" and not (top and self._shift_loop(stmt)):
                self._scan(stmt[4], top=False)

    def _shift_loop(self, stmt) -> _ShiftLoop | None:
        """Match ``for (i = c0; i < c1; i = i + 1) dst[i+j] <= src[i+k];``
        with both index runs inside their arrays."""
        _, init, cond, update, body = stmt
        var = init[1]
        if (init[2][0] != "const" or cond[0] != "binary"
                or cond[1] not in ("<", "<=") or cond[2] != ("id", var)
                or cond[3][0] != "const" or update[1] != var
                or _loop_offset(update[2], var) != 1
                or len(body) != 1 or body[0][0] != "nba"):
            return None
        target, value = body[0][1], body[0][2]
        if target[0] != "index" or value[0] != "index":
            return None
        dst, src = target[1], value[1]
        if dst not in self.arrays or src not in self.arrays:
            return None
        dst_offset = _loop_offset(target[2], var)
        src_offset = _loop_offset(value[2], var)
        if dst_offset is None or src_offset is None:
            return None
        if self.arrays[src][0] > self.arrays[dst][0]:
            return None  # values would need masking on the way
        start = init[2][1]
        stop = cond[3][1] + (1 if cond[1] == "<=" else 0)
        count = max(0, stop - start)
        loop = _ShiftLoop(var, dst, start + dst_offset, src, start + src_offset,
                          count, max(start, stop))
        if count and not (
                0 <= loop.target_start and loop.target_start + count <= self.arrays[dst][1]
                and 0 <= loop.source_start
                and loop.source_start + count <= self.arrays[src][1]):
            return None
        return loop

    def _delay_lines(self) -> set[str]:
        """Arrays written only by one unconditional top-level ``a[0] <= x``
        and one top-level loop shifting ``a[1:N] <= a[0:N-1]``, and read
        only at constant indices: each cycle pushes one word in at the
        front, which a ``deque(maxlen=N)`` does with one ``appendleft``."""
        heads: dict[str, int] = {}
        shifts: dict[str, int] = {}
        barred: set[str] = set()

        def statements(stmts, top: bool) -> None:
            for stmt in stmts:
                kind = stmt[0]
                if kind == "nba":
                    target = stmt[1]
                    if target[0] == "index":
                        _dynamic_reads(target[2], barred)
                        if top and target[2][0] == "const" and target[2][1] == 0:
                            heads[target[1]] = heads.get(target[1], 0) + 1
                        else:
                            barred.add(target[1])
                    _dynamic_reads(stmt[2], barred)
                elif kind == "blocking":
                    _dynamic_reads(stmt[2], barred)
                elif kind == "if":
                    _dynamic_reads(stmt[1], barred)
                    statements(stmt[2] + stmt[3], False)
                elif kind == "for":
                    loop = self._shift_loop(stmt) if top else None
                    if loop is None:
                        _, init, cond, update, body = stmt
                        for expr in (init[2], cond, update[2]):
                            _dynamic_reads(expr, barred)
                        statements(body, False)
                    elif (loop.source == loop.target and loop.target_start == 1
                          and loop.source_start == 0
                          and loop.count == self.arrays[loop.target][1] - 1):
                        shifts[loop.target] = shifts.get(loop.target, 0) + 1
                    else:  # a slice copy reads its source as a list
                        barred.update((loop.source, loop.target))

        for assign in self.netlist.assigns:
            _dynamic_reads(assign.expr, barred)
        for process in self.netlist.processes:
            statements(process.statements, True)
        return {name for name in self.arrays if name not in barred
                and heads.get(name) == 1 and shifts.get(name) == 1}

    # -- expressions -----------------------------------------------------
    def temp(self, prefix: str = "t") -> str:
        self.temps += 1
        return f"{prefix}{self.temps}"

    def width(self, expr: Expr) -> int:
        """Self-determined width of ``expr``; unsized constants, loop
        variables and undeclared names count as 32 bits."""
        kind = expr[0]
        if kind == "const":
            return expr[2] or 32
        if kind == "id":
            return self.widths.get(expr[1], 32)
        if kind == "index":
            return self.arrays[expr[1]][0] if expr[1] in self.arrays else 1
        if kind == "slice":
            return expr[2] - expr[3] + 1
        if kind == "concat":
            return sum(self.width(part) for part in expr[1])
        if kind in ("unary", "signed"):
            return self.width(expr[-1])
        if kind in ("binary", "ternary"):
            return max(self.width(expr[-2]), self.width(expr[-1]))
        return 32

    def masked(self, expr: Expr, width: int) -> str:
        """``expr`` truncated to ``width`` bits; a plain read of a signal
        or array element no wider than that needs no mask."""
        kind = expr[0]
        plain = ((kind == "id" and expr[1] in self.widths and expr[1] not in self.env)
                 or (kind == "index" and expr[1] in self.arrays))
        if plain and self.width(expr) <= width:
            return self.expr(expr)
        return f"({self.expr(expr)} & {(1 << width) - 1})"

    def signed(self, expr: Expr) -> str:
        """``expr`` reinterpreted as a two's-complement number of its width."""
        width = self.width(expr)
        sign = 1 << (width - 1)
        return f"(({self.masked(expr, width)} ^ {sign}) - {sign})"

    def read(self, name: str) -> str:
        local = self.env.get(name)
        if local is not None:
            self.finals.pop(name, None)
            if name in self.assigned:
                return local
            # before its assignment a loop variable reads as its signal
            self.read_unassigned.add(name)
            if name in self.widths:
                return local
            return f"({local} if {local} is not None else _undriven({name!r}))"
        if name in self.widths:
            return self.local[name]
        return f"_undriven({name!r})"

    def expr(self, expr: Expr) -> str:
        kind = expr[0]
        if kind == "const":
            return repr(expr[1])
        if kind == "id":
            return self.read(expr[1])
        if kind == "index":
            name, index = expr[1], expr[2]
            if name not in self.arrays:
                return f"(({self.read(name)} >> {self.expr(index)}) & 1)"
            data, size = self.array_local[name], self.arrays[name][1]
            if index[0] == "const":
                return f"{data}[{index[1]}]" if 0 <= index[1] < size else "0"
            t = self.temp()
            return f"({data}[{t}] if 0 <= ({t} := {self.expr(index)}) < {size} else 0)"
        if kind == "slice":
            _, name, msb, lsb = expr
            if msb < lsb:
                raise ElaborationError(f"part-select [{msb}:{lsb}] of {name!r}")
            value = self.read(name)
            if lsb:
                value = f"({value} >> {lsb})"
            return f"({value} & {(1 << (msb - lsb + 1)) - 1})"
        if kind == "concat":
            shift = self.width(expr)
            terms = []
            for part in expr[1]:
                width = self.width(part)
                shift -= width
                term = self.masked(part, width)
                terms.append(f"({term} << {shift})" if shift else term)
            return "(" + " | ".join(terms) + ")"
        if kind == "signed":
            return self.expr(expr[1])
        if kind == "unary":
            op, inner = expr[1], expr[2]
            if op == "~":
                return f"(~{self.expr(inner)} & {(1 << self.width(inner)) - 1})"
            if op == "-":
                return f"(-{self.expr(inner)})"
            return f"(0 if {self.expr(inner)} else 1)"
        if kind == "binary":
            return self._binary(expr)
        if kind == "ternary":
            return (f"({self.expr(expr[2])} if {self.expr(expr[1])} "
                    f"else {self.expr(expr[3])})")
        if kind == "call":
            if expr[1] not in _FUNCTIONAL_UNITS:
                message = (f"unknown functional unit {expr[1]!r} "
                           f"(supported: {sorted(_FUNCTIONAL_UNITS)})")
                return f"_fail({message!r})"
            return f"{expr[1]}({', '.join(self.expr(arg) for arg in expr[2])})"
        raise ElaborationError(f"unknown expression node {kind!r}")

    def _binary(self, expr: Expr) -> str:
        _, op, left, right = expr
        if op in _SIGNED_OPERATORS and "signed" in (left[0], right[0]):
            a, b = self.signed(left), self.signed(right)
        else:
            a, b = self.expr(left), self.expr(right)
        if op in _PLAIN_OPERATORS:
            return f"({a} {op} {b})"
        if op in _COMPARISONS:
            return f"(1 if {a} {op} {b} else 0)"
        if op == "/":
            return f"_truncdiv({a}, {b})"
        if op == "%":
            return f"_truncmod({a}, {b})"
        if op in ("&&", "||"):
            # both sides evaluate, as in the hardware (no short circuit)
            join = "&" if op == "&&" else "|"
            return f"(1 if ({a} != 0) {join} ({b} != 0) else 0)"
        if op == ">>":
            # a negative value shifts as its 64-bit two's complement
            t = self.temp()
            return (f"(({t} >> {b}) if ({t} := {a}) >= 0 "
                    f"else (({t} & {(1 << 64) - 1}) >> {b}))")
        if op == ">>>":
            return f"({self.signed(left) if left[0] == 'signed' else a} >> {b})"
        raise ElaborationError(f"unknown operator {op!r}")

    # -- statements ------------------------------------------------------
    def statements(self, statements, depth: int, top: bool, out: list[str]) -> None:
        pad = "    " * depth
        if not statements:
            out.append(pad + "pass")
        for stmt in statements:
            kind = stmt[0]
            if kind == "nba":
                self.nba(stmt, pad, out)
            elif kind == "blocking":
                out.append(f"{pad}{self.env[stmt[1]]} = {self.expr(stmt[2])}")
                self.assigned.add(stmt[1])
            elif kind == "if":
                before = set(self.assigned)
                out.append(f"{pad}if {self.expr(stmt[1])}:")
                self.statements(stmt[2], depth + 1, False, out)
                then, self.assigned = self.assigned, set(before)
                if stmt[3]:
                    out.append(pad + "else:")
                    self.statements(stmt[3], depth + 1, False, out)
                self.assigned = before | (then & self.assigned)
            elif kind == "for":
                self.loop(stmt, depth, top, out)
            else:
                raise ElaborationError(f"unknown statement {kind!r}")

    def nba(self, stmt, pad: str, out: list[str]) -> None:
        target, rhs = stmt[1], stmt[2]
        name = target[1]
        if target[0] == "id":
            if name not in self.widths:
                out.append(f"{pad}_fail({f'non-blocking assignment to undeclared {name!r}'!r})")
                return
            out.append(f"{pad}{self.next_local[name]} = {self.masked(rhs, self.widths[name])}")
            return
        if name not in self.arrays:
            out.append(f"{pad}_fail({f'element assignment to non-array {name!r}'!r})")
            return
        width, size = self.arrays[name]
        value = self.masked(rhs, width)
        if name in self.rings:  # a delay line's head: the line shifts with it
            t = self.temp()
            out.append(f"{pad}{t} = {value}")
            self.commits.append(f"{self.array_local[name]}.appendleft({t})")
            return
        if name in self.queued:
            out.append(f"{pad}{self.queue_local[name]}.append(({value}, "
                       f"{self.expr(target[2])}))")
            return
        index = target[2][1]
        if not 0 <= index < size:
            out.append(pad + value)  # evaluated, then dropped
        else:
            t = self.temp()
            out.append(f"{pad}{t} = {value}")
            self.commits.append(f"{self.array_local[name]}[{index}] = {t}")

    def loop(self, stmt, depth: int, top: bool, out: list[str]) -> None:
        pad = "    " * depth
        shift = self._shift_loop(stmt) if top else None
        # a delay line's shift is its head write's appendleft
        ring = shift is not None and shift.target in self.rings
        if ring or (shift is not None and shift.target not in self.queued):
            if shift.count and not ring:
                dst = (f"{self.array_local[shift.target]}[{shift.target_start}:"
                       f"{shift.target_start + shift.count}]")
                src = (f"{self.array_local[shift.source]}[{shift.source_start}:"
                       f"{shift.source_start + shift.count}]")
                t = self.temp()
                out.append(f"{pad}{t} = {src}")
                self.commits.append(f"{dst} = {t}")
            self.finals.setdefault(shift.var, []).append(len(out))
            out.append(f"{pad}{self.env[shift.var]} = {shift.final}")
            self.assigned.add(shift.var)
            return
        _, init, cond, update, body = stmt
        self.statements((init,), depth, False, out)
        before = set(self.assigned)
        guard = self.temp("g")
        out.append(f"{pad}{guard} = 0")
        out.append(f"{pad}while {self.expr(cond)}:")
        self.statements(tuple(body) + (update,), depth + 1, False, out)
        out.append(f"{pad}    {guard} += 1")
        out.append(f"{pad}    if {guard} > {MAX_LOOP_ITERATIONS}:")
        out.append(f"{pad}        _fail('runaway for loop')")
        self.assigned = before

    # -- functions -------------------------------------------------------
    def _settle(self, out: list[str]) -> list[str]:
        """Settle code; returns the declared targets it assigns."""
        targets = []
        for assign in self.netlist.assigns:
            name = assign.target
            if name not in self.widths:
                out.append(f"    _fail({f'assignment to undeclared {name!r}'!r})")
                continue
            out.append(f"    {self.local[name]} = {self.masked(assign.expr, self.widths[name])}")
            targets.append(name)
        return targets

    def _edge(self, out: list[str]) -> None:
        self.commits: list[str] = []
        for name in self.next_init:
            out.append(f"    {self.next_local[name]} = {self.local[name]}")
        for local in self.queue_local.values():
            out.append(f"    {local} = []")
        for index, process in enumerate(self.netlist.processes):
            self.env = {name: f"e{index}_{k}" for k, name in
                        enumerate(_blocking_names(process.statements, {}))}
            self.assigned, self.read_unassigned, self.finals = set(), set(), {}
            body: list[str] = []
            self.statements(process.statements, 1, True, body)
            dead = {line for lines in self.finals.values() for line in lines}
            body = [code for line, code in enumerate(body) if line not in dead]
            for name, local in self.env.items():
                if name in self.read_unassigned:
                    initial = self.local[name] if name in self.widths else None
                    out.append(f"    {local} = {initial}")
            out.extend(body)
        self.env = {}
        for name, local in self.next_local.items():
            self.commits.append(f"{self.local[name]} = {local}")
        out.extend("    " + line for line in self.commits)
        for name, local in self.queue_local.items():
            out.append(f"    for value, index in {local}:")
            out.append(f"        if 0 <= index < {self.arrays[name][1]}:")
            out.append(f"            {self.array_local[name]}[index] = value")

    def _function(self, name: str, body: list[str], stored: list[str]) -> list[str]:
        used = set(re.findall(r"\b[va]\d+\b", "\n".join(body)))
        head = [f"def {name}(values, arrays):"]
        head += [f"    {self.local[n]} = values[{n!r}]" for n in self.widths
                 if self.local[n] in used and n not in self.settled]
        head += [f"    {self.array_local[n]} = arrays[{n!r}]" for n in self.arrays
                 if self.array_local[n] in used]
        tail = [f"    values[{n!r}] = {self.local[n]}" for n in stored]
        return head + body + tail

    def sources(self) -> tuple[str, str]:
        """The source of ``step`` and of ``settle``."""
        settle: list[str] = []
        self.settled = self._settle(settle)
        step = list(settle)
        outputs = ", ".join(f"{n!r}: {self.read(n)}" for n in self.netlist.outputs)
        step.append(f"    sampled = {{{outputs}}}")
        self._edge(step)
        registers = [n for n in self.next_local if n not in self.settled]
        step = self._function("step", step, self.settled + registers)
        step.append("    return sampled")
        settle = self._function("settle", settle, self.settled)
        return "\n".join(step) + "\n", "\n".join(settle) + "\n"

    def runner(self) -> tuple[str, list[str], list[str]]:
        """The source of ``run``, the ports it drives from ``words`` and
        the output ports it collects (see :func:`compile_runner`)."""
        netlist, local = self.netlist, self.local
        driven = [n for n in netlist.inputs if n not in _CONTROL]
        collected = [n for n in netlist.outputs if n != "out_valid"]

        def inputs(control: tuple[int, int], word) -> list[str]:
            lines = [f"{local[n]} = {value & ((1 << self.widths[n]) - 1)}"
                     for n, value in zip(_CONTROL, control) if n in netlist.inputs]
            lines += [f"if _drive{i}: {local[n]} = {word(i, n)}"
                      for i, n in enumerate(driven)]
            return ["            " + line for line in lines or ["pass"]]

        cycle = ["        if _cycle < 0:"]
        cycle += inputs((1, 0), lambda i, n: 0)
        cycle.append("        elif _cycle < n_items:")
        cycle += inputs((0, 1), lambda i, n:
                        f"_word{i}[_cycle] & {(1 << self.widths[n]) - 1}")
        cycle.append("        else:")
        cycle += inputs((0, 0), lambda i, n: 0)
        body: list[str] = []
        settled = self._settle(body)
        # every cycle assigns these before reading them, and the loop
        # runs at least the 2 reset cycles, so they are never loaded
        assigned = {*settled, *(n for n in _CONTROL if n in netlist.inputs)}
        if "out_valid" in netlist.outputs:
            body.append(f"    if {self.read('out_valid')} and _cycle >= 0 "
                        "and _got < n_items:")
            body.append("        _hit(_cycle)")
            body += [f"        _put{i}({self.read(n)})"
                     for i, n in enumerate(collected)]
            body += ["        _got += 1", "        if _got == n_items:",
                     "            _stop = _cycle + 1 + drain"]
        self._edge(body)
        body.append("    _cycle += 1")
        cycle += ["    " + line for line in body]

        used = set(re.findall(r"\b[va]\d+\b", "\n".join(cycle)))
        signals = [n for n in self.widths if local[n] in used]
        arrays = [n for n in self.arrays if self.array_local[n] in used]
        head = ["def run(values, arrays, words, n_items, _stop, drain):"]
        head += [f"    {local[n]} = values[{n!r}]" for n in signals
                 if n not in assigned]
        for n in arrays:
            data = f"arrays[{n!r}]"
            if n in self.rings:
                data = f"_deque({data}, {self.arrays[n][1]})"
            head.append(f"    {self.array_local[n]} = {data}")
        for i in range(len(driven)):
            head += [f"    _word{i} = words[{i}]",
                     f"    _drive{i} = _word{i} is not None"]
        head += ["    _hits = []", "    _hit = _hits.append"]
        for i in range(len(collected)):
            head += [f"    _out{i} = []", f"    _put{i} = _out{i}.append"]
        head += ["    _got = 0", "    _cycle = -2", "    while _cycle < _stop:"]
        tail = [f"    values[{n!r}] = {local[n]}" for n in signals]
        tail += [f"    arrays[{n!r}][:] = {self.array_local[n]}"
                 for n in arrays if n in self.rings]
        outs = "".join(f"_out{i}, " for i in range(len(collected)))
        tail.append(f"    return _hits, ({outs})")
        return "\n".join(head + cycle + tail) + "\n", driven, collected


def _require_leaf(netlist: Netlist) -> None:
    if netlist.instances:
        raise ElaborationError(
            f"module {netlist.name!r} instantiates sub-modules; the "
            "pure-Python backend simulates leaf kernel modules")


def _define(name: str, function: str, source: str):
    """Compile generated ``source``; returns the function it defines."""
    namespace = dict(_RUNTIME)
    try:
        exec(compile(source, f"<netlist {name}>", "exec"), namespace)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ElaborationError(f"cannot compile netlist {name!r}: {exc}") from exc
    return namespace[function]


def _generate(netlist: Netlist, rings: bool, emit):
    """``emit`` applied to a fresh compiler of the leaf ``netlist``."""
    _require_leaf(netlist)
    try:
        return emit(_StepCompiler(netlist, rings))
    except RecursionError as exc:
        raise ElaborationError(
            f"cannot compile netlist {netlist.name!r}: {exc}") from exc


def compile_netlist(netlist: Netlist):
    """Compile ``netlist`` to one Python function performing a full step.

    ``step(values, arrays)`` reads the signal and array dicts of a
    :class:`NetlistSimulator` (inputs already applied), settles the
    continuous assigns, samples the outputs, runs the clock edge, writes
    the new state back into the dicts and returns the sampled outputs.
    Its ``settle`` attribute is the settle-only counterpart, compiled on
    its first call, and its ``source`` attribute the code of ``step``.
    Widths, masks and signedness are folded into the code; the design
    errors an interpreter would meet mid-cycle (an undriven signal, an
    unknown functional unit, a runaway loop) still raise
    :class:`ElaborationError` when that code runs.
    """
    name = netlist.name
    source, settle_source = _generate(netlist, False, _StepCompiler.sources)
    step = _define(name, "step", source)
    compiled = []

    def settle(values, arrays) -> None:
        if not compiled:
            compiled.append(_define(name, "settle", settle_source))
        compiled[0](values, arrays)

    step.settle = settle
    step.source = source
    return step


def compile_runner(netlist: Netlist):
    """Compile ``netlist`` to one Python function that streams a whole
    stimulus through it (what :meth:`NetlistSimulator.stream` calls).

    ``run(values, arrays, words, n_items, stop, drain)`` holds reset
    (``rst`` high) for 2 cycles, drives ``in_valid`` high for cycles
    ``0 .. n_items-1`` with each port of its ``driven`` attribute set to
    ``words[i][cycle]`` (or left alone where ``words[i]`` is None), then
    drives zeros.  It samples ``out_valid`` after each settle; while
    fewer than ``n_items`` have been seen, a high one records the cycle
    and the word on each port of its ``collected`` attribute.  It stops
    at cycle ``stop`` (at least 0: the reset cycles always run, which
    the generated loads rely on), or ``drain`` cycles after the ``n_items``-th
    output, writes every signal and array back into the dicts and
    returns ``(cycles, words per collected port)``.  One loop holds the
    settle-plus-edge code of :func:`compile_netlist`; signals stay in
    locals across cycles, input masks are folded in, and each delay
    line is a ``deque`` that shifts with one ``appendleft``.
    """
    source, driven, collected = _generate(netlist, True, _StepCompiler.runner)
    run = _define(netlist.name, "run", source)
    run.source, run.driven, run.collected = source, driven, collected
    return run


# ----------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------


class NetlistSimulator:
    """Two-phase (combinational settle, then clock edge) cycle simulation,
    run by the netlist's compiled functions.

    Registers and delay lines power up at zero — the deterministic
    counterpart of an event-driven simulator's ``x`` state after the
    generated testbench's reset-and-flush preamble.  Building one
    compiles the netlist's stream runner if no earlier simulator did;
    the per-cycle step function compiles on the first :meth:`step` or
    :meth:`settle` of any simulator of the netlist.
    """

    def __init__(self, netlist: Netlist):
        _require_leaf(netlist)
        self.netlist = netlist
        self.values: dict[str, int] = {name: 0 for name in netlist.widths}
        self.arrays: dict[str, list[int]] = {
            name: [0] * size for name, (_, size) in netlist.arrays.items()
        }
        self._masks = {name: (1 << w) - 1 for name, w in netlist.widths.items()}
        if netlist.compiled_runner is None:
            netlist.compiled_runner = compile_runner(netlist)

    def _compiled_step(self):
        if self.netlist.compiled_step is None:
            self.netlist.compiled_step = compile_netlist(self.netlist)
        return self.netlist.compiled_step

    def settle(self) -> None:
        """Propagate the continuous assignments (combinational settle)."""
        self._compiled_step().settle(self.values, self.arrays)

    def step(self, inputs: dict[str, int]) -> dict[str, int]:
        """Advance one clock cycle.

        Applies ``inputs``, settles the combinational network, samples
        every output port (the values an observer sees *during* this
        cycle) and then performs the clock edge: every process evaluates
        against pre-edge state and all non-blocking assignments commit
        together.  Returns the sampled outputs.
        """
        values, masks = self.values, self._masks
        for name, value in inputs.items():
            mask = masks.get(name)
            if mask is None:
                raise ElaborationError(f"unknown input {name!r}")
            values[name] = value & mask
        return self._compiled_step()(values, self.arrays)

    def stream(self, words: dict[str, list[int]], n_items: int, budget: int,
               drain_cycles: int) -> tuple[list[int], dict[str, list[int]]]:
        """Drive one stream of work items, as the generated testbench does.

        Holds ``rst`` high for 2 cycles, then drives ``in_valid`` high
        and each port of ``words`` (inputs other than ``rst`` and
        ``in_valid``) with its word for cycles ``0 .. n_items-1``
        (counted from reset release), then drives zeros.
        Every cycle on which ``out_valid`` is high, until ``n_items``
        such cycles, is collected with the word on every other output
        port; ``drain_cycles`` idle cycles follow the last one, so
        registers scheduled deeper than the output stage commit.
        Returns the collected cycles and output port -> words; fewer
        than ``n_items`` cycles means ``budget`` cycles passed first
        (and nothing drained).
        """
        inputs = self.netlist.inputs
        for name in (*_CONTROL, *words):
            if name not in inputs:
                raise ElaborationError(f"unknown input {name!r}")
        run = self.netlist.compiled_runner
        cycles, outputs = run(self.values, self.arrays,
                              [words.get(port) for port in run.driven],
                              n_items, max(0, budget), max(0, drain_cycles))
        return cycles, dict(zip(run.collected, outputs))


# ----------------------------------------------------------------------
# Structural lint
# ----------------------------------------------------------------------


def lint_module(module: VerilogModule) -> list[str]:
    """Structural checks over one parsed module; returns violations.

    Parsing already guarantees legal identifiers and balanced
    ``begin``/``end``; this adds declared-before-use and single-driver
    checks in source order, which is what catches a generator emitting a
    wire below its first consumer.
    """
    problems: list[str] = []
    declared: set[str] = {p.name for p in module.ports}
    drivers: dict[str, int] = {}

    def check_uses(expr: Expr, where: str) -> None:
        for name in sorted(_expr_identifiers(expr)):
            if name not in declared:
                problems.append(f"{module.name}: {where} uses undeclared {name!r}")

    def note_driver(name: str, where: str) -> None:
        drivers[name] = drivers.get(name, 0) + 1
        if drivers[name] == 2:
            problems.append(f"{module.name}: {name!r} has multiple drivers ({where})")

    def scan_statements(statements, where: str, nba_targets: set[str]) -> None:
        for stmt in statements:
            kind = stmt[0]
            if kind == "nba":
                target, rhs = stmt[1], stmt[2]
                check_uses(rhs, where)
                if target[0] == "index":
                    check_uses(stmt[1][2], where)
                nba_targets.add(target[1])
                if target[1] not in declared:
                    problems.append(
                        f"{module.name}: {where} assigns undeclared {target[1]!r}")
            elif kind == "blocking":
                check_uses(stmt[2], where)
            elif kind == "if":
                check_uses(stmt[1], where)
                scan_statements(stmt[2], where, nba_targets)
                scan_statements(stmt[3], where, nba_targets)
            elif kind == "for":
                check_uses(stmt[1][2], where)
                check_uses(stmt[2], where)
                check_uses(stmt[3][2], where)
                scan_statements(stmt[4], where, nba_targets)

    for item in module.items:
        if isinstance(item, NetDecl) or isinstance(item, ArrayDecl):
            if item.name in declared:
                problems.append(f"{module.name}: {item.name!r} declared twice")
            declared.add(item.name)
        elif isinstance(item, ContinuousAssign):
            check_uses(item.expr, f"assign to {item.target!r}")
            if item.target not in declared:
                problems.append(
                    f"{module.name}: assignment to undeclared {item.target!r}")
            note_driver(item.target, "continuous assign")
        elif isinstance(item, AlwaysBlock):
            where = f"always block at line {item.line}"
            targets: set[str] = set()
            scan_statements(item.statements, where, targets)
            # a signal may be assigned several times inside ONE process
            # (reset/else branches); a second *process* or a continuous
            # assign driving it is a race
            for name in sorted(targets):
                note_driver(name, where)
        elif isinstance(item, Instance):
            for port, expr in item.connections:
                check_uses(expr, f"instance {item.name!r} port .{port}")
    return problems
