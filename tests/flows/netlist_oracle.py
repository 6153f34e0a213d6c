"""The recursive netlist interpreter, kept as a test oracle.

:class:`InterpretedSimulator` walks the parsed expression and statement
tuples on every cycle, straight from the Verilog semantics: continuous
assigns settle in topological order, every process evaluates against
pre-edge state, and the non-blocking assignments commit together in
program order.  It is slow, and it is deliberately simple, so the
compiled simulator in :mod:`repro.flows.netlist` is checked against it
cycle for cycle (``test_netlist_compile.py``) and timed against it
(``benchmarks/test_flow_throughput.py``).

:func:`drive_stream` is the per-cycle testbench loop the compiled stream
runner replaced: it drives any simulator with a ``step`` method one
cycle at a time, and is :class:`InterpretedSimulator`'s ``stream``.
"""

from __future__ import annotations

from repro.flows.netlist import _FUNCTIONAL_UNITS, ElaborationError, Netlist
from repro.flows.numeric import as_signed, truncdiv
from repro.flows.verilog import Expr

__all__ = ["InterpretedSimulator", "drive_stream"]


def drive_stream(sim, words: dict[str, list[int]], n_items: int, budget: int,
                 drain_cycles: int) -> tuple[list[int], dict[str, list[int]]]:
    """:meth:`repro.flows.netlist.NetlistSimulator.stream`, one
    ``sim.step`` per cycle: 2 reset cycles, ``n_items`` driven cycles, a
    zero-driven tail until ``n_items`` outputs or ``budget`` cycles, then
    ``drain_cycles`` idle cycles after a complete stream."""
    for name in ("rst", "in_valid", *words):
        if name not in sim.netlist.inputs:
            raise ElaborationError(f"unknown input {name!r}")
    ports = [p for p in sim.netlist.outputs if p != "out_valid"]
    idle = {"rst": 1, "in_valid": 0, **{port: 0 for port in words}}
    for _ in range(2):
        sim.step(idle)
    cycles: list[int] = []
    outputs: dict[str, list[int]] = {port: [] for port in ports}
    cycle = 0
    while len(cycles) < n_items and cycle < budget:
        driving = cycle < n_items
        inputs = {"rst": 0, "in_valid": 1 if driving else 0}
        for port, data in words.items():
            inputs[port] = data[cycle] if driving else 0
        sampled = sim.step(inputs)
        if sampled.get("out_valid"):
            cycles.append(cycle)
            for port in ports:
                outputs[port].append(sampled[port])
        cycle += 1
    if len(cycles) == n_items:
        idle = {"rst": 0, "in_valid": 0, **{port: 0 for port in words}}
        for _ in range(max(0, drain_cycles)):
            sim.step(idle)
    return cycles, outputs


class InterpretedSimulator:
    """Two-phase (combinational settle, then clock edge) cycle simulation
    by recursive interpretation of the expression and statement tuples.

    Registers and delay lines power up at zero — the deterministic
    counterpart of an event-driven simulator's ``x`` state after the
    generated testbench's reset-and-flush preamble.
    """

    def __init__(self, netlist: Netlist):
        if netlist.instances:
            raise ElaborationError(
                f"module {netlist.name!r} instantiates sub-modules; the "
                "pure-Python backend simulates leaf kernel modules")
        self.netlist = netlist
        self.values: dict[str, int] = {name: 0 for name in netlist.widths}
        self.arrays: dict[str, list[int]] = {
            name: [0] * size for name, (_, size) in netlist.arrays.items()
        }
        self._masks = {name: (1 << w) - 1 for name, w in netlist.widths.items()}
        self._array_masks = {name: (1 << w) - 1
                             for name, (w, _) in netlist.arrays.items()}

    # -- expression evaluation ------------------------------------------
    def _width_of(self, expr: Expr) -> int:
        kind = expr[0]
        if kind == "const":
            return expr[2] or 32
        if kind == "id":
            return self.netlist.widths.get(expr[1], 32)
        if kind == "index":
            name = expr[1]
            if name in self.netlist.arrays:
                return self.netlist.arrays[name][0]
            return 1
        if kind == "slice":
            return expr[2] - expr[3] + 1
        if kind == "concat":
            return sum(self._width_of(part) for part in expr[1])
        if kind in ("unary", "signed"):
            return self._width_of(expr[-1])
        if kind in ("binary", "ternary"):
            return max(self._width_of(expr[-2]), self._width_of(expr[-1]))
        return 32

    def _eval(self, expr: Expr, env: dict[str, int] | None = None) -> int:
        kind = expr[0]
        if kind == "const":
            return expr[1]
        if kind == "id":
            name = expr[1]
            if env is not None and name in env:
                return env[name]
            try:
                return self.values[name]
            except KeyError as exc:
                raise ElaborationError(f"undriven signal {name!r}") from exc
        if kind == "index":
            name = expr[1]
            index = self._eval(expr[2], env)
            if name in self.arrays:
                data = self.arrays[name]
                return data[index] if 0 <= index < len(data) else 0
            value = env[name] if env is not None and name in env else self.values[name]
            return (value >> index) & 1
        if kind == "slice":
            _, name, msb, lsb = expr
            value = env[name] if env is not None and name in env else self.values[name]
            return (value >> lsb) & ((1 << (msb - lsb + 1)) - 1)
        if kind == "concat":
            value = 0
            for part in expr[1]:
                width = self._width_of(part)
                value = (value << width) | (self._eval(part, env) & ((1 << width) - 1))
            return value
        if kind == "signed":
            return self._eval(expr[1], env)
        if kind == "unary":
            op, inner = expr[1], expr[2]
            value = self._eval(inner, env)
            if op == "~":
                width = self._width_of(inner)
                return (~value) & ((1 << width) - 1)
            if op == "-":
                return -value
            return 0 if value else 1  # '!'
        if kind == "binary":
            return self._eval_binary(expr, env)
        if kind == "ternary":
            return (self._eval(expr[2], env) if self._eval(expr[1], env)
                    else self._eval(expr[3], env))
        if kind == "call":
            fn = _FUNCTIONAL_UNITS.get(expr[1])
            if fn is None:
                raise ElaborationError(
                    f"unknown functional unit {expr[1]!r} (supported: "
                    f"{sorted(_FUNCTIONAL_UNITS)})")
            return fn(*[self._eval(a, env) for a in expr[2]])
        raise ElaborationError(f"unknown expression node {kind!r}")  # pragma: no cover

    def _eval_binary(self, expr: Expr, env: dict[str, int] | None) -> int:
        _, op, left, right = expr
        # signedness follows Verilog: a comparison/division/shift is
        # signed only when its operands are $signed
        if op in ("<", "<=", ">", ">=", "/", "%") and (
                left[0] == "signed" or right[0] == "signed"):
            a = as_signed(self._eval(left, env) & ((1 << self._width_of(left)) - 1),
                                self._width_of(left))
            b = as_signed(self._eval(right, env) & ((1 << self._width_of(right)) - 1),
                                self._width_of(right))
        else:
            a = self._eval(left, env)
            b = self._eval(right, env)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return truncdiv(a, b)
        if op == "%":
            if b == 0:
                return 0
            return a - b * truncdiv(a, b)
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "&&":
            return 1 if (a and b) else 0
        if op == "||":
            return 1 if (a or b) else 0
        if op == "==":
            return 1 if a == b else 0
        if op == "!=":
            return 1 if a != b else 0
        if op == "<":
            return 1 if a < b else 0
        if op == "<=":
            return 1 if a <= b else 0
        if op == ">":
            return 1 if a > b else 0
        if op == ">=":
            return 1 if a >= b else 0
        if op == "<<":
            return a << b
        if op == ">>":
            return a >> b if a >= 0 else (a & ((1 << 64) - 1)) >> b
        if op == ">>>":
            if left[0] == "signed":
                a = as_signed(a & ((1 << self._width_of(left)) - 1),
                                    self._width_of(left))
                return a >> b
            return a >> b
        raise ElaborationError(f"unknown operator {op!r}")  # pragma: no cover

    # -- statement interpretation ---------------------------------------
    def _run_statements(self, statements, env: dict[str, int], nba: list) -> None:
        for stmt in statements:
            kind = stmt[0]
            if kind == "nba":
                target, rhs = stmt[1], stmt[2]
                value = self._eval(rhs, env)
                if target[0] == "id":
                    nba.append((target[1], None, value))
                else:  # ("index", name, index_expr)
                    nba.append((target[1], self._eval(target[2], env), value))
            elif kind == "blocking":
                env[stmt[1]] = self._eval(stmt[2], env)
            elif kind == "if":
                branch = stmt[2] if self._eval(stmt[1], env) else stmt[3]
                self._run_statements(branch, env, nba)
            elif kind == "for":
                init, cond, update, body = stmt[1], stmt[2], stmt[3], stmt[4]
                env[init[1]] = self._eval(init[2], env)
                guard = 0
                while self._eval(cond, env):
                    self._run_statements(body, env, nba)
                    env[update[1]] = self._eval(update[2], env)
                    guard += 1
                    if guard > 1_000_000:  # pragma: no cover - defensive
                        raise ElaborationError("runaway for loop")
            else:  # pragma: no cover - defensive
                raise ElaborationError(f"unknown statement {kind!r}")

    # -- public stepping -------------------------------------------------
    def settle(self) -> None:
        """Propagate the continuous assignments (combinational settle)."""
        for assign in self.netlist.assigns:
            width_mask = self._masks.get(assign.target)
            if width_mask is None:
                raise ElaborationError(f"assignment to undeclared {assign.target!r}")
            self.values[assign.target] = self._eval(assign.expr) & width_mask

    def step(self, inputs: dict[str, int]) -> dict[str, int]:
        """Advance one clock cycle.

        Applies ``inputs``, settles the combinational network, samples
        every output port (the values an observer sees *during* this
        cycle) and then performs the clock edge.  Returns the sampled
        outputs.
        """
        for name, value in inputs.items():
            if name not in self.values:
                raise ElaborationError(f"unknown input {name!r}")
            self.values[name] = value & self._masks[name]
        self.settle()
        sampled = {name: self.values[name] for name in self.netlist.outputs}

        # clock edge: every process evaluates against pre-edge state, all
        # non-blocking assignments commit together
        nba: list[tuple[str, int | None, int]] = []
        for process in self.netlist.processes:
            env: dict[str, int] = {}
            self._run_statements(process.statements, env, nba)
        for name, index, value in nba:
            if index is None:
                self.values[name] = value & self._masks[name]
            else:
                data = self.arrays[name]
                if 0 <= index < len(data):
                    data[index] = value & self._array_masks[name]
        return sampled

    stream = drive_stream

