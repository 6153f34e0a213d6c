"""Verilog code generation for scheduled TyTra pipelines.

The generator follows the structure of Figure 11's code-generation flow
and Figure 13's datapath illustration:

* one Verilog module per leaf ``pipe``/``comb`` function: a streaming
  datapath with one pipeline register stage per schedule latency cycle,
  valid hand-shaking, offset buffers realised as shift registers, operand
  balancing delay lines (Figure 13's pass-through buffers) and a reduction
  register for every global accumulator;
* a *compute unit* module instantiating ``KNL`` lanes of the kernel
  pipeline plus the stream-control address generators;
* a configuration include file recording the design parameters.

The emitted RTL is *cycle- and bit-faithful* to the scheduled datapath:

* every stream offset ``o`` is aligned to the same work item — with
  ``window`` the largest positive resolved offset, the base streams are
  delayed by ``window`` cycles and an offset-``o`` stream by
  ``window - o`` cycles, so at any cycle every operand wire carries data
  of one and the same item (the delay lines double as Figure 13's offset
  buffers);
* every instruction occupies exactly its scheduled latency in register
  stages, and operands consumed later than they are produced pass through
  balancing delay lines of the slack length;
* ``out_valid`` tracks the true input-to-output register count, and each
  reduction register updates exactly once per valid item, at the cycle
  its operand carries that item.

The closed loop back from this text is the flow-orchestration subsystem
(:mod:`repro.flows`), which elaborates the emitted subset into a
structural netlist, cycle-simulates it against the kernel's Python
reference semantics and checks the cycle counts against the
:class:`~repro.substrate.pipeline_sim.PipelineSimulator`.
"""

from __future__ import annotations

from repro import field, record
from repro.compiler.scheduling import (
    OperatorLatencyModel,
    ScheduledPipeline,
    schedule_module,
)
from repro.cost.resource_model import ModuleStructure
from repro.ir.functions import FunctionKind, IRFunction, Module
from repro.ir.instructions import Instruction, OperandKind, decode_predicate

__all__ = ["VerilogGenerator", "RTLGeometry"]


_BINARY_OPERATORS = {
    "add": "+", "sub": "-", "mul": "*",
    "and": "&", "or": "|", "xor": "^",
    "shl": "<<", "lshr": ">>",
    "fadd": "+", "fsub": "-", "fmul": "*",
}

#: division-family opcodes and whether they are inherently signed
#: (None = follow the operand type's signedness)
_DIVISION_OPERATORS = {
    "div": ("/", None), "udiv": ("/", False), "sdiv": ("/", True),
    "fdiv": ("/", None), "rem": ("%", None), "urem": ("%", False),
}

#: comparison predicate -> Verilog relational operator.  ``icmp``/``fcmp``
#: without a predicate default to ``lt`` (the historical behaviour); the
#: ``u*``/``s*`` forms pin the signedness, the bare forms take it from the
#: operand type.
_PREDICATE_OPERATORS = {
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}


def _sanitize(name: str) -> str:
    """Make an SSA name a legal Verilog identifier."""
    out = name.replace(".", "_")
    if out and out[0].isdigit():
        out = "v" + out
    return out


@record(frozen=True)
class RTLGeometry:
    """Timing geometry of one generated kernel pipeline module.

    ``window`` is the largest positive resolved stream offset — the input
    delay that aligns every offset stream onto the same work item.
    ``datapath_depth`` is the register count of the deepest input-to-output
    path *after* the alignment stage; ``latency`` is their sum: the cycle
    at which item ``i``'s output emerges is ``i + latency`` (with inputs
    issued one per cycle from cycle 0).  Shared by the testbench generator
    (run length) and the RTL flows (cycle-agreement gates).
    """

    function: str
    window: int
    datapath_depth: int
    schedule_depth: int

    @property
    def latency(self) -> int:
        return self.window + self.datapath_depth

    @property
    def out_valid_index(self) -> int:
        """Bit of the valid shift register that gates the outputs
        (negative = outputs are combinational on ``in_valid``)."""
        return self.latency - 1


@record
class VerilogGenerator:
    """Generate Verilog for a TyTra-IR module."""

    module: Module
    latency_model: OperatorLatencyModel = field(default_factory=OperatorLatencyModel)
    schedules: dict[str, ScheduledPipeline] = field(default_factory=dict)
    structure: ModuleStructure | None = None

    def __post_init__(self) -> None:
        if not self.schedules:
            self.schedules = schedule_module(self.module, self.latency_model)
        if self.structure is None:
            self.structure = ModuleStructure.from_module(self.module)

    # ------------------------------------------------------------------
    # Timing geometry
    # ------------------------------------------------------------------
    def _timing(self, func: IRFunction, schedule: ScheduledPipeline):
        """Per-value availability times and latencies of one datapath.

        Returns ``(avail, lats, window)`` where ``avail[name]`` is the
        cycle (relative to the aligned input stage) at which ``w_<name>``
        carries a given item's value, and ``lats[name]`` the register
        stages instruction ``name`` occupies (0 = combinational).
        """
        resolved = {off.result: self.module.resolve_offset(off.offset)
                    for off in func.offsets()}
        window = max([0] + [o for o in resolved.values() if o > 0])

        avail: dict[str, int] = {name: 0 for _, name in func.args}
        avail.update({name: 0 for name in resolved})
        lats: dict[str, int] = {}
        comb = func.kind is FunctionKind.COMB
        for instr in func.instructions():
            if comb:
                start, lat = 0, 0
            else:
                start = schedule.start_cycles.get(instr.result, 0)
                lat = schedule.latencies.get(
                    instr.result,
                    self.latency_model.latency(instr.opcode, instr.result_type.width),
                )
            lats[instr.result] = lat
            avail[instr.result] = start + lat
        return avail, lats, window

    def _geometry_from(self, func: IRFunction, schedule: ScheduledPipeline,
                       avail: dict[str, int], window: int) -> RTLGeometry:
        """Assemble the geometry from precomputed timing — the one owner
        of the output-depth definition, shared by :meth:`geometry` and
        :meth:`generate_kernel`."""
        out_names = self._output_ports(func)
        depth = max([0] + [avail[name] for name in out_names if name in avail])
        return RTLGeometry(
            function=func.name,
            window=window,
            datapath_depth=depth,
            schedule_depth=schedule.pipeline_depth,
        )

    def geometry(self, func: IRFunction | str) -> RTLGeometry:
        """The timing geometry of one leaf function's generated module."""
        if isinstance(func, str):
            func = self.module.get_function(func)
        schedule = self.schedules.get(func.name)
        if schedule is None:
            raise ValueError(
                f"function @{func.name} has no schedule (is it a leaf datapath?)")
        avail, _, window = self._timing(func, schedule)
        return self._geometry_from(func, schedule, avail, window)

    def _output_ports(self, func: IRFunction) -> list[str]:
        return [p.port for p in self.module.port_declarations
                if p.function == func.name and p.direction.value == "ostream"]

    # ------------------------------------------------------------------
    # Expression rendering
    # ------------------------------------------------------------------
    def _compare_expression(self, instr: Instruction, ops: list[str]) -> str:
        signed, base = decode_predicate(instr.predicate, instr.result_type.is_signed)
        op = _PREDICATE_OPERATORS[base]
        a, b = ops
        if signed:
            a, b = f"$signed({a})", f"$signed({b})"
        return f"({a} {op} {b}) ? 1'b1 : 1'b0"

    def _instruction_expression(self, instr: Instruction, ops: list[str]) -> str:
        opcode = instr.opcode
        signed = instr.result_type.is_signed
        width = instr.result_type.width

        def s(text: str) -> str:
            return f"$signed({text})" if signed else text

        if opcode in _BINARY_OPERATORS:
            return f"{ops[0]} {_BINARY_OPERATORS[opcode]} {ops[1]}"
        if opcode in _DIVISION_OPERATORS:
            # zero-guarded divider: deterministic across every simulator
            # (real Verilog yields x on division by zero)
            operator, force_signed = _DIVISION_OPERATORS[opcode]
            wrap = (lambda t: f"$signed({t})") if (
                force_signed if force_signed is not None else signed) else (lambda t: t)
            return (f"({ops[1]} == 0) ? {width}'d0 : "
                    f"{wrap(ops[0])} {operator} {wrap(ops[1])}")
        if opcode == "ashr":
            # '>>>' only shifts arithmetically when its operand is signed
            return f"{s(ops[0])} >>> {ops[1]}"
        if opcode in ("icmp", "fcmp"):
            return self._compare_expression(instr, ops)
        if opcode == "select":
            return f"{ops[0]} ? {ops[1]} : {ops[2]}"
        if opcode == "min":
            return f"({s(ops[0])} < {s(ops[1])}) ? {ops[0]} : {ops[1]}"
        if opcode == "max":
            return f"({s(ops[0])} > {s(ops[1])}) ? {ops[0]} : {ops[1]}"
        if opcode == "abs":
            if signed:
                return (f"($signed({ops[0]}) < $signed({width}'d0)) ? "
                        f"-{ops[0]} : {ops[0]}")
            return ops[0]  # |x| of an unsigned value is x
        if opcode == "not":
            return f"~{ops[0]}"
        if opcode in ("mov", "trunc", "zext", "sext"):
            return ops[0]
        if opcode in ("sqrt", "fsqrt", "fexp", "flog"):
            return f"fu_{opcode}({ops[0]})"
        if opcode == "mac":
            return f"{ops[0]} * {ops[1]} + {ops[2]}"
        return " /* unsupported */ " + " , ".join(ops)  # pragma: no cover - defensive

    # ------------------------------------------------------------------
    # Kernel pipeline module
    # ------------------------------------------------------------------
    def generate_kernel(self, func: IRFunction) -> str:
        """Emit the Verilog module for one leaf datapath function."""
        schedule = self.schedules.get(func.name)
        if schedule is None:
            raise ValueError(f"function @{func.name} has no schedule (is it a leaf datapath?)")

        avail, lats, window = self._timing(func, schedule)
        comb = func.kind is FunctionKind.COMB
        widths: dict[str, int] = {name: ty.width for ty, name in func.args}
        for off in func.offsets():
            widths[off.result] = off.result_type.width
        for instr in func.instructions():
            widths[instr.result] = instr.result_type.width

        out_ports = self._output_ports(func)
        geometry = self._geometry_from(func, schedule, avail, window)
        out_depth = geometry.datapath_depth

        lines: list[str] = []
        ports = ["input  wire clk", "input  wire rst", "input  wire in_valid",
                 "output wire out_valid"]
        for ty, name in func.args:
            ports.append(f"input  wire [{ty.width - 1}:0] s_{_sanitize(name)}")
        for port in self.module.port_declarations:
            if port.function == func.name and port.direction.value == "ostream":
                ports.append(f"output wire [{port.element_type.width - 1}:0] s_{_sanitize(port.port)}")
        for red in func.reductions():
            ports.append(f"output reg  [{red.result_type.width - 1}:0] g_{_sanitize(red.result)}")

        lines.append(f"// kernel pipeline for @{func.name} "
                     f"(depth {schedule.pipeline_depth}, II {schedule.initiation_interval}, "
                     f"window {window}, latency {geometry.latency})")
        lines.append(f"module {_sanitize(func.name)}_kernel (")
        lines.append("  " + ",\n  ".join(ports))
        lines.append(");")
        lines.append("")

        # valid pipeline: valid_sr[k] is in_valid delayed k+1 cycles
        reduction_guards: dict[str, int] = {}
        for instr in func.reductions():
            start = 0 if comb else schedule.start_cycles.get(instr.result, 0)
            reduction_guards[instr.result] = window + start - 1
        valid_msb = max([0, geometry.out_valid_index] + list(reduction_guards.values()))
        lines.append(f"  reg [{valid_msb}:0] valid_sr;")
        lines.append("  always @(posedge clk) begin")
        lines.append("    if (rst) valid_sr <= 0;")
        lines.append("    else     valid_sr <= {valid_sr, in_valid};")
        lines.append("  end")
        if geometry.out_valid_index < 0:
            lines.append("  assign out_valid = in_valid;")
        else:
            lines.append(f"  assign out_valid = valid_sr[{geometry.out_valid_index}];")
        lines.append("")

        # shared shift-register delay-line emitter; one line per (buffer
        # name, source, depth), deduplicated for balancing reuse
        emitted_delays: dict[tuple[str, int], str] = {}

        def delay_line(src: str, dst: str, width: int, depth: int, buf: str,
                       comment: str | None = None) -> None:
            if comment:
                lines.append(f"  // {comment}")
            if depth == 0:
                lines.append(f"  wire [{width - 1}:0] {dst} = {src};")
                lines.append("")
                return
            lines.append(f"  reg [{width - 1}:0] {buf} [0:{depth - 1}];")
            lines.append(f"  integer i_{buf};")
            lines.append("  always @(posedge clk) begin")
            lines.append(f"    {buf}[0] <= {src};")
            lines.append(f"    for (i_{buf} = 1; i_{buf} < {depth}; i_{buf} = i_{buf} + 1)")
            lines.append(f"      {buf}[i_{buf}] <= {buf}[i_{buf} - 1];")
            lines.append("  end")
            lines.append(f"  wire [{width - 1}:0] {dst} = {buf}[{depth - 1}];")
            lines.append("")

        # input streams aligned to the offset window
        for ty, name in func.args:
            ident = _sanitize(name)
            delay_line(f"s_{ident}", f"w_{ident}", ty.width, window,
                       f"argbuf_{ident}",
                       comment=f"input stream %{name} aligned by {window} cycle(s)")

        # offset streams: delay window - o so every wire carries one item
        for off in func.offsets():
            o = self.module.resolve_offset(off.offset)
            depth = window - o
            src = _sanitize(off.source)
            dst = _sanitize(off.result)
            delay_line(f"s_{src}", f"w_{dst}", off.result_type.width, depth,
                       f"offbuf_{dst}",
                       comment=f"offset stream %{off.result} = %{off.source} "
                               f"offset {off.offset} (delay {depth})")

        # operand rendering with balancing delay lines (Figure 13's
        # pass-through buffers): an operand produced at cycle T but consumed
        # at cycle s > T goes through a s-T deep shift register
        def operand_text(instr: Instruction, index: int, consume_at: int) -> str:
            op = instr.operands[index]
            if op.kind is OperandKind.CONST:
                width = instr.result_type.width
                value = op.value
                if isinstance(value, float) and not value.is_integer():
                    return f"{width}'d{int(round(value))}"
                return f"{width}'d{int(value)}"
            if op.kind is OperandKind.GLOBAL:
                return f"g_{_sanitize(op.name)}"
            name = op.name
            ident = _sanitize(name)
            slack = consume_at - avail[name]
            if slack <= 0:
                return f"w_{ident}"
            key = (name, slack)
            if key not in emitted_delays:
                dst = f"w_{ident}_d{slack}"
                delay_line(f"w_{ident}", dst, widths[name], slack,
                           f"balbuf_{ident}_d{slack}",
                           comment=f"balance %{name} by {slack} cycle(s)")
                emitted_delays[key] = dst
            return emitted_delays[key]

        # datapath: one register stage per scheduled latency cycle
        for instr in func.instructions():
            width = instr.result_type.width
            name = _sanitize(instr.result)
            start = 0 if comb else schedule.start_cycles.get(instr.result, 0)
            lat = lats[instr.result]
            ops = [operand_text(instr, i, start) for i in range(len(instr.operands))]
            expr = self._instruction_expression(instr, ops)
            if instr.is_reduction:
                guard_index = reduction_guards[instr.result]
                guard = "in_valid" if guard_index < 0 else f"valid_sr[{guard_index}]"
                lines.append(f"  // reduction @{instr.result} (stage {start})")
                lines.append("  always @(posedge clk) begin")
                lines.append(f"    if (rst) g_{name} <= 0;")
                lines.append(f"    else if ({guard}) g_{name} <= {expr};")
                lines.append("  end")
            elif lat == 0:
                lines.append(f"  // %{instr.result} = {instr.qualified_opcode} "
                             f"(stage {start}, combinational)")
                lines.append(f"  wire [{width - 1}:0] w_{name} = {expr};")
            else:
                lines.append(f"  // %{instr.result} = {instr.qualified_opcode} "
                             f"(stage {start}, {lat} cycle(s))")
                lines.append(f"  reg [{width - 1}:0] r_{name};")
                for stage in range(1, lat):
                    lines.append(f"  reg [{width - 1}:0] r_{name}_p{stage};")
                lines.append("  always @(posedge clk) begin")
                lines.append(f"    r_{name} <= {expr};")
                for stage in range(1, lat):
                    prev = f"r_{name}" if stage == 1 else f"r_{name}_p{stage - 1}"
                    lines.append(f"    r_{name}_p{stage} <= {prev};")
                lines.append("  end")
                final = f"r_{name}" if lat == 1 else f"r_{name}_p{lat - 1}"
                lines.append(f"  wire [{width - 1}:0] w_{name} = {final};")
            lines.append("")

        # output streams, all aligned to the deepest output
        for port_name in out_ports:
            ident = _sanitize(port_name)
            slack = out_depth - avail.get(port_name, 0)
            src = f"w_{ident}"
            if slack > 0:
                dst = f"w_{ident}_o{slack}"
                delay_line(src, dst, widths[port_name], slack,
                           f"outbuf_{ident}",
                           comment=f"align output %{port_name} by {slack} cycle(s)")
                src = dst
            lines.append(f"  assign s_{ident} = {src};")
        lines.append("endmodule")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Compute unit and configuration include
    # ------------------------------------------------------------------
    def generate_compute_unit(self) -> str:
        """Emit the lane-replicated compute unit with stream control."""
        structure = self.structure
        kernel = structure.kernel_function
        func = self.module.get_function(kernel)
        lanes = structure.lanes
        lines = [
            f"// compute unit for design {self.module.name!r}: {lanes} lane(s) of @{kernel}",
            f"module {_sanitize(self.module.name)}_cu (",
            "  input  wire clk,",
            "  input  wire rst,",
            "  input  wire in_valid,",
            "  output wire out_valid",
            ");",
            "",
        ]
        for lane in range(lanes):
            lines.append(f"  // ---- lane {lane} ----")
            lines.append(f"  wire lane{lane}_out_valid;")
            args = ", ".join(
                f".s_{_sanitize(name)}({_sanitize(name)}_lane{lane})" for _, name in func.args
            )
            for ty, name in func.args:
                lines.append(
                    f"  wire [{ty.width - 1}:0] {_sanitize(name)}_lane{lane}; "
                    f"// fed by stream control"
                )
            lines.append(
                f"  {_sanitize(kernel)}_kernel lane{lane} (.clk(clk), .rst(rst), "
                f".in_valid(in_valid), .out_valid(lane{lane}_out_valid)"
                + (", " + args if args else "")
                + ");"
            )
            lines.append("")
        valid_terms = " & ".join(f"lane{lane}_out_valid" for lane in range(lanes)) or "in_valid"
        lines.append(f"  assign out_valid = {valid_terms};")
        lines.append("endmodule")
        return "\n".join(lines) + "\n"

    def generate_config_include(self) -> str:
        """The configuration include file of Figure 11's final stage."""
        s = self.structure
        kernel_schedule = self.schedules.get(s.kernel_function)
        depth = kernel_schedule.pipeline_depth if kernel_schedule else 0
        try:
            geometry = self.geometry(s.kernel_function)
            window, latency = geometry.window, geometry.latency
        except (ValueError, KeyError):
            window, latency = 0, depth
        lines = [
            f"// configuration include for {self.module.name}",
            f"`define TYTRA_DESIGN \"{self.module.name}\"",
            f"`define TYTRA_LANES {s.lanes}",
            f"`define TYTRA_KERNEL \"{s.kernel_function}\"",
            f"`define TYTRA_PIPELINE_DEPTH {depth}",
            f"`define TYTRA_WINDOW {window}",
            f"`define TYTRA_RTL_LATENCY {latency}",
            f"`define TYTRA_NI {s.instructions_per_pe}",
            f"`define TYTRA_NOFF {s.max_offset_span_words}",
            f"`define TYTRA_NWPT {s.words_per_item}",
            f"`define TYTRA_STREAMS {s.total_streams}",
        ]
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    def generate_all(self) -> dict[str, str]:
        """Emit every output file as a name -> text mapping."""
        files: dict[str, str] = {}
        for name, func in self.module.functions.items():
            if name == self.module.main or not func.is_leaf:
                continue
            if func.kind in (FunctionKind.PIPE, FunctionKind.COMB):
                files[f"{_sanitize(name)}_kernel.v"] = self.generate_kernel(func)
        files[f"{_sanitize(self.module.name)}_cu.v"] = self.generate_compute_unit()
        files[f"{_sanitize(self.module.name)}_config.vh"] = self.generate_config_include()
        return files
