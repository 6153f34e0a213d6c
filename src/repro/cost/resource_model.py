"""Resource-utilisation cost model (paper §V-A).

The overall resource cost of a design is calculated by accumulating the
cost of individual IR instructions (looked up in the fitted
:class:`~repro.cost.calibration.DeviceCostDB`) together with the
structural information implied by the type of each IR function: lane
replication under ``par`` functions, the offset/delay buffers implied by
stream-offset declarations, and the per-stream control logic of the
stream-control block.

:class:`ModuleStructure` performs the structural part of "parsing the IR"
(Figure 11's estimation flow): it walks the configuration hierarchy from
``main``, counts instances of each leaf datapath, identifies the kernel
pipeline, and collects the throughput-model parameters that derive from
the program (``NI``, ``Noff``, ``NWPT``, ``KNL``).
"""

from __future__ import annotations

from repro import field, record
from repro.ir.functions import Module, StreamDirection
from repro.ir.instructions import Instruction
from repro.cost.calibration import DeviceCostDB
from repro.substrate.synthesis import DesignNetlist, NetlistOperator, ResourceUsage

__all__ = ["ModuleStructure", "FunctionResourceEstimate", "ModuleResourceEstimate", "ResourceEstimator"]


# ----------------------------------------------------------------------
# Structural analysis of a module
# ----------------------------------------------------------------------


@record
class ModuleStructure:
    """Structural summary of a design variant extracted from its IR.

    ``module`` is the IR the summary was extracted from.  Structures
    *derived* analytically by the lane-scaling law (see
    :mod:`repro.compiler.lanescale`) may carry ``None`` when the member
    module was never lowered; everything the cost model reads lives in the
    scalar fields below, so a derived structure is a full citizen of the
    estimation flow.
    """

    module: Module | None
    #: instantiation count of every function reachable from the entry
    instance_counts: dict[str, int]
    #: the leaf datapath with the most instructions — the kernel pipeline
    kernel_function: str
    #: number of parallel kernel lanes (``KNL``)
    lanes: int
    #: datapath instructions per processing element (``NI``)
    instructions_per_pe: int
    #: per-lane offset buffers as (function, words, bits) records
    offset_buffers: list[tuple[str, int, int]]
    #: maximum offset span in words (``Noff``)
    max_offset_span_words: int
    #: stream words per work-item per lane (``NWPT``)
    words_per_item: int
    #: total streams over the whole design (all lanes)
    input_streams: int
    output_streams: int
    #: dominant stream element width in bits
    element_width: int

    def __init__(self, module, instance_counts, kernel_function, lanes,
                 instructions_per_pe, offset_buffers, max_offset_span_words,
                 words_per_item, input_streams, output_streams, element_width) -> None:
        self.module = module
        self.instance_counts = instance_counts
        self.kernel_function = kernel_function
        self.lanes = lanes
        self.instructions_per_pe = instructions_per_pe
        self.offset_buffers = offset_buffers
        self.max_offset_span_words = max_offset_span_words
        self.words_per_item = words_per_item
        self.input_streams = input_streams
        self.output_streams = output_streams
        self.element_width = element_width

    @property
    def total_streams(self) -> int:
        return self.input_streams + self.output_streams

    # ------------------------------------------------------------------
    @classmethod
    def from_module(cls, module: Module) -> "ModuleStructure":
        counts: dict[str, int] = {}

        def visit(name: str, multiplicity: int) -> None:
            counts[name] = counts.get(name, 0) + multiplicity
            func = module.get_function(name)
            for call in func.calls():
                visit(call.callee, multiplicity)

        entry = module.entry
        for call in entry.calls():
            visit(call.callee, 1)

        leaves = [
            name
            for name, count in counts.items()
            if module.get_function(name).is_leaf and count > 0
        ]
        if not leaves:
            raise ValueError("design has no leaf datapath functions")

        kernel = max(leaves, key=lambda n: module.get_function(n).instruction_count())
        kernel_func = module.get_function(kernel)
        lanes = counts[kernel]

        # instructions per PE: total leaf instructions normalised per lane
        total_leaf_instructions = sum(
            counts[name] * module.get_function(name).instruction_count() for name in leaves
        )
        instructions_per_pe = max(1, round(total_leaf_instructions / max(lanes, 1)))

        # offset buffers of one lane (over all leaf functions once each)
        offset_buffers: list[tuple[str, int, int]] = []
        max_span = 0
        for name in leaves:
            func = module.get_function(name)
            for off in func.offsets():
                words = abs(module.resolve_offset(off.offset))
                bits = words * off.result_type.width
                offset_buffers.append((name, words, bits))
                max_span = max(max_span, words)

        # words per item (per lane): explicit port declarations when present,
        # otherwise kernel arguments plus one output stream
        ports = [p for p in module.port_declarations if p.function == kernel]
        if ports:
            words_per_item = len(ports)
            in_per_lane = sum(1 for p in ports if p.direction is StreamDirection.INPUT)
            out_per_lane = max(1, len(ports) - in_per_lane)
        else:
            in_per_lane = max(1, len(kernel_func.args))
            out_per_lane = max(1, len(kernel_func.reductions()) or 1)
            words_per_item = in_per_lane + out_per_lane

        # stream totals: prefer the Manage-IR stream objects when declared
        if module.stream_objects:
            input_streams = sum(
                1 for s in module.stream_objects.values()
                if s.direction is StreamDirection.INPUT
            )
            output_streams = len(module.stream_objects) - input_streams
        else:
            input_streams = in_per_lane * lanes
            output_streams = out_per_lane * lanes

        widths = [t.width for t, _ in kernel_func.args] or [32]
        element_width = max(widths)

        return cls(
            module=module,
            instance_counts=counts,
            kernel_function=kernel,
            lanes=lanes,
            instructions_per_pe=instructions_per_pe,
            offset_buffers=offset_buffers,
            max_offset_span_words=max_span,
            words_per_item=words_per_item,
            input_streams=input_streams,
            output_streams=output_streams,
            element_width=element_width,
        )

    # ------------------------------------------------------------------
    def to_netlist(self, balancing_register_bits: int = 0) -> DesignNetlist:
        """Produce the structural netlist handed to the synthesiser.

        The netlist describes one lane; replication is carried in ``lanes``.
        """
        operators: list[NetlistOperator] = []
        for name, count in self.instance_counts.items():
            func = self.module.get_function(name)
            if not func.is_leaf:
                continue
            per_lane_count = max(1, round(count / max(self.lanes, 1)))
            for _ in range(per_lane_count):
                for instr in func.instructions():
                    operators.append(
                        NetlistOperator(
                            opcode=instr.opcode,
                            type=instr.result_type,
                            constant_operand=bool(instr.constant_operands),
                        )
                    )
        return DesignNetlist(
            operators=operators,
            offset_buffer_bits=[bits for _, _, bits in self.offset_buffers],
            input_streams=max(1, self.input_streams // max(self.lanes, 1)),
            output_streams=max(1, self.output_streams // max(self.lanes, 1)),
            lanes=self.lanes,
            balancing_register_bits=balancing_register_bits,
            name=self.module.name,
        )


# ----------------------------------------------------------------------
# Estimates
# ----------------------------------------------------------------------


@record
class FunctionResourceEstimate:
    """Per-function (single instance) resource estimate."""

    function: str
    usage: ResourceUsage
    instances: int

    def __init__(self, function, usage, instances) -> None:
        self.function = function
        self.usage = usage
        self.instances = instances

    @property
    def total(self) -> ResourceUsage:
        return self.usage.scaled(self.instances)


@record
class ModuleResourceEstimate:
    """Whole-design resource estimate with its breakdown."""

    design: str
    total: ResourceUsage
    functions: list[FunctionResourceEstimate] = field(default_factory=list)
    offset_buffers: ResourceUsage = field(default_factory=ResourceUsage)
    stream_control: ResourceUsage = field(default_factory=ResourceUsage)
    structure: ModuleStructure | None = None

    def __init__(self, design, total, functions=None, offset_buffers=None,
                 stream_control=None, structure=None) -> None:
        self.design = design
        self.total = total
        self.functions = [] if functions is None else functions
        self.offset_buffers = ResourceUsage() if offset_buffers is None else offset_buffers
        self.stream_control = ResourceUsage() if stream_control is None else stream_control
        self.structure = structure

    def as_dict(self) -> dict:
        return {
            "design": self.design,
            "total": self.total.as_dict(),
            "functions": [
                {"function": f.function, "instances": f.instances, "usage": f.usage.as_dict()}
                for f in self.functions
            ],
            "offset_buffers": self.offset_buffers.as_dict(),
            "stream_control": self.stream_control.as_dict(),
        }


# ----------------------------------------------------------------------
# The estimator
# ----------------------------------------------------------------------


class ResourceEstimator:
    """Accumulates per-instruction costs into a design-level estimate."""

    #: Buffers at or below this many bits are estimated as registers /
    #: ALM shift registers; larger ones as block RAM (matches the design
    #: rule the synthesiser applies).
    REGISTER_BUFFER_THRESHOLD_BITS = 640

    def __init__(self, cost_db: DeviceCostDB):
        self.cost_db = cost_db

    # -- single statements -------------------------------------------------
    def estimate_instruction(self, instr: Instruction) -> ResourceUsage:
        width = instr.result_type.width
        constant_operand = bool(instr.constant_operands)
        return self.cost_db.lookup(instr.opcode, width, constant_operand)

    def _buffer_usage(self, bits: int) -> ResourceUsage:
        if bits <= 0:
            return ResourceUsage()
        if bits <= self.REGISTER_BUFFER_THRESHOLD_BITS:
            return ResourceUsage(alut=bits / 10, reg=bits)
        return ResourceUsage(alut=24, reg=32, bram_bits=bits)

    def estimate_stream_control(self, streams: int, element_width: int) -> ResourceUsage:
        if streams <= 0:
            return ResourceUsage()
        per_stream = ResourceUsage(alut=40 + element_width / 2, reg=48 + element_width)
        return per_stream.scaled(streams)

    # -- functions and modules ----------------------------------------------
    def estimate_function_body(self, func) -> ResourceUsage:
        """Estimate one instance of a function object's datapath."""
        usage = ResourceUsage()
        for instr in func.instructions():
            usage += self.estimate_instruction(instr)
        return usage

    def estimate_function(self, function_name: str, module: Module) -> ResourceUsage:
        """Estimate one instance of a function's datapath (no buffers/streams)."""
        return self.estimate_function_body(module.get_function(function_name))

    def leaf_usages(self, module: Module, structure: ModuleStructure) -> dict[str, ResourceUsage]:
        """Per-instance datapath usage of every instantiated leaf function."""
        usages: dict[str, ResourceUsage] = {}
        for name, count in structure.instance_counts.items():
            if count == 0 or not module.get_function(name).is_leaf:
                continue
            usages[name] = self.estimate_function(name, module)
        return usages

    def estimate_from_structure(
        self,
        structure: ModuleStructure,
        leaf_usages: dict[str, ResourceUsage],
        design: str,
    ) -> ModuleResourceEstimate:
        """Fold per-leaf usages and structural counts into a design estimate.

        This is the single arithmetic implementation behind both the full
        path (``leaf_usages`` computed by walking the module) and the
        lane-scaling path (``leaf_usages`` reused from the design family's
        canonical member) — sharing it is what makes lane-derived reports
        bit-identical to fully analysed ones.
        """
        functions: list[FunctionResourceEstimate] = []
        total = ResourceUsage()
        for name, count in sorted(structure.instance_counts.items()):
            if name not in leaf_usages or count == 0:
                continue
            usage = leaf_usages[name]
            functions.append(FunctionResourceEstimate(name, usage, count))
            total += usage.scaled(count)

        buffers = ResourceUsage()
        for _, _, bits in structure.offset_buffers:
            buffers += self._buffer_usage(bits)
        buffers = buffers.scaled(structure.lanes)
        total += buffers

        streams = self.estimate_stream_control(structure.total_streams, structure.element_width)
        total += streams

        return ModuleResourceEstimate(
            design=design,
            total=total.rounded(),
            functions=functions,
            offset_buffers=buffers.rounded(),
            stream_control=streams.rounded(),
            structure=structure,
        )

    def estimate_module(
        self, module: Module, structure: ModuleStructure | None = None
    ) -> ModuleResourceEstimate:
        """Estimate a whole design variant from its IR."""
        if structure is None:
            structure = ModuleStructure.from_module(module)
        return self.estimate_from_structure(
            structure, self.leaf_usages(module, structure), design=module.name
        )
