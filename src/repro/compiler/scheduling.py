"""Dataflow-graph construction and pipeline scheduling.

The code-generation flow of Figure 11 schedules the SSA instructions of a
``pipe`` function, creates data and control delay lines, and connects the
functional units into a pipeline.  The estimation flow needs two outputs
of the same analysis:

* the **kernel pipeline depth** ``KPD`` — the critical-path latency of the
  scheduled datapath (plus the stream-control input stage), and
* the **pipeline balancing registers** — the delay lines that equalise
  path lengths (Figure 13 shows them as the pass-through buffers), which
  contribute to the register utilisation of the design.

Scheduling is plain ASAP (as-soon-as-possible): every operand edge imposes
``start[consumer] >= start[producer] + latency[producer]``, streams and
constants are available at cycle 0, and the initiation interval of a
``pipe`` function is 1 (one work-item accepted per cycle), which is what a
spatial datapath with per-instruction functional units achieves.
"""

from __future__ import annotations

from repro import field, record
from repro.ir.functions import FunctionKind, IRFunction, Module
from repro.ir.instructions import Instruction, OPCODES
from repro.substrate.pipeline_sim import PipelineSpec

__all__ = [
    "OperatorLatencyModel",
    "DataflowGraph",
    "ScheduledPipeline",
    "schedule_function",
    "schedule_module",
]


@record
class OperatorLatencyModel:
    """Pipeline latency of each operator in cycles.

    Base latencies come from the opcode registry; width-dependent operators
    (dividers, integer square roots) scale with operand width, which is the
    dominant effect on real fabric.
    """

    #: latency per additional bit for iterative operators
    div_cycles_per_bit: float = 1.0
    sqrt_cycles_per_bit: float = 0.5
    #: extra input registering stage applied to every leaf pipeline
    input_stage_cycles: int = 1

    def latency(self, opcode: str, width: int) -> int:
        info = OPCODES[opcode]
        if info.category == "div" and not info.float_only:
            return max(info.latency, int(round(width * self.div_cycles_per_bit)))
        if opcode == "sqrt":
            return max(info.latency, int(round(width * self.sqrt_cycles_per_bit)))
        return info.latency


@record
class DataflowGraph:
    """Def-use graph of a function's datapath."""

    function: str
    #: producer result name -> consumer result names
    edges: dict[str, list[str]] = field(default_factory=dict)
    #: instruction result name -> instruction
    nodes: dict[str, Instruction] = field(default_factory=dict)
    #: names available at cycle 0 (arguments, offset streams, globals)
    sources: set[str] = field(default_factory=set)

    @classmethod
    def from_function(cls, func: IRFunction) -> "DataflowGraph":
        graph = cls(function=func.name)
        graph.sources.update(func.arg_names)
        for off in func.offsets():
            graph.sources.add(off.result)
        for instr in func.instructions():
            graph.nodes[instr.result] = instr
        for instr in func.instructions():
            # only SSA operands create dataflow edges; a global accumulator
            # read (e.g. the reduction's own accumulator) is a register that
            # is always available, not a pipeline dependency
            for op in instr.operands:
                if op.is_ssa and op.name in graph.nodes and op.name != instr.result:
                    graph.edges.setdefault(op.name, []).append(instr.result)
        return graph

    def consumers(self, name: str) -> list[str]:
        return self.edges.get(name, [])

    def producers(self, instr: Instruction) -> list[str]:
        return [
            op.name
            for op in instr.operands
            if op.is_ssa and op.name in self.nodes and op.name != instr.result
        ]

    def roots(self) -> list[Instruction]:
        """Instructions that depend only on sources/constants."""
        return [i for i in self.nodes.values() if not self.producers(i)]

def _asap(graph: DataflowGraph, latency_model: OperatorLatencyModel) -> dict[str, int]:
    """ASAP start cycles for every instruction in the graph."""
    schedule: dict[str, int] = {}

    def start_of(name: str) -> int:
        if name in schedule:
            return schedule[name]
        instr = graph.nodes[name]
        ready = 0
        for producer in graph.producers(instr):
            p_instr = graph.nodes[producer]
            p_latency = latency_model.latency(p_instr.opcode, p_instr.result_type.width)
            ready = max(ready, start_of(producer) + p_latency)
        schedule[name] = ready
        return ready

    for name in graph.nodes:
        start_of(name)
    return schedule


@record
class ScheduledPipeline:
    """The scheduled datapath of one ``pipe`` (or ``comb``) function."""

    function: str
    start_cycles: dict[str, int]
    latencies: dict[str, int]
    pipeline_depth: int
    initiation_interval: int
    balancing_register_bits: int
    input_delay_bits: int

    @property
    def stages(self) -> int:
        return self.pipeline_depth

    def stage_of(self, result_name: str) -> int:
        return self.start_cycles[result_name]

    def as_dict(self) -> dict:
        return {
            "function": self.function,
            "pipeline_depth": self.pipeline_depth,
            "initiation_interval": self.initiation_interval,
            "balancing_register_bits": self.balancing_register_bits,
            "input_delay_bits": self.input_delay_bits,
            "start_cycles": dict(self.start_cycles),
        }


def schedule_function(
    func: IRFunction,
    latency_model: OperatorLatencyModel | None = None,
) -> ScheduledPipeline:
    """ASAP-schedule a leaf datapath function."""
    latency_model = latency_model or OperatorLatencyModel()
    if func.kind is FunctionKind.COMB:
        # single-cycle custom combinatorial block
        starts = {i.result: 0 for i in func.instructions()}
        return ScheduledPipeline(
            function=func.name,
            start_cycles=starts,
            latencies={name: 1 for name in starts},
            pipeline_depth=1,
            initiation_interval=1,
            balancing_register_bits=0,
            input_delay_bits=0,
        )

    graph = DataflowGraph.from_function(func)
    starts = _asap(graph, latency_model)
    latencies = {
        name: latency_model.latency(instr.opcode, instr.result_type.width)
        for name, instr in graph.nodes.items()
    }
    depth = latency_model.input_stage_cycles
    if starts:
        depth += max(starts[name] + latencies[name] for name in starts)

    # balancing registers: every def-use edge whose consumer starts later
    # than the producer finishes needs a delay line of the slack length
    balancing_bits = 0
    for producer, consumers in graph.edges.items():
        p_end = starts[producer] + latencies[producer]
        width = graph.nodes[producer].result_type.width
        for consumer in consumers:
            slack = starts[consumer] - p_end
            if slack > 0:
                balancing_bits += slack * width

    # input delay lines: arguments and offset streams consumed at a later
    # stage must be carried forward from cycle 0
    input_delay_bits = 0
    source_widths = dict(func.arg_types)
    for off in func.offsets():
        source_widths[off.result] = off.result_type
    for instr in func.instructions():
        for name in instr.input_names:
            if name in source_widths and name not in graph.nodes:
                slack = starts.get(instr.result, 0)
                if slack > 0:
                    input_delay_bits += slack * source_widths[name].width

    return ScheduledPipeline(
        function=func.name,
        start_cycles=starts,
        latencies=latencies,
        pipeline_depth=depth,
        initiation_interval=1,
        balancing_register_bits=balancing_bits,
        input_delay_bits=input_delay_bits,
    )


def schedule_module(
    module: Module,
    latency_model: OperatorLatencyModel | None = None,
) -> dict[str, ScheduledPipeline]:
    """Schedule every leaf datapath function of a module."""
    latency_model = latency_model or OperatorLatencyModel()
    schedules: dict[str, ScheduledPipeline] = {}
    for func in module.functions.values():
        if func.name == module.main or not func.is_leaf:
            continue
        if func.kind in (FunctionKind.PIPE, FunctionKind.COMB, FunctionKind.SEQ):
            schedules[func.name] = schedule_function(func, latency_model)
    return schedules


#: ``DV``: every lane of a compiled design is one scalar pipeline
LANE_VECTORIZATION = 1


def lane_pipeline_depth(structure, schedules: dict[str, ScheduledPipeline]) -> int:
    """``KPD``: the summed depths of one lane's scheduled stages (at least 1).

    A coarse-grained pipeline chains its stages; lanes replicate the
    whole chain.  Only scheduled functions contribute depth.
    """
    per_lane_depth = 0
    for fname, count in structure.instance_counts.items():
        if fname not in schedules:
            continue
        per_lane_count = max(1, round(count / max(structure.lanes, 1)))
        per_lane_depth += schedules[fname].pipeline_depth * per_lane_count
    return max(1, per_lane_depth)


def pipeline_spec_from_schedule(
    module: Module | None,
    structure,
    schedules: dict[str, ScheduledPipeline],
    clock_mhz: float,
    element_bytes: int | None = None,
    name: str | None = None,
) -> PipelineSpec:
    """Assemble the simulator's :class:`PipelineSpec` for a compiled design.

    The kernel pipeline depth of a coarse-grained pipeline is the sum of
    the depths of the chained stages; lanes replicate the whole chain.
    Only scheduled functions contribute depth, and only leaf datapaths are
    ever scheduled, so the instantiated functions with a schedule *are*
    the leaf pipelines — which lets a structure derived by the
    lane-scaling law (whose module was never lowered: ``module is None``)
    assemble the identical spec.
    """
    element_bytes = element_bytes or max(1, (structure.element_width + 7) // 8)
    in_per_lane = max(1, structure.input_streams // max(structure.lanes, 1))
    out_per_lane = max(1, structure.output_streams // max(structure.lanes, 1))
    if name is None:
        name = module.name
    return PipelineSpec(
        name=name,
        lanes=structure.lanes,
        vectorization=LANE_VECTORIZATION,
        pipeline_depth=lane_pipeline_depth(structure, schedules),
        instructions=structure.instructions_per_pe,
        cycles_per_instruction=1,
        offset_fill_words=structure.max_offset_span_words,
        input_words_per_item=in_per_lane,
        output_words_per_item=out_per_lane,
        element_bytes=element_bytes,
        clock_mhz=clock_mhz,
    )
