"""Platform model (paper §III-1, Figure 4).

The platform model maps OpenCL abstractions onto the FPGA architecture:

* the **compute device** is the FPGA;
* a **compute unit** is the unit of execution for a kernel and owns a
  stream-control block;
* a **processing element** is the custom datapath created for the kernel —
  one kernel pipeline lane — and may be replicated for thread parallelism;
* the **stream-control block** translates between random memory access and
  the pure streaming domain; it is transparent to the programmer and to
  the Compute-IR but is an integral part of the platform (and of the
  resource cost of a design).
"""

from __future__ import annotations

from repro import field, record
from repro.models.memory import MemoryHierarchy

__all__ = ["ProcessingElement", "StreamControl", "ComputeUnit", "PlatformModel"]


@record
class ProcessingElement:
    """A kernel pipeline lane.

    Attributes
    ----------
    kernel:
        Name of the IR function realised by this PE.
    instructions:
        Number of datapath instructions (``NI`` in the throughput model).
    pipeline_depth:
        Depth of the pipeline in cycles (``KPD``).
    vectorization:
        Degree of vectorisation within the lane (``DV``).
    cycles_per_instruction:
        ``NTO`` — 1 for a fully pipelined datapath, >1 when functional
        units are re-used sequentially (C4/C5 style configurations).
    """

    kernel: str
    instructions: int = 0
    pipeline_depth: int = 0
    vectorization: int = 1
    cycles_per_instruction: int = 1

    def steady_state_items_per_cycle(self) -> float:
        """Work-items retired per cycle in steady state."""
        if self.instructions == 0:
            return float(self.vectorization)
        return self.vectorization / (self.cycles_per_instruction * self.instructions) \
            if self.cycles_per_instruction > 1 else float(self.vectorization)


@record
class StreamControl:
    """The stream-control block of a compute unit.

    It owns the offset/delay buffers implied by stream-offset declarations
    and the address generators for each stream object.
    """

    input_streams: int = 0
    output_streams: int = 0
    #: Largest offset span that must be buffered before the first work-item
    #: can be processed (``Noff`` of the throughput model), in words.
    max_offset_span: int = 0
    #: Total bits of offset/delay buffering.
    buffer_bits: int = 0

    @property
    def total_streams(self) -> int:
        return self.input_streams + self.output_streams


@record
class ComputeUnit:
    """The unit of execution for a kernel: replicated PEs + stream control."""

    name: str
    processing_elements: list[ProcessingElement] = field(default_factory=list)
    stream_control: StreamControl = field(default_factory=StreamControl)

    @property
    def lanes(self) -> int:
        """Number of parallel kernel lanes (``KNL``)."""
        return len(self.processing_elements)

    @property
    def pipeline_depth(self) -> int:
        """Depth of the deepest lane (fill time of the compute unit)."""
        return max((pe.pipeline_depth for pe in self.processing_elements), default=0)

    def add_lane(self, pe: ProcessingElement) -> ProcessingElement:
        self.processing_elements.append(pe)
        return pe


@record
class PlatformModel:
    """Host + FPGA compute device.

    Attributes
    ----------
    device_name:
        Name of the FPGA device/board (for reporting only).
    compute_units:
        Compute units configured onto the device for the current design.
    memory:
        The device memory hierarchy.
    clock_mhz:
        Operating frequency of the device fabric (``FD``), MHz.
    """

    device_name: str = "generic-fpga"
    compute_units: list[ComputeUnit] = field(default_factory=list)
    memory: MemoryHierarchy = field(default_factory=MemoryHierarchy.generic)
    clock_mhz: float = 200.0

    @property
    def clock_hz(self) -> float:
        return self.clock_mhz * 1e6

    @property
    def total_lanes(self) -> int:
        return sum(cu.lanes for cu in self.compute_units)

    def add_compute_unit(self, cu: ComputeUnit) -> ComputeUnit:
        self.compute_units.append(cu)
        return cu
