"""Baseline commercial-HLS flow model (the paper's ``fpga-maxJ`` point).

The case study compares the TyTra-generated design against a
straightforward Maxeler MaxJ implementation of the same kernel.  The paper
characterises that baseline as exploiting the pipeline parallelism the HLS
compiler extracts automatically, but performing no architectural
exploration (a single kernel pipeline, vendor-default stream handling).

This module models such a flow:

* a single-lane pipeline whose depth is somewhat larger than the TyTra
  schedule for the same dataflow graph (HLS tools insert conservative
  interface and control stages);
* vendor-default stream handling with a per-kernel-call overhead for
  stream setup and synchronisation;
* data staged through device DRAM (form-B execution) with the same memory
  system as the TyTra design — the baseline differs in architecture, not
  in the board.

It also documents the *estimation latency* of such tools (the paper quotes
close to 70 s for SDAccel's preliminary estimate of one variant, against
0.3 s for the TyTra cost model), used by the estimator-speed experiment.
"""

from __future__ import annotations

from repro import record
from repro.substrate.fpga_device import FPGADevice
from repro.substrate.memory_sim import MemorySystemSimulator
from repro.substrate.pipeline_sim import PipelineSimulator, PipelineSpec, SimulationResult

__all__ = ["HLSKernelCharacteristics", "BaselineHLSFlow"]


@record(frozen=True)
class HLSKernelCharacteristics:
    """What the baseline HLS tool needs to know about a kernel."""

    name: str
    operations_per_item: int
    input_words_per_item: int
    output_words_per_item: int
    element_bytes: int = 4
    #: critical-path latency of the dataflow graph in cycles (as a TyTra
    #: schedule would find); the HLS pipeline is modelled as deeper.
    dataflow_depth: int = 16
    max_offset_span_words: int = 0

    @property
    def words_per_item(self) -> int:
        return self.input_words_per_item + self.output_words_per_item


@record
class BaselineHLSFlow:
    """A MaxJ-like single-pipeline HLS implementation model."""

    device: FPGADevice
    memory: MemorySystemSimulator | None = None
    #: HLS pipelines carry extra interface/control stages over a hand
    #: scheduled datapath.
    pipeline_depth_factor: float = 1.4
    pipeline_depth_extra: int = 12
    #: per kernel-call stream setup / synchronisation overhead (seconds)
    per_call_overhead_s: float = 120e-6
    #: additional per-stream overhead per call (the paper notes the
    #: overhead of handling multiple streams per array dominates at small
    #: grid sizes)
    per_stream_overhead_s: float = 18e-6
    #: fraction of the device clock the vendor flow typically closes timing at
    clock_derating: float = 0.9

    def __post_init__(self) -> None:
        if self.memory is None:
            self.memory = MemorySystemSimulator(self.device)

    # ------------------------------------------------------------------
    def build_pipeline_spec(self, kernel: HLSKernelCharacteristics) -> PipelineSpec:
        """The single-lane pipeline the HLS tool would build."""
        depth = int(kernel.dataflow_depth * self.pipeline_depth_factor) + self.pipeline_depth_extra
        return PipelineSpec(
            name=f"{kernel.name}-maxj",
            lanes=1,
            vectorization=1,
            pipeline_depth=depth,
            instructions=kernel.operations_per_item,
            cycles_per_instruction=1,
            offset_fill_words=kernel.max_offset_span_words,
            input_words_per_item=kernel.input_words_per_item,
            output_words_per_item=kernel.output_words_per_item,
            element_bytes=kernel.element_bytes,
            clock_mhz=self.device.fmax_mhz * self.clock_derating,
        )

    def call_overhead(self, kernel: HLSKernelCharacteristics, streams: int | None = None) -> float:
        n_streams = streams if streams is not None else (
            kernel.input_words_per_item + kernel.output_words_per_item
        )
        return self.per_call_overhead_s + n_streams * self.per_stream_overhead_s

    # ------------------------------------------------------------------
    def estimate_runtime(
        self,
        kernel: HLSKernelCharacteristics,
        n_items: int,
        iterations: int,
        *,
        include_host_transfer: bool = True,
    ) -> tuple[float, SimulationResult]:
        """Total runtime of the baseline implementation (form-B execution).

        Returns ``(seconds, kernel_instance_simulation)``.
        """
        spec = self.build_pipeline_spec(kernel)
        simulator = PipelineSimulator(self.memory)
        memory_gbps = self.memory.dram.effective_peak_gbps
        instance = simulator.run_kernel_instance(spec, n_items, memory_gbps)

        per_call = instance.seconds + self.call_overhead(kernel)
        total = iterations * per_call
        if include_host_transfer:
            nbytes = n_items * kernel.words_per_item * kernel.element_bytes
            total += 2 * self.memory.host_transfer_time(nbytes)
        return total, instance

    # ------------------------------------------------------------------
    #: Estimation latency model of commercial flows.  The paper reports the
    #: SDAccel preliminary estimate of a single variant taking close to 70 s
    #: versus 0.3 s for the TyTra cost model (a >200x ratio).
    ESTIMATE_BASE_SECONDS = 55.0
    ESTIMATE_PER_INSTRUCTION_SECONDS = 0.6

    def estimate_report_time(self, n_instructions: int) -> float:
        """Modelled wall-clock time of the vendor tool's preliminary estimate."""
        return self.ESTIMATE_BASE_SECONDS + self.ESTIMATE_PER_INSTRUCTION_SECONDS * n_instructions
