"""The TyBEC compiler driver: parse → analyse → cost → (optionally) emit.

This is the prototype back-end compiler of §VI: it accepts a design
variant in TyTra-IR, produces the cost and performance estimates of
Figure 2, and can generate the HDL kernel code plus the HLS-framework
integration glue.  The estimation path is deliberately light-weight — the
paper reports ~0.3 s per variant against ~70 s for an HLS tool's
preliminary estimate — and the driver records its own wall-clock time so
the estimator-speed experiment can be reproduced.

The estimation flow itself lives in
:class:`repro.compiler.pipeline.EstimationPipeline`; the driver is a
subclass of it that adds code generation and the ground-truth substrates
(synthesis, cycle simulation).
"""

from __future__ import annotations

from repro.compiler.pipeline import (
    CompilationOptions,
    CompiledVariant,
    EstimationPipeline,
)
from repro.cost.report import CostReport
from repro.cost.resource_model import ModuleStructure
from repro.ir.functions import Module
from repro.ir.validator import validate_module
from repro.models.execution import KernelInstance
from repro.models.memory_execution import MemoryExecutionForm
from repro.models.streaming import AccessPattern, PatternKind
from repro.substrate.pipeline_sim import PipelineSimulator, SimulationResult
from repro.substrate.synthesis import ResourceUsage, SyntheticSynthesizer

__all__ = ["CompilationOptions", "CompiledVariant", "TybecCompiler"]


class TybecCompiler(EstimationPipeline):
    """Back-end compiler: costing and code generation for TyTra-IR designs.

    Costing (``parse``, ``analyze``, ``extract_parameters``, ``cost``
    and the calibration properties) is inherited from
    :class:`EstimationPipeline`; the compiler adds HDL emission and the
    ground-truth substrates.
    """

    # ------------------------------------------------------------------
    # Code generation
    # ------------------------------------------------------------------
    def emit_hdl(self, module: Module, include_wrapper: bool = True) -> dict[str, str]:
        """Generate synthesizeable HDL plus HLS-framework integration glue."""
        from repro.compiler.codegen.verilog import VerilogGenerator
        from repro.compiler.codegen.wrapper import generate_host_stub, generate_maxj_wrapper

        validate_module(module)
        structure = ModuleStructure.from_module(module)
        generator = VerilogGenerator(
            module, latency_model=self.options.latency_model, structure=structure
        )
        files = generator.generate_all()
        if include_wrapper:
            files[f"{module.name}_wrapper.maxj"] = generate_maxj_wrapper(module, structure)
            files[f"{module.name}_host.c"] = generate_host_stub(module, structure)
        return files

    # ------------------------------------------------------------------
    # Ground-truth helpers (the "actual" columns of Table II)
    # ------------------------------------------------------------------
    def synthesize_actual(self, variant: CompiledVariant) -> ResourceUsage:
        """Run the synthetic synthesiser on the compiled design."""
        synthesizer = SyntheticSynthesizer(self.options.device, self.options.synthesis_noise)
        netlist = variant.structure.to_netlist(
            balancing_register_bits=variant.balancing_register_bits
        )
        return synthesizer.synthesize_design(netlist)

    def simulate_actual(
        self,
        variant: CompiledVariant,
        workload: KernelInstance,
        pattern: AccessPattern | PatternKind = PatternKind.CONTIGUOUS,
    ) -> SimulationResult:
        """Cycle-simulate one kernel instance of the compiled design."""
        word_bytes = variant.pipeline_spec.element_bytes
        footprint = workload.global_size * variant.structure.words_per_item * word_bytes
        form = self.select_form(footprint).form
        access = (
            pattern
            if isinstance(pattern, AccessPattern)
            else AccessPattern.contiguous(word_bytes)
            if PatternKind(pattern) is PatternKind.CONTIGUOUS
            else AccessPattern.strided(2, word_bytes)
        )
        if form is MemoryExecutionForm.C:
            # data streams from on-chip block RAM: the memory system never
            # throttles the pipeline
            memory_gbps = None
        else:
            # steady-state DRAM bandwidth (launch/DMA setup is a per-instance
            # constant, not a rate limit on the stream)
            elements = max(1, footprint // word_bytes)
            seconds = self.memory_simulator.dram_stream_time(
                elements, word_bytes, access, include_setup=False
            )
            memory_gbps = footprint / seconds / 1e9 if seconds > 0 else None
        simulator = PipelineSimulator(self.memory_simulator if form is not MemoryExecutionForm.C else None)
        return simulator.run_kernel_instance(
            variant.pipeline_spec, workload.global_size, memory_gbps=memory_gbps
        )

    # ------------------------------------------------------------------
    def compile(
        self,
        module: Module | str,
        workload: KernelInstance,
        emit: bool = False,
    ) -> tuple[CostReport, dict[str, str]]:
        """Cost a variant and optionally emit its HDL in one call."""
        if isinstance(module, str):
            module = self.parse(module)
        report = self.cost(module, workload)
        files = self.emit_hdl(module) if emit else {}
        return report, files
