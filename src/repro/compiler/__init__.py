"""The TyBEC back-end compiler (paper §VI, Figure 11).

The back-end compiler accepts a design variant in TyTra-IR, costs it and,
if needed, generates HDL code for it.  The estimation flow (the blue
stages of Figure 11) is:

1. parse memory and stream objects, accumulate their resource estimates;
2. analyse the function hierarchy and determine the configuration
   (:mod:`repro.compiler.analysis` — the tree of Figure 8);
3. parse the functions recursively — SSA instructions, implied offset
   buffers and counters — and accumulate costs
   (:mod:`repro.cost.resource_model`);
4. estimate the throughput for the configuration type
   (:mod:`repro.cost.throughput`).

The code-generation flow (the yellow stages) schedules the SSA
instructions, creates data/control delay lines, connects functional units
into a pipeline (:mod:`repro.compiler.scheduling`) and emits
synthesizeable HDL plus an HLS-framework wrapper
(:mod:`repro.compiler.codegen`).

:class:`repro.compiler.driver.TybecCompiler` orchestrates both flows.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.compiler.analysis": (
        "ConfigurationNode", "ConfigurationTree", "build_configuration_tree",
        "classify_module",
    ),
    "repro.compiler.scheduling": (
        "DataflowGraph", "OperatorLatencyModel", "ScheduledPipeline",
        "schedule_function",
    ),
    "repro.compiler.lanescale": (
        "FamilyAnalysis", "LaneFamilyHandle", "check_lane_separable",
        "family_fingerprint",
    ),
    "repro.compiler.pipeline": (
        "CalibrationArtifacts", "EstimationPipeline",
        "clear_calibration_cache", "module_content_key",
    ),
    "repro.compiler.driver": (
        "CompilationOptions", "CompiledVariant", "TybecCompiler",
    ),
})
