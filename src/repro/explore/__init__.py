"""Design-space exploration built on the cost model.

This package implements the use-case the paper motivates: generate many
design variants by type transformations, cost each one in a fraction of a
second, and select the best feasible design — the guided optimisation
search of §II, and the variant sweep of Figure 15 — generalised to
multi-axis design spaces evaluated in parallel.

``space``
    Multi-axis design spaces (lanes x clock x memory-execution form x
    device x access pattern) and their lowering into cost jobs.
``engine``
    The batched exploration engine: serial and process-pool evaluation
    backends, ``cost_many`` and sweep results with Pareto selection.
``optimizer``
    Incremental exploration: the ``Optimizer`` protocol
    (``next_batch``/``process_outcome``), the exhaustive, fmax
    binary-search, successive-halving and surrogate-pruned optimizers the
    engine's driver loop runs, and the guided (wall-following) lane walk.
``variants``
    Generation of lane-count variant families for a kernel; a variant
    list is costed with ``ExplorationEngine.cost_many`` over
    ``CostJob.from_variant`` jobs.
``roofline``
    A roofline-style view of variants (operational intensity vs attainable
    performance), following the paper's pointer to the FPGA roofline
    extension of da Silva et al.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.cost.vector": ("DenseUnsupportedError", "pareto_mask"),
    "repro.explore.variants": (
        "VariantRecord", "generate_lane_variants", "sweep_lane_counts",
    ),
    "repro.explore.space": (
        "CostJob", "DenseGrid", "DesignPoint", "DesignSpace", "build_jobs",
        "clock_range", "iter_jobs", "linspace_clocks",
    ),
    "repro.explore.engine": (
        "ExplorationEngine", "ProcessPoolBackend", "SerialBackend",
        "SweepEntry", "SweepResult", "canonical_report_dict", "stats_view",
        "pareto_frontier",
    ),
    "repro.explore.dense": ("DenseBackend", "DenseSweep"),
    "repro.explore.optimizer": (
        "OPTIMIZERS", "ExhaustiveOptimizer", "FmaxBinarySearchOptimizer",
        "GuidedLaneOptimizer", "JobFactory", "Optimizer", "OptimizerRound",
        "OptimizerRun", "SuccessiveHalvingOptimizer",
        "SurrogatePrunedOptimizer", "drive_optimizer",
    ),
    "repro.explore.roofline": ("RooflinePoint", "roofline_analysis"),
    "repro.explore.case_study": (
        "CaseStudyConfig", "CaseStudyPoint", "run_sor_case_study",
    ),
})

__all__ = [
    "DenseBackend",
    "DenseGrid",
    "DenseSweep",
    "DenseUnsupportedError",
    "clock_range",
    "linspace_clocks",
    "pareto_mask",
    "VariantRecord",
    "generate_lane_variants",
    "sweep_lane_counts",
    "CostJob",
    "DesignPoint",
    "DesignSpace",
    "build_jobs",
    "iter_jobs",
    "OPTIMIZERS",
    "Optimizer",
    "OptimizerRound",
    "OptimizerRun",
    "JobFactory",
    "drive_optimizer",
    "ExhaustiveOptimizer",
    "FmaxBinarySearchOptimizer",
    "GuidedLaneOptimizer",
    "SuccessiveHalvingOptimizer",
    "SurrogatePrunedOptimizer",
    "ExplorationEngine",
    "ProcessPoolBackend",
    "SerialBackend",
    "SweepEntry",
    "SweepResult",
    "canonical_report_dict",
    "stats_view",
    "pareto_frontier",
    "RooflinePoint",
    "roofline_analysis",
    "CaseStudyConfig",
    "CaseStudyPoint",
    "run_sor_case_study",
]
