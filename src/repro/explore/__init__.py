"""Design-space exploration built on the cost model.

This package implements the use-case the paper motivates: generate many
design variants by type transformations, cost each one in a fraction of a
second, and select the best feasible design — the guided optimisation
search of §II, and the variant sweep of Figure 15 — generalised to
multi-axis design spaces.

``space``
    Multi-axis design spaces (lanes x clock x memory-execution form x
    device x access pattern) and their lowering into cost jobs.
``engine``
    The batched exploration engine: the serial evaluation backend with
    its two loops (a whole space through ``cost_space``, a job list
    through ``run``), ``ExplorationEngine`` (``explore``, ``cost_many``
    and the optimizer driver ``run_optimizer``) and sweep results with
    Pareto selection (the dense backend lives in ``dense``).
``optimizer``
    Incremental exploration: the ``Optimizer`` protocol
    (``next_batch``/``job_for``/``process_outcome``), the exhaustive,
    fmax binary-search, successive-halving and surrogate-pruned
    optimizers the engine's driver loop runs, and the guided
    (wall-following) lane walk.
``variants``
    Generation of lane-count variant families for a kernel as lowered
    modules; a variant list is costed with ``ExplorationEngine.cost_many``
    over ``CostJob.from_variant`` jobs, which keeps a compiler's own
    options (a plain lane sweep is a ``DesignSpace`` through
    ``ExplorationEngine.explore``).
``roofline``
    A roofline-style view of variants (operational intensity vs attainable
    performance), following the paper's pointer to the FPGA roofline
    extension of da Silva et al.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cost.vector": ("DenseUnsupportedError", "pareto_mask"),
    "repro.explore.variants": (
        "VariantRecord", "generate_lane_variants",
    ),
    "repro.explore.space": (
        "CostJob", "DenseGrid", "DesignPoint", "DesignSpace", "build_jobs",
        "clock_range", "linspace_clocks",
    ),
    "repro.explore.engine": (
        "ExplorationEngine", "SerialBackend",
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
