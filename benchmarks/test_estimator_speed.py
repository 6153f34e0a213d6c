"""Experiment E7 — estimator speed (paper §VI-A).

The paper stresses that the estimator is very fast: the (Perl) prototype
takes about 0.3 s to evaluate one variant, more than 200x faster than the
preliminary estimates of a commercial HLS flow (close to 70 s for
SDAccel), and the gap is expected to widen for larger designs.

The benchmark measures the Python reproduction's per-variant estimation
time (excluding the one-time per-device calibration, exactly as the paper
does) and compares it against the documented HLS estimation-latency model.
"""

import json

import pytest

from repro.compiler.pipeline import clear_calibration_cache
from repro.explore import DesignSpace, ExplorationEngine, build_jobs
from repro.kernels import SORKernel
from repro.substrate import BaselineHLSFlow, MAIA_STRATIX_V_GSD8

from .conftest import format_table

GRID = (24, 24, 24)
LANES = 4
PAPER_TYTRA_SECONDS = 0.3
PAPER_HLS_SECONDS = 70.0


@pytest.fixture(scope="module")
def variant(maia_compiler):
    kernel = SORKernel()
    module = kernel.build_module(lanes=LANES, grid=GRID)
    workload = kernel.workload(GRID, iterations=1000)
    # warm the one-time per-device inputs so the measurement is per-variant
    maia_compiler.cost(module, workload)
    return module, workload


def test_estimator_speed_vs_hls(benchmark, maia_compiler, variant, write_result):
    module, workload = variant
    report = benchmark(maia_compiler.cost, module, workload)

    per_variant_seconds = benchmark.stats.stats.mean
    hls_seconds = BaselineHLSFlow(MAIA_STRATIX_V_GSD8).estimate_report_time(
        report.resources.structure.instructions_per_pe
    )
    speedup_vs_hls = hls_seconds / per_variant_seconds

    write_result(
        "estimator_speed",
        format_table(
            ["estimator", "seconds per variant", "speedup vs HLS estimate"],
            [
                ["this reproduction (Python)", round(per_variant_seconds, 4),
                 f"{speedup_vs_hls:.0f}x"],
                ["paper's prototype (Perl)", PAPER_TYTRA_SECONDS,
                 f"{PAPER_HLS_SECONDS / PAPER_TYTRA_SECONDS:.0f}x"],
                ["commercial HLS preliminary estimate (modelled)", round(hls_seconds, 1), "1x"],
            ],
            title="Estimator speed: one SOR variant (4 lanes, 24^3 grid)",
        ),
    )

    # comfortably inside the paper's 0.3 s envelope, and far beyond its 200x claim
    assert per_variant_seconds < PAPER_TYTRA_SECONDS
    assert speedup_vs_hls > 200
    assert report.ekit > 0


def test_estimation_time_scales_gently_with_design_size(maia_compiler, write_result):
    """Costing stays sub-second even for much wider variants."""
    kernel = SORKernel()
    rows = []
    for lanes in (1, 4, 16):
        module = kernel.build_module(lanes=lanes, grid=GRID)
        report = maia_compiler.cost(module, kernel.workload(GRID, 1000))
        rows.append([lanes, round(report.estimation_seconds * 1e3, 2)])
        assert report.estimation_seconds < PAPER_TYTRA_SECONDS
    write_result(
        "estimator_speed_scaling",
        format_table(["lanes", "estimation time (ms)"], rows,
                     title="Estimation time vs variant width"),
    )


def test_explore_engine_throughput(maia_compiler, results_dir):
    """Record the exploration engine's variants/sec in BENCH_explore.json.

    A multi-axis sweep (lanes x clock) runs twice through one engine: the
    first pass pays for analysis and resource estimation, the repeat pass
    exercises the memoizing pipeline.  The recorded figures are the CI
    throughput artifact for the scaling roadmap.
    """
    space = DesignSpace(
        kernel=SORKernel(),
        grid=GRID,
        iterations=10,
        max_lanes=16,
        clocks_mhz=(100.0, 150.0, 200.0, 250.0),
    )
    engine = ExplorationEngine()
    jobs = build_jobs(space)
    # earlier tests analysed this family in-process, and its cost groups
    # hold that analysis; forget both so the first pass pays for it, as
    # the docstring says
    clear_calibration_cache()
    first = engine.cost_many(jobs)
    repeat = engine.cost_many(jobs)

    payload = {
        "kernel": "sor",
        "grid": list(GRID),
        "axes": space.axis_sizes(),
        "points": len(space),
        "first_pass": {
            "wall_seconds": first.wall_seconds,
            "variants_per_second": first.variants_per_second,
            "stage_seconds": first.stats.get("stage_seconds", {}),
            "family_hits_misses": first.stats.get("family"),
        },
        "memoized_pass": {
            "wall_seconds": repeat.wall_seconds,
            "variants_per_second": repeat.variants_per_second,
            "stage_seconds": repeat.stats.get("stage_seconds", {}),
        },
        "memoization_speedup": (
            first.wall_seconds / repeat.wall_seconds if repeat.wall_seconds > 0 else None
        ),
    }
    (results_dir / "BENCH_explore.json").write_text(json.dumps(payload, indent=2) + "\n")

    assert first.evaluated == repeat.evaluated == len(space) >= 20
    # the engine clears the paper's per-variant envelope with huge headroom
    assert first.variants_per_second > 1.0 / PAPER_TYTRA_SECONDS
    assert repeat.wall_seconds < first.wall_seconds
    # lane scaling carried the lane axis: one full analysis for the family
    hits, misses = first.stats["family"]
    assert misses <= 1 and hits >= 1


def test_per_stage_breakdown_names_the_guilty_stage(results_dir, write_result):
    """Per-stage wall-time split of one cold multi-axis sweep.

    When estimator speed regresses, this table (and the same data inside
    ``BENCH_explore.json``/``BENCH_suite.json``) says *which* stage —
    parse, analyze, resource, throughput, feasibility or calibrate — ate
    the time, instead of a single opaque number.
    """
    from repro.compiler.pipeline import clear_calibration_cache

    clear_calibration_cache()  # a cold sweep exercises every stage
    space = DesignSpace(
        kernel=SORKernel(), grid=GRID, iterations=10,
        max_lanes=16, clocks_mhz=(150.0, 250.0),
    )
    sweep = ExplorationEngine().cost_many(build_jobs(space))

    rows = [[row["stage"], round(row["seconds"] * 1e3, 3),
             f"{row['share'] * 100:.1f}%"]
            for row in sweep.stage_timing_rows()]
    write_result(
        "estimator_stage_breakdown",
        format_table(["stage", "wall (ms)", "share"], rows,
                     title=f"Stage breakdown of a cold {sweep.evaluated}-point sweep"),
    )

    stages = {row[0] for row in rows}
    assert {"analyze", "resource", "throughput", "feasibility", "calibrate"} <= stages
    # every stage is accounted for and none dominates pathologically
    assert all(seconds >= 0 for _, seconds, _ in rows)
    assert sum(seconds for _, seconds, _ in rows) > 0
