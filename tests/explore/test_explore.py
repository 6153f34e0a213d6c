"""Tests for variant generation, search strategies, roofline and the case study."""

import pytest

from repro.compiler import CompilationOptions, TybecCompiler
from repro.explore import (
    CaseStudyConfig,
    CostJob,
    DesignSpace,
    ExplorationEngine,
    GuidedLaneOptimizer,
    SerialBackend,
    SweepEntry,
    SweepResult,
    drive_optimizer,
    generate_lane_variants,
    roofline_analysis,
    run_sor_case_study,
)
from repro.kernels import SORKernel, get_kernel
from repro.substrate import MAIA_STRATIX_V_GSD8, SMALL_EDU_DEVICE


GRID = (8, 8, 8)


def exhaustive(compiler, variants) -> SweepResult:
    """Cost every variant through the compiler's own pipeline."""
    engine = ExplorationEngine(SerialBackend(pipeline=compiler))
    return engine.cost_many([CostJob.from_variant(v, compiler.options) for v in variants])


def guided(compiler, variants) -> SweepResult:
    """The guided lane walk, costed directly by ``compiler``."""
    optimizer = GuidedLaneOptimizer(variants, options=compiler.options)
    entries, _ = drive_optimizer(optimizer, lambda points: [
        SweepEntry(p, compiler.cost(optimizer.variant_for(p).module,
                                    optimizer.variant_for(p).workload))
        for p in points])
    return SweepResult(entries=entries)


def by_lanes(result: SweepResult) -> dict:
    return {e.point.lanes: e.report for e in result.entries}


@pytest.fixture(scope="module")
def compiler():
    return TybecCompiler(CompilationOptions(device=MAIA_STRATIX_V_GSD8))


@pytest.fixture(scope="module")
def variants():
    return generate_lane_variants(SORKernel(), grid=GRID, iterations=50, max_lanes=8)


class TestVariantGeneration:
    def test_variants_take_the_space_lane_counts(self):
        # 8^3 = 512 points: 1, 2 and 4 divide it, 3, 5 and 6 do not
        counts = DesignSpace(SORKernel(), grid=GRID, max_lanes=6).lane_counts()
        assert counts == [1, 2, 4]
        variants = generate_lane_variants(SORKernel(), grid=GRID, max_lanes=6)
        assert [v.lanes for v in variants] == counts

    def test_explicit_counts_are_filtered_to_divisors(self):
        counts = DesignSpace(SORKernel(), grid=GRID, lanes=[1, 3, 4, 16]).lane_counts()
        assert counts == [1, 4, 16]
        variants = generate_lane_variants(SORKernel(), grid=GRID,
                                          lane_counts=[1, 3, 4, 16])
        assert [v.lanes for v in variants] == counts

    def test_generate_variants(self, variants):
        assert [v.lanes for v in variants] == [1, 2, 4, 8]
        for v in variants:
            assert v.module.has_function("sor_pe")
            assert v.workload.repetitions == 50
            assert v.name.endswith(f"l{v.lanes}")


class TestSearch:
    def test_exhaustive_sweep_finds_best(self, compiler, variants):
        result = exhaustive(compiler, variants)
        reports = by_lanes(result)
        assert result.evaluated == len(variants)
        best = result.best()
        assert best is not None
        assert best.point.lanes in {v.lanes for v in variants}
        assert best.report.feasible
        # on a large device with generous bandwidth, widening never hurts:
        # the best variant is at least as fast as the single-lane baseline
        assert best.report.ekit >= reports[1].ekit
        assert best.point.lanes >= 1
        assert result.estimation_seconds < 5.0

    def test_summary_rows(self, compiler, variants):
        result = exhaustive(compiler, variants)
        rows = result.summary_rows()
        assert len(rows) == len(variants)
        assert rows[0]["lanes"] == 1
        assert all(row["ewgt_per_s"] > 0 for row in rows)
        # resource utilisation grows with lanes
        assert rows[-1]["alut_pct"] > rows[0]["alut_pct"]

    def test_exhaustive_sweep_of_no_variants_is_empty(self, compiler):
        result = exhaustive(compiler, [])
        assert result.evaluated == 0
        assert result.best() is None

    def test_guided_walk_stops_at_computation_wall(self, variants):
        tiny = TybecCompiler(CompilationOptions(device=SMALL_EDU_DEVICE))
        reports = by_lanes(guided(tiny, variants))
        # the small device cannot fit many lanes, so the search stops early
        assert len(reports) <= len(variants)
        infeasible = [l for l, r in reports.items() if not r.feasibility.fits_resources]
        if infeasible:
            assert max(reports) == min(infeasible)

    def test_guided_walk_matches_exhaustive_best_on_big_device(self, compiler, variants):
        walked = guided(compiler, variants).best()
        swept = exhaustive(compiler, variants).best()
        assert walked.point.lanes == swept.point.lanes


class TestRoofline:
    def test_roofline_points(self, compiler, variants):
        points = roofline_analysis(by_lanes(exhaustive(compiler, variants)),
                                   ops_per_item=SORKernel.ops_per_item)
        assert len(points) == len(variants)
        for point in points:
            assert point.operational_intensity > 0
            assert point.attainable_gops > 0
            assert point.attainable_gops <= max(point.compute_roof_gops,
                                                point.bandwidth_roof_gops) * 1.01
            assert point.bound in ("compute", "memory")
        # compute roof scales with lanes
        assert points[-1].compute_roof_gops > points[0].compute_roof_gops
        assert points[0].as_dict()["lanes"] == 1


class TestCaseStudy:
    @pytest.fixture(scope="class")
    def points(self):
        return run_sor_case_study(grid_sides=(24, 96, 192),
                                  config=CaseStudyConfig(iterations=100))

    def test_case_study_shape_runtime(self, points):
        by_side = {p.grid_side: p for p in points}
        # at the smallest grid the FPGA overheads dominate: tytra is not the winner
        assert by_side[24].tytra_speedup_vs_cpu < 1.5
        # at large grids tytra wins clearly over both cpu and maxJ
        assert by_side[192].tytra_speedup_vs_cpu > 1.5
        assert by_side[192].tytra_speedup_vs_maxj > 2.0
        # the straightforward HLS port stays slower than the CPU (the paper's
        # observation about unexplored parallelism)
        assert by_side[192].maxj_seconds > by_side[192].cpu_seconds

    def test_case_study_shape_energy(self, points):
        big = max(points, key=lambda p: p.grid_side)
        assert big.tytra_energy_gain_vs_cpu > 3.0
        assert big.tytra_energy_gain_vs_maxj > 1.5
        norm = big.energy_normalised
        assert norm["fpga-tytra"] < norm["fpga-maxJ"]
        assert norm["cpu"] == 1.0

    def test_runtime_scales_with_grid(self, points):
        ordered = sorted(points, key=lambda p: p.grid_side)
        assert ordered[-1].cpu_seconds > ordered[0].cpu_seconds
        assert ordered[-1].tytra_seconds > ordered[0].tytra_seconds

    def test_as_dict(self, points):
        d = points[0].as_dict()
        assert d["grid_side"] == 24
        assert "runtime_normalised" in d
