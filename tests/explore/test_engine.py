"""Tests for the multi-axis design space and the exploration engine."""

import json
from types import SimpleNamespace

import pytest

from repro.explore import (
    DesignPoint,
    DesignSpace,
    ExplorationEngine,
    SerialBackend,
    SweepEntry,
    SweepResult,
    build_jobs,
    pareto_frontier,
)
from repro.kernels import SORKernel
from repro.models import MemoryExecutionForm, PatternKind
from repro.substrate import MAIA_STRATIX_V_GSD8, SMALL_EDU_DEVICE

GRID = (8, 8, 8)


def make_space(**overrides) -> DesignSpace:
    settings = dict(kernel=SORKernel(), grid=GRID, iterations=10, max_lanes=4)
    settings.update(overrides)
    return DesignSpace(**settings)


class TestDesignSpace:
    def test_single_axis_space_matches_lane_sweep(self):
        space = make_space()
        assert space.lane_counts() == [1, 2, 4]
        assert len(space) == 3
        assert space.active_axes == ["lanes"]

    def test_lanes_filtered_to_divisors(self):
        space = make_space(lanes=[1, 3, 4, 7, 16])
        assert space.lane_counts() == [1, 4, 16]

    def test_repeated_lanes_fold_in_first_seen_order(self):
        space = make_space(lanes=[4, 1, 4, 2, 1])
        assert space.lane_counts() == [4, 1, 2]
        assert len(space) == 3

    def test_cartesian_product(self):
        space = make_space(
            clocks_mhz=(100.0, 200.0),
            forms=("A", "B"),
            patterns=(PatternKind.CONTIGUOUS, PatternKind.STRIDED),
        )
        assert len(space) == 3 * 2 * 2 * 2
        assert set(space.active_axes) == {"lanes", "clock_mhz", "form", "pattern"}
        points = space.points()
        assert len(points) == len(space)
        assert len(set(points)) == len(points)  # all distinct, hashable

    def test_kernel_by_name(self):
        space = DesignSpace(kernel="sor", grid=GRID, iterations=5)
        assert space.kernel.name == "sor"

    def test_points_are_picklable(self):
        import pickle

        point = make_space().points()[0]
        assert pickle.loads(pickle.dumps(point)) == point

    def test_build_jobs_shares_modules_across_axes(self):
        space = make_space(clocks_mhz=(100.0, 200.0))
        jobs = build_jobs(space)
        assert len(jobs) == 6
        by_lane = {}
        for job in jobs:
            by_lane.setdefault(job.point.lanes, set()).add(id(job.module))
        # one lowered module per lane count, shared by both clock points
        assert all(len(ids) == 1 for ids in by_lane.values())

    def test_point_options_roundtrip(self):
        point = DesignPoint(
            kernel="sor", lanes=2, grid=GRID, iterations=10,
            clock_mhz=123.0, form="B", device=SMALL_EDU_DEVICE,
        )
        options = point.compilation_options()
        assert options.device is SMALL_EDU_DEVICE
        assert options.resolved_clock_mhz() == 123.0
        assert MemoryExecutionForm(options.form) is MemoryExecutionForm.B


class TestEngineSerial:
    def test_cost_many_preserves_job_order(self):
        jobs = build_jobs(make_space(clocks_mhz=(100.0, 200.0)))[::-1]
        sweep = ExplorationEngine().cost_many(jobs)
        assert [e.point for e in sweep.entries] == [job.point for job in jobs]
        assert [e.point.lanes for e in sweep.entries] == [4, 4, 2, 2, 1, 1]
        assert sweep.evaluated == 6
        assert sweep.wall_seconds > 0
        assert sweep.variants_per_second > 0

    def test_explore_keeps_sweep_order(self):
        sweep = ExplorationEngine().explore(make_space())
        assert [e.point.lanes for e in sweep.entries] == [1, 2, 4]

    def test_best_is_fastest_feasible(self):
        sweep = ExplorationEngine().explore(make_space())
        best = sweep.best()
        assert best is not None
        assert best.report.feasible
        assert best.report.ekit == max(e.report.ekit for e in sweep.feasible())

    def test_summary_rows_carry_all_axes(self):
        sweep = ExplorationEngine().explore(make_space(clocks_mhz=(100.0, 200.0)))
        rows = sweep.summary_rows()
        assert len(rows) == 6
        for row in rows:
            assert {"lanes", "clock_mhz", "form", "device", "pattern",
                    "ewgt_per_s", "limiting_factor", "feasible"} <= set(row)

    def test_one_session_per_device_however_many_clocks(self):
        backend = SerialBackend()
        engine = ExplorationEngine(backend)
        devices = (MAIA_STRATIX_V_GSD8, SMALL_EDU_DEVICE)
        for n in range(6):
            engine.explore(make_space(devices=devices, forms=("A", "B", "C"),
                                      clocks_mhz=(100.0 + n, 150.0 + n)))
        engine.cost_many(build_jobs(make_space(devices=devices, clocks_mhz=(321.0,))))
        # a point's clock and form are report inputs, not session keys
        assert len(backend._pipelines) == 2
        # one calibration lookup per device session
        assert sum(backend.collect_stats()["calibration"]) == 2

    def test_clock_axis_changes_reports(self):
        sweep = ExplorationEngine().explore(make_space(clocks_mhz=(100.0, 200.0)))
        by_clock = {}
        for entry in sweep.entries:
            by_clock.setdefault(entry.point.clock_mhz, []).append(entry.report.ekit)
        assert by_clock[200.0] != by_clock[100.0]


class TestSerialBackend:
    def test_preserves_job_order(self):
        jobs = build_jobs(make_space())
        sweep = ExplorationEngine(SerialBackend()).cost_many(jobs)
        assert [e.point.lanes for e in sweep.entries] == [j.point.lanes for j in jobs]

    def test_empty_batch(self):
        assert SerialBackend().run([]) == []

    def test_sweep_reports_aggregated_stats(self):
        sweep = ExplorationEngine(SerialBackend()).cost_many(
            build_jobs(make_space()))
        assert "stage_seconds" in sweep.stats
        assert sum(sweep.stats["variant"]) == sweep.evaluated


class TestOptionsFidelity:
    def test_variant_jobs_honour_compiler_options(self):
        """Regression: lane-variant jobs must cost with the compiler's own
        options (synthesis noise, injected models), not point-derived
        defaults."""
        from repro.compiler import CompilationOptions, TybecCompiler
        from repro.explore import CostJob, canonical_report_dict, generate_lane_variants

        compiler = TybecCompiler(
            CompilationOptions(device=SMALL_EDU_DEVICE, synthesis_noise=0.4)
        )
        variants = generate_lane_variants(SORKernel(), grid=GRID, iterations=10, max_lanes=2)
        result = ExplorationEngine().cost_many(
            [CostJob.from_variant(v, compiler.options) for v in variants])
        for variant, entry in zip(variants, result.entries):
            direct = compiler.cost(variant.module, variant.workload)
            assert entry.point.lanes == variant.lanes
            assert canonical_report_dict(entry.report) == (
                canonical_report_dict(direct)
            )


class TestParetoFrontier:
    def test_non_dominated_selection(self):
        # score tuples (maximised): frontier is exactly the non-dominated set
        entries = [
            ("a", (1.0, -0.1)),   # dominated by c (slower, same area)
            ("b", (2.0, -0.5)),   # frontier: fastest
            ("c", (1.5, -0.1)),   # frontier: best speed at low area
            ("d", (1.4, -0.4)),   # dominated by b and c
        ]
        frontier = pareto_frontier(
            entries,
            objectives=(lambda e: e[1][0], lambda e: e[1][1]),
        )
        assert [name for name, _ in frontier] == ["b", "c"]

    def test_ties_are_kept(self):
        entries = [("a", (1.0, 1.0)), ("b", (1.0, 1.0))]
        frontier = pareto_frontier(
            entries, objectives=(lambda e: e[1][0], lambda e: e[1][1])
        )
        assert len(frontier) == 2

    def test_sweep_frontier_contains_best(self):
        sweep = ExplorationEngine().explore(
            make_space(devices=(SMALL_EDU_DEVICE,), max_lanes=8)
        )
        frontier = sweep.pareto_frontier()
        assert frontier
        assert all(any(f is e for e in sweep.entries) for f in frontier)

    def test_sweep_frontier_excludes_infeasible_points(self):
        # lanes 8/16 overflow the small device: they must not be
        # recommended, however fast the cost model says they would be
        sweep = ExplorationEngine().explore(
            make_space(devices=(SMALL_EDU_DEVICE,), max_lanes=16)
        )
        assert any(not e.report.feasible for e in sweep.entries)
        frontier = sweep.pareto_frontier()
        assert frontier
        assert all(e.report.feasible for e in frontier)
        # the escape hatch still exposes the raw frontier
        raw = sweep.pareto_frontier(include_infeasible=True)
        assert len(raw) >= 1
        # frontier trades throughput against area: sorted by utilisation,
        # throughput must rise
        ordered = sorted(
            frontier, key=lambda e: e.report.feasibility.limiting_resource_utilization
        )
        ekits = [e.report.ekit for e in ordered]
        assert ekits == sorted(ekits)


class TestBestSelection:
    """``SweepResult.best()`` on scripted (ekit, feasible) reports."""

    @staticmethod
    def _best_lanes(reports: dict[int, tuple[float, bool]]) -> int | None:
        best = SweepResult(entries=[
            SweepEntry(DesignPoint(kernel="fake", lanes=lanes, grid=(), iterations=0),
                       SimpleNamespace(ekit=ekit, feasible=feasible))
            for lanes, (ekit, feasible) in reports.items()
        ]).best()
        return best.point.lanes if best is not None else None

    def test_best_ignores_infeasible(self):
        assert self._best_lanes({1: (1.0, True), 2: (50.0, False),
                                 4: (10.0, True)}) == 4

    def test_no_feasible_variant_leaves_best_none(self):
        assert self._best_lanes({1: (1.0, False)}) is None

    def test_ties_keep_the_first_in_sweep_order(self):
        assert self._best_lanes({1: (5.0, True), 2: (5.0, True)}) == 1
