"""Edge-case tests for the guided lane walk's wall detection.

The :class:`~repro.explore.optimizer.GuidedLaneOptimizer` stops expanding
the lane axis on two conditions: the variant no longer fits the device
(computation wall) or throughput stops improving while the design is
bandwidth bound (communication wall).  These tests drive the decision
logic with crafted cost reports through ``drive_optimizer`` so each
boundary is exercised exactly.
"""

from dataclasses import dataclass

import pytest

from repro.cost.throughput import LimitingFactor
from repro.explore import (
    DesignPoint,
    GuidedLaneOptimizer,
    SweepEntry,
    SweepResult,
    VariantRecord,
    drive_optimizer,
)


@dataclass
class FakeFeasibility:
    fits_resources: bool = True
    fits_bandwidth: bool = True

    @property
    def feasible(self) -> bool:
        return self.fits_resources and self.fits_bandwidth


@dataclass
class FakeReport:
    ekit: float
    limiting_factor: LimitingFactor = LimitingFactor.COMPUTE
    fits_resources: bool = True
    estimation_seconds: float = 0.0

    @property
    def feasibility(self) -> FakeFeasibility:
        return FakeFeasibility(fits_resources=self.fits_resources)

    @property
    def feasible(self) -> bool:
        return self.fits_resources


class FakeCompiler:
    """Serves pre-scripted reports keyed by lane count."""

    def __init__(self, reports: dict[int, FakeReport]):
        self._reports = reports
        self.costed: list[int] = []

    def cost(self, module, workload, pattern=None):
        lanes = module  # the fake variants carry the lane count as module
        self.costed.append(lanes)
        return self._reports[lanes]


def make_variants(lanes: list[int]) -> list[VariantRecord]:
    return [
        VariantRecord(kernel="fake", lanes=l, module=l, workload=None) for l in lanes
    ]


def guided_walk(compiler: FakeCompiler, variants, **kwargs) -> SweepResult:
    """Drive a guided lane walk through ``compiler``; the costed entries."""
    optimizer = GuidedLaneOptimizer(variants, **kwargs)

    def evaluate(points):
        return [
            SweepEntry(p, compiler.cost(optimizer.variant_for(p).module, None))
            for p in points
        ]

    entries, _ = drive_optimizer(optimizer, evaluate)
    return SweepResult(entries=entries)


def best_lanes(result: SweepResult) -> int | None:
    best = result.best()
    return best.point.lanes if best is not None else None


class TestComputationWall:
    def test_stops_at_first_infeasible_variant(self):
        compiler = FakeCompiler({
            1: FakeReport(ekit=1.0),
            2: FakeReport(ekit=2.0),
            4: FakeReport(ekit=3.0, fits_resources=False),
            8: FakeReport(ekit=4.0),
        })
        result = guided_walk(compiler, make_variants([1, 2, 4, 8]))
        # the infeasible variant is evaluated (that is how the wall is
        # found) but nothing beyond it
        assert compiler.costed == [1, 2, 4]
        assert result.evaluated == 3
        assert best_lanes(result) == 2

    def test_computation_wall_wins_even_when_still_scaling(self):
        compiler = FakeCompiler({
            1: FakeReport(ekit=1.0),
            2: FakeReport(ekit=10.0, fits_resources=False),
            4: FakeReport(ekit=100.0),
        })
        result = guided_walk(compiler, make_variants([1, 2, 4]))
        assert compiler.costed == [1, 2]
        assert best_lanes(result) == 1

    def test_variants_walked_in_lane_order(self):
        compiler = FakeCompiler({l: FakeReport(ekit=float(l)) for l in (1, 2, 4)})
        guided_walk(compiler, make_variants([4, 1, 2]))
        assert compiler.costed == [1, 2, 4]


class TestCommunicationWall:
    def test_stops_when_bandwidth_bound_and_gain_below_threshold(self):
        compiler = FakeCompiler({
            1: FakeReport(ekit=100.0),
            2: FakeReport(ekit=103.0, limiting_factor=LimitingFactor.HOST_BANDWIDTH),
            4: FakeReport(ekit=104.0, limiting_factor=LimitingFactor.HOST_BANDWIDTH),
        })
        result = guided_walk(compiler, make_variants([1, 2, 4]), min_gain=1.05)
        # 103 < 100 * 1.05 while host-bandwidth bound: the wall
        assert compiler.costed == [1, 2]
        assert best_lanes(result) == 2

    def test_dram_wall_detected_like_host_wall(self):
        compiler = FakeCompiler({
            1: FakeReport(ekit=100.0),
            2: FakeReport(ekit=101.0, limiting_factor=LimitingFactor.DRAM_BANDWIDTH),
            4: FakeReport(ekit=102.0),
        })
        result = guided_walk(compiler, make_variants([1, 2, 4]), min_gain=1.05)
        assert compiler.costed == [1, 2]
        assert result.evaluated == 2

    def test_low_gain_while_compute_bound_keeps_going(self):
        # adding lanes to a compute-bound design can still pay off later,
        # so a small step is not a wall
        compiler = FakeCompiler({
            1: FakeReport(ekit=100.0),
            2: FakeReport(ekit=101.0, limiting_factor=LimitingFactor.COMPUTE),
            4: FakeReport(ekit=200.0),
        })
        result = guided_walk(compiler, make_variants([1, 2, 4]), min_gain=1.05)
        assert compiler.costed == [1, 2, 4]
        assert best_lanes(result) == 4


class TestMinGainBoundary:
    def test_gain_exactly_at_threshold_continues(self):
        # the wall condition is *strictly below* min_gain
        compiler = FakeCompiler({
            1: FakeReport(ekit=100.0),
            2: FakeReport(ekit=105.0, limiting_factor=LimitingFactor.HOST_BANDWIDTH),
            4: FakeReport(ekit=110.0, limiting_factor=LimitingFactor.HOST_BANDWIDTH),
        })
        result = guided_walk(compiler, make_variants([1, 2, 4]), min_gain=1.05)
        # 105 == 100 * 1.05 -> not a wall; 110 < 105 * 1.05 -> wall
        assert compiler.costed == [1, 2, 4]
        assert result.evaluated == 3

    def test_min_gain_one_stops_only_on_regression(self):
        compiler = FakeCompiler({
            1: FakeReport(ekit=100.0),
            2: FakeReport(ekit=100.0, limiting_factor=LimitingFactor.HOST_BANDWIDTH),
            4: FakeReport(ekit=99.0, limiting_factor=LimitingFactor.HOST_BANDWIDTH),
        })
        result = guided_walk(compiler, make_variants([1, 2, 4]), min_gain=1.0)
        # equal throughput is not below min_gain=1.0; the regression at 4 is
        assert compiler.costed == [1, 2, 4]
        assert result.evaluated == 3

    def test_requires_nonempty_variants(self):
        with pytest.raises(ValueError):
            guided_walk(FakeCompiler({}), [])


class TestBestSelection:
    @staticmethod
    def _sweep(reports: dict[int, FakeReport]) -> SweepResult:
        return SweepResult(entries=[
            SweepEntry(DesignPoint(kernel="fake", lanes=l, grid=(), iterations=0), r)
            for l, r in reports.items()
        ])

    def test_best_ignores_infeasible(self):
        result = self._sweep({
            1: FakeReport(ekit=1.0),
            2: FakeReport(ekit=50.0, fits_resources=False),
            4: FakeReport(ekit=10.0),
        })
        assert best_lanes(result) == 4

    def test_no_feasible_variant_leaves_best_none(self):
        result = self._sweep({1: FakeReport(ekit=1.0, fits_resources=False)})
        assert best_lanes(result) is None
        assert result.best() is None

    def test_ties_keep_the_first_in_sweep_order(self):
        result = self._sweep({
            1: FakeReport(ekit=5.0),
            2: FakeReport(ekit=5.0),
        })
        assert best_lanes(result) == 1
