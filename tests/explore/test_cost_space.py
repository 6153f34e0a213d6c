"""The whole-space path against the per-point batch oracle.

``cost_space`` resolves each (lanes, device, pattern) cost group once and
fills its points through one loop; the dense backend, a subclass of the
serial one, inherits it.  Its entries must be byte-identical to costing
every point of the space as a job batch
(``SerialBackend.run(build_jobs(space))``), which
calls ``EstimationPipeline.cost`` once per point, and its stats must
count the same cache lookups.  The same must hold with lane scaling off
and when a deadline expires part-way; ``tests/resilience/test_chaos.py``
covers injected faults and ``tests/service/test_service.py`` the
service's streamed ``/suite`` lines.
"""

from __future__ import annotations

import itertools

import pytest

from repro.compiler.pipeline import clear_calibration_cache
from repro.explore import DenseBackend, ExplorationEngine, SerialBackend
from repro.explore.engine import SweepEntry, SweepResult
from repro.explore.space import DesignSpace, build_jobs
from repro.kernels import REGISTRY, get_kernel
from repro.models.streaming import PatternKind
from repro.resilience import Deadline, DeadlineExceededError
from repro.substrate import get_device
from repro.suite import SuiteConfig, WorkloadSuite, tiny_grid
from repro.suite.report import canonical_json_line

KERNELS = tuple(REGISTRY.names())

#: two devices, every form, every pattern and three clocks (the device's
#: fmax among them)
AXES = dict(
    devices=(get_device("stratix-v"), get_device("virtex-7")),
    forms=("A", "B", "C", "auto"),
    patterns=tuple(PatternKind),
    clocks_mhz=(None, 150.0, 237.5),
)


def _space(kernel: str, **axes) -> DesignSpace:
    return DesignSpace(kernel=get_kernel(kernel),
                       grid=tiny_grid(get_kernel(kernel).default_grid),
                       iterations=10, max_lanes=4, **axes)


def _lines(entries) -> list[str]:
    return [canonical_json_line(entry) for entry in entries]


def _batch(space: DesignSpace, backend: SerialBackend) -> list[SweepEntry]:
    jobs = build_jobs(space)
    return [SweepEntry(job.point, report)
            for job, report in zip(jobs, backend.run(jobs))]


def _counts(stats: dict) -> dict:
    """The stats without their wall times."""
    return {key: value for key, value in stats.items() if key != "stage_seconds"}


def _from_cleared_caches(cost):
    clear_calibration_cache()
    try:
        return cost()
    finally:
        clear_calibration_cache()


@pytest.fixture(params=["1", "0"], ids=["lane-scaling", "full-path"])
def lane_scaling(request, monkeypatch):
    monkeypatch.setenv("TYBEC_LANE_SCALING", request.param)
    return request.param


class TestSerialSpaceMatchesTheBatch:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_entries_and_lookup_counts(self, kernel, lane_scaling):
        space = _space(kernel, **AXES)
        # both sides start from cleared process caches over a warm store
        _from_cleared_caches(lambda: _batch(space, SerialBackend()))
        batch_backend, space_backend = SerialBackend(), SerialBackend()
        batch = _from_cleared_caches(lambda: _batch(space, batch_backend))
        result = _from_cleared_caches(lambda: space_backend.cost_space(space))
        assert len(result.entries) == len(space) == len(batch)
        assert _lines(result.entries) == _lines(batch)
        assert [e.point for e in result.entries] == [e.point for e in batch]
        assert _counts(result.stats) == _counts(batch_backend.collect_stats())
        assert sum(result.stats["variant"]) == len(space)

    def test_stage_times_cover_the_point_tail(self):
        result = SerialBackend().cost_space(_space("sor", **AXES))
        seconds = result.stats["stage_seconds"]
        assert {"throughput", "feasibility"} <= set(seconds)
        assert all(e.report.estimation_seconds > 0 for e in result.entries)

    def test_on_entry_streams_every_point_in_order(self):
        space = _space("matmul", **AXES)
        seen: list[tuple[int, SweepEntry]] = []
        result = SerialBackend().cost_space(
            space, on_entry=lambda index, entry: seen.append((index, entry)))
        assert seen == list(enumerate(result.entries))

    def test_empty_space_costs_nothing(self):
        space = _space("sor", lanes=[7])
        assert len(space) == 0
        backend = SerialBackend()
        assert backend.cost_space(space).entries == []
        assert backend.families() == []


class TestDenseSpace:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_dense_cost_space_matches_the_batch(self, kernel):
        space = _space(kernel, **AXES)
        result = DenseBackend().cost_space(space)
        assert _lines(result.entries) == _lines(_batch(space, SerialBackend()))

    def test_unsupported_space_is_costed_by_the_serial_walk(self, monkeypatch):
        from repro.cost.vector import DenseUnsupportedError
        from repro.resilience import COUNTERS

        monkeypatch.setenv("TYBEC_LANE_SCALING", "0")
        space = _space("sor", **AXES)
        backend = DenseBackend()
        with pytest.raises(DenseUnsupportedError):
            backend.explore_space(space)
        before = COUNTERS.get("fallbacks.dense")
        seen = []
        result = backend.cost_space(space, on_entry=lambda i, e: seen.append(i))
        # nothing falls back: a whole space always goes to the serial walk
        assert COUNTERS.get("fallbacks.dense") == before
        assert seen == list(range(len(space)))
        serial = SerialBackend().cost_space(space)
        assert _lines(result.entries) == _lines(serial.entries)
        assert _lines(result.entries) == _lines(_batch(space, SerialBackend()))
        assert result.stats == backend.collect_stats()


def _expiring(after: int) -> Deadline:
    """A deadline that expires once its clock has been read ``after`` times."""
    reads = itertools.count()
    return Deadline(1.0, clock=lambda: 0.0 if next(reads) < after else 10.0)


class TestDeadline:
    @pytest.mark.parametrize("backend", [SerialBackend, DenseBackend])
    def test_expiry_mid_space_raises_the_batch_error(self, backend):
        space = _space("hotspot", **AXES)
        with pytest.raises(DeadlineExceededError) as batch_error:
            SerialBackend().run(build_jobs(space), deadline=_expiring(40))
        seen = []
        with pytest.raises(DeadlineExceededError) as space_error:
            backend().cost_space(space, deadline=_expiring(40),
                                 on_entry=lambda i, e: seen.append(i))
        assert type(space_error.value) is type(batch_error.value)
        assert 0 < len(seen) < len(space)
        assert space_error.value.budget_seconds == batch_error.value.budget_seconds

    def test_suite_sweep_stops_part_way(self):
        suite = WorkloadSuite(SuiteConfig.tiny(kernels=("sor", "nw")))
        seen = []
        with pytest.raises(DeadlineExceededError):
            suite.sweep(deadline=_expiring(5),
                        on_entry=lambda i, e: seen.append(i))
        assert seen == list(range(len(seen))) and seen


class TestSuiteSweep:
    def test_suite_entries_match_one_flat_batch(self):
        config = SuiteConfig(kernels=("conv2d", "nw"), devices=("stratix-v", "small"),
                             forms=("A", "auto"), patterns=("contiguous", "random"),
                             clocks_mhz=(120.0, 180.0), max_lanes=4,
                             grids={"conv2d": (8, 8), "nw": (8, 8)}, iterations=10)
        suite = WorkloadSuite(config)
        seen = []
        spaces, sweep = suite.sweep(on_entry=lambda i, e: seen.append((i, e)))
        backend = SerialBackend()
        flat = [entry for space in spaces.values()
                for entry in _batch(space, backend)]
        assert _lines(sweep.entries) == _lines(flat)
        assert seen == list(enumerate(sweep.entries))
        assert isinstance(sweep, SweepResult)

    def test_engine_explore_is_the_backends_cost_space(self):
        space = _space("sor", **AXES)
        engine = ExplorationEngine(SerialBackend())
        assert _lines(engine.explore(space).entries) == _lines(
            _batch(space, SerialBackend()))
