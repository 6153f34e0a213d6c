"""Differential suite: the dense broadcast path against the scalar oracle.

The contract mirrors the lane-scaling law's (see
``tests/compiler/test_lane_scaling.py``): a sweep evaluated through
``DenseBackend``'s struct-of-arrays pass must carry the EKIT,
feasibility and utilisation of the per-point reports the serial oracle
produces for the same design space, and its materialized entries — like
the dense backend's ``cost_space``, which is the serial backend's own —
must be *byte-identical* to them after the canonical
9-significant-digit rounding, across every kernel, device,
memory-execution form, lane/clock subgrid and access pattern.  These
tests pin that contract, the array-level selection API, the edge axes
(single point, infeasible everywhere, empty space, empty frontier) and
what a design the dense path cannot represent gets.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.vector import DenseUnsupportedError
from repro.explore import DenseBackend, ExplorationEngine
from repro.explore.space import DesignSpace, build_jobs, linspace_clocks
from repro.kernels import REGISTRY, get_kernel
from repro.models.streaming import PatternKind
from repro.resilience import COUNTERS
from repro.substrate import get_device
from repro.suite import SuiteConfig, WorkloadSuite, tiny_grid

KERNELS = tuple(REGISTRY.names())
DEVICES = ("stratix-v", "virtex-7", "small")

# one backend per module: the content-keyed caches are the feature under
# test as much as the math — every hit must still be byte-identical
DENSE = DenseBackend()


def _space(kernel: str, **overrides) -> DesignSpace:
    base = dict(
        kernel=get_kernel(kernel),
        grid=tiny_grid(get_kernel(kernel).default_grid),
        iterations=10,
        max_lanes=4,
    )
    base.update(overrides)
    return DesignSpace(**base)


def _assert_identical(space: DesignSpace) -> None:
    dense = ExplorationEngine(DENSE).explore(space)
    # the oracle costs every point through the pipeline's per-point
    # ``cost``, not through the serial fill loop
    scalar = ExplorationEngine().cost_many(build_jobs(space))
    assert len(dense.entries) == len(space)
    assert dense.canonical_dicts() == scalar.canonical_dicts()
    # the arrays selection runs on, and the entries it materializes
    sweep = DENSE.explore_space(space)
    reports = [entry.report for entry in scalar.entries]
    assert sweep.ekit.tolist() == [r.ekit for r in reports]
    assert sweep.feasible.tolist() == [r.feasible for r in reports]
    assert sweep.util_max.tolist() == \
        [r.feasibility.limiting_resource_utilization for r in reports]
    assert sweep.materialize_all().canonical_dicts() == scalar.canonical_dicts()


# ----------------------------------------------------------------------
# The differential contract
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kernel", KERNELS)
def test_dense_matches_scalar_every_kernel(kernel):
    _assert_identical(_space(
        kernel,
        clocks_mhz=(None, 200.0),
        forms=("auto", "C"),
    ))


def test_dense_matches_scalar_across_devices_and_patterns():
    _assert_identical(_space(
        "sor",
        devices=tuple(get_device(d) for d in DEVICES),
        forms=("auto", "A", "B", "C"),
        patterns=(PatternKind.CONTIGUOUS, PatternKind.STRIDED, PatternKind.RANDOM),
    ))


def test_dense_matches_scalar_on_continuous_clock_axis():
    _assert_identical(_space(
        "hotspot",
        clocks_mhz=linspace_clocks(120.0, 280.0, 7),
        forms=("auto", "B"),
    ))


@settings(max_examples=30, deadline=None)
@given(
    kernel=st.sampled_from(KERNELS),
    device=st.sampled_from(DEVICES),
    lanes=st.lists(st.sampled_from([1, 2, 4, 8]), min_size=1, max_size=3,
                   unique=True),
    clocks=st.lists(st.sampled_from([None, 120.0, 175.0, 200.0, 266.0]),
                    min_size=1, max_size=2, unique=True),
    forms=st.lists(st.sampled_from(["auto", "A", "B", "C"]), min_size=1,
                   max_size=2, unique=True),
    pattern=st.sampled_from(list(PatternKind)),
)
def test_dense_matches_scalar_random_subgrids(kernel, device, lanes, clocks,
                                              forms, pattern):
    _assert_identical(_space(
        kernel,
        lanes=sorted(lanes),
        max_lanes=16,
        devices=(get_device(device),),
        clocks_mhz=tuple(clocks),
        forms=tuple(forms),
        patterns=(pattern,),
    ))


def test_suite_report_identical_dense_vs_scalar():
    config = SuiteConfig.tiny()
    dense = WorkloadSuite(config, backend=DenseBackend()).run()
    scalar = WorkloadSuite(config).run()
    assert dense.report.to_json() == scalar.report.to_json()


# ----------------------------------------------------------------------
# Edge axes
# ----------------------------------------------------------------------


def test_single_point_grid():
    space = _space("sor", lanes=[2], clocks_mhz=(200.0,), forms=("auto",))
    assert len(space) == 1
    _assert_identical(space)
    sweep = DENSE.explore_space(space)
    assert sweep.evaluated == 1
    best = sweep.best()
    assert best is not None
    assert best.point.lanes == 2


def test_infeasible_everywhere():
    space = _space("sor", grid=(16, 16, 16), lanes=[8, 16],
                   devices=(get_device("small"),), clocks_mhz=(200.0,))
    _assert_identical(space)
    sweep = DENSE.explore_space(space)
    assert sweep.feasible_count == 0
    assert sweep.best() is None
    # the empty frontier: nothing feasible, nothing recommended ...
    assert sweep.pareto_frontier() == []
    # ... unless infeasible points are explicitly requested
    assert len(sweep.pareto_frontier(include_infeasible=True)) >= 1
    # top-k falls back to all points when nothing fits, like the scalar path
    assert len(sweep.top(5)) == 2


def test_empty_space_no_valid_lanes():
    # 7 divides neither 8^3 nor anything on the axis: zero-point space
    space = _space("sor", lanes=[7])
    assert len(space) == 0
    sweep = DENSE.explore_space(space)
    assert sweep.evaluated == 0
    assert sweep.best() is None
    assert sweep.top(3) == []
    assert sweep.pareto_frontier() == []
    assert sweep.materialize_all().entries == []


# ----------------------------------------------------------------------
# Array-level selection vs the serial sweep's selection
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def rich_sweep():
    """The dense sweep of a space and, as its reference, the serial
    backend's full sweep of the same space."""
    space = _space("sor", clocks_mhz=(150.0, 200.0, 250.0),
                   forms=("auto", "A", "C"))
    return DENSE.explore_space(space), ExplorationEngine().explore(space)


def test_best_agrees_with_materialized_max(rich_sweep):
    sweep, result = rich_sweep
    best = sweep.best()
    materialized_best = result.best()
    assert best is not None
    assert best.as_dict() == materialized_best.as_dict()


def test_top_k_agrees_with_materialized_sort(rich_sweep):
    sweep, result = rich_sweep
    feasible = result.feasible()
    expect = sorted(feasible, key=lambda e: -e.report.ekit)[:5]
    got = sweep.top(5)
    assert [e.as_dict() for e in got] == [e.as_dict() for e in expect]


def test_frontier_agrees_with_materialized_frontier(rich_sweep):
    sweep, result = rich_sweep
    array_frontier = sweep.pareto_frontier()
    entry_frontier = result.pareto_frontier()
    assert [e.as_dict() for e in array_frontier] == \
        [e.as_dict() for e in entry_frontier]


def test_custom_objectives_route_through_generic_frontier(rich_sweep):
    sweep, result = rich_sweep
    objectives = (lambda e: e.report.ekit, lambda e: -e.point.lanes)
    got = sweep.pareto_frontier(objectives)
    expect = result.pareto_frontier(objectives)
    assert [e.as_dict() for e in got] == [e.as_dict() for e in expect]


def test_entries_at_matches_the_serial_entries(rich_sweep):
    sweep, result = rich_sweep
    indices = [len(result.entries) - 1, 0, 2]
    assert [e.as_dict() for e in sweep.entries_at(indices)] == \
        [result.entries[i].as_dict() for i in indices]


def test_feasibility_mask_matches_reports(rich_sweep):
    sweep, result = rich_sweep
    assert [bool(f) for f in sweep.feasible] == \
        [e.report.feasible for e in result.entries]
    assert sweep.feasible_count == len(result.feasible())
    assert [float(u) for u in sweep.util_max] == \
        [e.report.feasibility.limiting_resource_utilization for e in result.entries]


# ----------------------------------------------------------------------
# Non-separable designs and the backend protocol
# ----------------------------------------------------------------------


def test_non_separable_design_is_costed_by_the_serial_walk(monkeypatch):
    # without lane scaling no design is a lane-family member
    monkeypatch.setenv("TYBEC_LANE_SCALING", "0")
    space = _space("sor", clocks_mhz=(200.0,))
    with pytest.raises(DenseUnsupportedError, match="not lane-separable"):
        DenseBackend().explore_space(space)
    before = COUNTERS.get("fallbacks.dense")
    result = ExplorationEngine(DenseBackend()).explore(space)
    assert COUNTERS.get("fallbacks.dense") == before
    scalar = ExplorationEngine().explore(space)
    assert result.canonical_dicts() == scalar.canonical_dicts()


def test_a_sweep_that_raises_is_not_counted(monkeypatch):
    monkeypatch.setenv("TYBEC_LANE_SCALING", "0")
    backend = DenseBackend()
    with pytest.raises(DenseUnsupportedError):
        backend.explore_space(_space("sor", clocks_mhz=(200.0,)))
    assert backend.collect_stats()["dense"] == {"sweeps": 0, "points": 0}


def test_backend_stats_expose_dense_counters():
    backend = DenseBackend()
    space = _space("sor", clocks_mhz=(200.0,))
    backend.explore_space(space)
    backend.explore_space(space)  # whole-sweep cache hit
    stats = backend.collect_stats()
    dense = stats["dense"]
    assert dense["sweeps"] == 2
    assert dense["points"] == 2 * len(space)
    assert set(dense) == {"sweeps", "points"}


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestDenseCli:
    def test_dense_explore_json(self, capsys):
        from repro.cli import main

        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--max-lanes", "2", "--dense",
                   "--clocks", "150", "200", "--pareto", "--json"])
        assert rc == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["dense"] is True
        assert payload["evaluated"] == 4
        assert payload["points_per_second"] > 0
        assert payload["best"] is not None
        assert payload["pareto"]

    def test_dense_explore_prints_frontier(self, capsys):
        from repro.cli import main

        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--max-lanes", "4", "--dense",
                   "--clock-range", "150:250:5", "--pareto"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "points/s" in out

    def test_clock_range_conflicts_with_clocks(self, capsys):
        from repro.cli import main

        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--clock-range", "150:250:4",
                   "--clocks", "100"])
        assert rc == 2
        assert "clock" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["150:250", "abc:1:2", "250:150:4",
                                      "150:250:0", "-5:250:4"])
    def test_invalid_clock_range_specs(self, spec, capsys):
        from repro.cli import main

        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--clock-range=" + spec])
        assert rc == 2
        assert capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["suite", "run"], ["suite", "validate"], ["suite", "flow"],
        ["suite", "dse"], ["client", "suite"]])
    def test_dense_is_an_explore_flag_only(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([*command, "--tiny", "--dense"])
        assert exc.value.code == 2
        assert "--dense" in capsys.readouterr().err
