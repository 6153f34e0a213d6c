"""Work counts of the per-point cost path, on the perfbench ``sweep`` grid.

Costing a point resolves its :class:`~repro.compiler.pipeline.CostGroup`
once per design group and then runs only the shared EKIT and feasibility
formulas.  These tests count the work a cold 306-point sweep does —
source-file probes, environment reads, metric updates and group
resolutions, serial and dense — instead of timing it, so a per-point
regression fails deterministically on any machine.
"""

from __future__ import annotations

import collections.abc
import os

import pytest

from repro.compiler import lanescale
from repro.compiler.pipeline import clear_calibration_cache
from repro.explore.dense import DenseBackend
from repro.kernels import kernel_names
from repro.resilience.policy import MetricFamily
from repro.suite import SuiteConfig, WorkloadSuite

#: the perfbench ``sweep`` shape: six kernels on 24^3 grids, three clocks
CLOCKS = (150.0, 200.0, 250.0)


def sweep_config(max_lanes: int) -> SuiteConfig:
    return SuiteConfig(max_lanes=max_lanes, clocks_mhz=CLOCKS,
                       grids={name: (24, 24, 24) for name in kernel_names()})


class CountingEnviron(collections.abc.MutableMapping):
    """``os.environ`` that counts its lookups."""

    def __init__(self, real):
        self.real = real
        self.reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return self.real[key]

    def __setitem__(self, key, value):
        self.real[key] = value

    def __delitem__(self, key):
        del self.real[key]

    def __iter__(self):
        return iter(self.real)

    def __len__(self):
        return len(self.real)


def cold_sweep(config: SuiteConfig, monkeypatch) -> tuple[int, dict]:
    """Cost ``config`` from cleared process caches (the disk store is warm,
    as in perfbench); return the points and the counted work."""
    clear_calibration_cache()   # so the warm-up run fills this test's store
    WorkloadSuite(config).run()
    clear_calibration_cache()
    counts = collections.Counter()
    with monkeypatch.context() as patch:
        patch.setattr(lanescale, "_KERNEL_CODE_TOKENS", {})

        def counting_open(path, *args):
            counts["source_reads"] += 1
            return open(path, *args)

        # a module global shadows the builtin for lanescale's lookups only
        patch.setattr(lanescale, "open", counting_open, raising=False)
        for name in ("bump", "add"):
            method = getattr(MetricFamily, name)

            def counting(self, *args, _name=name, _method=method, **kwargs):
                counts[_name] += 1
                return _method(self, *args, **kwargs)

            patch.setattr(MetricFamily, name, counting)
        environ = CountingEnviron(os.environ)
        patch.setattr(os, "environ", environ)
        run = WorkloadSuite(config).run()
    counts["env"] = environ.reads
    return run.evaluated, counts


@pytest.fixture(scope="module")
def counted(request, tmp_path_factory):
    monkeypatch = pytest.MonkeyPatch()
    request.addfinalizer(monkeypatch.undo)
    # a store of its own, so the counts do not depend on what earlier
    # tests left in (or evicted from) the shared one
    monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path_factory.mktemp("work-counts")))
    return {max_lanes: cold_sweep(sweep_config(max_lanes), monkeypatch)
            for max_lanes in (64, 16)}


def test_the_grid_is_the_perfbench_sweep(counted):
    assert counted[64][0] == 306
    assert counted[16][0] == 162


def test_source_files_are_probed_once_per_kernel_class(counted):
    _, counts = counted[64]
    assert 0 < counts["source_reads"] <= len(kernel_names())


def test_environment_reads_do_not_grow_with_points(counted):
    """Both grids open the same three sessions on the same six families;
    the larger one has 144 more points and no more environment reads."""
    points, counts = counted[64]
    small_points, small_counts = counted[16]
    assert counts["env"] - small_counts["env"] <= (points - small_points) // 16
    assert counts["env"] <= points // 4


def test_metric_updates_per_point(counted):
    """A point publishes its lookups and stage times in one ``add`` per
    family (a group build folds its counts into them); ``bump`` is left
    to once-per-session work such as calibration."""
    points, counts = counted[64]
    assert counts["bump"] <= 2 * points
    assert counts["bump"] + counts["add"] <= 2.2 * points


@pytest.fixture(scope="module")
def dense_runs(request, tmp_path_factory):
    """A cold dense selection sweep of every kernel's space, then a serial
    suite run, a dense suite run and a second dense selection sweep of
    the same config in one process."""
    monkeypatch = pytest.MonkeyPatch()
    request.addfinalizer(monkeypatch.undo)
    monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path_factory.mktemp("dense-groups")))
    config = sweep_config(64)
    spaces = list(WorkloadSuite(config).spaces().values())
    clear_calibration_cache()
    cold = DenseBackend()
    points = sum(cold.explore_space(space).evaluated for space in spaces)
    clear_calibration_cache()
    serial = WorkloadSuite(config).run()
    dense = WorkloadSuite(config, backend=DenseBackend()).run()
    warm = DenseBackend()
    for space in spaces:
        warm.explore_space(space)
    clear_calibration_cache()
    return (points, cold.collect_stats()), serial, dense, warm.collect_stats()


def test_cold_dense_sweep_resolves_one_group_per_lane_count(dense_runs):
    """One group per (kernel, lanes, pattern): the clock axis shares it."""
    (points, stats), _, _, _ = dense_runs
    assert points == 306
    assert stats["variant"] == [0, 102]


def test_dense_sweep_reuses_the_serial_sweeps_groups(dense_runs):
    """The dense backend costs through the pipeline's cost groups, so
    after a serial sweep of the same config it resolves none; a dense
    suite run is the serial walk, and its report is the serial one byte
    for byte."""
    _, serial, dense, warm = dense_runs
    assert warm["variant"] == [102, 0]
    assert serial.stats["variant"] == [204, 102]
    assert dense.stats["variant"] == [306, 0]
    assert dense.report.to_json() == serial.report.to_json()
