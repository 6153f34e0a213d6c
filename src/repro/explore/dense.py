"""The dense exploration backend: whole grids costed as numpy arrays.

``DenseBackend.explore_space`` lowers a :class:`DesignSpace` through
three steps:

1. **group** — per device, one
   :class:`~repro.compiler.pipeline.CostGroup` per (lane count, pattern)
   from :meth:`EstimationPipeline.group
   <repro.compiler.pipeline.EstimationPipeline.group>`: the same groups,
   through the same process-wide cache, that the per-point path costs
   with, so a dense sweep after a serial one resolves nothing new;
2. **broadcast** — :func:`~repro.cost.vector.evaluate_group` evaluates
   the lanes x clocks plane of every (device, form, pattern) group in
   one numpy pass from the first lane group's Table-I parameters, its
   form selection and the groups' resource verdicts, producing EKIT,
   breakdown-total, limiting-factor and feasibility arrays;
3. **materialize** — full :class:`~repro.explore.engine.SweepEntry`
   report objects are built *only* for the points a caller keeps
   (best, Pareto frontier, top-k, or an explicit ``materialize_all``),
   by :meth:`CostGroup.report <repro.compiler.pipeline.CostGroup.report>`,
   the per-point tail the scalar path runs, so a materialized dense
   report is byte-identical to the scalar one.

Whole sweeps are cached on the backend keyed by content (kernel, grid,
device, axes), so a repeated sweep costs a dictionary lookup.

Designs that are not lane-family members (no family analysis, or lane
scaling disabled) raise :class:`~repro.cost.vector.DenseUnsupportedError`;
the exploration engine and the workload suite catch it and fall back to
the scalar per-point path.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable

import numpy as np

from repro.compiler.lanescale import LaneFamilyHandle
from repro.compiler.pipeline import CompilationOptions, CostGroup, EstimationPipeline
from repro.cost.report import CostReport
from repro.cost.vector import (
    DenseUnsupportedError,
    GroupArrays,
    evaluate_group,
    pareto_mask,
)
from repro.explore.engine import (
    DENSE_POINTS,
    DENSE_REQUESTS,
    SerialBackend,
    SweepEntry,
    SweepResult,
    pareto_frontier,
    stats_view,
)
from repro.explore.space import DenseGrid, DesignSpace, _form_value
from repro.models.streaming import PatternKind
from repro.obs.trace import span as trace_span
from repro.resilience.policy import MetricFamily
from repro.substrate.fpga_device import FPGADevice

__all__ = ["DenseBackend", "DenseSweep"]


class DenseSweep:
    """Array-valued results of one dense sweep over a design space.

    Selection (best, frontier, top-k, feasibility counts) runs on the
    arrays; :class:`~repro.explore.engine.SweepEntry` objects are only
    built for the points the caller keeps.  Flat indices follow the
    deterministic sweep order of :meth:`DesignSpace.points` (lanes,
    device, clock, form, pattern — slowest to fastest).
    """

    def __init__(
        self,
        grid: DenseGrid,
        workload,
        groups: dict[tuple[int, int, int], CostGroup],
        arrays: dict[tuple[int, int, int], GroupArrays],
        options: dict[tuple[int, int], CompilationOptions],
        clocks: list[list[float]],
        wall_seconds: float,
        stats_cb: Callable[[], dict] | None = None,
    ):
        """``groups`` is keyed by (device, lanes, pattern) index,
        ``arrays`` by (device, form, pattern), ``options`` (each form's
        session options) by (device, form); ``clocks`` holds each
        device's resolved clock axis."""
        self.grid = grid
        self.workload = workload
        self._groups = groups
        self._options = options
        self._clocks = clocks
        self.wall_seconds = wall_seconds
        self._stats_cb = stats_cb

        shape = grid.shape
        n = int(np.prod(shape))
        ekit = np.zeros(shape, dtype=np.float64)
        feasible = np.zeros(shape, dtype=bool)
        limiting = np.zeros(shape, dtype=np.int64)
        util_max = np.zeros(shape, dtype=np.float64)
        for (di, fi, pi), group in arrays.items():
            ekit[:, di, :, fi, pi] = group.ekit
            feasible[:, di, :, fi, pi] = group.feasible
            limiting[:, di, :, fi, pi] = group.limiting
        for (di, li, pi), group in groups.items():
            util_max[li, di, :, :, pi] = group.verdict[2]
        self.ekit = ekit.reshape(n)
        self.feasible = feasible.reshape(n)
        self.limiting = limiting.reshape(n)
        self.util_max = util_max.reshape(n)

    def _with_wall(self, wall_seconds: float) -> "DenseSweep":
        """A view of this sweep with fresh wall-clock accounting.

        The arrays and groups are shared (treat them as read-only); only
        the timing differs — what the backend's whole-sweep cache hands
        out on a hit.
        """
        clone = DenseSweep.__new__(DenseSweep)
        clone.__dict__.update(self.__dict__)
        clone.wall_seconds = wall_seconds
        return clone

    # -- scalar facts --------------------------------------------------
    @property
    def evaluated(self) -> int:
        return len(self.ekit)

    @property
    def feasible_count(self) -> int:
        return int(self.feasible.sum())

    @property
    def points_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.evaluated / self.wall_seconds

    @property
    def stats(self) -> dict:
        return self._stats_cb() if self._stats_cb is not None else {}

    # -- materialization ----------------------------------------------
    def _entry(self, flat: int) -> SweepEntry:
        li, di, ci, fi, pi = self.grid.coords(int(flat))
        report = self._groups[(di, li, pi)].report(
            self.workload.repetitions, self._clocks[di][ci], self._options[(di, fi)])
        return SweepEntry(self.grid.point(li, di, ci, fi, pi), report)

    def entries_at(self, indices) -> list[SweepEntry]:
        """Materialize the entries at the given flat sweep indices."""
        return [self._entry(i) for i in indices]

    def materialize_all(self) -> SweepResult:
        """Every point as a scalar-identical :class:`SweepResult`."""
        started = time.perf_counter()
        entries = self.entries_at(range(self.evaluated))
        wall = self.wall_seconds + (time.perf_counter() - started)
        return SweepResult(entries=entries, wall_seconds=wall, stats=self.stats)

    # -- selection -----------------------------------------------------
    def best(self) -> SweepEntry | None:
        """The fastest feasible design point (None when nothing fits)."""
        if self.evaluated == 0 or not self.feasible.any():
            return None
        masked = np.where(self.feasible, self.ekit, -np.inf)
        return self._entry(int(np.argmax(masked)))

    def top(self, k: int) -> list[SweepEntry]:
        """The ``k`` highest-EKIT feasible points (all points if none fit),
        ties broken by sweep order like the scalar ``max``."""
        if self.evaluated == 0 or k <= 0:
            return []
        idx = np.flatnonzero(self.feasible)
        if len(idx) == 0:
            idx = np.arange(self.evaluated)
        order = idx[np.argsort(-self.ekit[idx], kind="stable")][:k]
        return self.entries_at(order)

    def prune_indices(self, keep_fraction: float = 0.1,
                      keep_min: int = 1) -> list[int]:
        """Flat indices of the points a surrogate prune keeps.

        The dense backend as a *prune stage*: the top
        ``max(keep_min, ceil(keep_fraction * n))`` points by EKIT among
        the feasible ones (among all points when nothing fits, so a
        downstream scalar pass still sees the least-bad candidates).
        Returned in ascending sweep order, so survivors costed by a
        scalar backend break throughput ties exactly like the full
        sweep's ``max`` would.
        """
        if not 0 < keep_fraction <= 1:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {keep_fraction}")
        if self.evaluated == 0:
            return []
        keep = min(self.evaluated,
                   max(int(keep_min), math.ceil(keep_fraction * self.evaluated)))
        idx = np.flatnonzero(self.feasible)
        if len(idx) == 0:
            idx = np.arange(self.evaluated)
        order = idx[np.argsort(-self.ekit[idx], kind="stable")][:keep]
        return sorted(int(i) for i in order)

    def pareto_frontier(
        self,
        objectives=None,
        *,
        include_infeasible: bool = False,
    ) -> list[SweepEntry]:
        """The non-dominated subset, materialized in sweep order.

        The default objectives (EKIT maximised, limiting-resource
        utilisation minimised) are evaluated directly on the arrays;
        custom objective callables force materialization of the candidate
        entries first.
        """
        if self.evaluated == 0:
            return []
        idx = np.arange(self.evaluated) if include_infeasible \
            else np.flatnonzero(self.feasible)
        if len(idx) == 0:
            return []
        if objectives is not None:
            return pareto_frontier(self.entries_at(idx), objectives)
        scores = np.column_stack((self.ekit[idx], -self.util_max[idx]))
        return self.entries_at(idx[pareto_mask(scores)])


class DenseBackend:
    """Evaluate whole design spaces as broadcast numpy grids.

    Plugs into :class:`~repro.explore.engine.ExplorationEngine` beside
    the serial backend.  ``explore_space`` is the dense
    entry point; ``run`` falls back to an internal serial backend so the
    engine can still hand this backend arbitrary per-point job batches
    (e.g. after a :class:`DenseUnsupportedError`).

    The backend owns one session pipeline per device, whose cost groups
    live in the pipeline's process-wide group cache, and a content-keyed
    whole-sweep cache: a repeated sweep reduces to a dictionary lookup.

    The backend is reentrant: the pipeline registry and the sweep cache
    are guarded by one lock (the counter families by their own), taken
    only around lookups and publications — the evaluation itself runs
    outside it, so concurrent sweeps over *different* spaces still
    overlap.  Two threads racing to fill the same sweep both compute it
    (the stages are deterministic, so the results are interchangeable)
    and the first publication wins.
    """

    #: whole-sweep cache entries kept before the cache is reset
    MAX_CACHED_SWEEPS = 64
    #: sweeps above this point count are not whole-sweep cached (their
    #: arrays are large; the group cache still makes repeats cheap)
    MAX_CACHED_SWEEP_POINTS = 65536

    def __init__(self):
        self._serial = SerialBackend()
        self._pipelines: dict[str, EstimationPipeline] = {}
        self._sweeps: dict = {}
        self._lock = threading.RLock()
        self.requests = MetricFamily(
            DENSE_REQUESTS, ("layer", "result"),
            "Dense backend whole-sweep cache lookups by outcome.")
        self.points = MetricFamily(
            DENSE_POINTS, help="Design points the dense backend answered.")

    def pipeline_for(self, device: FPGADevice) -> EstimationPipeline:
        with self._lock:
            pipeline = self._pipelines.get(device.name)
            if pipeline is None:
                pipeline = EstimationPipeline(CompilationOptions(device=device))
                self._pipelines[device.name] = pipeline
            return pipeline

    @staticmethod
    def _space_key(space: DesignSpace) -> tuple:
        """A content key of a design space, cheap enough for the hot path.

        ``lanes=None`` spaces key on ``max_lanes`` instead of enumerating
        the valid lane counts — the enumeration is itself a per-sweep cost
        a cache hit must not pay.
        """
        lanes = ("explicit", tuple(space.lanes)) if space.lanes is not None \
            else ("max", space.max_lanes)
        return (
            space.kernel.name,
            tuple(space.grid),
            space.iterations,
            lanes,
            tuple(d.name for d in space.devices),
            tuple(space.clocks_mhz),
            tuple(_form_value(f) for f in space.forms),
            tuple(PatternKind(p).value for p in space.patterns),
        )

    # -- the dense lowering -------------------------------------------
    def explore_space(self, space: DesignSpace) -> DenseSweep:
        """Evaluate every point of ``space`` in one broadcast pass."""
        started = time.perf_counter()
        space_key = self._space_key(space)
        with self._lock:
            cached = self._sweeps.get(space_key)
        if cached is not None:
            self.requests.bump(("sweep", "hit"))
            self.points.bump(n=cached.evaluated)
            return cached._with_wall(time.perf_counter() - started)
        self.requests.bump(("sweep", "miss"))

        grid = DenseGrid.from_space(space)
        workload = space.kernel.workload(tuple(space.grid), space.iterations)
        self.points.bump(n=len(grid))

        groups, arrays, options, clocks = {}, {}, {}, []
        with trace_span("backend.dense.sweep", kernel=space.kernel.name,
                        points=len(grid)):
            handles = [LaneFamilyHandle(kernel=space.kernel, lanes=k, grid=grid.grid)
                       for k in grid.lanes]
            for di, device in enumerate(grid.devices if handles else ()):
                clocks.append(self._evaluate_device(di, device, handles, grid, workload,
                                                    groups, arrays, options))
        wall = time.perf_counter() - started
        sweep = DenseSweep(grid, workload, groups, arrays, options, clocks, wall,
                           stats_cb=self.collect_stats)
        if len(grid) <= self.MAX_CACHED_SWEEP_POINTS:
            with self._lock:
                if len(self._sweeps) >= self.MAX_CACHED_SWEEPS:
                    self._sweeps.clear()
                sweep = self._sweeps.setdefault(space_key, sweep)
        return sweep

    def _evaluate_device(self, di: int, device: FPGADevice, handles: list,
                         grid: DenseGrid, workload, groups: dict, arrays: dict,
                         options: dict) -> list[float]:
        """Take one device's cost groups and broadcast each form over them;
        returns the device's resolved clock axis."""
        pipeline = self.pipeline_for(device)
        for fi, form in enumerate(grid.forms):
            options[(di, fi)] = CompilationOptions(device=device, form=_form_value(form))
        clocks = grid.resolved_clocks(device)
        lanes = np.asarray(grid.lanes, dtype=np.int64)
        clock_axis = np.asarray(clocks, dtype=np.float64)
        for pi, pattern in enumerate(grid.patterns):
            lane_groups = []
            for li, handle in enumerate(handles):
                group = pipeline.group(handle, workload, pattern)
                if not group.family_member:
                    raise DenseUnsupportedError(
                        f"design {handle.design_name!r} is not lane-separable (or "
                        f"lane scaling is disabled); the dense path needs a family "
                        f"analysis")
                groups[(di, li, pi)] = group
                lane_groups.append(group)
            fits = np.array([group.verdict[0] for group in lane_groups], dtype=bool)
            first = lane_groups[0]
            params = first.parameters(workload.repetitions, 1.0)
            for fi in range(len(grid.forms)):
                arrays[(di, fi, pi)] = evaluate_group(
                    params, first.selection(options[(di, fi)]).form, lanes,
                    clock_axis, fits)
        return clocks

    # -- the generic backend protocol ---------------------------------
    def run(self, jobs, deadline=None) -> list[CostReport]:
        """Scalar fallback: cost a per-point job batch serially."""
        return self._serial.run(jobs, deadline=deadline)

    def families(self) -> list[MetricFamily]:
        """The dense counters plus every pipeline's (its scalar fallback's too)."""
        with self._lock:
            pipelines = list(self._pipelines.values())
        return ([self.requests, self.points]
                + [family for p in pipelines for family in p.families]
                + self._serial.families())

    def collect_stats(self) -> dict:
        """Dense counters summed with the per-session pipeline statistics.

        Counters are cumulative over the backend's lifetime, matching the
        serial backend's semantics.
        """
        return stats_view(self.families())
