"""The dense exploration backend: whole grids costed as numpy arrays.

``DenseBackend.explore_space`` lowers a :class:`DesignSpace` through
three steps:

1. **extract** — one scalar-pipeline analysis per (family, device)
   produces a :class:`~repro.cost.vector.FamilyVector`, the flat record
   of lane-invariant scalars (PE datapath usage, per-lane buffer usage,
   balancing bits, NWPT/Noff/KPD/NI/DV, word size);
2. **broadcast** — :func:`~repro.cost.vector.lane_axis` and
   :func:`~repro.cost.vector.evaluate_group` evaluate the lanes x clocks
   plane of every (device, form, pattern) group in one numpy pass,
   producing EKIT, breakdown-total, limiting-factor and feasibility
   arrays;
3. **materialize** — full :class:`~repro.explore.engine.SweepEntry`
   report objects are built *only* for the points a caller keeps
   (best, Pareto frontier, top-k, or an explicit ``materialize_all``),
   through the same scalar constructors the per-point oracle uses, so a
   materialized dense report is byte-identical to the scalar one.

Family vectors, lane axes and evaluated groups are all cached on the
backend keyed by content (kernel, grid, device, axes), so repeated
sweeps over the same family cost dictionary lookups — the same
O(families) philosophy the scalar caches follow, extended to whole
grids.

Designs that are not lane-separable (no family analysis) raise
:class:`~repro.cost.vector.DenseUnsupportedError`; the exploration
engine and the workload suite catch it and fall back to the scalar
per-point path.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.compiler.lanescale import LaneFamilyHandle, derive_structure
from repro.compiler.pipeline import (
    CompilationOptions,
    EstimationPipeline,
    FeasibilityStage,
    ResourceStage,
    ThroughputStage,
)
from repro.cost.report import CostReport
from repro.cost.resource_model import ResourceEstimator
from repro.cost.throughput import EKITParameters, estimate_throughput
from repro.cost.vector import (
    DenseUnsupportedError,
    FamilyVector,
    GroupArrays,
    LaneAxis,
    evaluate_group,
    lane_axis,
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
from repro.models.memory_execution import FormSelection
from repro.models.streaming import PatternKind
from repro.obs.trace import span as trace_span
from repro.resilience.policy import MetricFamily
from repro.substrate.fpga_device import FPGADevice
from repro.substrate.synthesis import ResourceUsage

__all__ = ["DenseBackend", "DenseSweep", "extract_family_vector"]


def extract_family_vector(
    pipeline: EstimationPipeline, kernel, grid: tuple[int, ...], lanes: int
):
    """Lower one design family to its flat parameter record.

    Runs the scalar pipeline's analysis + resource stages once (for the
    given canonical lane count) and pulls out the lane-invariant scalars.
    Returns ``(family_vector, family, pe_usage)`` where ``pe_usage`` is
    the exact per-instance :class:`ResourceUsage` object the scalar path
    serialises, reused verbatim at materialization time.
    """
    handle = LaneFamilyHandle(kernel=kernel, lanes=lanes, grid=tuple(grid))
    variant = pipeline.analyze(handle)
    if variant.family is None:
        raise DenseUnsupportedError(
            f"design {handle.design_name!r} is not lane-separable (or lane "
            f"scaling is disabled); the dense path needs a family analysis"
        )
    family = variant.family
    estimate = pipeline.resources(variant)
    pe_usage = None
    for entry in estimate.functions:
        if entry.function == family.pe_name:
            pe_usage = entry.usage
            break
    if pe_usage is None:  # pragma: no cover - families always carry their PE
        raise DenseUnsupportedError(
            f"family {family.pe_name!r} has no PE usage in its resource estimate"
        )

    estimator = ResourceEstimator(pipeline.cost_db)
    buffers = ResourceUsage()
    for _, _, bits in family.offset_buffers:
        buffers += estimator._buffer_usage(bits)

    structure = variant.structure
    word_bytes = max(1, (structure.element_width + 7) // 8)
    fv = FamilyVector(
        kernel=kernel.name,
        device=pipeline.options.device.name,
        pe_name=family.pe_name,
        pe_usage=(pe_usage.alut, pe_usage.reg, pe_usage.bram_bits, pe_usage.dsp),
        buffer_usage=(buffers.alut, buffers.reg, buffers.bram_bits, buffers.dsp),
        balancing_bits=variant.balancing_register_bits,
        in_streams_per_lane=family.in_streams_per_lane,
        out_streams_per_lane=family.out_streams_per_lane,
        element_width=structure.element_width,
        word_bytes=word_bytes,
        nwpt=structure.words_per_item,
        noff=structure.max_offset_span_words,
        kpd=variant.pipeline_spec.pipeline_depth,
        ni=structure.instructions_per_pe,
        dv=variant.pipeline_spec.vectorization,
    )
    return fv, family, pe_usage


@dataclass
class _DeviceContext:
    """Per-device state of one dense sweep (family + lane-axis products).

    Contexts live inside cached :class:`DenseSweep` objects, which a
    coalescing consumer may materialize from several threads at once —
    the per-lane estimate memo is filled under its own lock.
    """

    device: FPGADevice
    pipeline: EstimationPipeline
    options: CompilationOptions
    fv: FamilyVector
    family: object
    pe_usage: ResourceUsage
    axis: LaneAxis
    resolved_clocks: list[float]
    _estimator: ResourceEstimator = None  # type: ignore[assignment]
    _estimates: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False,
                                  compare=False)

    def resource_estimate(self, lanes: int):
        """The scalar ``ModuleResourceEstimate`` of one lane count (cached)."""
        with self._lock:
            cached = self._estimates.get(lanes)
            if cached is None:
                if self._estimator is None:
                    self._estimator = ResourceEstimator(self.pipeline.cost_db)
                cached = self._estimates[lanes] = ResourceStage.estimate(
                    self._estimator,
                    derive_structure(self.family, lanes),
                    {self.fv.pe_name: self.pe_usage},
                    f"{self.fv.kernel}_l{lanes}",
                    self.fv.balancing_bits,
                )
            return cached


@dataclass(frozen=True)
class _Group:
    """One evaluated (device, form, pattern) group of a dense sweep."""

    selection: FormSelection
    arrays: GroupArrays
    rho_h: float
    rho_g: float
    hpb_gbps: float
    gpb_gbps: float


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
        contexts: Sequence[_DeviceContext],
        groups: dict[tuple[int, int, int], _Group],
        wall_seconds: float,
        stats_cb: Callable[[], dict] | None = None,
    ):
        self.grid = grid
        self.workload = workload
        self._contexts = list(contexts)
        self._groups = groups
        self.wall_seconds = wall_seconds
        self._stats_cb = stats_cb

        shape = grid.shape
        n = int(np.prod(shape))
        ekit = np.zeros(shape, dtype=np.float64)
        feasible = np.zeros(shape, dtype=bool)
        limiting = np.zeros(shape, dtype=np.int64)
        util_max = np.zeros(shape, dtype=np.float64)
        for (di, fi, pi), group in groups.items():
            ekit[:, di, :, fi, pi] = group.arrays.ekit
            feasible[:, di, :, fi, pi] = group.arrays.feasible
            limiting[:, di, :, fi, pi] = group.arrays.limiting
        for di, ctx in enumerate(self._contexts):
            util_max[:, di, :, :, :] = ctx.axis.util_max[:, None, None, None]
        self.ekit = ekit.reshape(n)
        self.feasible = feasible.reshape(n)
        self.limiting = limiting.reshape(n)
        self.util_max = util_max.reshape(n)

    def _with_wall(self, wall_seconds: float) -> "DenseSweep":
        """A view of this sweep with fresh wall-clock accounting.

        The arrays, contexts and groups are shared (treat them as
        read-only); only the timing differs — what the backend's
        whole-sweep cache hands out on a hit.
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
        ctx = self._contexts[di]
        group = self._groups[(di, fi, pi)]
        lanes = self.grid.lanes[li]
        point = self.grid.point(li, di, ci, fi, pi)

        params = EKITParameters.for_pipelined_design(
            hpb_gbps=group.hpb_gbps,
            rho_h=group.rho_h,
            gpb_gbps=group.gpb_gbps,
            rho_g=group.rho_g,
            ngs=self.workload.global_size,
            nwpt=ctx.fv.nwpt,
            nki=self.workload.repetitions,
            noff=ctx.fv.noff,
            kpd=ctx.fv.kpd,
            fd_mhz=ctx.resolved_clocks[ci],
            ni=ctx.fv.ni,
            knl=lanes,
            dv=ctx.fv.dv,
            initiation_interval=1.0,
            word_bytes=ctx.fv.word_bytes,
        )
        throughput = estimate_throughput(params, group.selection.form)
        estimate = ResourceStage._fresh_view(ctx.resource_estimate(lanes))
        feasibility = FeasibilityStage().run(
            estimate, params, group.selection.form, ctx.options
        )
        report = CostReport(
            design=f"{self.grid.kernel}_l{lanes}",
            device=ctx.device,
            resources=estimate,
            throughput=throughput,
            feasibility=feasibility,
            estimation_seconds=0.0,
            notes=[
                f"memory-execution form {group.selection.form.value}: "
                f"{group.selection.reason}"
            ],
        )
        return SweepEntry(point, report)

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
    the serial and process-pool backends.  ``explore_space`` is the dense
    entry point; ``run`` falls back to an internal serial backend so the
    engine can still hand this backend arbitrary per-point job batches
    (e.g. after a :class:`DenseUnsupportedError`).

    All caches are content-keyed and live for the backend's lifetime:
    repeated sweeps over the same family reduce to dictionary lookups
    plus array reshapes.

    The backend is reentrant: every cache layer (pipelines, vectors,
    axes, groups, whole sweeps) is guarded by one lock (the counter
    families by their own), taken only around lookups and publications —
    the numpy evaluation itself runs outside it, so concurrent sweeps
    over *different* families still overlap.  Two threads racing to fill the same entry
    both compute it (the stages are deterministic, so the results are
    interchangeable) and the first publication wins.
    """

    #: evaluated-group cache entries kept before the cache is reset
    MAX_CACHED_GROUPS = 1024
    #: whole-sweep cache entries kept before the cache is reset
    MAX_CACHED_SWEEPS = 64
    #: sweeps above this point count are not whole-sweep cached (their
    #: arrays are large; the group cache still makes repeats cheap)
    MAX_CACHED_SWEEP_POINTS = 65536

    def __init__(self):
        self._serial = SerialBackend()
        self._pipelines: dict[str, EstimationPipeline] = {}
        self._vectors: dict = {}
        self._axes: dict = {}
        self._groups: dict = {}
        self._sweeps: dict = {}
        self._throughput = ThroughputStage()
        self._lock = threading.RLock()
        self.requests = MetricFamily(
            DENSE_REQUESTS, ("layer", "result"),
            "Dense backend cache lookups (vector, group, sweep) by outcome.")
        self.points = MetricFamily(
            DENSE_POINTS, help="Design points the dense backend answered.")

    # -- cache layers --------------------------------------------------
    def pipeline_for(self, device: FPGADevice) -> EstimationPipeline:
        with self._lock:
            pipeline = self._pipelines.get(device.name)
            if pipeline is None:
                pipeline = EstimationPipeline(CompilationOptions(device=device))
                self._pipelines[device.name] = pipeline
            return pipeline

    def _vector_for(self, kernel, grid: tuple[int, ...], device: FPGADevice,
                    canonical_lanes: int):
        key = (kernel.name, grid, device.name)
        with self._lock:
            cached = self._vectors.get(key)
        if cached is not None:
            self.requests.bump(("vector", "hit"))
            return cached
        self.requests.bump(("vector", "miss"))
        pipeline = self.pipeline_for(device)
        computed = extract_family_vector(pipeline, kernel, grid, canonical_lanes)
        with self._lock:
            return self._vectors.setdefault(key, computed)

    def _axis_for(self, fv: FamilyVector, lanes: tuple[int, ...],
                  device: FPGADevice) -> LaneAxis:
        key = (fv.kernel, fv.device, lanes)
        with self._lock:
            axis = self._axes.get(key)
        if axis is None:
            axis = lane_axis(fv, lanes, device.resource_capacities())
            with self._lock:
                axis = self._axes.setdefault(key, axis)
        return axis

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
        kernel = space.kernel
        workload = kernel.workload(tuple(space.grid), space.iterations)
        self.points.bump(n=len(grid))

        contexts: list[_DeviceContext] = []
        groups: dict[tuple[int, int, int], _Group] = {}
        with trace_span("backend.dense.sweep", kernel=kernel.name,
                        points=len(grid)):
            if grid.lanes:
                for di, device in enumerate(grid.devices):
                    ctx = self._context(kernel, grid, device)
                    contexts.append(ctx)
                    self._evaluate_groups(ctx, di, grid, workload, groups)
        wall = time.perf_counter() - started
        sweep = DenseSweep(grid, workload, contexts, groups, wall,
                           stats_cb=self.collect_stats)
        if len(grid) <= self.MAX_CACHED_SWEEP_POINTS:
            with self._lock:
                if len(self._sweeps) >= self.MAX_CACHED_SWEEPS:
                    self._sweeps.clear()
                sweep = self._sweeps.setdefault(space_key, sweep)
        return sweep

    def _context(self, kernel, grid: DenseGrid, device: FPGADevice) -> _DeviceContext:
        fv, family, pe_usage = self._vector_for(
            kernel, grid.grid, device, grid.lanes[0]
        )
        return _DeviceContext(
            device=device,
            pipeline=self.pipeline_for(device),
            options=self.pipeline_for(device).options,
            fv=fv,
            family=family,
            pe_usage=pe_usage,
            axis=self._axis_for(fv, grid.lanes, device),
            resolved_clocks=grid.resolved_clocks(device),
        )

    def _evaluate_groups(self, ctx: _DeviceContext, di: int, grid: DenseGrid,
                         workload, groups: dict) -> None:
        with self._lock:
            if len(self._groups) > self.MAX_CACHED_GROUPS:
                self._groups.clear()
        fv = ctx.fv
        footprint = workload.global_size * fv.nwpt * fv.word_bytes
        calibration = ctx.pipeline.calibrate()
        host, dram = calibration.host_bandwidth, calibration.dram_bandwidth
        lanes = np.asarray(grid.lanes, dtype=np.int64)
        clocks = np.asarray(ctx.resolved_clocks, dtype=np.float64)
        clocks_key = tuple(ctx.resolved_clocks)

        for fi, form_opt in enumerate(grid.forms):
            form_value = _form_value(form_opt)
            for pi, pattern in enumerate(grid.patterns):
                key = (fv.kernel, grid.grid, workload.repetitions, fv.device,
                       grid.lanes, clocks_key, form_value, pattern.value)
                with self._lock:
                    cached = self._groups.get(key)
                if cached is None:
                    self.requests.bump(("group", "miss"))
                    options = CompilationOptions(device=ctx.device, form=form_value)
                    selection = self._throughput.select_form(footprint, options)
                    rho_h = host.rho(footprint)
                    rho_g = dram.rho(footprint, pattern)
                    arrays = evaluate_group(
                        fv, lanes, clocks,
                        form=selection.form,
                        ngs=workload.global_size,
                        nki=workload.repetitions,
                        hpb_gbps=host.peak_gbps,
                        rho_h=rho_h,
                        gpb_gbps=dram.peak_gbps,
                        rho_g=rho_g,
                        fits_resources=ctx.axis.fits_resources,
                    )
                    cached = _Group(
                        selection=selection,
                        arrays=arrays,
                        rho_h=rho_h,
                        rho_g=rho_g,
                        hpb_gbps=host.peak_gbps,
                        gpb_gbps=dram.peak_gbps,
                    )
                    with self._lock:
                        cached = self._groups.setdefault(key, cached)
                else:
                    self.requests.bump(("group", "hit"))
                groups[(di, fi, pi)] = cached

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
