"""The multi-axis exploration engine: batched variant costing.

The cost model's speed is the paper's whole point — ~0.3 s per variant
against ~70 s for an HLS estimate — and this engine turns that speed into
scale.  A backend has two loops: ``cost_space(space, deadline,
on_entry)`` costs a whole :class:`DesignSpace`, and ``run(jobs)`` costs a
list of :class:`CostJob` in order.  :class:`ExplorationEngine` puts one
method on each: ``explore`` on ``cost_space``, and both ``cost_many``
and every optimizer round of ``run_optimizer`` on ``run``.  The
backends:

``SerialBackend``
    In-process evaluation; one memoizing
    :class:`~repro.compiler.pipeline.EstimationPipeline` per device (and
    one per explicit option set a job carries), shared by every point on
    that device: a point's clock and memory-execution form are inputs of
    its report, not of its session, so the session registry holds one
    entry per device however many clocks a long-lived backend sees.
``DenseBackend`` (:mod:`repro.explore.dense`)
    The serial backend plus array-level selection (best, Pareto
    frontier, top-k, surrogate prune) over a lane-separable space
    through ``explore_space``; its ``cost_space`` and ``run`` are the
    serial backend's own.

A space is costed group by group, in one loop: each (lanes, device,
pattern) :class:`~repro.compiler.pipeline.CostGroup` is resolved once,
and only the report tail runs for each of its points, in sweep order.
A job batch costs each job the same way: its group, then its report.
A point costs tens of microseconds, so worker processes cost more to
start and feed than they save on any grid this repo runs; there is no
process-pool backend.  The serial backend retries transient failures in
place — per cost group on the space path, per job in a batch — so a
fault-injected run reports the same bytes as a clean one, and it
honours an optional :class:`~repro.resilience.Deadline` between design
points.

Results come back as a :class:`SweepResult`: reports in deterministic
sweep order plus the selection helpers exploration strategies build on
(best-feasible, Pareto frontier, summary tables, variants/second).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Sequence

from repro import field, record
from repro.compiler.lanescale import LaneFamilyHandle
from repro.compiler.pipeline import (
    CACHE_REQUESTS,
    STAGE_SECONDS,
    CompilationOptions,
    EstimationPipeline,
)
from repro.cost.report import CostReport
from repro.explore.space import (
    CostJob,
    DenseGrid,
    DesignPoint,
    DesignSpace,
    _form_value,
)
from repro.obs.trace import span as trace_span
from repro.resilience import (
    Deadline,
    MetricFamily,
    RetryPolicy,
    current_fault_plan,
    sum_families,
)

__all__ = [
    "SerialBackend",
    "ExplorationEngine",
    "SweepEntry",
    "SweepResult",
    "canonical_report_dict",
    "pareto_frontier",
    "stats_view",
]


#: the dense backend's families (declared in :mod:`repro.explore.dense`,
#: named here so this numpy-free module can lay them out)
DENSE_REQUESTS = "tybec_dense_cache_requests_total"
DENSE_POINTS = "tybec_dense_points_total"


def stats_view(families: Iterable[MetricFamily]) -> dict:
    """The nested stats shape of ``SweepResult.stats`` and ``/metrics``.

    Sums same-named families (one per session pipeline) and lays the
    totals out the way stats leave the process: ``[hits, misses]`` per
    cache layer, ``family_fallbacks``, ``stage_seconds`` and, when a
    dense backend contributed, a ``dense`` block.
    """
    totals = {name: f.snapshot() for name, f in sum_families(families).items()}

    def pair(counts: dict, layer: str) -> list:
        return [counts.get((layer, "hit"), 0), counts.get((layer, "miss"), 0)]

    view: dict = {}
    requests = totals.get(CACHE_REQUESTS)
    if requests is not None:
        for layer in ("parse", "variant", "resource", "calibration", "family"):
            view[layer] = pair(requests, layer)
        view["family_fallbacks"] = requests.get(("family", "fallback"), 0)
        view["disk"] = pair(requests, "disk")
        view["stage_seconds"] = totals.get(STAGE_SECONDS, {})
    dense = totals.get(DENSE_REQUESTS)
    if dense is not None:
        view["dense"] = {
            "sweeps": sum(pair(dense, "sweep")),
            "points": totals.get(DENSE_POINTS, {}).get((), 0),
        }
    return view


def canonical_report_dict(report: CostReport) -> dict:
    """A report as a dict without its wall-clock estimation time.

    Two backends costing the same design point produce identical canonical
    dicts; only ``estimation_seconds`` (and the measurement it encodes)
    depends on where and when the estimation ran.
    """
    payload = report.as_dict()
    payload.pop("estimation_seconds", None)
    return payload


# ----------------------------------------------------------------------
# Evaluation backends
# ----------------------------------------------------------------------


class SerialBackend:
    """Evaluate jobs in-process, one memoizing pipeline per session: one
    per device, and one per explicit option set.

    Safe to share across threads: the session-pipeline registry is
    created under a lock (one winner per session, concurrent losers adopt
    it), and everything a shared pipeline touches — stage caches, the
    process-wide calibration/family stores, the stats counters — is
    individually locked.  Concurrent sweeps through one backend therefore
    share each other's warm state instead of corrupting it.
    """

    def __init__(self, pipeline: EstimationPipeline | None = None):
        self._pipelines: dict[tuple, EstimationPipeline] = {}
        self._lock = threading.Lock()
        if pipeline is not None:
            self._pipelines[("options", id(pipeline.options))] = pipeline

    def _session(self, key: tuple,
                 options: Callable[[], CompilationOptions]) -> EstimationPipeline:
        with self._lock:
            pipeline = self._pipelines.get(key)
            if pipeline is None:
                pipeline = self._pipelines[key] = EstimationPipeline(options())
            return pipeline

    def session_for(self, device) -> EstimationPipeline:
        """The session pipeline of every design point on ``device``.  Its
        options take their defaults when it opens, so
        ``TYBEC_LANE_SCALING`` is read once per session, not per point."""
        return self._session(("device", device),
                             lambda: CompilationOptions(device=device))

    #: per-job retry budget for transient failures (injected faults, a
    #: flaky cache substrate); real estimation errors are deterministic
    #: and classified permanent, so they propagate on the first attempt
    retry_policy: RetryPolicy = RetryPolicy(max_attempts=4, base_delay=0.01,
                                            max_delay=0.25)

    def cost_space(
        self,
        space: DesignSpace,
        deadline: Deadline | None = None,
        on_entry: Callable[[int, "SweepEntry"], None] | None = None,
    ) -> "SweepResult":
        """Cost every point of ``space`` group by group, in sweep order.

        Each (lanes, device, pattern) cost group is resolved once through
        :meth:`EstimationPipeline.group`, under :attr:`retry_policy` and
        the ``worker`` fault site, and counted as the lookups of its
        points, so the stats match a per-point batch's; one loop then runs
        only the report tail for each point.  ``deadline`` is checked
        before each point (and each group attempt); ``on_entry(index,
        entry)`` fires per point, which is what lets the exploration
        service stream a sweep while it runs.
        """
        started = time.perf_counter()
        grid = DenseGrid.from_space(space)
        with trace_span("backend.serial.space", kernel=grid.kernel,
                        points=len(grid)) as sp:
            entries, groups, built = self._fill(space, grid, deadline, on_entry)
            if sp is not None:
                sp.attrs.update(groups=groups, group_misses=built)
        return SweepResult(entries=entries, wall_seconds=time.perf_counter() - started,
                           stats=self.collect_stats())

    def _fill(self, space, grid, deadline, on_entry) -> tuple[list, int, int]:
        """``(entries, cost groups resolved, cost groups built)`` of one space."""
        if not len(grid):
            return [], 0, 0
        workload = space.kernel.workload(grid.grid, grid.iterations)
        # one session per device, calibrated before its groups resolve
        sessions = [self.session_for(device) for device in grid.devices]
        for pipeline in sessions:
            pipeline.calibrated()
        # each device's (clock, resolved clock, form, form value), in sweep
        # order
        cells = [[(clock, device.fmax_mhz if clock is None else clock, form,
                   _form_value(form))
                  for clock in grid.clocks for form in grid.forms]
                 for device in grid.devices]
        points = len(grid.clocks) * len(grid.forms)
        plan = current_fault_plan()
        groups, resolved, built = [], 0, 0
        # every group first, so the fill below runs as one tight loop
        for lanes in grid.lanes:
            handle = LaneFamilyHandle(kernel=space.kernel, lanes=lanes, grid=grid.grid)
            lane_groups = []
            for pipeline, device in zip(sessions, grid.devices):
                patterns = []
                for pattern in grid.patterns:
                    def resolve(attempt: int, pipeline=pipeline, pattern=pattern):
                        if plan is not None:
                            plan.fire("worker", salt=attempt)
                        return pipeline.group(handle, workload, pattern, points)

                    group, fresh = self.retry_policy.call(
                        resolve, deadline=deadline,
                        key=f"serial:{grid.kernel}x{lanes}:{device.name}:{pattern.value}",
                        what=f"costing {grid.kernel} x{lanes} on {device.name} "
                             f"({pattern.value})")
                    patterns.append(group)
                    resolved += 1
                    built += fresh
                lane_groups.append(patterns)
            groups.append(lane_groups)
        # the per-point loop: only the report tail runs, in sweep order
        entries: list[SweepEntry] = []
        nki, total = workload.repetitions, len(grid)
        kernel, shape, iterations = grid.kernel, grid.grid, grid.iterations
        perf_counter = time.perf_counter
        seconds: dict = {}
        try:
            for lanes, lane_groups in zip(grid.lanes, groups):
                for device, patterns, device_cells in zip(grid.devices, lane_groups,
                                                          cells):
                    for clock, fd_mhz, form, value in device_cells:
                        for pattern, group in zip(grid.patterns, patterns):
                            if deadline is not None and deadline.expired:
                                deadline.check(f"design point {len(entries)}/{total}")
                            report = group.report(nki, fd_mhz, value, seconds,
                                                  perf_counter())
                            entry = SweepEntry(DesignPoint(kernel, lanes, shape,
                                                           iterations, clock, form,
                                                           device, pattern), report)
                            if on_entry is not None:
                                on_entry(len(entries), entry)
                            entries.append(entry)
        finally:
            sessions[0].stage_seconds.add(seconds)
        return entries, resolved, built

    def run(
        self,
        jobs: Sequence[CostJob],
        deadline: Deadline | None = None,
    ) -> list[CostReport]:
        """Cost ``jobs`` in order, each as its session's cost group plus
        the report at its clock and form.

        ``deadline`` is checked between points (and before each retry);
        transient per-job failures retry under :attr:`retry_policy`.
        """
        with trace_span("backend.serial.batch", jobs=len(jobs)):
            return self._run(jobs, deadline)

    def _run(
        self,
        jobs: Sequence[CostJob],
        deadline: Deadline | None,
    ) -> list[CostReport]:
        reports = []
        # the "worker" fault site: the plan is resolved once per batch
        plan = current_fault_plan()
        seconds: dict = {}
        pipeline = None
        try:
            for index, job in enumerate(jobs):
                if deadline is not None:
                    deadline.check(f"design point {index}/{len(jobs)}")
                options = job.options
                if options is None:
                    pipeline = self.session_for(job.point.device)
                    fd_mhz, form = job.point.resolved_clock_mhz, _form_value(job.point.form)
                else:
                    # explicit options keep a session of their own, keyed by
                    # the object's identity (the caller vouches its jobs
                    # belong together; injected models are honoured as-is)
                    pipeline = self._session(("options", id(options)), lambda: options)
                    fd_mhz, form = options.resolved_clock_mhz(), options.form

                def _cost(attempt: int, job=job, pipeline=pipeline, fd_mhz=fd_mhz,
                          form=form):
                    if plan is not None:
                        plan.fire("worker", salt=attempt)
                    pipeline.calibrated()   # outside the point's estimation time
                    started = time.perf_counter()
                    group, _ = pipeline.group(job.module, job.workload, job.point.pattern)
                    return group.report(job.workload.repetitions, fd_mhz, form, seconds,
                                        started)

                report = self.retry_policy.call(
                    _cost, key=f"serial:{index}", what=f"costing {job.point.label}",
                    deadline=deadline)
                reports.append(report)
        finally:
            if pipeline is not None:
                pipeline.stage_seconds.add(seconds)
        return reports

    def families(self) -> list[MetricFamily]:
        """Every session pipeline's counter families."""
        with self._lock:
            pipelines = list(self._pipelines.values())
        return [family for p in pipelines for family in p.families]

    def collect_stats(self) -> dict:
        """Aggregated cache/timing statistics over every session pipeline.

        Counters are cumulative over the backend's lifetime (a backend
        reused across sweeps keeps counting), which is what a long-running
        exploration loop wants to watch.
        """
        return stats_view(self.families())


# ----------------------------------------------------------------------
# Sweep results
# ----------------------------------------------------------------------


@record(frozen=True)
class SweepEntry:
    """One evaluated design point."""

    point: DesignPoint
    report: CostReport

    def __init__(self, point, report) -> None:
        put = object.__setattr__
        put(self, "point", point)
        put(self, "report", report)

    def as_dict(self) -> dict:
        return {"point": self.point.as_dict(), "report": canonical_report_dict(self.report)}

    # -- the row protocol of :func:`repro.suite.report.canonical_json` ----
    def row_layout(self) -> tuple:
        """What fixes the shape of :meth:`as_dict`: the grid rank, the
        number of functions and the number of notes."""
        return (len(self.point.grid), len(self.report.resources.functions),
                len(self.report.notes))

    def row_leaves(self) -> tuple:
        """The scalar leaves of :meth:`as_dict`, in sorted-key order."""
        point, report = self.point, self.report
        resources, feasibility = report.resources, report.feasibility
        throughput, times = report.throughput, report.throughput.breakdown
        util = report.utilization
        functions = []
        for f in resources.functions:
            u = f.usage
            functions += (f.function, f.instances, u.alut, u.bram_bits, u.dsp, u.reg)
        offset, control, total = (resources.offset_buffers,
                                  resources.stream_control, resources.total)
        return (
            point.resolved_clock_mhz, point.device.name, _form_value(point.form),
            *point.grid, point.iterations, point.kernel, point.lanes,
            point.pattern.value,
            report.design, report.device.name,
            feasibility.available_dram_gbps, feasibility.available_host_gbps,
            feasibility.feasible, feasibility.fits_resources,
            feasibility.limiting_resource,
            feasibility.limiting_resource_utilization,
            feasibility.required_dram_gbps, feasibility.required_host_gbps,
            *report.notes,
            resources.design, *functions,
            offset.alut, offset.bram_bits, offset.dsp, offset.reg,
            control.alut, control.bram_bits, control.dsp, control.reg,
            total.alut, total.bram_bits, total.dsp, total.reg,
            times.compute, times.dram_streaming, times.host_transfer,
            times.offset_fill, times.pipeline_fill, times.reconfiguration,
            times.total, throughput.ekit, throughput.form.value,
            throughput.limiting_factor.value,
            util["alut"], util["bram_bits"], util["dsp"], util["reg"],
        )


def pareto_frontier(
    entries: Sequence[SweepEntry],
    objectives: Sequence[Callable[[SweepEntry], float]] | None = None,
) -> list[SweepEntry]:
    """The non-dominated subset of ``entries``, in input order.

    ``objectives`` are callables whose values are *maximised*; negate a
    value to minimise it.  The default trades throughput (EKIT, maximised)
    against the limiting resource utilisation (minimised) — the classic
    performance/area frontier of a variant sweep.

    Dominance runs through the vectorized :func:`repro.cost.vector.pareto_mask`
    (sort-based O(n log n) for the two-objective default), replacing the
    O(n²) pairwise scan that used to dominate wall time on dense grids —
    with identical semantics: an entry is dominated iff some entry with a
    *different* score vector is >= in every objective, so equal-score
    duplicates survive together.
    """
    entries = list(entries)
    if not entries:
        return []
    if objectives is None:
        objectives = (
            lambda e: e.report.ekit,
            lambda e: -e.report.feasibility.limiting_resource_utilization,
        )
    import numpy as np

    from repro.cost.vector import pareto_mask

    scores = np.array(
        [[obj(e) for obj in objectives] for e in entries], dtype=np.float64
    )
    mask = pareto_mask(scores)
    return [entry for entry, keep in zip(entries, mask) if keep]


@record
class SweepResult:
    """Reports of one batched sweep, in deterministic sweep order."""

    entries: list[SweepEntry] = field(default_factory=list)
    #: wall-clock seconds of the whole batch (includes backend overheads)
    wall_seconds: float = 0.0
    #: aggregated pipeline cache/timing statistics (see ``stats_view``);
    #: deliberately *not* part of any canonical report payload
    stats: dict = field(default_factory=dict)

    @property
    def evaluated(self) -> int:
        return len(self.entries)

    @property
    def estimation_seconds(self) -> float:
        """Estimator-only seconds summed over all variants."""
        return sum(e.report.estimation_seconds for e in self.entries)

    @property
    def variants_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.evaluated / self.wall_seconds

    def feasible(self) -> list[SweepEntry]:
        return [e for e in self.entries if e.report.feasible]

    def best(self) -> SweepEntry | None:
        """The fastest feasible design point (None when nothing fits)."""
        feasible = self.feasible()
        if not feasible:
            return None
        return max(feasible, key=lambda e: e.report.ekit)

    def pareto_frontier(
        self,
        objectives: Sequence[Callable[[SweepEntry], float]] | None = None,
        *,
        include_infeasible: bool = False,
    ) -> list[SweepEntry]:
        """The non-dominated feasible entries (like :meth:`best`, points
        that do not fit the device or its IO budget are not recommended
        unless ``include_infeasible`` is set)."""
        entries = self.entries if include_infeasible else self.feasible()
        return pareto_frontier(entries, objectives)

    def summary_rows(self) -> list[dict]:
        """One row per point: the data behind a multi-axis sweep table."""
        rows = []
        for entry in self.entries:
            report = entry.report
            util = report.utilization
            rows.append(
                {
                    **entry.point.as_dict(),
                    "ewgt_per_s": report.throughput.ewgt,
                    "ekit_per_s": report.ekit,
                    "alut_pct": util["alut"] * 100,
                    "reg_pct": util["reg"] * 100,
                    "bram_pct": util["bram_bits"] * 100,
                    "dsp_pct": util["dsp"] * 100,
                    "limiting_factor": report.limiting_factor.value,
                    "feasible": report.feasible,
                }
            )
        return rows

    def canonical_dicts(self) -> list[dict]:
        """Timing-free dicts of all entries (for backend-identity checks)."""
        return [entry.as_dict() for entry in self.entries]

    def stage_timing_rows(self) -> list[dict]:
        """Per-stage wall time and share, sorted by cost (for CLI tables)."""
        seconds = self.stats.get("stage_seconds", {}) if self.stats else {}
        total = sum(seconds.values()) or 1.0
        return [
            {"stage": stage, "seconds": value, "share": value / total}
            for stage, value in sorted(seconds.items(), key=lambda kv: -kv[1])
        ]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class ExplorationEngine:
    """Costing of design points through a pluggable backend.

    :meth:`explore` costs a whole design space through the backend's
    ``cost_space``; :meth:`cost_many` costs a list of jobs through its
    ``run``.  :meth:`run_optimizer` is the driver loop around the
    :class:`~repro.explore.optimizer.Optimizer` protocol: an optimizer
    proposes point batches, the engine lowers them to jobs, the backend's
    ``run`` costs them and the outcomes feed back.  Every path reports
    the same bytes for the same points.
    """

    def __init__(self, backend: SerialBackend | None = None):
        self.backend = backend or SerialBackend()

    def _entries(self, jobs: Sequence[CostJob],
                 deadline: Deadline | None) -> list[SweepEntry]:
        reports = self.backend.run(jobs, deadline=deadline)
        return [SweepEntry(job.point, report) for job, report in zip(jobs, reports)]

    def run_optimizer(self, optimizer, *, deadline: Deadline | None = None,
                      on_round=None):
        """Drive an optimizer to completion through this engine's backend.

        One loop round = one ``next_batch()`` proposed, lowered through
        one :class:`~repro.explore.optimizer.JobFactory` per run (a
        workload and a family handle shared across rounds), costed in one
        backend batch and fed back.  ``deadline`` bounds the whole loop
        (checked between rounds, and propagated into the backend, which
        checks it between points).  ``on_round(round, entries)`` fires
        after every round, which is what lets the service stream round
        events.  Returns an :class:`~repro.explore.optimizer.OptimizerRun`.
        """
        from repro.explore.optimizer import JobFactory, OptimizerRun, drive_optimizer

        factory = JobFactory()
        started = time.perf_counter()
        entries, rounds = drive_optimizer(
            optimizer,
            lambda points: self._entries([factory(p) for p in points], deadline),
            deadline=deadline, on_round=on_round)
        wall = time.perf_counter() - started
        return OptimizerRun(entries=entries, rounds=rounds,
                            result=optimizer.result(), wall_seconds=wall,
                            stats=self.backend.collect_stats())

    def cost_many(self, jobs: Sequence[CostJob],
                  deadline: Deadline | None = None) -> SweepResult:
        """Cost a batch of jobs in one backend ``run``; entries keep the
        job order.  ``deadline`` is checked between design points."""
        started = time.perf_counter()
        entries = self._entries(jobs, deadline)
        return SweepResult(entries=entries, wall_seconds=time.perf_counter() - started,
                           stats=self.backend.collect_stats())

    def explore(self, space: DesignSpace, deadline: Deadline | None = None,
                on_entry: Callable[[int, SweepEntry], None] | None = None
                ) -> SweepResult:
        """Cost every point of a design space, in sweep order.

        The backend's ``cost_space``, the serial one: each cost group is
        resolved once and its points filled in one loop.
        ``deadline`` is checked per point; ``on_entry(index, entry)``
        fires per point.
        """
        return self.backend.cost_space(space, deadline=deadline, on_entry=on_entry)
