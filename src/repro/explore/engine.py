"""The multi-axis exploration engine: batched variant costing.

The cost model's speed is the paper's whole point — ~0.3 s per variant
against ~70 s for an HLS estimate — and this engine turns that speed into
scale: a :class:`DesignSpace` of thousands of points is lowered into
:class:`CostJob` batches and evaluated through a pluggable backend,

``SerialBackend``
    In-process evaluation; one memoizing
    :class:`~repro.compiler.pipeline.EstimationPipeline` per estimation
    session (option set), shared across all points of that session.
``DenseBackend`` (:mod:`repro.explore.dense`)
    One broadcast numpy pass over a lane-separable space; its reports
    are byte-identical to the serial backend's.

A point costs tens of microseconds, so worker processes cost more to
start and feed than they save on any grid this repo runs; there is no
process-pool backend.  The serial backend retries transient per-job
failures in place, so a fault-injected run reports the same bytes as a
clean one, and it honours an optional
:class:`~repro.resilience.Deadline` between design points.

Results come back as a :class:`SweepResult`: reports in deterministic
sweep order plus the selection helpers exploration strategies build on
(best-feasible, Pareto frontier, summary tables, variants/second).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Sequence

from repro import field, record
from repro.compiler.pipeline import (
    CACHE_REQUESTS,
    STAGE_SECONDS,
    EstimationPipeline,
)
from repro.cost.report import CostReport
from repro.explore.space import CostJob, DesignPoint, DesignSpace, _form_value
from repro.obs.trace import span as trace_span
from repro.resilience import (
    COUNTERS,
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


def _session_group_key(job: CostJob) -> tuple:
    """Group jobs that can share one estimation session (one pipeline).

    Jobs with explicit options group by the options object's identity —
    the caller vouches those jobs belong to one session (and injected
    models, custom noise or latency models are honoured as-is).  Jobs
    described purely by their design point group by the point's
    ``(device, clock, form)``: the only option fields a point sets.  The
    rest take their defaults when the session's options are built, so
    ``TYBEC_LANE_SCALING`` is read once per session, not once per point.
    """
    if job.options is not None:
        return ("options", id(job.options))
    point = job.point
    return ("point", point.device, point.resolved_clock_mhz, _form_value(point.form))


class SerialBackend:
    """Evaluate jobs in-process, one memoizing pipeline per session.

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

    def pipeline_for(self, job: CostJob) -> EstimationPipeline:
        key = _session_group_key(job)
        with self._lock:
            pipeline = self._pipelines.get(key)
            if pipeline is None:
                pipeline = self._pipelines[key] = EstimationPipeline(job.resolved_options())
            return pipeline

    #: per-job retry budget for transient failures (injected faults, a
    #: flaky cache substrate); real estimation errors are deterministic
    #: and classified permanent, so they propagate on the first attempt
    retry_policy: RetryPolicy = RetryPolicy(max_attempts=4, base_delay=0.01,
                                            max_delay=0.25)

    def run(
        self,
        jobs: Sequence[CostJob],
        progress: Callable[[int, CostReport], None] | None = None,
        deadline: Deadline | None = None,
    ) -> list[CostReport]:
        """Cost ``jobs`` in order; ``progress(index, report)`` fires per point.

        The callback is what lets a long-lived consumer (the exploration
        service) stream results while the batch is still running.
        ``deadline`` is checked between points (and before each retry);
        transient per-job failures retry under :attr:`retry_policy`.
        """
        with trace_span("backend.serial.batch", jobs=len(jobs)):
            return self._run(jobs, progress, deadline)

    def _run(
        self,
        jobs: Sequence[CostJob],
        progress: Callable[[int, CostReport], None] | None,
        deadline: Deadline | None,
    ) -> list[CostReport]:
        reports = []
        # the "worker" fault site: the plan is resolved once per batch
        plan = current_fault_plan()
        for index, job in enumerate(jobs):
            if deadline is not None:
                deadline.check(f"design point {index}/{len(jobs)}")
            pipeline = self.pipeline_for(job)

            def _cost(attempt: int, job=job, pipeline=pipeline):
                if plan is not None:
                    plan.fire("worker", salt=attempt)
                return pipeline.cost(job.module, job.workload, job.point.pattern)

            report = self.retry_policy.call(
                _cost, key=f"serial:{index}", what=f"costing {job.point.label}",
                deadline=deadline)
            reports.append(report)
            if progress is not None:
                progress(index, report)
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
    """Incremental costing of design points through a pluggable backend.

    The engine is a driver loop around the :class:`Optimizer` protocol
    (:mod:`repro.explore.optimizer`): an optimizer proposes point
    batches, the backend costs them, the outcomes feed back.  The classic
    entry points — :meth:`cost_many` and :meth:`explore` — are the
    degenerate ``ExhaustiveOptimizer`` driven through the same loop, and
    stay byte-identical to the pre-loop eager engine.
    """

    def __init__(self, backend: SerialBackend | None = None):
        self.backend = backend or SerialBackend()

    def run_optimizer(self, optimizer, *, deadline: Deadline | None = None,
                      retry_policy: RetryPolicy | None = None,
                      on_round=None):
        """Drive an optimizer to completion through this engine's backend.

        One loop round = one ``next_batch()`` proposed, costed, fed back.
        ``deadline`` bounds the whole loop (checked between rounds, and
        propagated into the backend, which checks it between points).  ``retry_policy`` optionally wraps each batch
        dispatch — a loop-level budget *on top of* the backends' own
        per-batch recovery, so the default is a single attempt.
        ``on_round(round, entries)`` fires after every round, which is
        what lets the service stream round events.  Returns an
        :class:`~repro.explore.optimizer.OptimizerRun`.
        """
        from repro.explore.optimizer import (
            JobFactory,
            OptimizerRun,
            drive_optimizer,
        )

        policy = retry_policy if retry_policy is not None else RetryPolicy.none()
        job_for = getattr(optimizer, "job_for", None) or JobFactory()
        started = time.perf_counter()

        def evaluate(points):
            jobs = [job_for(point) for point in points]
            if policy.max_attempts > 1:
                reports = policy.call(
                    lambda attempt: self.backend.run(jobs, deadline=deadline),
                    key="optimizer-batch", what="optimizer batch",
                    deadline=deadline)
            else:
                reports = self.backend.run(jobs, deadline=deadline)
            return [SweepEntry(job.point, report)
                    for job, report in zip(jobs, reports)]

        entries, rounds = drive_optimizer(
            optimizer, evaluate, deadline=deadline, on_round=on_round)
        wall = time.perf_counter() - started
        collect = getattr(self.backend, "collect_stats", None)
        stats = collect() if collect is not None else {}
        return OptimizerRun(entries=entries, rounds=rounds,
                            result=optimizer.result(), wall_seconds=wall,
                            stats=stats)

    def cost_many(self, jobs: Sequence[CostJob],
                  deadline: Deadline | None = None) -> SweepResult:
        """Cost a batch of jobs; reports keep the job order.

        One exhaustive-optimizer round through :meth:`run_optimizer`:
        ``deadline`` propagates into the backend, which checks it between
        design points.
        """
        from repro.explore.optimizer import ExhaustiveOptimizer

        run = self.run_optimizer(ExhaustiveOptimizer(jobs=jobs),
                                 deadline=deadline)
        return run.sweep()

    def explore(self, space: DesignSpace) -> SweepResult:
        """Lower a design space and cost every point.

        A backend with a dense lowering (``explore_space``) evaluates the
        whole space as broadcast arrays and materializes every report;
        spaces the dense path cannot represent (non-lane-separable
        designs) transparently fall back to the per-point optimizer loop.
        """
        dense = getattr(self.backend, "explore_space", None)
        if dense is not None:
            from repro.cost.vector import DenseUnsupportedError

            try:
                return dense(space).materialize_all()
            except DenseUnsupportedError:
                COUNTERS.bump("fallbacks.dense")
        from repro.explore.optimizer import ExhaustiveOptimizer

        run = self.run_optimizer(ExhaustiveOptimizer(space))
        return run.sweep()

    def explore_dense(self, space: DesignSpace):
        """Dense-evaluate a space *without* materializing its reports.

        Returns the backend's :class:`~repro.explore.dense.DenseSweep`
        (arrays + lazy entries).  Raises
        :class:`~repro.cost.vector.DenseUnsupportedError` when the backend
        has no dense lowering or the space is not lane-separable.
        """
        from repro.cost.vector import DenseUnsupportedError

        dense = getattr(self.backend, "explore_space", None)
        if dense is None:
            raise DenseUnsupportedError(
                f"backend {type(self.backend).__name__} has no dense lowering"
            )
        return dense(space)
