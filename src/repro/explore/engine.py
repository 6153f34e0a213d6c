"""The multi-axis exploration engine: batched, parallel variant costing.

The cost model's speed is the paper's whole point — ~0.3 s per variant
against ~70 s for an HLS estimate — and this engine turns that speed into
scale: a :class:`DesignSpace` of thousands of points is lowered into
:class:`CostJob` batches and evaluated through a pluggable backend,

``SerialBackend``
    In-process evaluation; one memoizing
    :class:`~repro.compiler.pipeline.EstimationPipeline` per estimation
    session (option set), shared across all points of that session.
``ProcessPoolBackend``
    ``concurrent.futures.ProcessPoolExecutor`` fan-out.  Jobs are grouped
    by estimation session, split into per-worker batches and shipped as
    pickled (options, jobs) payloads; every stage of the pipeline is
    deterministic (the synthetic synthesiser derives its "tool noise" from
    sha256, not from salted ``hash()``), so the reports are identical to
    the serial backend's, byte for byte, modulo wall-clock timing.

Both backends are fault tolerant.  The pool backend survives worker
death (``BrokenProcessPool``): completed batches keep their results,
failed batches are requeued to a respawned pool under the backend's
:class:`~repro.resilience.RetryPolicy`, and — because every batch is a
deterministic function of its payload — the final report is
byte-identical to a fault-free run.  The serial backend retries
transient per-job failures in place.  Both honour an optional
:class:`~repro.resilience.Deadline` between design points.

Results come back as a :class:`SweepResult`: reports in deterministic
sweep order plus the selection helpers exploration strategies build on
(best-feasible, Pareto frontier, summary tables, variants/second).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Iterable, Sequence

from repro import field, record
from repro.compiler.pipeline import (
    CACHE_REQUESTS,
    STAGE_SECONDS,
    CompilationOptions,
    EstimationPipeline,
    adopt_shared_calibration,
)
from repro.cost.cache import env_int
from repro.cost.report import CostReport
from repro.explore.space import CostJob, DesignPoint, DesignSpace, _form_value
from repro.obs.trace import (
    Tracer,
    current_tracer,
    install_tracer,
    span as trace_span,
    uninstall_tracer,
    worker_trace_context,
)
from repro.resilience import (
    COUNTERS,
    Deadline,
    MetricFamily,
    RetryBudgetExceededError,
    RetryPolicy,
    current_fault_plan,
    is_transient,
    maybe_fail,
    register_transient,
    sum_families,
)

__all__ = [
    "SerialBackend",
    "ProcessPoolBackend",
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

    Sums same-named families (every session pipeline, every pool
    worker's shipped families) and lays the totals out the way stats
    leave the process: ``[hits, misses]`` per cache layer,
    ``family_fallbacks``, ``stage_seconds`` and, when a dense backend
    contributed, a ``dense`` block.
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


def _evaluate_batch(payload) -> tuple[list[tuple[int, CostReport]],
                                      tuple[MetricFamily, ...], list | None]:
    """Worker entry point: cost one batch of same-session jobs.

    Each batch gets a fresh pipeline (the batch *is* the session on this
    side of the pickle boundary, and sharing pipelines across batches
    could mix up differently-injected calibration models); the expensive
    per-device calibration artifacts arrive pre-resolved inside the
    pickled options (see :meth:`ProcessPoolBackend._payloads`), are
    shared process-wide, and warm-start from the persistent store
    otherwise.  The worker ships its pipeline's counter families back
    alongside the reports so the parent can sum a sweep-wide picture —
    and, when the parent is tracing, its spans (workers never touch the
    trace file).
    """
    options, batch, shared_default, *rest = payload
    epoch = rest[0] if rest else 0
    trace_ctx = rest[1] if len(rest) > 1 else None
    # the fault-injection site for "this worker invocation dies": salted
    # with the requeue epoch so a respawned pool (whose fresh processes
    # restart the plan's call counters) draws a *different* schedule and
    # the retry loop converges instead of crashing identically forever
    maybe_fail("worker", salt=epoch)
    if shared_default:
        # the shipped models came from the shared default calibration:
        # seed this worker's process-wide caches so they are recognised
        # as shared (enabling the cross-session resource/family caches)
        adopt_shared_calibration(options)
    worker_tracer = None
    if trace_ctx is not None:
        # collect-only tracer rooted under the parent's pool-batch span
        worker_tracer = install_tracer(
            Tracer(trace_id=trace_ctx[0], collect=True, root_parent=trace_ctx[1])
        )
    try:
        pipeline = EstimationPipeline(options)
        results = []
        with trace_span("worker.batch", points=len(batch), epoch=epoch):
            for index, module, workload, pattern in batch:
                results.append((index, pipeline.cost(module, workload, pattern)))
    finally:
        if worker_tracer is not None:
            uninstall_tracer()
    spans = worker_tracer.drain() if worker_tracer is not None else None
    return results, pipeline.families, spans


class ProcessPoolBackend:
    """Evaluate jobs on a :class:`ProcessPoolExecutor`.

    Jobs are grouped by estimation session and each group's options are
    calibrated *in the parent* before pickling — the resolved cost
    database and bandwidth models travel inside the payload, so workers
    never re-run device calibration the parent (or any earlier sweep in
    the process) already paid for.  Groups are split into
    ``batches_per_worker`` chunks to keep all workers busy; report order
    matches the input job order exactly.

    Worker death does not abort the sweep.  When a batch fails
    transiently — the pool broke under it, or a worker raised an
    injected/transient fault — its results are discarded, every batch
    that *did* complete keeps its reports, and the failed batches are
    requeued (to a freshly spawned pool if the old one broke) until they
    complete or ``retry_policy`` runs out of attempts.  Each batch is a
    deterministic function of its payload, so a report computed on the
    third attempt is byte-identical to one computed on the first.
    """

    def __init__(self, max_workers: int | None = None, batches_per_worker: int = 2,
                 retry_policy: RetryPolicy | None = None):
        from concurrent.futures.process import BrokenProcessPool

        # a dead pool is the canonical transient failure: the work is
        # fine, the substrate died under it
        register_transient(BrokenProcessPool)
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self.batches_per_worker = max(1, batches_per_worker)
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=env_int("TYBEC_POOL_ATTEMPTS", 8),
            base_delay=0.02, max_delay=0.5)
        self._last_stats: dict = {}

    def _payloads(self, jobs: Sequence[CostJob]) -> list[tuple]:
        groups: dict[tuple, tuple[CompilationOptions, list]] = {}
        for index, job in enumerate(jobs):
            key = _session_group_key(job)
            if key not in groups:
                groups[key] = (job.resolved_options(), [])
            groups[key][1].append((index, job.module, job.workload, job.point.pattern))

        payloads = []
        target_batches = self.max_workers * self.batches_per_worker
        for options, entries in groups.values():
            # resolve the one-time per-device artifacts here, once, so the
            # pickled options carry them to every worker (the workers'
            # cold-start calibration cost used to multiply per process)
            shared_default = EstimationPipeline(options).calibrate().shared_cost_db
            batches = min(len(entries), max(1, target_batches // len(groups)))
            size = (len(entries) + batches - 1) // batches
            for start in range(0, len(entries), size):
                payloads.append((options, entries[start : start + size],
                                 shared_default))
        return payloads

    def run(self, jobs: Sequence[CostJob],
            deadline: Deadline | None = None) -> list[CostReport]:
        if not jobs:
            self._last_stats = {}
            return []
        with trace_span("backend.pool.batch", jobs=len(jobs),
                        workers=self.max_workers) as pool_span:
            return self._run(jobs, deadline, pool_span)

    def _run(self, jobs: Sequence[CostJob], deadline: Deadline | None,
             pool_span) -> list[CostReport]:
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        trace_ctx = worker_trace_context(pool_span)
        payloads = self._payloads(jobs)
        reports: list[CostReport | None] = [None] * len(jobs)
        worker_families: list[MetricFamily] = []
        resilience = {"attempts": 0, "requeued_batches": 0, "pool_respawns": 0}

        pending = list(range(len(payloads)))
        policy = self.retry_policy
        last_error: BaseException | None = None
        for epoch in policy.attempts():
            resilience["attempts"] = epoch + 1
            if epoch > 0:
                resilience["pool_respawns"] += 1
                COUNTERS.bump("pool.respawns")
            failed: list[int] = []
            executor = ProcessPoolExecutor(max_workers=self.max_workers)
            try:
                futures = {
                    executor.submit(
                        _evaluate_batch, (*payloads[i], epoch, trace_ctx)
                    ): i
                    for i in pending
                }
                remaining = set(futures)
                while remaining:
                    if deadline is not None and deadline.expired:
                        deadline.check("pool sweep")
                    done, remaining = wait(
                        remaining, timeout=None if deadline is None
                        else max(0.05, min(1.0, deadline.remaining())),
                        return_when=FIRST_COMPLETED)
                    for future in done:
                        index = futures[future]
                        try:
                            batch_results, families, spans = future.result()
                        except BaseException as exc:  # noqa: BLE001
                            if not is_transient(exc):
                                raise
                            # the batch is lost but its work is not: the
                            # payload is requeued verbatim (plus a new
                            # epoch salt) and recomputes deterministically
                            failed.append(index)
                            last_error = exc
                            continue
                        if spans:
                            # worker spans ride home beside the counts;
                            # re-emit them into the parent's trace
                            tracer = current_tracer()
                            if tracer is not None:
                                tracer.emit_foreign(spans)
                        worker_families.extend(families)
                        for job_index, report in batch_results:
                            reports[job_index] = report
            finally:
                # a broken pool cannot be reused; tearing it down is what
                # lets the next epoch spawn a healthy one
                executor.shutdown(wait=False, cancel_futures=True)
            if not failed:
                pending = []
                break
            COUNTERS.bump("pool.requeued_batches", len(failed))
            resilience["requeued_batches"] += len(failed)
            pending = sorted(failed)
            if epoch == policy.max_attempts - 1:
                break
            pause = policy.delay(epoch, key="pool")
            if deadline is not None:
                deadline.check("pool sweep")
                pause = min(pause, deadline.remaining())
            if pause > 0:
                time.sleep(pause)
        if pending:
            assert last_error is not None
            raise RetryBudgetExceededError(
                f"pool sweep ({len(pending)} batch(es) of {len(payloads)})",
                policy.max_attempts, last_error) from last_error
        self._last_stats = stats_view(worker_families)
        self._last_stats["resilience"] = resilience
        return reports  # type: ignore[return-value]

    def collect_stats(self) -> dict:
        """Aggregated worker statistics of the most recent :meth:`run`."""
        return dict(self._last_stats)


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

    def __init__(self, backend: SerialBackend | ProcessPoolBackend | None = None):
        self.backend = backend or SerialBackend()

    def run_optimizer(self, optimizer, *, deadline: Deadline | None = None,
                      retry_policy: RetryPolicy | None = None,
                      on_round=None):
        """Drive an optimizer to completion through this engine's backend.

        One loop round = one ``next_batch()`` proposed, costed, fed back.
        ``deadline`` bounds the whole loop (checked between rounds, and
        propagated into the backend, which checks it between points or
        batch completions).  ``retry_policy`` optionally wraps each batch
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
        design points (serial) or batch completions (pool).
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
