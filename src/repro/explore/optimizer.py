"""Incremental optimizers: exploration as a batched decision loop.

The original exploration stack was a one-shot grid — every layer assumed
the full point list existed up front and was consumed in a single pass.
This module inverts that control flow around the :class:`Optimizer`
protocol (the shape of xeda's ``FmaxOptimizer`` DSE loop): an optimizer
*proposes* a batch of design points, the engine lowers each point to a
:class:`~repro.explore.space.CostJob` through the one :class:`JobFactory`
it builds per run and costs the batch in one backend ``run`` (the serial
one, which a dense backend inherits), and the outcomes *feed back* into
the optimizer, which decides what to ask for next.

    factory = JobFactory()
    while not optimizer.finished:
        points = optimizer.next_batch()                    # propose
        jobs = [factory(p) for p in points]                # lower
        reports = backend.run(jobs)                        # evaluate
        for job, report in zip(jobs, reports):
            optimizer.process_outcome(job.point, SweepEntry(job.point, report))

Three optimizers ship on the seam:

``ExhaustiveOptimizer``
    The classic full sweep, re-expressed as the degenerate optimizer that
    proposes every point of one space per round and learns nothing; its
    reports are byte-identical to the whole-space path
    (``ExplorationEngine.explore``, goldens included).
``FmaxBinarySearchOptimizer``
    The maximum feasible clock per design family, found by bracket and
    refine: geometric growth until infeasible, then interior probes until
    the bracket closes below a resolution.  O(log(range/resolution))
    costings per family instead of a clock axis.
``SurrogatePrunedOptimizer``
    The dense numpy engine as a *prune stage*: one broadcast pass scores
    the whole grid, only the top slice survives to full scalar costing
    (and optional cycle-accurate validation of the winner).

The driver loop lives in :func:`drive_optimizer` /
:meth:`~repro.explore.engine.ExplorationEngine.run_optimizer`; it checks
its :class:`~repro.resilience.Deadline` between rounds, and the backend
retries transient per-job failures in place.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro import field, record
from repro.explore.engine import SweepEntry, SweepResult
from repro.obs.trace import span as trace_span
from repro.explore.space import (
    CostJob,
    DesignPoint,
    DesignSpace,
    _form_value,
)
from repro.models.streaming import PatternKind
from repro.resilience import COUNTERS, Deadline

__all__ = [
    "Optimizer",
    "OptimizerRound",
    "OptimizerRun",
    "JobFactory",
    "drive_optimizer",
    "ExhaustiveOptimizer",
    "FmaxBinarySearchOptimizer",
    "SurrogatePrunedOptimizer",
]


@runtime_checkable
class Optimizer(Protocol):
    """The incremental exploration protocol.

    ``next_batch`` proposes the next design points to cost (an empty
    batch ends the loop), ``process_outcome`` feeds one costed entry
    back, ``finished`` short-circuits the loop, and ``result`` is the
    optimizer's own JSON-able summary — what it was searching for, as
    opposed to the raw entries the driver accumulates.  ``round_note``
    is a one-line provenance string for the round just processed;
    :class:`OptimizerBase` gives the last note it set.  Lowering a
    proposed point to the job the backend costs is the engine's
    (:class:`JobFactory`), not the optimizer's.
    """

    def next_batch(self) -> list[DesignPoint]: ...

    def round_note(self) -> str: ...

    def process_outcome(self, point: DesignPoint, entry: SweepEntry) -> None: ...

    @property
    def finished(self) -> bool: ...

    def result(self) -> dict: ...


@record(frozen=True)
class OptimizerRound:
    """Provenance of one driver-loop round."""

    index: int
    points: int
    wall_seconds: float
    note: str = ""

    def as_dict(self) -> dict:
        payload = {"round": self.index, "points": self.points}
        if self.note:
            payload["note"] = self.note
        return payload


@record
class OptimizerRun:
    """Everything one optimizer loop produced.

    ``entries`` hold every costed point in evaluation order (across all
    rounds), ``rounds`` the per-round provenance, ``result`` the
    optimizer's own summary.  ``sweep()`` reshapes the run into the
    classic :class:`~repro.explore.engine.SweepResult` so existing
    selection helpers (best/frontier/summary tables) keep working.
    """

    entries: list[SweepEntry] = field(default_factory=list)
    rounds: list[OptimizerRound] = field(default_factory=list)
    result: dict = field(default_factory=dict)
    wall_seconds: float = 0.0
    stats: dict = field(default_factory=dict)

    @property
    def evaluated(self) -> int:
        return len(self.entries)

    def sweep(self) -> SweepResult:
        return SweepResult(entries=self.entries, wall_seconds=self.wall_seconds,
                           stats=self.stats)

    def best(self) -> SweepEntry | None:
        return self.sweep().best()

    def rounds_payload(self) -> list[dict]:
        return [r.as_dict() for r in self.rounds]


class JobFactory:
    """Lower design points to cost jobs with family/workload sharing.

    Optimizers propose bare :class:`DesignPoint` coordinates; the jobs
    behind them share one workload per (kernel, grid, iterations) and one
    lazy family handle per (kernel, lanes, grid) — exactly the sharing
    :func:`~repro.explore.space.build_jobs` gives a whole space, so an
    incremental loop hits the same family caches.
    """

    def __init__(self) -> None:
        self._workloads: dict[tuple, object] = {}
        self._modules: dict[tuple, object] = {}
        self._kernels: dict[str, object] = {}

    def _kernel(self, name: str):
        kernel = self._kernels.get(name)
        if kernel is None:
            from repro.kernels import get_kernel

            kernel = self._kernels[name] = get_kernel(name)
        return kernel

    def __call__(self, point: DesignPoint) -> CostJob:
        kernel = self._kernel(point.kernel)
        wkey = (point.kernel, point.grid, point.iterations)
        workload = self._workloads.get(wkey)
        if workload is None:
            workload = self._workloads[wkey] = kernel.workload(
                tuple(point.grid), point.iterations)
        mkey = (point.kernel, point.lanes, point.grid)
        module = self._modules.get(mkey)
        if module is None:
            module = self._modules[mkey] = point.family_handle(kernel)
        return CostJob(point=point, module=module, workload=workload)


def drive_optimizer(
    optimizer: Optimizer,
    evaluate: Callable[[list[DesignPoint]], list[SweepEntry]],
    *,
    deadline: Deadline | None = None,
    on_round: Callable[[OptimizerRound, list[SweepEntry]], None] | None = None,
) -> tuple[list[SweepEntry], list[OptimizerRound]]:
    """The generic propose → evaluate → learn loop.

    ``evaluate`` is whatever costs a batch of points (an engine backend, a
    bare compiler, a test double); the deadline is checked between rounds
    — a budget on the *loop*, on top of whatever the evaluator enforces
    per point.  Returns every costed entry plus per-round provenance.
    """
    entries: list[SweepEntry] = []
    rounds: list[OptimizerRound] = []
    index = 0
    while not optimizer.finished:
        if deadline is not None:
            deadline.check(f"optimizer round {index}")
        batch = optimizer.next_batch()
        if not batch:
            break
        started = time.perf_counter()
        with trace_span("optimizer.round", index=index, points=len(batch)) as sp:
            round_entries = evaluate(batch)
            for entry in round_entries:
                optimizer.process_outcome(entry.point, entry)
            note = optimizer.round_note()
            if sp is not None and note:
                sp.attrs["note"] = note
        round_ = OptimizerRound(index=index, points=len(batch),
                                wall_seconds=time.perf_counter() - started,
                                note=note)
        rounds.append(round_)
        entries.extend(round_entries)
        if on_round is not None:
            on_round(round_, round_entries)
        index += 1
    return entries, rounds


class OptimizerBase:
    """Shared plumbing: a finished flag, a round note, best tracking."""

    def __init__(self) -> None:
        self._finished = False
        self._evaluated = 0
        self._best: SweepEntry | None = None
        self._note = ""

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def evaluated(self) -> int:
        return self._evaluated

    def round_note(self) -> str:
        return self._note

    def _observe(self, entry: SweepEntry) -> None:
        self._evaluated += 1
        if entry.report.feasible and (
            self._best is None or entry.report.ekit > self._best.report.ekit
        ):
            self._best = entry

    def _best_payload(self) -> dict | None:
        if self._best is None:
            return None
        return {**self._best.point.as_dict(),
                "ekit_per_s": self._best.report.ekit}


def _normalize_spaces(spaces) -> list[DesignSpace]:
    if isinstance(spaces, DesignSpace):
        return [spaces]
    return list(spaces)


# ----------------------------------------------------------------------
# Exhaustive: the legacy eager path as the degenerate optimizer
# ----------------------------------------------------------------------


class ExhaustiveOptimizer(OptimizerBase):
    """Propose every point of the space(s); learn nothing, miss nothing.

    This is the pre-loop engine re-expressed on the protocol: one round
    per non-empty space, its points in sweep order, so a large product grid is never
    materialized ahead of the round that costs it.  Reports are
    byte-identical to the whole-space path.
    """

    def __init__(self, spaces: DesignSpace | Sequence[DesignSpace]):
        super().__init__()
        self._spaces = iter(_normalize_spaces(spaces))

    def next_batch(self) -> list[DesignPoint]:
        for space in self._spaces:
            points = space.points()
            if points:
                self._note = f"{space.kernel.name}: {len(points)} points"
                return points
        self._finished = True
        return []

    def process_outcome(self, point: DesignPoint, entry: SweepEntry) -> None:
        self._observe(entry)

    def result(self) -> dict:
        return {
            "optimizer": "exhaustive",
            "evaluated": self._evaluated,
            "best": self._best_payload(),
        }


# ----------------------------------------------------------------------
# Fmax: bracket-and-refine binary search per design family
# ----------------------------------------------------------------------


class _FmaxFamily:
    """The bracket state of one (kernel, lanes, device, form, pattern)."""

    def __init__(self, kernel: str, grid: tuple[int, ...], iterations: int,
                 lanes: int, device, form, pattern, start_mhz: float):
        self.kernel = kernel
        self.grid = grid
        self.iterations = iterations
        self.lanes = lanes
        self.device = device
        self.form = form
        self.pattern = pattern
        self.start_mhz = start_mhz
        self.lo: float | None = None   # highest clock known feasible
        self.hi: float | None = None   # lowest clock known infeasible
        self.probes = 0
        self.seen: set[float] = set()
        self.done = False
        self.capped = False
        self.note = ""

    def key(self) -> tuple:
        return (self.kernel, self.lanes, self.device.name,
                _form_value(self.form), self.pattern)

    def candidates(self, k: int, resolution: float, min_mhz: float,
                   max_mhz: float) -> list[float]:
        if self.done:
            return []
        if self.lo is None and self.hi is None:
            return self._emit([self.start_mhz])
        if self.hi is None:  # everything probed so far is feasible: grow
            if self.lo >= max_mhz:
                self.done = self.capped = True
                self.note = f"feasible at the {max_mhz:g} MHz cap"
                return []
            ladder, clock = [], self.lo
            for _ in range(k):
                clock = min(max_mhz, clock * 2.0)
                ladder.append(clock)
                if clock >= max_mhz:
                    break
            return self._emit(ladder)
        if self.lo is None:  # everything probed so far is infeasible: descend
            if self.hi <= min_mhz:
                self.done = True
                self.note = f"infeasible down to the {min_mhz:g} MHz floor"
                return []
            ladder, clock = [], self.hi
            for _ in range(k):
                clock = max(min_mhz, clock / 2.0)
                ladder.append(clock)
                if clock <= min_mhz:
                    break
            return self._emit(ladder)
        gap = self.hi - self.lo
        if gap <= resolution:
            self.done = True
            self.note = f"bracket closed to {gap:g} MHz"
            return []
        interior = [self.lo + gap * (i + 1) / (k + 1) for i in range(k)]
        emitted = self._emit(c for c in interior if self.lo < c < self.hi)
        if not emitted:  # float spacing finer than the remaining gap
            self.done = True
            self.note = f"bracket closed to {gap:g} MHz"
        return emitted

    def _emit(self, clocks: Iterable[float]) -> list[float]:
        fresh = []
        for clock in clocks:
            if clock not in self.seen:
                self.seen.add(clock)
                fresh.append(clock)
        return fresh

    def observe(self, clock: float, feasible: bool) -> None:
        self.probes += 1
        if feasible:
            self.lo = clock if self.lo is None else max(self.lo, clock)
        else:
            self.hi = clock if self.hi is None else min(self.hi, clock)

    @property
    def fmax_mhz(self) -> float | None:
        return self.lo

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "lanes": self.lanes,
            "device": self.device.name,
            "form": _form_value(self.form),
            "pattern": self.pattern.value,
            "fmax_mhz": self.fmax_mhz,
            "bracket_mhz": [self.lo, self.hi],
            "probes": self.probes,
            "capped": self.capped,
            "note": self.note,
        }


class FmaxBinarySearchOptimizer(OptimizerBase):
    """Maximum feasible clock per design family, by bracket and refine.

    Each family — one (kernel, lanes, device, form, pattern) coordinate
    of the space(s), the clock axis deliberately ignored — runs an
    independent bracket search: probe the device's nominal fmax, grow
    geometrically while feasible (or descend while infeasible), then
    refine the ``(feasible, infeasible)`` bracket with interior probes
    until it closes below ``resolution``.  Batches interleave candidates
    from every unfinished family, so one round advances every search.

    The returned ``fmax_mhz`` is the highest clock *costed feasible*;
    ``fmax_mhz + resolution`` is at or beyond the infeasible bracket edge
    (the model's feasibility is monotone in clock: resources are
    clock-independent, required bandwidth grows with it).  Families that
    never become feasible report ``fmax_mhz: null``; families feasible at
    the ``max_mhz`` cap report ``capped: true``.  Note that under
    ``form="auto"`` small workloads select the on-chip form C, whose
    bandwidth requirement is zero — every clock is feasible and the
    search runs straight to the cap; bandwidth-constrained forms A/B are
    where a finite fmax lives.
    """

    def __init__(
        self,
        spaces: DesignSpace | Sequence[DesignSpace],
        *,
        resolution: float = 1.0,
        probes_per_round: int = 3,
        start_mhz: float | None = None,
        min_mhz: float = 25.0,
        max_mhz: float = 1600.0,
    ):
        super().__init__()
        if resolution <= 0:
            raise ValueError(f"resolution must be positive, got {resolution}")
        if probes_per_round < 1:
            raise ValueError(
                f"probes_per_round must be >= 1, got {probes_per_round}")
        self.resolution = float(resolution)
        self.probes_per_round = int(probes_per_round)
        self.min_mhz = float(min_mhz)
        self.max_mhz = float(max_mhz)
        self._families: list[_FmaxFamily] = []
        self._index: dict[tuple, _FmaxFamily] = {}
        for space in _normalize_spaces(spaces):
            for lanes in space.lane_counts():
                for device in space.devices:
                    for form in space.forms:
                        for pattern in space.patterns:
                            start = start_mhz if start_mhz is not None \
                                else float(device.fmax_mhz)
                            start = min(self.max_mhz, max(self.min_mhz, start))
                            family = _FmaxFamily(
                                kernel=space.kernel.name,
                                grid=tuple(space.grid),
                                iterations=space.iterations,
                                lanes=lanes,
                                device=device,
                                form=form,
                                pattern=PatternKind(pattern),
                                start_mhz=start,
                            )
                            self._families.append(family)
                            self._index[family.key()] = family
        if not self._families:
            self._finished = True

    def next_batch(self) -> list[DesignPoint]:
        batch: list[DesignPoint] = []
        open_families = 0
        for family in self._families:
            clocks = family.candidates(self.probes_per_round, self.resolution,
                                       self.min_mhz, self.max_mhz)
            if not family.done:
                open_families += 1
            for clock in clocks:
                batch.append(DesignPoint(
                    kernel=family.kernel,
                    lanes=family.lanes,
                    grid=family.grid,
                    iterations=family.iterations,
                    clock_mhz=clock,
                    form=family.form,
                    device=family.device,
                    pattern=family.pattern,
                ))
        if not batch:
            self._finished = True
            return []
        self._note = f"{len(batch)} probes across {open_families} open families"
        return batch

    def process_outcome(self, point: DesignPoint, entry: SweepEntry) -> None:
        self._observe(entry)
        key = (point.kernel, point.lanes, point.device.name,
               _form_value(point.form), point.pattern)
        family = self._index.get(key)
        if family is not None:
            family.observe(point.resolved_clock_mhz, entry.report.feasible)

    def result(self) -> dict:
        families = sorted(
            (f.as_dict() for f in self._families),
            key=lambda f: (f["kernel"], f["device"], f["form"], f["lanes"],
                           f["pattern"]),
        )
        return {
            "optimizer": "fmax",
            "resolution_mhz": self.resolution,
            "probes": self._evaluated,
            "families": families,
        }


# ----------------------------------------------------------------------
# Surrogate prune: dense broadcast pass → scalar costing of survivors
# ----------------------------------------------------------------------


class SurrogatePrunedOptimizer(OptimizerBase):
    """Dense numpy pass prunes the grid; survivors get the full pipeline.

    Round 0 evaluates the whole space through
    :meth:`~repro.explore.dense.DenseBackend.explore_space` — thousands
    of points as one broadcast — and keeps the top
    ``max(keep_min, ceil(keep_fraction * n))`` by feasible throughput.
    Round 1 proposes only the survivors, which the driving engine costs
    through its backend's ``run``, report-for-report
    identical to what an exhaustive sweep would have produced for those
    points.  Spaces the dense path cannot represent (not lane-separable)
    fall back to proposing every point, with the fallback recorded in the
    result.  With ``validate_best=True`` the winning entry is additionally
    cross-validated against the cycle-accurate simulators.  ``backend``
    is the :class:`~repro.explore.dense.DenseBackend` that scores the
    grid (a long-lived caller shares its warm caches this way); without
    one the prune builds its own.
    """

    def __init__(
        self,
        space: DesignSpace,
        *,
        keep_fraction: float = 0.1,
        keep_min: int = 1,
        backend=None,
        validate_best: bool = False,
    ):
        super().__init__()
        if not 0 < keep_fraction <= 1:
            raise ValueError(
                f"keep_fraction must be in (0, 1], got {keep_fraction}")
        if keep_min < 1:
            raise ValueError(f"keep_min must be >= 1, got {keep_min}")
        self.space = space
        self.keep_fraction = float(keep_fraction)
        self.keep_min = int(keep_min)
        self.validate_best = bool(validate_best)
        self._backend = backend
        self._phase = "prune"
        self._dense_points = 0
        self._survivors = 0
        self._fallback: str | None = None
        self._validation: dict | None = None

    def next_batch(self) -> list[DesignPoint]:
        if self._phase != "prune":
            self._finish()
            return []
        self._phase = "cost"
        if self._backend is None:
            from repro.explore.dense import DenseBackend

            self._backend = DenseBackend()
        from repro.cost.vector import DenseUnsupportedError

        try:
            sweep = self._backend.explore_space(self.space)
        except DenseUnsupportedError as exc:
            COUNTERS.bump("fallbacks.dense")
            self._fallback = str(exc)
            points = self.space.points()
            self._survivors = len(points)
            self._note = (f"dense prune unavailable; costing all "
                          f"{len(points)} points")
            return points
        self._dense_points = sweep.evaluated
        keep = sweep.prune_indices(keep_fraction=self.keep_fraction,
                                   keep_min=self.keep_min)
        points = [sweep.grid.point(*sweep.grid.coords(i)) for i in keep]
        self._survivors = len(points)
        self._note = (f"dense pass scored {sweep.evaluated} points; "
                      f"{len(points)} survive to scalar costing")
        return points

    def _finish(self) -> None:
        if self.validate_best and self._best is not None \
                and self._validation is None:
            from repro.validate import CrossValidator

            record = CrossValidator().validate_entry(self._best)
            self._validation = {
                "within_tolerance": record.within_tolerance,
                "relative_error": record.seconds_relative_error,
            }
        self._finished = True

    def process_outcome(self, point: DesignPoint, entry: SweepEntry) -> None:
        self._observe(entry)

    def result(self) -> dict:
        if not self._finished:
            self._finish()
        return {
            "optimizer": "surrogate",
            "keep_fraction": self.keep_fraction,
            "dense_points": self._dense_points,
            "scalar_points": self._survivors,
            "pruned": max(0, self._dense_points - self._survivors),
            "fallback": self._fallback,
            "best": self._best_payload(),
            "validation": self._validation,
        }
