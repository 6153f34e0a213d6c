"""Incremental optimizers: exploration as a batched decision loop.

The original exploration stack was a one-shot grid — every layer assumed
the full point list existed up front and was consumed in a single pass.
This module inverts that control flow around the :class:`Optimizer`
protocol (the shape of xeda's ``FmaxOptimizer`` DSE loop): an optimizer
*proposes* a batch of design points, the engine lowers each point to a
:class:`~repro.explore.space.CostJob` through the optimizer's ``job_for``
and costs the batch in one backend ``run`` (the serial one, which a dense
backend inherits), and the outcomes *feed back* into the optimizer,
which decides what to ask for next.

    while not optimizer.finished:
        points = optimizer.next_batch()                    # propose
        jobs = [optimizer.job_for(p) for p in points]      # lower
        reports = backend.run(jobs)                        # evaluate
        for job, report in zip(jobs, reports):
            optimizer.process_outcome(job.point, SweepEntry(job.point, report))

Five optimizers ship on the seam; each lowers its points through the
:class:`JobFactory` it inherits, except the guided lane walk, which costs
prebuilt variant modules:

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
``SuccessiveHalvingOptimizer``
    Racing labeled arms (kernels × forms) under a total costing budget:
    every rung doubles the per-arm allowance and eliminates the worst
    ``1 - 1/eta`` of the surviving arms by best feasible throughput.
``SurrogatePrunedOptimizer``
    The dense numpy engine as a *prune stage*: one broadcast pass scores
    the whole grid, only the top slice survives to full scalar costing
    (and optional cycle-accurate validation of the winner).
``GuidedLaneOptimizer``
    The classic wall-following lane walk: one lane count per round until
    the design stops fitting or stops paying off.

The driver loop lives in :func:`drive_optimizer` /
:meth:`~repro.explore.engine.ExplorationEngine.run_optimizer`; it checks
its :class:`~repro.resilience.Deadline` between rounds, and the backend
retries transient per-job failures in place.
"""

from __future__ import annotations

import math
import time
from itertools import islice
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
    "SuccessiveHalvingOptimizer",
    "SurrogatePrunedOptimizer",
    "GuidedLaneOptimizer",
    "OPTIMIZERS",
]


@runtime_checkable
class Optimizer(Protocol):
    """The incremental exploration protocol.

    ``next_batch`` proposes the next design points to cost (an empty
    batch ends the loop), ``process_outcome`` feeds one costed entry
    back, ``finished`` short-circuits the loop, and ``result`` is the
    optimizer's own JSON-able summary — what it was searching for, as
    opposed to the raw entries the driver accumulates.  ``job_for``
    lowers a proposed point to the :class:`~repro.explore.space.CostJob`
    the backend costs, and ``round_note`` is a one-line provenance
    string for the round just processed; :class:`OptimizerBase` gives
    both (a :class:`JobFactory` lowering and the last note it set).
    """

    def next_batch(self) -> list[DesignPoint]: ...

    def job_for(self, point: DesignPoint) -> CostJob: ...

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
    """Shared plumbing: a job factory, a finished flag, best tracking."""

    def __init__(self) -> None:
        self._factory = JobFactory()
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

    def job_for(self, point: DesignPoint) -> CostJob:
        return self._factory(point)

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
    per non-empty space, its points in sweep order, lowered through the
    inherited :class:`JobFactory`, so a large product grid is never
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
# Successive halving: racing arms under a costing budget
# ----------------------------------------------------------------------


class _Arm:
    def __init__(self, label: str, space: DesignSpace):
        self.label = label
        self.space = space
        self._stream = space.iter_points()
        self.active = True
        self.exhausted = False
        self.evaluated = 0
        self.best: SweepEntry | None = None
        self.eliminated_rung: int | None = None

    def take(self, n: int) -> list[DesignPoint]:
        points = list(islice(self._stream, n))
        if not points:
            self.exhausted = True
        return points

    @property
    def best_ekit(self) -> float:
        if self.best is None:
            return -math.inf
        return self.best.report.ekit

    def as_dict(self) -> dict:
        return {
            "arm": self.label,
            "evaluated": self.evaluated,
            "best_ekit_per_s": None if self.best is None else self.best.report.ekit,
            "eliminated_rung": self.eliminated_rung,
        }


class SuccessiveHalvingOptimizer(OptimizerBase):
    """Race labeled design spaces under a total costing budget.

    Arms are ``(label, DesignSpace)`` pairs (bare spaces label themselves
    by kernel name) — typically kernels × memory-execution forms.  Rung
    ``r`` gives every surviving arm an allowance of
    ``rung_points * eta**r`` points from its (lazy) sweep stream; after
    the rung, the arms are ranked by best feasible throughput and only
    the top ``1/eta`` survive.  The loop ends when the budget is spent,
    one arm remains and is exhausted, or every stream runs dry — so the
    budget concentrates on the arms that keep winning.
    """

    def __init__(self, arms, *, budget: int = 64, eta: int = 2,
                 rung_points: int = 2):
        super().__init__()
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if eta < 2:
            raise ValueError(f"eta must be >= 2, got {eta}")
        if rung_points < 1:
            raise ValueError(f"rung_points must be >= 1, got {rung_points}")
        self.budget = int(budget)
        self.eta = int(eta)
        self.rung_points = int(rung_points)
        self._arms: list[_Arm] = []
        for arm in arms:
            if isinstance(arm, DesignSpace):
                label, space = arm.kernel.name, arm
            else:
                label, space = arm
            self._arms.append(_Arm(str(label), space))
        if not self._arms:
            self._finished = True
        self.spent = 0
        self.rungs = 0
        self._point_arm: dict[DesignPoint, _Arm] = {}

    def _halve(self) -> None:
        active = [a for a in self._arms if a.active]
        if len(active) <= 1:
            return
        ranked = sorted(active, key=lambda a: (-a.best_ekit, a.label))
        keep = max(1, math.ceil(len(active) / self.eta))
        for arm in ranked[keep:]:
            arm.active = False
            arm.eliminated_rung = self.rungs

    def next_batch(self) -> list[DesignPoint]:
        if self._finished:
            return []
        if self.rungs > 0:
            self._halve()
        if self.spent >= self.budget:
            self._finished = True
            self._note = "budget exhausted"
            return []
        per_arm = self.rung_points * (self.eta ** self.rungs)
        batch: list[DesignPoint] = []
        self._point_arm = {}
        survivors = []
        for arm in self._arms:
            if not arm.active or arm.exhausted:
                continue
            allowance = min(per_arm, self.budget - self.spent - len(batch))
            if allowance <= 0:
                break
            points = arm.take(allowance)
            if not points:
                continue
            survivors.append(arm.label)
            for point in points:
                self._point_arm[point] = arm
            batch.extend(points)
        if not batch:
            self._finished = True
            return []
        self.spent += len(batch)
        self.rungs += 1
        self._note = (f"rung {self.rungs - 1}: {len(batch)} points across "
                      f"{len(survivors)} arms ({self.spent}/{self.budget} spent)")
        return batch

    def process_outcome(self, point: DesignPoint, entry: SweepEntry) -> None:
        self._observe(entry)
        arm = self._point_arm.get(point)
        if arm is None:
            return
        arm.evaluated += 1
        if entry.report.feasible and entry.report.ekit > arm.best_ekit:
            arm.best = entry

    def result(self) -> dict:
        winner = None
        if self._best is not None:
            for arm in self._arms:
                if arm.best is not None and arm.best.report.ekit == self._best.report.ekit:
                    winner = arm.label
                    break
        return {
            "optimizer": "halving",
            "budget": self.budget,
            "spent": self.spent,
            "eta": self.eta,
            "rungs": self.rungs,
            "winner": winner,
            "best": self._best_payload(),
            "arms": [a.as_dict() for a in
                     sorted(self._arms, key=lambda a: a.label)],
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


# ----------------------------------------------------------------------
# Guided lane walk (the classic wall-following search, on the protocol)
# ----------------------------------------------------------------------


class GuidedLaneOptimizer(OptimizerBase):
    """Walk lane counts upward until a wall is hit, one point per round.

    The optimizer form of the classic guided search: propose the next
    lane count, look at its report, stop on the *computation wall* (the
    design no longer fits the device) or the *communication wall*
    (throughput improved by less than ``min_gain`` while the limiting
    factor is host/DRAM bandwidth — wider designs cannot pay off).
    Works from :class:`~repro.explore.variants.VariantRecord` lists so
    compilers with injected models keep their exact costing session.
    """

    def __init__(self, variants, *, min_gain: float = 1.05, options=None):
        super().__init__()
        variants = list(variants)
        if not variants:
            raise ValueError("no variants to explore")
        self._ordered = sorted(variants, key=lambda v: v.lanes)
        self.kernel = self._ordered[0].kernel
        self._by_lanes = {v.lanes: v for v in self._ordered}
        self._options = options
        self._cursor = 0
        self._previous_ekit = 0.0
        self.min_gain = float(min_gain)
        self.stopped_by = ""
        self.entries: list[SweepEntry] = []

    def _point(self, variant) -> DesignPoint:
        from repro.substrate.fpga_device import MAIA_STRATIX_V_GSD8

        workload = variant.workload
        grid = tuple(workload.ndrange.dims) if workload is not None else ()
        iterations = workload.repetitions if workload is not None else 0
        device = getattr(self._options, "device", None) or MAIA_STRATIX_V_GSD8
        form = getattr(self._options, "form", None) or "auto"
        return DesignPoint(
            kernel=variant.kernel,
            lanes=variant.lanes,
            grid=grid,
            iterations=iterations,
            clock_mhz=getattr(self._options, "clock_mhz", None),
            form=_form_value(form),
            device=device,
        )

    def variant_for(self, point: DesignPoint):
        return self._by_lanes[point.lanes]

    def job_for(self, point: DesignPoint) -> CostJob:
        variant = self.variant_for(point)
        return CostJob(point=point, module=variant.module,
                       workload=variant.workload, options=self._options)

    def next_batch(self) -> list[DesignPoint]:
        if self._cursor >= len(self._ordered):
            self._finished = True
            return []
        return [self._point(self._ordered[self._cursor])]

    def process_outcome(self, point: DesignPoint, entry: SweepEntry) -> None:
        from repro.cost.throughput import LimitingFactor

        self._observe(entry)
        self._cursor += 1
        self.entries.append(entry)
        report = entry.report
        if not report.feasibility.fits_resources:
            self.stopped_by = "computation wall"
            self._finished = True
            return
        bandwidth_bound = report.limiting_factor in (
            LimitingFactor.HOST_BANDWIDTH,
            LimitingFactor.DRAM_BANDWIDTH,
        )
        if (self._previous_ekit > 0
                and report.ekit < self._previous_ekit * self.min_gain
                and bandwidth_bound):
            self.stopped_by = "communication wall"
            self._finished = True
            return
        self._previous_ekit = report.ekit
        if self._cursor >= len(self._ordered):
            self._finished = True
            self.stopped_by = self.stopped_by or "axis exhausted"

    def result(self) -> dict:
        return {
            "optimizer": "guided",
            "kernel": self.kernel,
            "evaluated": self._evaluated,
            "stopped_by": self.stopped_by or "axis exhausted",
            "best": self._best_payload(),
        }


#: the optimizers `tybec explore --optimizer` / `tybec suite dse` accept
OPTIMIZERS = ("exhaustive", "fmax", "halving", "surrogate")
