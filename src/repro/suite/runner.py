"""The workload suite: batch-costing every registered kernel.

The roofline-style DSE literature shows value by sweeping *many* kernels
per device; this module makes that a first-class operation.  A
:class:`SuiteConfig` names the kernels (default: every kernel in the
registry) and the sweep axes (device x memory-execution form x lanes
x clock x access pattern); :class:`WorkloadSuite` costs each kernel's
design space through the exploration engine's one whole-space loop and
folds the results into a canonical
:class:`~repro.suite.report.SuiteReport`.

The suite is what both the golden-regression harness and the
``BENCH_suite`` throughput benchmark are built on: one costs the report
against checked-in goldens, the other times the batch.
"""

from __future__ import annotations

import math
import os

from repro import field, record, replace
from repro.explore.engine import ExplorationEngine, SweepResult
from repro.explore.space import DesignSpace
from repro.kernels import REGISTRY, KernelWorkload, get_kernel
from repro.models.memory_execution import MemoryExecutionForm
from repro.models.streaming import PatternKind
from repro.obs.profile import maybe_profile
from repro.obs.trace import span as trace_span
from repro.suite.report import DSE_SCHEMA, SCHEMA, SuiteReport
from repro.substrate import DEVICES, get_device

__all__ = ["SuiteConfig", "SuiteRun", "WorkloadSuite", "build_suite_report",
           "tiny_grid", "DseRun", "run_dse", "build_dse_report",
           "resolve_dse_params", "DSE_OPTIMIZERS", "dse_optimizers",
           "parse_request", "check_deadline_seconds", "stage_map"]

#: the names the ``forms`` and ``patterns`` suite axes accept
_FORMS = ("auto", *(form.value for form in MemoryExecutionForm))
_PATTERNS = tuple(pattern.value for pattern in PatternKind)

_NO_POINTS = ("suite has no design points (no valid lane counts for the "
              "configured grids?)")


def tiny_grid(default_grid: tuple[int, ...], cap: int = 8) -> tuple[int, ...]:
    """Shrink a kernel's default grid to a smoke-test size (each dim <= cap)."""
    return tuple(min(int(d), cap) for d in default_grid)


# ----------------------------------------------------------------------
# The request schema: the one check of every CLI and service input
# ----------------------------------------------------------------------


def _positive(value) -> bool:
    """A finite number > 0; a bool is no number."""
    return not isinstance(value, bool) and (
        isinstance(value, int) or isinstance(value, float)
        and math.isfinite(value)) and value > 0


def _count(value) -> bool:
    return isinstance(value, int) and _positive(value)


def _check(name: str, value, ok, expected: str):
    if not ok(value):
        raise ValueError(f"{name} must be {expected}, got {value!r}")
    return value


def _items(name: str, value, ok, expected: str, empty: bool = False) -> tuple:
    """A list (never a bare string) of items passing ``ok``, as a tuple."""
    return tuple(_check(name, value, lambda v: isinstance(v, (list, tuple))
                        and (empty or len(v) > 0) and all(map(ok, v)), expected))


def _names(name: str, value, known, fold=str, empty: bool = False) -> tuple:
    """A list of names, each in ``known`` once passed through ``fold``."""
    names = _items(name, value, lambda v: isinstance(v, str),
                   "a list of names" if empty else "a non-empty list of names",
                   empty)
    unknown = [n for n in names if fold(n) not in known]
    if unknown:
        raise ValueError(f"unknown {name} {unknown}; known: {sorted(known)}")
    return names


def _flag(spec: dict, name: str) -> bool:
    """Pop the boolean field ``name`` (default false) from ``spec``."""
    return _check(name, spec.pop(name, False), lambda v: isinstance(v, bool),
                  "true or false")


def check_deadline_seconds(value, name: str = "deadline_seconds"):
    """A compute budget: ``None`` or a finite number of seconds > 0."""
    return _check(name, value, lambda v: v is None or _positive(v),
                  "a finite number of seconds > 0")


def _grids(name: str, value) -> dict:
    _check(name, value, lambda v: isinstance(v, dict),
           "an object mapping kernel names to grids")
    _names(name, list(value), REGISTRY.names(), str.lower, True)
    return {kernel: _items(name, grid, lambda _: True, "lists of dimensions", True)
            for kernel, grid in value.items()}


#: how :meth:`SuiteConfig.from_spec` checks each field: ``check(name,
#: value)`` returns the config value or raises a ``ValueError`` naming it;
#: grid dimensions are left to :class:`KernelWorkload`
_SUITE_FIELDS = {
    "kernels": lambda n, v: _names(n, v, REGISTRY.names(), str.lower, True),
    "devices": lambda n, v: _names(n, v, DEVICES),
    "forms": lambda n, v: _names(n, v, _FORMS),
    "patterns": lambda n, v: _names(n, v, _PATTERNS),
    "lanes": lambda n, v: v if v is None else _items(
        n, v, _count, "null or a non-empty list of integers > 0"),
    "max_lanes": lambda n, v: _check(n, v, _count, "an integer > 0"),
    "clocks_mhz": lambda n, v: _items(n, v, _positive,
                                      "a list of finite numbers > 0", True),
    "grids": _grids,
    "iterations": lambda n, v: _check(n, v, lambda x: x is None or _count(x),
                                      "null or an integer > 0"),
}


@record(frozen=True)
class SuiteConfig:
    """Declarative description of one suite run.

    Empty axis tuples mean "the default": every registered kernel, the
    device's fmax clock, the kernel's default grid and iteration count.
    Grids and iterations are validated through :class:`KernelWorkload`,
    so a malformed override fails before any costing starts.
    """

    kernels: tuple[str, ...] = ()
    devices: tuple[str, ...] = ("stratix-v",)
    lanes: tuple[int, ...] | None = None
    max_lanes: int = 4
    forms: tuple[str, ...] = ("auto",)
    patterns: tuple[str, ...] = ("contiguous",)
    clocks_mhz: tuple[float, ...] = ()
    #: per-kernel grid overrides; kernels not named use their default grid
    grids: dict = field(default_factory=dict)
    #: iteration override applied to every kernel (None = kernel default)
    iterations: int | None = None

    # ------------------------------------------------------------------
    @classmethod
    def tiny(cls, kernels: tuple[str, ...] = (), devices: tuple[str, ...] = ("stratix-v",),
             max_lanes: int = 4) -> "SuiteConfig":
        """The smoke-test configuration: every kernel on a tiny grid.

        This is also the *golden* configuration — small enough that the
        whole six-kernel suite costs in well under a second, yet it
        exercises the full parse -> analyse -> resource -> throughput ->
        feasibility flow of every kernel.
        """
        names = tuple(cls(kernels=tuple(kernels)).resolved_kernels())
        grids = {name: tiny_grid(REGISTRY[name].default_grid) for name in names}
        return cls(kernels=names, devices=tuple(devices), max_lanes=max_lanes,
                   grids=grids, iterations=10)

    @classmethod
    def from_spec(cls, spec: dict) -> "SuiteConfig":
        """The config a ``tybec suite`` command's flags or a ``/suite`` or
        ``/dse`` body spell: the one way outside input becomes a config.

        ``"tiny": true`` starts from the golden smoke configuration; every
        other field overrides one axis.  Each field, unknown ones too, is
        refused with a ``ValueError`` naming it, and so is a grid with no
        design points.  Lists become tuples and nothing else is
        normalised, so ``from_spec(c.as_dict()).as_dict() == c.as_dict()``.
        """
        spec = dict(_check("suite spec", spec, lambda v: isinstance(v, dict),
                           "an object"))
        tiny = _flag(spec, "tiny")
        unknown = sorted(str(name) for name in spec if name not in _SUITE_FIELDS)
        if unknown:
            raise ValueError(f"unknown suite field(s) {unknown}; known: "
                             f"{sorted([*_SUITE_FIELDS, 'tiny'])}")
        values = {name: check(name, spec[name])
                  for name, check in _SUITE_FIELDS.items() if name in spec}
        if tiny:
            tiny_args = {name: values.pop(name) for name in
                         ("kernels", "devices", "max_lanes") if name in values}
            config = replace(cls.tiny(**tiny_args), **values)
        else:
            config = cls(**values)
        for name in {*config.resolved_kernels(), *map(str.lower, config.grids)}:
            try:
                config.workload_for(name)
            except ValueError as exc:
                raise ValueError(f"grids: {exc}") from exc
        if not any(len(config.space_for(name))
                   for name in config.resolved_kernels()):
            raise ValueError(_NO_POINTS)
        return config

    # ------------------------------------------------------------------
    def resolved_kernels(self) -> list[str]:
        names = list(self.kernels) if self.kernels else REGISTRY.names()
        unknown = [n for n in names if n.lower() not in REGISTRY]
        if unknown:
            raise KeyError(f"unknown kernels {unknown}; available: {REGISTRY.names()}")
        return sorted(n.lower() for n in names)

    def workload_for(self, name: str) -> KernelWorkload:
        """The validated (kernel, grid, iterations) triple of one kernel."""
        name = name.lower()
        kernel_cls = REGISTRY[name]
        grids = {k.lower(): v for k, v in self.grids.items()}
        grid = tuple(grids.get(name, kernel_cls.default_grid))
        iterations = self.iterations if self.iterations is not None \
            else kernel_cls.default_iterations
        return KernelWorkload(kernel=name, grid=grid, iterations=iterations)

    def space_for(self, name: str) -> DesignSpace:
        """The design space the suite sweeps for one kernel."""
        workload = self.workload_for(name)
        return DesignSpace(
            kernel=get_kernel(name),
            grid=workload.grid,
            iterations=workload.iterations,
            lanes=list(self.lanes) if self.lanes is not None else None,
            max_lanes=self.max_lanes,
            clocks_mhz=tuple(self.clocks_mhz) or (None,),
            forms=tuple(self.forms),
            devices=tuple(get_device(d) for d in self.devices),
            patterns=tuple(PatternKind(p) for p in self.patterns),
        )

    def as_dict(self) -> dict:
        return {
            "kernels": self.resolved_kernels(),
            "devices": list(self.devices),
            "lanes": list(self.lanes) if self.lanes is not None else None,
            "max_lanes": self.max_lanes,
            "forms": list(self.forms),
            "patterns": list(self.patterns),
            "clocks_mhz": list(self.clocks_mhz),
            "grids": {k.lower(): list(v) for k, v in sorted(self.grids.items())},
            "iterations": self.iterations,
        }


@record
class SuiteRun:
    """Outcome of one suite run: the canonical report plus batch timing.

    Timing lives *outside* the report on purpose — the report must be
    deterministic, the timing is what ``BENCH_suite.json`` records.
    """

    report: SuiteReport
    sweep: SweepResult

    @property
    def evaluated(self) -> int:
        return self.sweep.evaluated

    @property
    def wall_seconds(self) -> float:
        return self.sweep.wall_seconds

    @property
    def variants_per_second(self) -> float:
        return self.sweep.variants_per_second

    @property
    def stats(self) -> dict:
        """Aggregated pipeline cache/timing statistics of the batch.

        Lives outside the canonical report on purpose: hit rates and wall
        times are facts about one run, not about the cost model.
        """
        return self.sweep.stats


def build_suite_report(config: SuiteConfig, spaces: dict[str, DesignSpace],
                       sweep: SweepResult) -> SuiteReport:
    """Fold one completed sweep into the canonical suite report.

    Shared by :meth:`WorkloadSuite.run` and the exploration service so a
    report served over HTTP is byte-identical to the one a batch run (or
    ``tybec suite run``) writes for the same configuration — the
    acceptance criterion the golden harness and the coalescing tests both
    pin.  Each kernel's ``entries`` are the
    :class:`~repro.explore.engine.SweepEntry` rows themselves, encoded
    from their objects by :func:`~repro.suite.report.canonical_json`.
    """
    kernels: dict[str, dict] = {}
    feasible_total = 0
    for name, entries in WorkloadSuite.kernel_entries(spaces, sweep).items():
        count = len(entries)
        workload = config.workload_for(name)
        best = None
        feasible = [e for e in entries if e.report.feasible]
        feasible_total += len(feasible)
        if feasible:
            best = max(feasible, key=lambda e: e.report.ekit).point.as_dict()
        kernels[name] = {
            "workload": {"grid": list(workload.grid),
                         "iterations": workload.iterations},
            "points": count,
            "feasible_points": len(feasible),
            "best": best,
            "entries": entries,
        }

    payload = {
        "schema": SCHEMA,
        "config": config.as_dict(),
        "kernels": kernels,
        "totals": {
            "kernels": len(kernels),
            "points": sweep.evaluated,
            "feasible": feasible_total,
        },
    }
    return SuiteReport(payload)


class WorkloadSuite:
    """Enumerate kernel x device x form x lane grids and cost them in batch."""

    def __init__(self, config: SuiteConfig | None = None, backend=None):
        self.config = config or SuiteConfig()
        self.engine = ExplorationEngine(backend)

    # ------------------------------------------------------------------
    def spaces(self) -> dict[str, DesignSpace]:
        """One design space per kernel, in sorted kernel order."""
        return {name: self.config.space_for(name) for name in self.config.resolved_kernels()}

    @staticmethod
    def kernel_entries(spaces: dict[str, DesignSpace], sweep: SweepResult):
        """Per-kernel slices of a sweep over ``spaces``, in sweep order.

        The suite concatenates the per-kernel sweeps into one; this is
        the inverse — shared by the suite report builder and the
        cross-validation subsystem so both agree on which entries belong
        to which kernel.
        """
        slices: dict[str, list] = {}
        cursor = 0
        for name, space in spaces.items():
            count = len(space)
            slices[name] = sweep.entries[cursor : cursor + count]
            cursor += count
        return slices

    # ------------------------------------------------------------------
    def sweep(self, deadline=None, on_entry=None
              ) -> tuple[dict[str, DesignSpace], SweepResult]:
        """Cost every point of every kernel, kernel by kernel, in sweep order.

        Each kernel's space goes through the engine's backend
        (``cost_space``, the serial one, which a dense backend inherits):
        each cost group is resolved once and its points filled in one
        loop, in sweep order.  ``deadline`` is checked
        per design point, and ``on_entry(index, entry)`` fires per point
        with its index in the whole sweep — the exploration service
        streams through it.
        """
        with trace_span("suite.sweep", kernels=len(self.config.kernels)), \
                maybe_profile("suite.sweep"):
            return self._sweep(deadline, on_entry)

    def _sweep(self, deadline, on_entry) -> tuple[dict[str, DesignSpace], SweepResult]:
        spaces = self.spaces()
        costed = [space for space in spaces.values() if len(space)]
        if not costed:
            raise ValueError(_NO_POINTS)
        entries: list = []
        wall = 0.0
        for space in costed:
            emit = None
            if on_entry is not None:
                def emit(index, entry, offset=len(entries)):
                    on_entry(offset + index, entry)
            result = self.engine.explore(space, deadline=deadline, on_entry=emit)
            entries.extend(result.entries)
            wall += result.wall_seconds
        # the backend's counters are cumulative: the last space's stats
        # already cover the whole sweep
        return spaces, SweepResult(entries=entries, wall_seconds=wall, stats=result.stats)

    def run(self) -> SuiteRun:
        """Cost the whole suite and fold it into the canonical report."""
        spaces, sweep = self.sweep()
        report = build_suite_report(self.config, spaces, sweep)
        return SuiteRun(report=report, sweep=sweep)

    # ------------------------------------------------------------------
    def summary_rows(self, run: SuiteRun) -> list[dict]:
        """One row per design point, kernel column included (for the CLI)."""
        rows = []
        for name, info in run.report.kernels.items():
            for entry in info["entries"]:
                point, report = entry.point, entry.report
                rows.append({
                    "kernel": name,
                    "lanes": point.lanes,
                    "device": point.device.name,
                    "clock_mhz": point.resolved_clock_mhz,
                    "form": report.throughput.form.value,
                    "pattern": point.pattern.value,
                    "ekit_per_s": report.ekit,
                    "feasible": report.feasible,
                })
        return rows


def stage_map(fn, items, jobs: int | None = None,
              chunks_per_worker: int | None = None) -> list:
    """``[fn(item) for item in items]``, on worker processes when asked.

    The per-item stages that follow a sweep (RTL verification of each
    family, cross-validation of each point) are heavy enough to pay for
    a pool; costing is not.  ``jobs`` > 1 runs ``fn`` on
    ``min(jobs, cpus, len(items))`` processes, results in item order;
    ``chunks_per_worker`` sends the items in that many batches per
    worker instead of one at a time.  ``fn`` and the items must pickle.
    """
    items = list(items)
    workers = min(jobs or 1, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    chunksize = 1
    if chunks_per_worker:
        chunksize = -(-len(items) // (workers * chunks_per_worker))
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(fn, items, chunksize=chunksize))


# ----------------------------------------------------------------------
# Optimizer-driven DSE over the suite grid
# ----------------------------------------------------------------------

#: per-optimizer parameter defaults; also the set of *accepted* keys, so a
#: typo'd parameter fails loudly instead of silently running the default
_DSE_PARAM_DEFAULTS: dict[str, dict] = {
    "exhaustive": {},
    "fmax": {"resolution": 1.0, "probes_per_round": 3},
    "halving": {"budget": 64, "eta": 2, "rung_points": 2},
    "surrogate": {"keep_fraction": 0.1, "keep_min": 1},
}

#: the optimizers ``run_dse`` (and ``tybec suite dse`` / ``POST /dse``) accept
DSE_OPTIMIZERS = tuple(_DSE_PARAM_DEFAULTS)


def resolve_dse_params(optimizer: str, params: dict | None = None) -> dict:
    """Validate and default-fill the parameters of one DSE optimizer.

    Types are strict (no silent ``int(2.7)``); the exact range of each
    knob is its optimizer constructor's to check.  The resolved dict is
    what the report (and the service's coalescing fingerprint) embeds —
    two requests differing only in an omitted default are the same search.
    """
    if optimizer not in DSE_OPTIMIZERS:
        raise ValueError(
            f"unknown optimizer {optimizer!r}; expected one of "
            f"{', '.join(DSE_OPTIMIZERS)}")
    _check("params", params, lambda v: v is None or isinstance(v, dict),
           "an object of optimizer parameters")
    resolved = dict(_DSE_PARAM_DEFAULTS[optimizer])
    for key, value in (params or {}).items():
        if key not in resolved:
            raise ValueError(
                f"optimizer {optimizer!r} has no parameter {key!r}; "
                f"accepted: {sorted(resolved) or 'none'}")
        kind = type(resolved[key])
        resolved[key] = kind(_check(
            key, value, _count if kind is int else _positive,
            "an integer > 0" if kind is int else "a finite number > 0"))
    return resolved


#: the ``/cost`` body fields with their defaults (``design`` is required)
_COST_FIELDS = {"design": None, "device": "stratix-v", "pattern": "contiguous",
                "name": "design", "grid": (24, 24, 24), "iterations": 1000}


def parse_request(endpoint: str, body) -> dict:
    """Check a ``suite``, ``dse`` or ``cost`` request body, every field
    before any lease: the first bad one raises a ``ValueError`` naming it.

    The parsed request holds ``deadline_seconds`` and: ``config``
    (suite); ``config``, ``optimizer``, resolved ``params`` (dse); or the
    :data:`_COST_FIELDS`, ``grid`` a tuple (cost).  A suite body may
    carry a boolean ``dense``, which older clients send: it is checked
    and dropped, since every sweep runs through the one serial loop.
    """
    _check("request body", body, lambda v: isinstance(v, dict), "a JSON object")
    body = dict(body)
    request = {"deadline_seconds":
               check_deadline_seconds(body.pop("deadline_seconds", None))}
    if endpoint == "cost":
        request.update((name, body.pop(name, default))
                       for name, default in _COST_FIELDS.items())
        if body:
            raise ValueError(f"unknown cost field(s) {sorted(map(str, body))}; "
                             f"known: {sorted(request)}")
        for name, known in (("design", None), ("name", None),
                            ("device", DEVICES), ("pattern", _PATTERNS)):
            _check(name, request[name], lambda v: isinstance(v, str), "a string")
            if known is not None:
                _names(name, [request[name]], known)
        request["grid"] = _items("grid", request["grid"], lambda _: True,
                                 "a list of dimensions")
        KernelWorkload(kernel=request["name"], grid=request["grid"],
                       iterations=request["iterations"])
        return request
    if endpoint == "suite":
        _flag(body, "dense")
    else:
        optimizer = request["optimizer"] = body.pop("optimizer", "fmax")
        params = request["params"] = resolve_dse_params(
            optimizer, body.pop("params", None))
    config = request["config"] = SuiteConfig.from_spec(body)
    if endpoint == "dse":   # built and dropped: the constructors check ranges
        dse_optimizers(config, optimizer, params)
    return request


def dse_optimizers(config: SuiteConfig, optimizer: str, params: dict,
                   backend=None) -> dict[str, object]:
    """One named optimizer run per report slot.

    Exhaustive/fmax/surrogate search each kernel independently (one run
    per kernel); successive halving is inherently cross-kernel — its arms
    *are* the kernels × forms — so it produces a single ``halving`` run.
    A surrogate prune scores its grid on ``backend`` (a ``DenseBackend``,
    or None for one of its own).
    """
    from repro.explore.optimizer import (
        ExhaustiveOptimizer,
        FmaxBinarySearchOptimizer,
        SuccessiveHalvingOptimizer,
        SurrogatePrunedOptimizer,
    )

    spaces = {name: config.space_for(name)
              for name in config.resolved_kernels()}
    if optimizer == "halving":
        arms = [(f"{name}:{form}", space.subspace(forms=(form,)))
                for name, space in spaces.items()
                for form in config.forms]
        return {"halving": SuccessiveHalvingOptimizer(arms, **params)}
    runs: dict[str, object] = {}
    for name, space in spaces.items():
        if optimizer == "exhaustive":
            runs[name] = ExhaustiveOptimizer(space)
        elif optimizer == "fmax":
            runs[name] = FmaxBinarySearchOptimizer(space, **params)
        else:
            runs[name] = SurrogatePrunedOptimizer(
                space, backend=backend, **params)
    return runs


@record
class DseRun:
    """Outcome of one optimizer-driven DSE: canonical report + raw runs.

    Like :class:`SuiteRun`, timing lives outside the report — the report
    pins *what the search decided* (rounds, points, results), never how
    long a round took.
    """

    report: SuiteReport
    runs: dict
    optimizer: str
    params: dict
    wall_seconds: float = 0.0

    @property
    def evaluated(self) -> int:
        return sum(run.evaluated for run in self.runs.values())


def build_dse_report(config: SuiteConfig, optimizer: str, params: dict,
                     runs: dict) -> SuiteReport:
    """Fold completed optimizer runs into the canonical DSE report.

    Per-run payloads carry the round provenance (which round proposed how
    many points) and the optimizer's own result summary; totals aggregate
    across runs.  Deterministic by the same rules as the suite report —
    no wall-clock fields, canonical float rounding at serialisation.
    """
    runs_payload: dict[str, dict] = {}
    total_points = 0
    total_rounds = 0
    for label in sorted(runs):
        run = runs[label]
        total_points += run.evaluated
        total_rounds += len(run.rounds)
        runs_payload[label] = {
            "rounds": run.rounds_payload(),
            "evaluated": run.evaluated,
            "result": run.result,
        }
    payload = {
        "schema": DSE_SCHEMA,
        "optimizer": {"name": optimizer, "params": params},
        "config": config.as_dict(),
        "runs": runs_payload,
        "totals": {
            "runs": len(runs_payload),
            "rounds": total_rounds,
            "points": total_points,
        },
    }
    return SuiteReport(payload)


def run_dse(config: SuiteConfig | None = None, optimizer: str = "fmax", *,
            backend=None, params: dict | None = None,
            on_round=None, deadline=None) -> DseRun:
    """Drive one optimizer over the suite grid into a canonical DSE report.

    The suite-level entry point behind ``tybec suite dse`` and the
    service's ``POST /dse``: resolves the optimizer's parameters, builds
    one optimizer per report slot (per kernel, or one cross-kernel
    halving race), drives each through an
    :class:`~repro.explore.engine.ExplorationEngine` on ``backend``, and
    folds the runs into a ``repro-dse-report/1``.  ``on_round(label,
    round, entries)`` fires after every loop round — the streaming hook.
    A surrogate prune also scores its grid on ``backend``, so a
    long-lived caller (the service) passes a ``DenseBackend`` and shares
    its warm caches; with None each prune builds its own.
    """
    import time

    config = config or SuiteConfig()
    params = resolve_dse_params(optimizer, params)
    optimizers = dse_optimizers(config, optimizer, params, backend)
    engine = ExplorationEngine(backend)
    runs: dict[str, object] = {}
    started = time.perf_counter()
    with trace_span("dse.run", optimizer=optimizer,
                    slots=len(optimizers)), maybe_profile("dse.run"):
        for label in sorted(optimizers):
            callback = None
            if on_round is not None:
                def callback(round_, entries, label=label):
                    on_round(label, round_, entries)
            runs[label] = engine.run_optimizer(optimizers[label],
                                               deadline=deadline,
                                               on_round=callback)
    wall = time.perf_counter() - started
    report = build_dse_report(config, optimizer, params, runs)
    return DseRun(report=report, runs=runs, optimizer=optimizer,
                  params=params, wall_seconds=wall)


