"""Multi-axis design spaces for exploration.

The original exploration layer could only sweep one axis — the lane count
of :class:`~repro.explore.variants.VariantRecord` — while the paper's
design space (§III-4) and its cost model expose several more dimensions
that change a variant's cost report.  A :class:`DesignSpace` spans the
cartesian product of:

* **lanes** — thread parallelism (``KNL``), the Figure-15 axis;
* **clock frequency** — the device operating frequency ``FD``;
* **memory-execution form** — Figure 6's A/B/C scenarios (or ``auto``);
* **device** — the target FPGA board;
* **access pattern** — contiguous/strided/random streaming (§III-6).

A :class:`DesignPoint` is one coordinate of that product, directly
convertible into the :class:`~repro.compiler.pipeline.CompilationOptions`
that cost it.  Design points are frozen, hashable and pickle-safe so they
can be fanned out to worker processes.

(The *configuration-class* coordinates of Figure 5 — pipelining, re-use,
vectorisation — live in :mod:`repro.models.design_space`; a sweep point
here always describes a C1/C2 replicated-lane design, which is what the
TyTra compiler generates.)
"""

from __future__ import annotations

import math
from typing import Sequence

from repro import field, record
from repro.compiler.lanescale import LaneFamilyHandle
from repro.compiler.pipeline import CompilationOptions
from repro.cost.numerics import linspace
from repro.functional.typetrans import valid_lane_counts
from repro.ir.functions import Module
from repro.kernels.base import ScientificKernel
from repro.models.execution import KernelInstance
from repro.models.memory_execution import MemoryExecutionForm
from repro.models.streaming import PatternKind
from repro.substrate.fpga_device import FPGADevice, MAIA_STRATIX_V_GSD8

__all__ = [
    "DesignPoint",
    "DesignSpace",
    "DenseGrid",
    "CostJob",
    "build_jobs",
    "linspace_clocks",
    "clock_range",
]


def _form_value(form: str | MemoryExecutionForm) -> str:
    return form.value if isinstance(form, MemoryExecutionForm) else str(form)


@record(frozen=True)
class DesignPoint:
    """One coordinate of a multi-axis design space, ready to be costed."""

    kernel: str
    lanes: int
    grid: tuple[int, ...]
    iterations: int
    clock_mhz: float | None = None
    form: str | MemoryExecutionForm = "auto"
    device: FPGADevice = MAIA_STRATIX_V_GSD8
    pattern: PatternKind = PatternKind.CONTIGUOUS

    def __init__(self, kernel, lanes, grid, iterations, clock_mhz=None, form="auto",
                 device=MAIA_STRATIX_V_GSD8, pattern=PatternKind.CONTIGUOUS) -> None:
        put = object.__setattr__
        put(self, "kernel", kernel)
        put(self, "lanes", lanes)
        put(self, "grid", grid)
        put(self, "iterations", iterations)
        put(self, "clock_mhz", clock_mhz)
        put(self, "form", form)
        put(self, "device", device)
        put(self, "pattern", pattern)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.kernel, self.lanes, self.grid, self.iterations,
                     self.clock_mhz, self.form, self.device, self.pattern)
                    == (other.kernel, other.lanes, other.grid, other.iterations,
                        other.clock_mhz, other.form, other.device, other.pattern))
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kernel, self.lanes, self.grid, self.iterations,
                     self.clock_mhz, self.form, self.device, self.pattern))

    @property
    def global_size(self) -> int:
        return math.prod(self.grid)

    @property
    def resolved_clock_mhz(self) -> float:
        return self.clock_mhz if self.clock_mhz is not None else self.device.fmax_mhz

    @property
    def label(self) -> str:
        return (
            f"{self.kernel} x{self.lanes} @{self.resolved_clock_mhz:g}MHz "
            f"form={_form_value(self.form)} {self.device.name} {self.pattern.value}"
        )

    def compilation_options(self) -> CompilationOptions:
        """The estimation-session options this point implies."""
        return CompilationOptions(
            device=self.device, clock_mhz=self.clock_mhz, form=_form_value(self.form)
        )

    def family_handle(self, kernel: ScientificKernel | None = None) -> LaneFamilyHandle:
        """The lazy ``(kernel, lanes, grid)`` module recipe this point implies.

        This is the exact recipe :func:`build_jobs` hands the estimation
        pipeline, so a consumer reconstructing the point's compiled
        artifacts (e.g. the cross-validation subsystem rebuilding its
        :class:`~repro.substrate.pipeline_sim.PipelineSpec`) hits the same
        family caches and derives bit-identical analysis products.
        """
        if kernel is None:
            from repro.kernels import get_kernel

            kernel = get_kernel(self.kernel)
        return LaneFamilyHandle(kernel=kernel, lanes=self.lanes, grid=tuple(self.grid))

    def as_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "lanes": self.lanes,
            "grid": list(self.grid),
            "iterations": self.iterations,
            "clock_mhz": self.resolved_clock_mhz,
            "form": _form_value(self.form),
            "device": self.device.name,
            "pattern": self.pattern.value,
        }

    @staticmethod
    def from_variant(variant, options: CompilationOptions) -> "DesignPoint":
        """Lift a lane-only :class:`VariantRecord` into the multi-axis space."""
        return DesignPoint(
            kernel=variant.kernel,
            lanes=variant.lanes,
            grid=tuple(variant.workload.ndrange.dims),
            iterations=variant.workload.repetitions,
            clock_mhz=options.clock_mhz,
            form=_form_value(options.form),
            device=options.device,
            pattern=PatternKind.CONTIGUOUS,
        )


@record
class DesignSpace:
    """The cartesian product of exploration axes for one kernel/workload.

    Axes left at their defaults contribute a single value, so a lane-only
    space degenerates to the classic Figure-15 sweep.  Lane counts are
    filtered to those for which the order-preserving ``reshapeTo``
    transformation is defined (divisors of the NDRange size).
    """

    kernel: ScientificKernel
    grid: tuple[int, ...] | None = None
    iterations: int | None = None
    lanes: Sequence[int] | None = None
    max_lanes: int = 16
    clocks_mhz: Sequence[float | None] = (None,)
    forms: Sequence[str | MemoryExecutionForm] = ("auto",)
    devices: Sequence[FPGADevice] = field(default_factory=lambda: (MAIA_STRATIX_V_GSD8,))
    patterns: Sequence[PatternKind] = (PatternKind.CONTIGUOUS,)

    def __post_init__(self) -> None:
        if isinstance(self.kernel, str):
            from repro.kernels import get_kernel

            self.kernel = get_kernel(self.kernel)
        if self.grid is None:
            self.grid = self.kernel.default_grid
        if self.iterations is None:
            self.iterations = self.kernel.default_iterations

    def lane_counts(self) -> list[int]:
        size = math.prod(self.grid)
        if self.lanes is not None:
            # a repeated lane count spells one point, kept where it first appears
            return list(dict.fromkeys(l for l in self.lanes if l > 0 and size % l == 0))
        return valid_lane_counts(size, max_lanes=self.max_lanes)

    def axis_sizes(self) -> dict[str, int]:
        return {
            "lanes": len(self.lane_counts()),
            "clock_mhz": len(tuple(self.clocks_mhz)),
            "form": len(tuple(self.forms)),
            "device": len(tuple(self.devices)),
            "pattern": len(tuple(self.patterns)),
        }

    @property
    def active_axes(self) -> list[str]:
        """The axes along which this space actually varies."""
        return [name for name, size in self.axis_sizes().items() if size > 1]

    def __len__(self) -> int:
        return math.prod(self.axis_sizes().values())

    def iter_points(self):
        """Lazily generate the design points, in deterministic sweep order.

        Incremental consumers (the optimizer loop, partial-grid slices)
        pull from this generator instead of materializing the full
        cartesian product up front; :meth:`points` is its eager form.
        """
        for lanes in self.lane_counts():
            for device in self.devices:
                for clock in self.clocks_mhz:
                    for form in self.forms:
                        for pattern in self.patterns:
                            yield DesignPoint(
                                kernel=self.kernel.name,
                                lanes=lanes,
                                grid=tuple(self.grid),
                                iterations=self.iterations,
                                clock_mhz=clock,
                                form=form,
                                device=device,
                                pattern=PatternKind(pattern),
                            )

    def points(self) -> list[DesignPoint]:
        """All design points, in deterministic sweep order."""
        return list(self.iter_points())


def linspace_clocks(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """A continuous clock axis: ``n`` evenly spaced frequencies in MHz."""
    if n < 1:
        raise ValueError(f"clock axis needs at least one point, got {n}")
    if lo <= 0 or hi <= 0:
        raise ValueError(f"clock frequencies must be positive, got {lo}:{hi}")
    if hi < lo:
        raise ValueError(f"clock range is inverted: {lo} > {hi}")
    return tuple(linspace(lo, hi, n))


def clock_range(spec: str) -> tuple[float, ...]:
    """Parse a ``LO:HI:N`` clock-range spec into a clock axis (MHz)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"invalid clock range {spec!r}; expected LO:HI:N (e.g. 150:300:64)"
        )
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(
            f"invalid clock range {spec!r}; expected LO:HI:N (e.g. 150:300:64)"
        ) from None
    return linspace_clocks(lo, hi, n)


@record(frozen=True)
class DenseGrid:
    """A :class:`DesignSpace` lowered to indexable axis tuples.

    The dense evaluation path addresses points by axis coordinates
    instead of enumerating :class:`DesignPoint` objects; this is the
    bridge between the two — ``point(...)`` reconstructs exactly the
    design point :meth:`DesignSpace.points` would have produced at the
    same sweep position, and ``flat_index``/``coords`` map between the
    sweep order (lanes, device, clock, form, pattern — slowest to
    fastest) and array coordinates.
    """

    kernel: str
    grid: tuple[int, ...]
    iterations: int
    lanes: tuple[int, ...]
    devices: tuple[FPGADevice, ...]
    clocks: tuple[float | None, ...]
    forms: tuple[str | MemoryExecutionForm, ...]
    patterns: tuple[PatternKind, ...]

    @classmethod
    def from_space(cls, space: "DesignSpace") -> "DenseGrid":
        return cls(
            kernel=space.kernel.name,
            grid=tuple(space.grid),
            iterations=space.iterations,
            lanes=tuple(space.lane_counts()),
            devices=tuple(space.devices),
            clocks=tuple(space.clocks_mhz),
            forms=tuple(space.forms),
            patterns=tuple(PatternKind(p) for p in space.patterns),
        )

    @property
    def shape(self) -> tuple[int, int, int, int, int]:
        return (len(self.lanes), len(self.devices), len(self.clocks),
                len(self.forms), len(self.patterns))

    def __len__(self) -> int:
        return math.prod(self.shape)

    def flat_index(self, li: int, di: int, ci: int, fi: int, pi: int) -> int:
        _, d, c, f, p = self.shape
        return ((((li * d + di) * c + ci) * f + fi) * p + pi)

    def coords(self, flat: int) -> tuple[int, int, int, int, int]:
        _, d, c, f, p = self.shape
        flat, pi = divmod(flat, p)
        flat, fi = divmod(flat, f)
        flat, ci = divmod(flat, c)
        li, di = divmod(flat, d)
        return li, di, ci, fi, pi

    def point(self, li: int, di: int, ci: int, fi: int, pi: int) -> DesignPoint:
        return DesignPoint(
            kernel=self.kernel,
            lanes=self.lanes[li],
            grid=self.grid,
            iterations=self.iterations,
            clock_mhz=self.clocks[ci],
            form=self.forms[fi],
            device=self.devices[di],
            pattern=self.patterns[pi],
        )

    def resolved_clocks(self, device: FPGADevice) -> list[float]:
        """The clock axis in MHz with ``None`` resolved to device fmax."""
        return [float(c) if c is not None else float(device.fmax_mhz)
                for c in self.clocks]


@record(frozen=True)
class CostJob:
    """One design point together with its (possibly lazy) IR and workload.

    ``module`` is either a lowered :class:`~repro.ir.functions.Module` or
    a :class:`~repro.compiler.lanescale.LaneFamilyHandle` — a pickle-safe
    ``(kernel, lanes, grid)`` recipe the estimation pipeline lowers only
    when the design family is cold or not lane-separable.

    ``options`` overrides the options the point itself implies — the
    bridge for callers (e.g. lane-variant sweeps through
    :meth:`from_variant`) whose compiler carries injected cost databases,
    custom synthesis noise or a custom latency model that a bare
    :class:`DesignPoint` cannot express.
    """

    point: DesignPoint
    module: Module | LaneFamilyHandle
    workload: KernelInstance
    options: CompilationOptions | None = None

    def __init__(self, point, module, workload, options=None) -> None:
        put = object.__setattr__
        put(self, "point", point)
        put(self, "module", module)
        put(self, "workload", workload)
        put(self, "options", options)

    def resolved_options(self) -> CompilationOptions:
        return self.options if self.options is not None else self.point.compilation_options()

    @staticmethod
    def from_variant(variant, options: CompilationOptions) -> "CostJob":
        """Cost a lane-only :class:`VariantRecord` with exactly ``options``."""
        return CostJob(point=DesignPoint.from_variant(variant, options),
                       module=variant.module, workload=variant.workload,
                       options=options)


def build_jobs(space: DesignSpace, lazy: bool = True) -> list[CostJob]:
    """Lower a design space into cost jobs, in sweep order.

    Modules depend only on (kernel, lanes, grid), so one module — by
    default a lazy :class:`~repro.compiler.lanescale.LaneFamilyHandle`
    recipe — is shared by every point along the clock/form/device/pattern
    axes.  With ``lazy=False`` every lane count is eagerly lowered, which
    is what an N-point sweep used to pay; the estimation pipeline produces
    bit-identical reports either way.
    """
    kernel = space.kernel
    workload = kernel.workload(tuple(space.grid), space.iterations)
    modules: dict[int, Module | LaneFamilyHandle] = {}
    jobs = []
    for point in space.iter_points():
        module = modules.get(point.lanes)
        if module is None:
            if lazy:
                module = point.family_handle(kernel)
            else:
                module = kernel.build_module(lanes=point.lanes, grid=tuple(space.grid))
            modules[point.lanes] = module
        jobs.append(CostJob(point=point, module=module, workload=workload))
    return jobs
