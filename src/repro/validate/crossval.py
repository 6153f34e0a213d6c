"""Per-point cross-validation of the analytic cost model.

The paper's credibility rests on validating the throughput estimates
against measured cycles-per-kernel-instance (Table II) and sustained
bandwidth (Figure 10).  The substrate simulators were built for exactly
that role; this module finally wires them in: a :class:`CrossValidator`
takes a costed design point, reconstructs its
:class:`~repro.substrate.pipeline_sim.PipelineSpec` through the very same
``pipeline_spec_from_schedule`` path the estimation pipeline uses, drives
the :class:`~repro.substrate.pipeline_sim.PipelineSimulator` in analytic
*and* cycle-stepping mode (plus the
:class:`~repro.substrate.memory_sim.MemorySystemSimulator` for the
memory-bound legs) and emits a :class:`ValidationRecord` of the
agreement.

What is compared
----------------
* **Device seconds/cycles** — the EKIT breakdown's device-side legs
  (offset fill + pipeline fill + max(DRAM streaming, compute)) against
  the pipeline simulator's cycle count at the same sustained DRAM rate
  (unconstrained steady state for form C, whose data lives on chip; the
  offset priming is charged at the sustained DRAM rate in every form,
  mirroring the EKIT expressions).  Gated by ``tolerance`` (relative).
* **Analytic vs cycle-stepping simulation** — the two simulator modes
  must agree within one pipeline depth per kernel instance (the
  simulator's documented invariant).
* **Limiting factor** — the estimate's steady-state verdict (DRAM
  streaming vs compute) against the simulator's ``limited_by``.
* **Memory legs** — the fitted sustained-bandwidth legs (host DMA and,
  for forms A/B, DRAM streaming) against the transaction-level memory
  simulator they were fitted from.  Gated by ``memory_tolerance``
  (relative, looser: this checks the calibration fit's interpolation
  residual, not a closed-form identity).
"""

from __future__ import annotations

import math

from repro import record
from repro.compiler.pipeline import EstimationPipeline
from repro.cost.report import CostReport
from repro.cost.throughput import EKITEstimate
from repro.explore.space import DesignPoint
from repro.models.memory_execution import MemoryExecutionForm
from repro.models.streaming import AccessPattern, PatternKind
from repro.substrate.pipeline_sim import (
    PipelineSimulator,
    SimulationDivergedError,
    SimulationResult,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "DEFAULT_MEMORY_TOLERANCE",
    "LegComparison",
    "ValidationRecord",
    "CrossValidator",
]

#: default relative tolerance on the device-side seconds agreement
DEFAULT_TOLERANCE = 0.05

#: default relative tolerance on the memory-leg (fit-vs-simulator) agreement.
#: The sustained-bandwidth models are sparse log-size interpolations; in the
#: DMA-setup-dominated decade below ~64KB the host table's residual against
#: the transaction-level simulator reaches ~40%.  This gate exists to catch
#: order-of-magnitude breakage (wrong link constants, out-of-domain
#: extrapolation), not to polish the fit.
DEFAULT_MEMORY_TOLERANCE = 0.5


def _relative_error(estimated: float, simulated: float) -> float:
    if simulated == 0.0:
        return 0.0 if estimated == 0.0 else math.inf
    return abs(estimated - simulated) / abs(simulated)


@record(frozen=True)
class LegComparison:
    """One estimated-vs-simulated time leg (seconds).

    ``footprint_bytes`` is the workload's own leg size; ``evaluated_bytes``
    is that size clamped into the sampled domain of the fitted bandwidth
    table the estimate reads.  Outside the domain the table is a
    documented clamp, not a fit — comparing there would measure the
    clamp's extrapolation error (which reaches ~10x for sub-4KB host DMA
    transfers, where the setup cost dominates), not the fit's residual.
    """

    name: str
    estimated_s: float
    simulated_s: float
    footprint_bytes: int
    evaluated_bytes: int

    @property
    def relative_error(self) -> float:
        return _relative_error(self.estimated_s, self.simulated_s)

    @property
    def clamped(self) -> bool:
        return self.evaluated_bytes != self.footprint_bytes

    def as_dict(self) -> dict:
        return {
            "estimated_s": self.estimated_s,
            "simulated_s": self.simulated_s,
            "relative_error": self.relative_error,
            "footprint_bytes": self.footprint_bytes,
            "evaluated_bytes": self.evaluated_bytes,
            "clamped": self.clamped,
        }


@record(frozen=True)
class ValidationRecord:
    """The agreement verdict for one costed design point."""

    point: DesignPoint
    form: str
    pipeline_depth: int
    estimated_seconds: float
    estimated_cycles: float
    estimated_limited_by: str
    analytic: SimulationResult
    stepped: SimulationResult | None
    diverged: bool
    legs: tuple[LegComparison, ...]
    tolerance: float
    memory_tolerance: float

    # -- agreement ------------------------------------------------------
    @property
    def seconds_relative_error(self) -> float:
        """Relative error of the estimated vs simulated device seconds."""
        return _relative_error(self.estimated_seconds, self.analytic.seconds)

    @property
    def within_tolerance(self) -> bool:
        return self.seconds_relative_error <= self.tolerance

    @property
    def cycle_gap(self) -> int | None:
        """|analytic - cycle-stepping| cycles (None when stepping is off)."""
        if self.stepped is None:
            return None
        return abs(self.analytic.cycles - self.stepped.cycles)

    @property
    def cycles_within_depth(self) -> bool:
        """The simulator's documented invariant: the two modes agree
        within one pipeline depth per kernel instance."""
        if self.diverged:
            return False
        gap = self.cycle_gap
        return True if gap is None else gap <= self.pipeline_depth

    @property
    def limiting_factor_match(self) -> bool:
        return self.estimated_limited_by == self.analytic.limited_by

    @property
    def memory_within_tolerance(self) -> bool:
        return all(leg.relative_error <= self.memory_tolerance for leg in self.legs)

    @property
    def ok(self) -> bool:
        """The overall per-point verdict the validation gate enforces."""
        return (
            self.within_tolerance
            and self.cycles_within_depth
            and self.limiting_factor_match
            and self.memory_within_tolerance
        )

    # -- serialisation --------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "point": self.point.as_dict(),
            "form": self.form,
            "estimated": {
                "device_seconds": self.estimated_seconds,
                "device_cycles": self.estimated_cycles,
                "limited_by": self.estimated_limited_by,
            },
            "simulated": {
                "analytic": self.analytic.as_dict(),
                "cycle_accurate": None if self.stepped is None else self.stepped.as_dict(),
                "diverged": self.diverged,
            },
            "memory_legs": {leg.name: leg.as_dict() for leg in self.legs},
            "agreement": {
                "seconds_relative_error": self.seconds_relative_error,
                "tolerance": self.tolerance,
                "within_tolerance": self.within_tolerance,
                "cycle_gap": self.cycle_gap,
                "cycle_gap_limit": self.pipeline_depth,
                "cycles_within_depth": self.cycles_within_depth,
                "limiting_factor_match": self.limiting_factor_match,
                "memory_tolerance": self.memory_tolerance,
                "memory_within_tolerance": self.memory_within_tolerance,
                "ok": self.ok,
            },
        }


class CrossValidator:
    """Drive costed design points through the substrate simulators.

    One validator holds one memoizing estimation pipeline per estimation
    session (mirroring the engine's serial backend), so re-deriving the
    pipeline specs of a whole sweep hits the same family caches the sweep
    itself warmed.
    """

    def __init__(
        self,
        tolerance: float = DEFAULT_TOLERANCE,
        memory_tolerance: float = DEFAULT_MEMORY_TOLERANCE,
        cycle_accurate: bool = True,
    ):
        if tolerance < 0 or memory_tolerance < 0:
            raise ValueError("tolerances must be non-negative")
        self.tolerance = float(tolerance)
        self.memory_tolerance = float(memory_tolerance)
        self.cycle_accurate = bool(cycle_accurate)
        self._pipelines: dict[tuple, EstimationPipeline] = {}
        self._simulator = PipelineSimulator()

    # ------------------------------------------------------------------
    def pipeline_for(self, point: DesignPoint) -> EstimationPipeline:
        """The (shared) estimation pipeline of the point's session."""
        options = point.compilation_options()
        key = options.session_key()
        pipeline = self._pipelines.get(key)
        if pipeline is None:
            pipeline = self._pipelines[key] = EstimationPipeline(options)
        return pipeline

    # ------------------------------------------------------------------
    def validate(self, point: DesignPoint, report: CostReport) -> ValidationRecord:
        """Cross-validate one costed design point against the simulators."""
        pipeline = self.pipeline_for(point)
        variant = pipeline.analyze(point.family_handle())
        spec = variant.pipeline_spec
        estimate = report.throughput
        params = estimate.parameters
        form = estimate.form

        # the EKIT expressions charge the offset priming at the sustained
        # DRAM rate in every form; the steady state streams from DRAM in
        # forms A/B and from on-chip memory (unconstrained) in form C
        fill_gbps = params.sustained_dram_gbps
        memory_gbps = (
            math.inf if form is MemoryExecutionForm.C else params.sustained_dram_gbps
        )

        analytic = self._simulator.run_kernel_instance(
            spec, point.global_size, memory_gbps, fill_memory_gbps=fill_gbps
        )
        stepped = None
        diverged = False
        if self.cycle_accurate:
            try:
                stepped = self._simulator.run_kernel_instance(
                    spec,
                    point.global_size,
                    memory_gbps,
                    fill_memory_gbps=fill_gbps,
                    cycle_accurate=True,
                )
            except SimulationDivergedError:
                diverged = True

        breakdown = estimate.breakdown
        # same predicate on both sides: the steady state is memory limited
        # exactly when the DRAM-streaming leg exceeds the compute leg
        estimated_limited_by = (
            "memory" if breakdown.dram_streaming > breakdown.compute else "compute"
        )

        return ValidationRecord(
            point=point,
            form=form.value,
            pipeline_depth=spec.pipeline_depth,
            estimated_seconds=estimate.device_seconds,
            estimated_cycles=estimate.device_cycles,
            estimated_limited_by=estimated_limited_by,
            analytic=analytic,
            stepped=stepped,
            diverged=diverged,
            legs=self._memory_legs(pipeline, estimate, point),
            tolerance=self.tolerance,
            memory_tolerance=self.memory_tolerance,
        )

    def validate_entry(self, entry) -> ValidationRecord:
        """Validate one :class:`~repro.explore.engine.SweepEntry`."""
        return self.validate(entry.point, entry.report)

    # ------------------------------------------------------------------
    def _memory_legs(
        self, pipeline: EstimationPipeline, estimate: EKITEstimate, point: DesignPoint
    ) -> tuple[LegComparison, ...]:
        """Check the fitted bandwidth legs against the memory simulator.

        Each leg evaluates both the fit and the transaction-level
        simulator at the workload's footprint, clamped into the fit's
        sampled domain (see :class:`LegComparison`).  At the table's
        sample points the fit reproduces the simulator exactly, so the
        residual measured here is the log-size interpolation error.
        """
        calibration = pipeline.calibrate()
        memsim = calibration.memory_simulator
        params = estimate.parameters
        word_bytes = params.word_bytes
        footprint = params.ngs * params.nwpt * word_bytes

        # host DMA leg: one staging transfer of the NDRange data (the
        # per-instance scaling of forms B/C cancels in the relative error)
        host = calibration.host_bandwidth
        _, nbytes = self._clamp_to_table(
            footprint, host.table_for(PatternKind.CONTIGUOUS), word_bytes
        )
        legs = [
            LegComparison(
                "host",
                nbytes / (host.peak_gbps * host.rho(nbytes) * 1e9),
                memsim.host_transfer_time(nbytes),
                footprint_bytes=footprint,
                evaluated_bytes=nbytes,
            )
        ]
        if estimate.form is not MemoryExecutionForm.C:
            dram = calibration.dram_bandwidth
            n_el, nbytes = self._clamp_to_table(
                footprint, dram.table_for(point.pattern), word_bytes
            )
            pattern = self._calibration_pattern(point.pattern, n_el, word_bytes)
            legs.append(
                LegComparison(
                    "dram",
                    nbytes / (dram.peak_gbps * dram.rho(nbytes, point.pattern) * 1e9),
                    memsim.dram_stream_time(n_el, word_bytes, pattern),
                    footprint_bytes=footprint,
                    evaluated_bytes=nbytes,
                )
            )
        return tuple(legs)

    @staticmethod
    def _clamp_to_table(nbytes: int, table, word_bytes: int) -> tuple[int, int]:
        """Clamp a footprint into a bandwidth table's sampled size range.

        Returns ``(n_elements, n_bytes)`` with the byte count realisable
        as a whole number of stream words.
        """
        clamped = min(max(float(nbytes), table.sizes_bytes[0]), table.sizes_bytes[-1])
        n_elements = max(1, round(clamped / word_bytes))
        return n_elements, n_elements * word_bytes

    @staticmethod
    def _calibration_pattern(
        kind: PatternKind, n_elements: int, word_bytes: int
    ) -> AccessPattern:
        """Mirror ``MemorySystemSimulator.stream_benchmark``'s configuration.

        The rho tables were fitted from square-array measurements whose
        stride equals the array side; comparing against any other stride
        would measure the pattern mismatch, not the fit residual.
        """
        if kind is PatternKind.CONTIGUOUS:
            return AccessPattern.contiguous(word_bytes)
        side = max(2, round(math.sqrt(n_elements)))
        if kind is PatternKind.STRIDED:
            return AccessPattern.strided(side, word_bytes)
        return AccessPattern.random(word_bytes, typical_span_elements=n_elements)
