"""Suite-level cross-validation: the golden grid against the simulators.

:func:`validate_suite` fans a :class:`~repro.suite.runner.SuiteConfig`
grid through the exploration engine's serial sweep, drives every
costed point through the :class:`~repro.validate.crossval.CrossValidator`
and folds the records into a canonical, version-stamped
:class:`ValidationReport` with the same determinism guarantees as the
suite reports (sorted keys, no wall-clock fields, normalised floats) —
so validation agreement can be pinned by goldens and diffed field by
field exactly like the cost model's own outputs.
"""

from __future__ import annotations

from pathlib import Path

from repro import record
from repro.explore.engine import SweepResult
from repro.suite.diff import FieldDiff
from repro.suite.golden import (
    diff_kernel_goldens,
    golden_config,
    write_kernel_goldens,
)
from repro.suite.report import VALIDATION_SCHEMA, SuiteReport
from repro.suite.runner import SuiteConfig, WorkloadSuite, stage_map
from repro.validate.crossval import (
    DEFAULT_MEMORY_TOLERANCE,
    DEFAULT_TOLERANCE,
    CrossValidator,
    ValidationRecord,
)

__all__ = [
    "VALIDATION_SCHEMA",
    "ValidationReport",
    "ValidationRun",
    "validate_suite",
    "validation_golden_dir",
    "run_golden_validation",
    "record_validation_goldens",
    "check_validation_goldens",
]


class ValidationReport(SuiteReport):
    """A canonical validation report (same shell as a suite report)."""

    @property
    def validation(self) -> dict:
        return self.payload.get("validation", {})

    def kernel_payload(self, name: str) -> dict:
        """The standalone single-kernel payload (for per-kernel goldens)."""
        payload = super().kernel_payload(name)
        payload["validation"] = self.payload["validation"]
        return payload


@record
class ValidationRun:
    """Outcome of one suite-level cross-validation."""

    report: ValidationReport
    records: dict[str, list[ValidationRecord]]
    sweep: SweepResult

    @property
    def points(self) -> int:
        return sum(len(records) for records in self.records.values())

    @property
    def disagreements(self) -> list[ValidationRecord]:
        return [
            record
            for records in self.records.values()
            for record in records
            if not record.ok
        ]

    @property
    def ok(self) -> bool:
        """True when every validated point agrees within tolerance."""
        return not self.disagreements


def validate_suite(
    config: SuiteConfig | None = None,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    memory_tolerance: float = DEFAULT_MEMORY_TOLERANCE,
    cycle_accurate: bool = True,
    jobs: int | None = None,
) -> ValidationRun:
    """Cost a suite grid and cross-validate every point.

    ``jobs`` fans the validation pass itself — the per-point spec
    re-derivation and the pure-Python cycle-stepping simulation, which
    dominate on large grids — over that many worker processes, two
    batches per worker, each batch on its own copy of the validator.  Records are
    pure functions of the costed entries, so every combination produces
    byte-identical reports.
    """
    suite = WorkloadSuite(config or SuiteConfig())
    spaces, sweep = suite.sweep()
    slices = suite.kernel_entries(spaces, sweep)
    validator = CrossValidator(tolerance=tolerance,
                               memory_tolerance=memory_tolerance,
                               cycle_accurate=cycle_accurate)
    flat_records = stage_map(
        validator.validate_entry,
        [entry for entries in slices.values() for entry in entries],
        jobs, chunks_per_worker=2)

    kernels: dict[str, dict] = {}
    records_by_kernel: dict[str, list[ValidationRecord]] = {}
    max_error = 0.0
    max_gap = 0
    agreeing_total = 0
    cursor = 0
    for name, entries in slices.items():
        records = flat_records[cursor : cursor + len(entries)]
        cursor += len(entries)
        records_by_kernel[name] = records
        workload = suite.config.workload_for(name)
        agreeing = sum(1 for r in records if r.ok)
        agreeing_total += agreeing
        for record in records:
            max_error = max(max_error, record.seconds_relative_error)
            if record.cycle_gap is not None:
                max_gap = max(max_gap, record.cycle_gap)
        kernels[name] = {
            "workload": {"grid": list(workload.grid),
                         "iterations": workload.iterations},
            "points": len(records),
            "agreeing": agreeing,
            "records": [record.as_dict() for record in records],
        }

    points_total = sum(info["points"] for info in kernels.values())
    payload = {
        "schema": VALIDATION_SCHEMA,
        "config": suite.config.as_dict(),
        "validation": {
            "tolerance": tolerance,
            "memory_tolerance": memory_tolerance,
            "cycle_accurate": cycle_accurate,
        },
        "kernels": kernels,
        "totals": {
            "kernels": len(kernels),
            "points": points_total,
            "agreeing": agreeing_total,
            "disagreeing": points_total - agreeing_total,
            "max_seconds_relative_error": max_error,
            "max_cycle_gap": max_gap,
        },
    }
    return ValidationRun(
        report=ValidationReport(payload), records=records_by_kernel, sweep=sweep
    )


# ----------------------------------------------------------------------
# The validation golden harness (mirrors repro.suite.golden)
# ----------------------------------------------------------------------


def validation_golden_dir(root: Path | str | None = None) -> Path:
    """``tests/golden/validation`` under the repo root."""
    if root is not None:
        return Path(root)
    # src/repro/validate/suite.py -> repo root is three parents above src/
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "validation"


def run_golden_validation(kernels: tuple[str, ...] = ()) -> ValidationReport:
    """Cross-validate the golden suite configuration (default tolerances)."""
    return validate_suite(golden_config(kernels)).report


def record_validation_goldens(directory: Path | str | None = None,
                              kernels: tuple[str, ...] = ()) -> list[Path]:
    """(Re-)write one validation golden per kernel; returns written paths."""
    return write_kernel_goldens(run_golden_validation(kernels),
                                validation_golden_dir(directory))


def check_validation_goldens(directory: Path | str | None = None,
                             kernels: tuple[str, ...] = (),
                             rtol: float = 0.0) -> dict[str, list[FieldDiff]]:
    """Re-run the cross-validation and diff against the recorded goldens."""
    return diff_kernel_goldens(
        run_golden_validation(kernels), validation_golden_dir(directory),
        VALIDATION_SCHEMA,
        "validation golden missing — run `suite record-golden --validation`",
        rtol=rtol)
