"""Cross-validation of the analytic cost model against the substrate.

The estimation flow (``repro.compiler`` + ``repro.cost``) and the
cycle-accurate substrate simulators (``repro.substrate``) model the same
hardware from opposite directions; this package is the third leg of the
architecture — estimate / accelerate / **validate** — that drives every
costed design point through both and reports per-point agreement:

``crossval``
    :class:`CrossValidator` — one costed point in, one
    :class:`ValidationRecord` out (estimated vs simulated cycles/seconds,
    relative error, limiting-factor agreement, within-tolerance verdict).
``suite``
    :func:`validate_suite` — fan a whole suite grid through the engine
    and the validator; canonical version-stamped
    :class:`ValidationReport` with its own golden + diff support,
    surfaced as ``tybec suite validate`` on the CLI and gated in CI.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.validate.crossval": (
        "DEFAULT_MEMORY_TOLERANCE", "DEFAULT_TOLERANCE", "CrossValidator",
        "LegComparison", "ValidationRecord",
    ),
    "repro.validate.suite": (
        "VALIDATION_SCHEMA", "ValidationReport", "ValidationRun",
        "check_validation_goldens", "record_validation_goldens",
        "run_golden_validation", "validate_suite", "validation_golden_dir",
    ),
})
