"""The workload-suite subsystem: batch costing, canonical reports, goldens.

This package turns "add a scenario and trust its numbers" into a
first-class workflow on top of the exploration engine:

``runner``
    :class:`SuiteConfig` / :class:`WorkloadSuite` — enumerate kernel x
    device x form x lane (x clock x pattern) grids over every registered
    kernel and cost them through the engine's one whole-space loop.
``report``
    Canonical, deterministic, version-stamped JSON suite reports (stable
    key order, no wall-clock fields, normalised floats).
``diff``
    Field-by-field payload diffing with full paths — the regression
    primitive behind ``suite diff`` and the golden tests.
``golden``
    The golden-report harness: record ``tests/golden/*.json`` once,
    re-run and diff on every test run, regenerate explicitly via
    ``suite record-golden`` when a change is intentional.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.suite.report": (
        "DSE_SCHEMA", "FLOAT_SIGNIFICANT_DIGITS", "SCHEMA", "SuiteReport",
        "canonical_json", "canonicalize", "load_report",
    ),
    "repro.suite.diff": ("FieldDiff", "diff_payloads", "format_diffs"),
    "repro.suite.runner": (
        "DSE_OPTIMIZERS", "DseRun", "SuiteConfig", "SuiteRun", "WorkloadSuite",
        "build_dse_report", "resolve_dse_params", "run_dse", "tiny_grid",
    ),
    "repro.suite.golden": (
        "check_goldens", "golden_config", "golden_dir", "record_goldens",
        "run_golden_suite",
    ),
})
