"""Suite-level cross-validation: determinism, goldens, differentials."""

import json

import pytest

from repro.compiler.pipeline import clear_calibration_cache
from repro.explore.engine import SerialBackend
from repro.suite import SuiteConfig, diff_payloads, golden_config, load_report
from repro.validate import (
    VALIDATION_SCHEMA,
    check_validation_goldens,
    record_validation_goldens,
    run_golden_validation,
    validate_suite,
    validation_golden_dir,
)

KERNELS = ("conv2d", "sor")


def _config(kernels=KERNELS) -> SuiteConfig:
    return golden_config(kernels)


class TestValidateSuite:
    def test_golden_grid_agrees(self):
        run = validate_suite(_config())
        assert run.ok
        totals = run.report.totals
        assert totals["points"] == totals["agreeing"]
        assert totals["disagreeing"] == 0
        assert totals["max_seconds_relative_error"] <= 0.05
        # the acceptance gate: analytic and cycle-stepping agree within
        # one pipeline depth per kernel instance on every golden point
        for records in run.records.values():
            for record in records:
                assert record.cycle_gap is not None
                assert record.cycle_gap <= record.pipeline_depth

    def test_report_is_version_stamped(self):
        report = validate_suite(_config(("sor",))).report
        assert report.schema == VALIDATION_SCHEMA
        assert report.validation["tolerance"] == pytest.approx(0.05)
        assert report.validation["cycle_accurate"] is True

    def test_zero_tolerance_exits_disagreeing(self):
        run = validate_suite(_config(("conv2d",)), tolerance=0.0)
        assert not run.ok
        assert run.report.totals["disagreeing"] > 0
        assert run.disagreements

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError, match="no design points"):
            validate_suite(SuiteConfig(kernels=("sor",), lanes=(7,),
                                       grids={"sor": (8, 8, 8)}))

    def test_pool_and_serial_reports_byte_identical(self):
        serial = validate_suite(_config(), SerialBackend())
        pool = validate_suite(_config(), SerialBackend(), jobs=2)
        assert serial.report.to_json() == pool.report.to_json()

    def test_lane_scaled_points_validate_identically_to_full_path(
        self, tmp_path, monkeypatch
    ):
        """The PR-3 differential, extended to the validation records: a
        lane-derived design point must simulate exactly like one that took
        the full lowering/analysis path."""
        monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "scaled"))
        clear_calibration_cache()
        scaled = validate_suite(_config()).report.canonical_dict()

        monkeypatch.setenv("TYBEC_LANE_SCALING", "0")
        monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "full"))
        clear_calibration_cache()
        try:
            full = validate_suite(_config()).report.canonical_dict()
        finally:
            monkeypatch.delenv("TYBEC_LANE_SCALING")
            clear_calibration_cache()
        assert diff_payloads(scaled, full) == []


class TestValidationGoldens:
    def test_checked_in_goldens_reproduce(self):
        results = check_validation_goldens()
        failed = {name: [str(d) for d in diffs[:5]]
                  for name, diffs in results.items() if diffs}
        assert not failed, f"validation goldens drifted: {failed}"

    def test_goldens_cover_every_kernel(self):
        from repro.kernels import kernel_names

        recorded = {path.stem for path in validation_golden_dir().glob("*.json")}
        assert recorded == set(kernel_names())

    def test_golden_files_carry_validation_schema(self):
        for path in sorted(validation_golden_dir().glob("*.json")):
            payload = load_report(path, expected_schema=VALIDATION_SCHEMA)
            assert payload["schema"] == VALIDATION_SCHEMA
            assert "validation" in payload

    def test_missing_golden_is_reported(self, tmp_path):
        results = check_validation_goldens(tmp_path, kernels=("sor",))
        assert results["sor"][0].kind == "removed"

    def test_record_then_check_round_trips(self, tmp_path):
        record_validation_goldens(tmp_path, kernels=KERNELS)
        results = check_validation_goldens(tmp_path, kernels=KERNELS)
        assert all(not diffs for diffs in results.values())

    def test_recorded_subset_matches_full_run_payload(self, tmp_path):
        """Per-kernel validation goldens are independent of which other
        kernels were validated alongside them (same guarantee as the
        suite goldens)."""
        record_validation_goldens(tmp_path, kernels=("sor",))
        full = run_golden_validation()
        subset = json.loads((tmp_path / "sor.json").read_text())
        assert diff_payloads(subset, full.kernel_payload("sor")) == []
