"""Suite-scale flow runs: canonical reports, goldens, engine batching."""

import pytest

from repro.explore.dense import DenseBackend
from repro.flows import check_flow_goldens, run_flow_suite
from repro.suite.report import FLOW_SCHEMA, load_report
from repro.suite.runner import SuiteConfig


def _small_config(kernels=("nw", "matmul")) -> SuiteConfig:
    return SuiteConfig.tiny(kernels=kernels, max_lanes=2)


class TestFlowSuiteRun:
    def test_report_shape_and_totals(self):
        run = run_flow_suite(_small_config())
        payload = run.report.payload
        assert payload["schema"] == FLOW_SCHEMA
        assert sorted(payload["kernels"]) == ["matmul", "nw"]
        totals = payload["totals"]
        assert totals["families"] == run.families
        assert totals["failing"] == 0
        assert run.ok

    def test_reports_are_deterministic(self):
        left = run_flow_suite(_small_config()).report.to_json()
        right = run_flow_suite(_small_config()).report.to_json()
        assert left == right

    def test_parallel_flow_jobs_byte_identical(self):
        serial = run_flow_suite(_small_config()).report.to_json()
        parallel = run_flow_suite(_small_config(), jobs=2).report.to_json()
        assert parallel == serial

    def test_dense_costing_backend_byte_identical(self):
        serial = run_flow_suite(_small_config()).report.to_json()
        dense = run_flow_suite(
            _small_config(), backend=DenseBackend(), jobs=2
        ).report.to_json()
        assert dense == serial

    def test_max_items_caps_streams(self):
        run = run_flow_suite(_small_config(), max_items=16)
        for families in run.records.values():
            for payload in families.values():
                assert payload["items"] <= 16

    def test_written_report_loads_with_schema(self, tmp_path):
        run = run_flow_suite(_small_config())
        path = run.report.write(tmp_path / "flow.json")
        payload = load_report(path, expected_schema=FLOW_SCHEMA)
        assert payload["schema"] == FLOW_SCHEMA

    def test_kernel_payload_carries_flow_settings(self):
        run = run_flow_suite(_small_config())
        payload = run.report.kernel_payload("nw")
        assert payload["flow"]["backend"] == "pyrtl"
        assert "nw" in payload["kernels"]
        with pytest.raises(KeyError):
            run.report.kernel_payload("sor")


class TestFlowGoldens:
    def test_all_kernels_match_recorded_goldens(self):
        results = check_flow_goldens()
        assert sorted(results) == sorted(
            ["conv2d", "hotspot", "lavamd", "matmul", "nw", "sor"])
        for kernel, diffs in results.items():
            assert diffs == [], (
                f"flow golden drift for {kernel}: "
                + "; ".join(str(d) for d in diffs[:5])
                + " — if intentional, re-record with "
                  "`tybec suite record-golden --flows`"
            )
