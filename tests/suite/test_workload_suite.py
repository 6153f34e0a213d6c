"""Tests for the workload-suite subsystem (runner, report, diff)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fields, replace
from repro.kernels import kernel_names
from repro.substrate import DEVICES
from repro.suite import (
    SCHEMA,
    SuiteConfig,
    WorkloadSuite,
    canonical_json,
    canonicalize,
    diff_payloads,
    format_diffs,
    load_report,
    resolve_dse_params,
    tiny_grid,
)
from repro.suite.runner import parse_request, stage_map


@pytest.fixture(scope="module")
def tiny_run():
    return WorkloadSuite(SuiteConfig.tiny()).run()


class TestSuiteConfig:
    def test_defaults_cover_registry(self):
        assert SuiteConfig().resolved_kernels() == kernel_names()

    def test_tiny_caps_every_dimension(self):
        config = SuiteConfig.tiny()
        for name in kernel_names():
            assert all(d <= 8 for d in config.grids[name])

    def test_tiny_grid_helper(self):
        assert tiny_grid((64, 64)) == (8, 8)
        assert tiny_grid((4, 24, 24)) == (4, 8, 8)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError, match="unknown kernels"):
            SuiteConfig(kernels=("sor", "nbody")).resolved_kernels()

    def test_workload_validated(self):
        config = SuiteConfig(grids={"sor": (0, 8, 8)})
        with pytest.raises(ValueError, match="positive integers"):
            config.workload_for("sor")

    def test_mixed_case_grid_override_applies(self):
        # regression: a 'SOR' grids key must not be silently ignored
        config = SuiteConfig(kernels=("SOR",), grids={"SOR": (4, 4, 4)})
        assert config.workload_for("sor").grid == (4, 4, 4)
        assert config.as_dict()["grids"] == {"sor": [4, 4, 4]}

    def test_tiny_normalises_kernel_case(self):
        config = SuiteConfig.tiny(kernels=("SOR",))
        assert config.resolved_kernels() == ["sor"]
        assert "sor" in config.grids

    def test_tiny_rejects_unknown_kernel(self):
        with pytest.raises(KeyError, match="unknown kernels"):
            SuiteConfig.tiny(kernels=("nbody",))

    def test_as_dict_is_json_safe(self):
        payload = SuiteConfig.tiny().as_dict()
        assert json.loads(json.dumps(payload)) == payload


#: a valid ``SuiteConfig.from_spec`` spec, every field optional
_valid_specs = st.fixed_dictionaries({}, optional={
    "tiny": st.booleans(),
    "kernels": st.lists(st.sampled_from([*kernel_names(), "SOR"]), max_size=3),
    "devices": st.lists(st.sampled_from(sorted(DEVICES)), min_size=1, max_size=2),
    # lane 1 divides every grid, so the spec always has design points
    "lanes": st.none() | st.lists(st.integers(1, 16), max_size=2).map(
        lambda lanes: [1, *lanes]),
    "max_lanes": st.integers(1, 64),
    "forms": st.lists(st.sampled_from(["auto", "A", "B", "C"]), min_size=1,
                      max_size=3),
    "patterns": st.lists(st.sampled_from(["contiguous", "strided", "random"]),
                         min_size=1, max_size=2),
    "clocks_mhz": st.lists(st.integers(1, 400) | st.floats(1.0, 400.0),
                           max_size=3),
    "grids": st.dictionaries(st.sampled_from(kernel_names()),
                             st.lists(st.integers(1, 32), min_size=1, max_size=3),
                             max_size=2),
    "iterations": st.none() | st.integers(1, 100),
})


class TestSuiteConfigFromSpec:
    def test_checks_every_config_field(self):
        from repro.suite.runner import _SUITE_FIELDS

        assert set(_SUITE_FIELDS) == {f.name for f in fields(SuiteConfig)}

    def test_tiny_branch_matches_tiny(self):
        config = SuiteConfig.from_spec({"tiny": True, "kernels": ["SOR"],
                                        "max_lanes": 2, "iterations": 5})
        expected = SuiteConfig.tiny(kernels=("sor",), max_lanes=2)
        assert config == replace(expected, iterations=5)

    @pytest.mark.parametrize("spec, field", [
        ({"kernels": "sor"}, "kernels"),          # not split into characters
        ({"devices": []}, "devices"),
        ({"lanes": []}, "lanes"),
        ({"lanes": [0]}, "lanes"),
        ({"max_lanes": 0}, "max_lanes"),
        ({"max_lanes": 2.0}, "max_lanes"),
        ({"clocks_mhz": [float("nan")]}, "clocks_mhz"),
        ({"clocks_mhz": [True]}, "clocks_mhz"),
        ({"grids": {"nbody": [8]}}, "grids"),
        ({"grids": {"sor": [8, 8, 0]}}, "grids"),
        ({"grids": {"sor": 8}}, "grids"),
        ({"iterations": 1.5}, "iterations"),
        ({"tiny": 1}, "tiny"),
        ({"forms": ["D"]}, "forms"),
        ({"patterns": ["zigzag"]}, "patterns"),
        ({"kernels": ["sor"], "lanes": [7]}, "no design points"),
    ])
    def test_bad_field_is_named(self, spec, field):
        with pytest.raises(ValueError, match=field):
            SuiteConfig.from_spec(spec)

    @settings(max_examples=50, deadline=None)
    @given(spec=_valid_specs)
    def test_as_dict_round_trips(self, spec):
        config = SuiteConfig.from_spec(spec)
        assert SuiteConfig.from_spec(config.as_dict()).as_dict() == config.as_dict()


class TestDseRequest:
    def test_float_knob_takes_an_int(self):
        params = resolve_dse_params("fmax", {"resolution": 2})
        assert params == {"resolution": 2.0, "probes_per_round": 3}
        assert isinstance(params["resolution"], float)

    @pytest.mark.parametrize("optimizer, params, field", [
        ("fmax", {"resolution": 0}, "resolution"),
        ("fmax", {"resolution": True}, "resolution"),
        ("fmax", {"resolution": float("nan")}, "resolution"),
        ("fmax", {"probes_per_round": 2.7}, "probes_per_round"),
        ("surrogate", {"keep_fraction": 1.5}, "keep_fraction"),  # ctor range
        ("surrogate", {"keep_min": "1"}, "keep_min"),
        ("fmax", [1], "params"),
        ("annealing", None, "optimizer"),
        ("halving", None, "optimizer"),
    ])
    def test_bad_knob_is_refused_before_any_work(self, optimizer, params, field):
        body = {"tiny": True, "kernels": ["sor"], "optimizer": optimizer,
                "params": params}
        with pytest.raises(ValueError, match=field):
            parse_request("dse", body)


class TestWorkloadSuiteRun:
    def test_costs_all_registered_kernels(self, tiny_run):
        assert sorted(tiny_run.report.kernels) == kernel_names()
        assert tiny_run.report.totals["kernels"] == len(kernel_names())
        assert tiny_run.report.totals["points"] == tiny_run.evaluated > 0
        for info in tiny_run.report.kernels.values():
            assert info["points"] == len(info["entries"]) > 0
            assert info["best"] is not None   # tiny grids are always feasible

    def test_schema_stamp(self, tiny_run):
        assert tiny_run.report.payload["schema"] == SCHEMA

    def test_report_deterministic_across_two_runs(self, tiny_run):
        again = WorkloadSuite(SuiteConfig.tiny()).run()
        assert tiny_run.report.to_json() == again.report.to_json()

    def test_no_wall_clock_fields_in_report(self, tiny_run):
        assert "estimation_seconds" not in tiny_run.report.to_json()

    def test_timing_lives_outside_the_report(self, tiny_run):
        assert tiny_run.wall_seconds > 0
        assert tiny_run.variants_per_second > 0

    def test_summary_rows(self, tiny_run):
        rows = WorkloadSuite(SuiteConfig.tiny()).summary_rows(tiny_run)
        assert len(rows) == tiny_run.evaluated
        assert {"kernel", "lanes", "device", "form", "ekit_per_s", "feasible"} <= set(rows[0])

    def test_empty_suite_raises(self):
        config = SuiteConfig(kernels=("sor",), lanes=(7,), grids={"sor": (8, 8, 8)})
        with pytest.raises(ValueError, match="no design points"):
            WorkloadSuite(config).run()

    def test_kernel_payload_roundtrip(self, tiny_run, tmp_path):
        path = tmp_path / "sor.json"
        path.write_text(canonical_json(tiny_run.report.kernel_payload("sor")))
        loaded = load_report(path)
        assert loaded["kernels"].keys() == {"sor"}
        assert diff_payloads(loaded, tiny_run.report.kernel_payload("sor")) == []

    def test_kernel_payload_unknown_kernel(self, tiny_run):
        with pytest.raises(KeyError):
            tiny_run.report.kernel_payload("nbody")


class _RecordingExecutor:
    """Stands in for ``ProcessPoolExecutor``: records how ``stage_map``
    sizes the pool and batches the items, then maps in-process."""

    calls: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.calls.append((self.max_workers, chunksize))
        return map(fn, items)


class TestStageMap:
    @pytest.fixture
    def recorded(self, monkeypatch):
        _RecordingExecutor.calls = []
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            _RecordingExecutor)
        monkeypatch.setattr("repro.suite.runner.os.cpu_count", lambda: 4)
        return _RecordingExecutor.calls

    @pytest.mark.parametrize("jobs", [None, 0, 1])
    def test_no_pool_without_jobs(self, recorded, jobs):
        # a closure does not pickle, so this also proves it ran in-process
        offset = 10
        assert stage_map(lambda x: x + offset, range(5), jobs) == [
            10, 11, 12, 13, 14]
        assert recorded == []

    def test_empty_items_start_no_pool(self, recorded):
        assert stage_map(abs, [], jobs=4) == []
        assert recorded == []

    def test_workers_capped_by_jobs_cpus_and_items(self, recorded):
        stage_map(abs, range(10), jobs=3)
        stage_map(abs, range(10), jobs=16)
        stage_map(abs, range(2), jobs=16)
        assert [workers for workers, _ in recorded] == [3, 4, 2]
        assert [chunksize for _, chunksize in recorded] == [1, 1, 1]

    def test_chunks_per_worker_sets_the_chunksize(self, recorded):
        # 9 items, 2 workers, 2 batches each: ceil(9 / 4) = 3 per batch
        assert stage_map(abs, range(-9, 0), jobs=2, chunks_per_worker=2) == [
            9, 8, 7, 6, 5, 4, 3, 2, 1]
        assert recorded == [(2, 3)]

    def test_pool_results_keep_item_order(self, monkeypatch):
        monkeypatch.setattr("repro.suite.runner.os.cpu_count", lambda: 2)
        items = [-5, 3, -1, 8, -2, 0, 7]
        serial = stage_map(abs, items)
        assert serial == [5, 3, 1, 8, 2, 0, 7]
        assert stage_map(abs, items, jobs=2, chunks_per_worker=2) == serial


class TestCanonicalisation:
    def test_sorted_keys_and_rounded_floats(self):
        text = canonical_json({"b": 1.23456789012345, "a": [1, 2.0]})
        assert text.index('"a"') < text.index('"b"')
        assert "1.23456789\n" in text

    def test_rejects_non_json_values(self):
        with pytest.raises(TypeError):
            canonicalize({"x": object()})

    def test_tuples_become_lists(self):
        assert canonicalize({"grid": (8, 8)}) == {"grid": [8, 8]}


class TestDiff:
    def test_identical_payloads(self):
        payload = {"a": 1, "b": [1.0, {"c": "x"}]}
        assert diff_payloads(payload, payload) == []

    def test_changed_added_removed(self):
        left = {"a": 1, "b": {"c": 2.0}, "gone": True}
        right = {"a": 2, "b": {"c": 2.0, "new": 3}}
        diffs = {d.path: d.kind for d in diff_payloads(left, right)}
        assert diffs == {"a": "changed", "b.new": "added", "gone": "removed"}

    def test_list_length_mismatch(self):
        diffs = diff_payloads({"xs": [1, 2]}, {"xs": [1, 2, 3]})
        assert [d.kind for d in diffs] == ["added"]
        assert diffs[0].path == "xs[2]"

    def test_rtol_accepts_bounded_drift(self):
        left, right = {"x": 100.0}, {"x": 100.0 * (1 + 1e-7)}
        assert diff_payloads(left, right) != []
        assert diff_payloads(left, right, rtol=1e-6) == []

    def test_type_flip_is_reported(self):
        diffs = diff_payloads({"x": True}, {"x": 1})
        assert diffs and diffs[0].kind == "type"

    def test_int_float_flip_is_reported(self):
        # 9 vs 9.0 compare equal in Python but serialise differently — the
        # diff must catch the flip before record-golden surprises someone
        diffs = diff_payloads({"x": 9}, {"x": 9.0})
        assert diffs and diffs[0].kind == "type"

    def test_format_diffs_truncates(self):
        diffs = diff_payloads({"a": list(range(50))}, {"a": list(range(50, 100))})
        text = format_diffs(diffs, limit=5)
        assert "more" in text
        assert text.count("!=") == 5

    def test_format_no_diffs(self):
        assert format_diffs([]) == "reports are identical"


class TestLoadReport:
    def test_rejects_missing_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="schema"):
            load_report(path)

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"schema": "repro-suite-report/999"}))
        with pytest.raises(ValueError, match="not one of the supported"):
            load_report(path)
