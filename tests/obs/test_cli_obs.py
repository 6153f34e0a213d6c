"""CLI seams of the observability layer: --trace activation, trace
summarize, and bench report."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.obs.trace import TRACE_ENV, current_tracer, load_trace

_HEADER = json.dumps({"schema": "repro-trace/1", "trace_id": "t"})


def _span(**fields) -> str:
    return json.dumps({"trace": "t", "span": "a", "site": "s", "start": 0.0,
                       "duration": 0.1, "pid": 1, **fields})


class TestTraceFlag:
    def test_traced_suite_run_writes_valid_trace(self, tmp_path, capsys):
        path = tmp_path / "run.ndjson"
        rc = main(["--trace", str(path), "suite", "run", "--tiny",
                   "--kernels", "sor", "--max-lanes", "2"])
        assert rc == 0
        header, records = load_trace(path)  # validates the file
        by_site = {}
        for record in records:
            by_site.setdefault(record["site"], []).append(record)
        (sweep,) = by_site["suite.sweep"]
        (space,) = by_site["backend.serial.space"]
        # one span per space, not one per point
        assert "pipeline.cost" not in by_site
        assert space["parent"] == sweep["span"]
        attrs = space["attrs"]
        assert (attrs["kernel"], attrs["points"], attrs["groups"]) == ("sor", 2, 2)
        assert 0 <= attrs["group_misses"] <= attrs["groups"]
        assert {r["trace"] for r in records} == {header["trace_id"]}

    def test_traced_report_encode_and_write_spans(self, tmp_path, capsys):
        argv = ["suite", "run", "--tiny", "--kernels", "sor", "--max-lanes", "2"]
        trace, traced, clean = (tmp_path / name for name in
                                ("t.ndjson", "traced.json", "clean.json"))
        assert main(["--trace", str(trace), *argv, "-o", str(traced)]) == 0
        assert main([*argv, "-o", str(clean)]) == 0
        assert traced.read_bytes() == clean.read_bytes()
        _, records = load_trace(trace)
        spans = {site: [r for r in records if r["site"] == site]
                 for site in ("report.encode", "report.write")}
        assert [len(found) for found in spans.values()] == [1, 1]
        size = len(clean.read_bytes())
        points = json.loads(clean.read_text())["totals"]["points"]
        assert spans["report.encode"][0]["attrs"] == {"bytes": size,
                                                      "entries": points}
        assert spans["report.write"][0]["attrs"] == {"bytes": size}
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "report.encode" in out and "report.write" in out

    def test_trace_flag_restores_process_state(self, tmp_path):
        prior = os.environ.get(TRACE_ENV)
        rc = main(["--trace", str(tmp_path / "t.ndjson"), "suite", "run",
                   "--tiny", "--kernels", "sor", "--max-lanes", "2"])
        assert rc == 0
        assert os.environ.get(TRACE_ENV) == prior
        assert current_tracer() is None


class TestTraceSummarize:
    @pytest.fixture
    def trace_file(self, tmp_path):
        path = tmp_path / "run.ndjson"
        main(["--trace", str(path), "suite", "run", "--tiny",
              "--kernels", "sor", "--max-lanes", "2"])
        return path

    def test_summarize_prints_sites_and_critical_path(self, trace_file,
                                                      capsys):
        rc = main(["trace", "summarize", str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace " in out
        assert "suite.sweep" in out
        assert "backend.serial.space" in out

    def test_summarize_json(self, trace_file, capsys):
        rc = main(["trace", "summarize", str(trace_file), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["span_count"] > 0
        assert payload["header"]["schema"] == "repro-trace/1"
        assert payload["critical_path"][0]["site"] == "suite.sweep"

    def test_summarize_missing_file_is_exit_2(self, tmp_path, capsys):
        rc = main(["trace", "summarize", str(tmp_path / "nope.ndjson")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, complaint", [
        (["[1]"], "trace header is not an object"),
        ([_HEADER, _span(duration="q")], "'duration' must be a finite number"),
        ([_HEADER, _span(span=["a"])], "'span' must be a string"),
        ([_HEADER, _span(site={"x": 1})], "'site' must be a string"),
    ])
    def test_ill_typed_trace_is_exit_2(self, lines, complaint, tmp_path,
                                       capsys):
        path = tmp_path / "bad.ndjson"
        path.write_text("\n".join(lines) + "\n")
        rc = main(["trace", "summarize", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read trace: ")
        assert complaint in err


class TestBenchReport:
    @pytest.fixture
    def results_dir(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        # a curated benchmark with one deliberately failing gate
        (results / "BENCH_obs.json").write_text(json.dumps({
            "overhead_ratio": 1.2,
            "max_overhead_ratio": 1.05,
            "clean_wall_seconds": 1.0,
            "traced_wall_seconds": 1.2,
            "spans": 64,
        }))
        # an uncurated benchmark exercises the generic numeric fallback
        (results / "BENCH_custom.json").write_text(json.dumps({
            "nested": {"wall_seconds": 0.5}, "points": 10}))
        return results

    def test_report_renders_gates_and_fallback(self, results_dir, capsys):
        rc = main(["bench", "report", "--dir", str(results_dir)])
        assert rc == 0  # non-strict never fails the invocation
        out = capsys.readouterr().out
        assert "obs" in out and "custom" in out
        assert "overhead_ratio" in out
        assert "gate(s) passing" in out

    def test_strict_fails_on_failing_gate(self, results_dir, capsys):
        rc = main(["bench", "report", "--dir", str(results_dir), "--strict"])
        assert rc == 1

    def test_json_rows_carry_verdicts(self, results_dir, capsys):
        rc = main(["bench", "report", "--dir", str(results_dir), "--json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        by_metric = {(r["benchmark"], r["metric"]): r for r in rows}
        assert by_metric[("obs", "overhead_ratio")]["ok"] is False
        assert by_metric[("obs", "spans")]["ok"] is True
        assert by_metric[("custom", "points")]["ok"] is None

    def test_missing_dir_is_exit_2(self, tmp_path, capsys):
        rc = main(["bench", "report", "--dir", str(tmp_path / "absent")])
        assert rc == 2
        assert "no benchmark results" in capsys.readouterr().err

    def test_real_results_dir_if_present(self, capsys):
        from repro.obs.bench import DEFAULT_RESULTS_DIR

        if not DEFAULT_RESULTS_DIR.is_dir():
            pytest.skip("no committed benchmark results")
        assert main(["bench", "report"]) == 0
