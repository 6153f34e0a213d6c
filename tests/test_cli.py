"""Tests for the tybec command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.ir import print_module
from repro.kernels import kernel_names

from tests.conftest import build_stencil_module


@pytest.fixture
def design_file(tmp_path):
    module = build_stencil_module(lanes=1, grid=(8, 8, 8))
    path = tmp_path / "stencil.tirl"
    path.write_text(print_module(module))
    return path


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        for command in ("cost", "emit", "explore", "calibrate", "stream-bench"):
            args = parser.parse_args([command] + (["x.tirl"] if command in ("cost", "emit") else []))
            assert args.command == command

    def test_suite_subcommands_registered(self):
        parser = build_parser()
        assert parser.parse_args(["suite", "run"]).suite_command == "run"
        assert parser.parse_args(["suite", "validate"]).suite_command == "validate"
        assert parser.parse_args(["suite", "diff", "a.json", "b.json"]).suite_command == "diff"
        assert parser.parse_args(["suite", "record-golden"]).suite_command == "record-golden"

    def test_flow_subcommands_registered(self):
        parser = build_parser()
        assert parser.parse_args(["flow", "run", "x.tirl"]).flow_command == "run"
        assert parser.parse_args(["flow", "sim"]).flow_command == "sim"
        assert parser.parse_args(["flow", "report", "r"]).flow_command == "report"
        assert parser.parse_args(["suite", "flow"]).suite_command == "flow"

    def test_jobs_fans_out_only_the_stage_commands(self):
        parser = build_parser()
        assert parser.parse_args(["suite", "validate", "--jobs", "2"]).jobs == 2
        assert parser.parse_args(["suite", "flow", "-j", "2"]).jobs == 2

    @pytest.mark.parametrize("argv", [
        ["explore"], ["suite", "run"], ["suite", "dse"], ["client", "suite"],
    ])
    def test_costing_commands_have_no_jobs_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*argv, "--jobs", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, error", [
        *(([*command, "--optimizer", "halving"], "invalid choice: 'halving'")
          for command in (["explore"], ["suite", "dse"])),
        *(([*command, "--budget", "8"], "unrecognized arguments: --budget 8")
          for command in (["explore"], ["suite", "dse"])),
    ])
    def test_halving_and_budget_exit_2(self, argv, error, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert error in capsys.readouterr().err

    def test_suite_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_registry_choices_checked_at_parse_time(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["explore", "--kernel", "nw"]).kernel == "nw"
        with pytest.raises(SystemExit):
            parser.parse_args(["explore", "--kernel", "nope"])
        assert "choose from 'conv2d'" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            parser.parse_args(["suite", "dse", "--optimizer", "nope"])
        with pytest.raises(SystemExit):
            parser.parse_args(["suite", "run", "--patterns", "nope"])

    def test_registry_choices_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explore", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "conv2d, hotspot, lavamd, matmul, nw, sor" in out
        assert "contiguous, strided, random" in out


class TestQuickstartDesign:
    """``examples/sor.tirl`` is the README quickstart's input."""

    PATH = Path(__file__).resolve().parents[1] / "examples" / "sor.tirl"

    def test_example_matches_the_generator(self):
        from repro.kernels import get_kernel

        expected = print_module(get_kernel("sor").build_module(lanes=4))
        assert self.PATH.read_text() == expected

    def test_example_costs(self, capsys):
        assert main(["cost", str(self.PATH)]) == 0
        assert "sor_l4" in capsys.readouterr().out


class TestCostCommand:
    def test_cost_text_output(self, design_file, capsys):
        rc = main(["cost", str(design_file), "--grid", "8", "8", "8", "--iterations", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Cost report" in out
        assert "limiting factor" in out

    def test_cost_json_output(self, design_file, capsys):
        rc = main(["cost", str(design_file), "--grid", "8", "8", "8", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["design"] == "stencil_l1"
        assert payload["throughput"]["ekit_per_s"] > 0


#: (case, extra args) -> the flag or file the error names ("FILE": the design)
BAD_INPUTS = {
    "malformed": ([], "FILE", "cannot parse line"),
    "missing": ([], "FILE", "No such file or directory"),
    "zero-grid": (["--grid", "0", "8", "8"], "--grid", "must be positive"),
    "negative-iterations": (["--iterations", "-3"], "--iterations", "must be >= 1"),
    "unknown-device": (["--device", "bogus"], "--device", "unknown device 'bogus'"),
}


@pytest.mark.parametrize("command, case", [
    *(("cost", case) for case in sorted(BAD_INPUTS)),
    # emit takes no workload flags
    *(("emit", case) for case in ("malformed", "missing", "unknown-device")),
])
def test_bad_inputs_exit_2_with_one_line(command, case, design_file, tmp_path, capsys):
    """A bad design file or flag is one ``error: <where>: <message>`` line
    and exit 2, never a traceback."""
    extra, where, message = BAD_INPUTS[case]
    path = design_file
    if case == "malformed":
        path = tmp_path / "broken.tirl"
        path.write_text("this is not tirl\n")
    elif case == "missing":
        path = tmp_path / "missing.tirl"
    args = [command, str(path), *extra]
    if command == "emit":
        args += ["-o", str(tmp_path / "hdl")]
    assert main(args) == 2
    captured = capsys.readouterr()
    where = str(path) if where == "FILE" else where
    assert captured.err.startswith(f"error: {where}: ")
    assert message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""


class TestEmitCommand:
    def test_emit_writes_files(self, design_file, tmp_path, capsys):
        outdir = tmp_path / "hdl"
        rc = main(["emit", str(design_file), "-o", str(outdir)])
        assert rc == 0
        names = {p.name for p in outdir.iterdir()}
        assert any(n.endswith("_kernel.v") for n in names)
        assert any(n.endswith(".maxj") for n in names)

    def test_emit_without_wrapper(self, design_file, tmp_path):
        outdir = tmp_path / "hdl2"
        rc = main(["emit", str(design_file), "-o", str(outdir), "--no-wrapper"])
        assert rc == 0
        assert not any(p.name.endswith(".maxj") for p in outdir.iterdir())


class TestExploreCommand:
    def test_explore_table(self, capsys):
        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--max-lanes", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best feasible variant" in out
        assert "lanes" in out

    def test_explore_json(self, capsys):
        rc = main(["explore", "--kernel", "lavamd", "--grid", "8", "8", "8",
                   "--iterations", "10", "--max-lanes", "2", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_lanes"] in (1, 2)
        assert len(payload["rows"]) == 2

    @pytest.mark.parametrize("kernel", kernel_names())
    def test_lane_only_rows_are_the_space_sweep_rows(self, kernel, capsys):
        argv = ["explore", "--kernel", kernel, "--grid", "8", "8", "8",
                "--iterations", "10", "--max-lanes", "8", "--json"]
        assert main(argv) == 0
        lane_only = json.loads(capsys.readouterr().out)
        assert main([*argv, "--forms", "auto"]) == 0
        space = json.loads(capsys.readouterr().out)
        assert lane_only["rows"] == space["rows"]
        assert [row["lanes"] for row in lane_only["rows"]] == [1, 2, 4, 8]
        best = space["best"]
        assert lane_only["best_lanes"] == (best["lanes"] if best else None)

    def test_explore_multi_axis_json(self, capsys):
        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--max-lanes", "2",
                   "--clocks", "100", "200", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axes"]["clock_mhz"] == 2
        assert len(payload["rows"]) == 4  # 2 lanes x 2 clocks
        assert payload["evaluated"] == 4
        assert payload["variants_per_second"] > 0
        assert {row["clock_mhz"] for row in payload["rows"]} == {100.0, 200.0}

    def test_explore_pareto_text(self, capsys):
        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--max-lanes", "2", "--pareto"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Pareto frontier" in out
        assert "variants/s" in out

    def test_explore_explicit_lane_list(self, capsys):
        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--lanes", "1", "4", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["lanes"] for row in payload["rows"]] == [1, 4]

    def test_explore_repeated_lane_prints_one_row(self, capsys):
        args = ["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                "--iterations", "10", "--clocks", "100", "--json"]
        assert main(args + ["--lanes", "4", "4"]) == 0
        repeated = json.loads(capsys.readouterr().out)
        assert main(args + ["--lanes", "4"]) == 0
        single = json.loads(capsys.readouterr().out)
        assert repeated["rows"] == single["rows"]
        assert [row["lanes"] for row in repeated["rows"]] == [4]

    def test_explore_no_valid_lanes_fails_on_both_paths(self, capsys):
        # 7 does not divide 8^3: single-axis and multi-axis paths agree
        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--lanes", "7"])
        assert rc == 2
        rc = main(["explore", "--kernel", "sor", "--grid", "8", "8", "8",
                   "--iterations", "10", "--lanes", "7", "--clocks", "100", "200"])
        assert rc == 2
        assert "no valid lane counts" in capsys.readouterr().err

    def test_explore_unknown_device_fails_cleanly(self, capsys):
        assert main(["explore", "--kernel", "sor", "--device", "bogus"]) == 2
        assert "unknown devices ['bogus']" in capsys.readouterr().err


class TestSuiteCommand:
    def test_suite_run_costs_all_six_kernels(self, capsys):
        rc = main(["suite", "run", "--tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("sor", "hotspot", "lavamd", "conv2d", "nw", "matmul"):
            assert name in out
        assert "costed" in out and "6 kernels" in out

    def test_suite_run_json_report(self, tmp_path, capsys):
        out_path = tmp_path / "suite.json"
        rc = main(["suite", "run", "--tiny", "--kernels", "sor", "matmul",
                   "-o", str(out_path), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"].startswith("repro-suite-report/")
        assert sorted(payload["kernels"]) == ["matmul", "sor"]
        assert payload == json.loads(out_path.read_text())

    @pytest.mark.parametrize("plan", [
        '{"sites": []}',
        '{"sites": {"worker": {"max_failures": "x", "rate": 1.0}}}',
        '{"sites": {"worker": {"mode": "crash", "rate": 1.0}}}',
    ])
    def test_suite_run_ignores_an_unusable_fault_plan(self, plan, tmp_path,
                                                      monkeypatch):
        argv = ["suite", "run", "--tiny", "--kernels", "sor", "-o"]
        clean, chaos = tmp_path / "clean.json", tmp_path / "chaos.json"
        assert main(argv + [str(clean)]) == 0
        monkeypatch.setenv("TYBEC_FAULT_PLAN", plan)
        assert main(argv + [str(chaos)]) == 0
        assert chaos.read_bytes() == clean.read_bytes()

    def test_suite_run_jobs_exits_2_without_a_traceback(self):
        import os
        import subprocess
        import sys

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "suite", "run", "--jobs", "2"],
            capture_output=True, text=True, timeout=120, env=env)
        assert result.returncode == 2
        assert result.stderr.endswith(
            "tybec: error: unrecognized arguments: --jobs 2\n")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_suite_run_unknown_kernel(self, capsys):
        rc = main(["suite", "run", "--kernels", "nbody"])
        assert rc == 2
        assert "unknown kernels" in capsys.readouterr().err

    def test_suite_run_tiny_unknown_kernel(self, capsys):
        # regression: the --tiny path must fail as cleanly as the default path
        rc = main(["suite", "run", "--tiny", "--kernels", "nbody"])
        assert rc == 2
        assert "unknown kernels" in capsys.readouterr().err

    def test_suite_run_tiny_uppercase_kernel(self, capsys):
        rc = main(["suite", "run", "--tiny", "--kernels", "SOR", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["kernels"]) == ["sor"]

    def test_suite_record_golden_unknown_kernel(self, tmp_path, capsys):
        rc = main(["suite", "record-golden", "--dir", str(tmp_path),
                   "--kernels", "nbody"])
        assert rc == 2
        assert "unknown kernels" in capsys.readouterr().err

    def test_suite_run_invalid_iterations(self, capsys):
        rc = main(["suite", "run", "--tiny", "--kernels", "sor",
                   "--iterations", "0"])
        assert rc == 2
        assert "iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--clocks", "nan"], "clocks_mhz"),
        (["--clocks", "inf"], "clocks_mhz"),
        (["--max-lanes", "0"], "max_lanes"),
        (["--lanes", "0"], "lanes"),
        (["--iterations", "-3"], "iterations"),
    ])
    def test_suite_run_refuses_what_the_service_refuses(self, flags, field,
                                                        tmp_path, capsys):
        out = tmp_path / "suite.json"
        rc = main(["suite", "run", "--tiny", *flags, "-o", str(out)])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf"])
    def test_serve_refuses_a_bad_request_deadline(self, seconds, capsys):
        rc = main(["serve", "--port", "0", "--request-deadline", seconds])
        assert rc == 2
        assert "--request-deadline" in capsys.readouterr().err

    def test_suite_run_repeated_lane_costs_one_point(self, tmp_path, capsys):
        reports = {}
        for name, lanes in (("repeated", ["2", "2"]), ("single", ["2"])):
            path = tmp_path / f"{name}.json"
            rc = main(["suite", "run", "--tiny", "--kernels", "sor",
                       "--lanes", *lanes, "-o", str(path)])
            assert rc == 0
            assert "costed 1 design points" in capsys.readouterr().out
            reports[name] = json.loads(path.read_text())
        # only the echoed spec differs: the same one point is costed
        assert reports["repeated"]["config"]["lanes"] == [2, 2]
        assert reports["repeated"]["kernels"] == reports["single"]["kernels"]
        assert reports["repeated"]["totals"] == reports["single"]["totals"]

    def test_suite_run_no_valid_lanes(self, capsys):
        rc = main(["suite", "run", "--tiny", "--kernels", "sor", "--lanes", "7"])
        assert rc == 2
        assert "no design points" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["dse", "--optimizer", "exhaustive"]])
    def test_json_and_output_encode_once(self, command, tmp_path, capsys,
                                         monkeypatch):
        from repro.suite.report import SuiteReport

        encodes = []
        to_json = SuiteReport.to_json
        monkeypatch.setattr(SuiteReport, "to_json",
                            lambda self: encodes.append(1) or to_json(self))
        out = tmp_path / "r.json"
        assert main(["suite", *command, "--tiny", "--kernels", "sor",
                     "--json", "-o", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()
        assert encodes == [1]

    def test_suite_diff_identical_and_perturbed(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["suite", "run", "--tiny", "--kernels", "sor", "-o", str(a)]) == 0
        assert main(["suite", "run", "--tiny", "--kernels", "sor", "-o", str(b)]) == 0
        assert main(["suite", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

        payload = json.loads(b.read_text())
        entry = payload["kernels"]["sor"]["entries"][0]
        entry["report"]["throughput"]["ekit_per_s"] *= 1.5
        b.write_text(json.dumps(payload))
        assert main(["suite", "diff", str(a), str(b)]) == 1
        assert "ekit_per_s" in capsys.readouterr().out

    def test_suite_diff_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        good = tmp_path / "good.json"
        assert main(["suite", "run", "--tiny", "--kernels", "sor", "-o", str(good)]) == 0
        assert main(["suite", "diff", str(bad), str(good)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_suite_record_golden_to_directory(self, tmp_path, capsys):
        rc = main(["suite", "record-golden", "--dir", str(tmp_path),
                   "--kernels", "sor", "lavamd"])
        assert rc == 0
        assert {p.name for p in tmp_path.iterdir()} == {"sor.json", "lavamd.json"}
        assert "2 golden report(s)" in capsys.readouterr().out

    def test_suite_validate_golden_grid_passes(self, capsys):
        rc = main(["suite", "validate", "--tiny", "--kernels", "sor", "conv2d"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "6 agree, 0 disagree" in out

    def test_suite_validate_zero_tolerance_fails(self, capsys):
        rc = main(["suite", "validate", "--tiny", "--kernels", "conv2d",
                   "--tolerance", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "DISAGREEMENT" in captured.err

    def test_suite_validate_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "validation.json"
        rc = main(["suite", "validate", "--tiny", "--kernels", "sor",
                   "--no-cycle-accurate", "-o", str(out_path), "--json"])
        assert rc == 0
        payload = json.loads(out_path.read_text())
        assert payload["schema"].startswith("repro-validation-report/")
        assert payload["validation"]["cycle_accurate"] is False
        record = payload["kernels"]["sor"]["records"][0]
        assert record["simulated"]["cycle_accurate"] is None
        assert payload == json.loads(capsys.readouterr().out)
        # the canonical validation report diffs against itself cleanly
        assert main(["suite", "diff", str(out_path), str(out_path)]) == 0

    def test_suite_diff_refuses_mixed_layouts(self, tmp_path, capsys):
        suite_path = tmp_path / "suite.json"
        validation_path = tmp_path / "validation.json"
        assert main(["suite", "run", "--tiny", "--kernels", "sor",
                     "-o", str(suite_path)]) == 0
        assert main(["suite", "validate", "--tiny", "--kernels", "sor",
                     "-o", str(validation_path)]) == 0
        capsys.readouterr()
        assert main(["suite", "diff", str(suite_path), str(validation_path)]) == 2
        assert "different report layouts" in capsys.readouterr().err

    def test_suite_validate_unknown_kernel(self, capsys):
        rc = main(["suite", "validate", "--kernels", "nbody"])
        assert rc == 2
        assert "unknown kernels" in capsys.readouterr().err

    def test_suite_record_golden_validation(self, tmp_path, capsys):
        rc = main(["suite", "record-golden", "--validation",
                   "--dir", str(tmp_path), "--kernels", "sor"])
        assert rc == 0
        assert {p.name for p in tmp_path.iterdir()} == {"sor.json"}
        payload = json.loads((tmp_path / "sor.json").read_text())
        assert payload["schema"].startswith("repro-validation-report/")


class TestFlowCommand:
    def test_flow_run_verifies_design(self, design_file, capsys):
        rc = main(["flow", "run", str(design_file), "--items", "32", "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "0 mismatches" in out

    def test_flow_sim_kernel_with_run_dir(self, tmp_path, capsys):
        rc = main(["flow", "sim", "--kernel", "nw", "--grid", "8", "8",
                   "--items", "32", "-o", str(tmp_path), "--no-cache"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reductions match" in out
        run_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(run_dirs) == 1
        assert (run_dirs[0] / "result.json").exists()
        assert (run_dirs[0] / "manifest.json").exists()

    def test_flow_sim_json_payload(self, capsys):
        rc = main(["flow", "sim", "--kernel", "matmul", "--grid", "8", "8",
                   "--items", "16", "--json", "--no-cache"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["functional"]["output_mismatches"] == 0

    def test_flow_report_reads_run_dir(self, tmp_path, capsys):
        assert main(["flow", "sim", "--kernel", "nw", "--grid", "8", "8",
                     "--items", "16", "-o", str(tmp_path), "--no-cache"]) == 0
        capsys.readouterr()
        run_dir = next(p for p in tmp_path.iterdir() if p.is_dir())
        rc = main(["flow", "report", str(run_dir)])
        assert rc == 0
        assert "backend: pyrtl" in capsys.readouterr().out

    def test_flow_sim_invalid_lanes(self, capsys):
        rc = main(["flow", "sim", "--kernel", "nw", "--grid", "8", "8",
                   "--lanes", "7"])
        assert rc == 2

    def test_suite_flow_tiny_grid_passes(self, capsys):
        rc = main(["suite", "flow", "--tiny", "--kernels", "nw", "matmul",
                   "--max-lanes", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified" in out and "0 failing" in out

    def test_suite_flow_writes_canonical_report(self, tmp_path, capsys):
        path = tmp_path / "flow.json"
        rc = main(["suite", "flow", "--tiny", "--kernels", "nw",
                   "--max-lanes", "2", "-o", str(path), "--json"])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-flow-report/1"
        assert capsys.readouterr().out == path.read_text()

    def test_suite_record_golden_flows(self, tmp_path, capsys):
        rc = main(["suite", "record-golden", "--flows",
                   "--dir", str(tmp_path), "--kernels", "nw"])
        assert rc == 0
        payload = json.loads((tmp_path / "nw.json").read_text())
        assert payload["schema"] == "repro-flow-report/1"

    def test_record_golden_flag_conflict(self, capsys):
        rc = main(["suite", "record-golden", "--flows", "--validation"])
        assert rc == 2


class TestCalibrateAndStream:
    def test_calibrate_to_file(self, tmp_path, capsys):
        out = tmp_path / "db.json"
        rc = main(["calibrate", "--device", "small", "-o", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["device_name"] == "small-edu-device"
        assert payload["models"]

    def test_calibrate_stdout(self, capsys):
        rc = main(["calibrate", "--device", "small"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["models"]

    def test_stream_bench(self, capsys):
        rc = main(["stream-bench", "--device", "virtex-7", "--sides", "100", "1000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sustained bandwidth" in out
        assert "100" in out
