"""Tests of the benchmark itself: seeded inputs and output checks.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json

import pytest

from tybench import inputs
from tybench.workloads import CliWorkload, Context, Op, SweepWorkload, sha, spec_key

WORKLOADS = sorted(inputs.GENERATORS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert inputs.generate(workload, 7, 60) == inputs.generate(workload, 7, 60)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_inputs(workload):
    assert inputs.generate(workload, 7, 60) != inputs.generate(workload, 8, 60)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_longer_run_extends_the_same_sequence(workload):
    assert inputs.generate(workload, 3, 200)[:50] == inputs.generate(workload, 3, 50)


def test_serve_deck_shares_do_not_depend_on_the_seed():
    for seed in (1, 2, 3):
        warmup = len(inputs.SERVE_WARMUP)
        ops = inputs.serve_ops(seed, warmup + inputs.SERVE_DECK_SIZE * 3)
        kinds = [op["kind"] for op in ops[warmup:]]
        for kind, per_deck in inputs.SERVE_DECK:
            assert kinds.count(kind) == 3 * per_deck


def test_serve_replays_repeat_a_recent_cold_body():
    cold = []
    for op in inputs.serve_ops(5, 200):
        if op["kind"] == "cold":
            assert op["body"] not in cold
            cold.append(op["body"])
        elif op["kind"] == "replay":
            assert op["body"] in cold[-inputs.REPLAY_WINDOW:]


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    monkeypatch.setenv("TYBEC_CACHE_DIR", str(tmp_path / "cache"))
    (tmp_path / "tmp").mkdir()
    return Context(root=tmp_path, work=tmp_path, seed=1)


def test_sweep_check_flags_a_corrupted_report(ctx, monkeypatch):
    import repro.suite.runner as runner

    spec = inputs.sweep_ops(1, 1)[0]
    workload = SweepWorkload(ctx)
    assert not workload.run_op(spec).failed
    assert ctx.mismatches == []

    build = runner.build_suite_report

    def corrupted(*args, **kwargs):
        report = build(*args, **kwargs)
        report.payload["totals"]["feasible"] += 1
        return report

    monkeypatch.setattr(runner, "build_suite_report", corrupted)
    op = workload.run_op(spec)
    assert op.failed
    assert len(ctx.mismatches) == 1


def test_cli_check_flags_a_corrupted_report_file(ctx):
    from repro.explore.dense import DenseBackend
    from repro.suite import WorkloadSuite
    from tybench.workloads import suite_config

    spec = inputs.cli_ops(1, 1)[0]
    good = WorkloadSuite(suite_config(spec), backend=DenseBackend()).run().report.to_json()
    bad = good.replace('"feasible": true', '"feasible": false', 1)
    assert bad != good
    ops = [Op("suite", 1.0, key=spec_key(spec), digest=sha(text.encode()))
           for text in (good, bad)]
    CliWorkload(ctx).finish(ops)
    assert [op.failed for op in ops] == [False, True]
    assert len(ctx.mismatches) == 1
    assert json.loads(ops[0].key) == spec
