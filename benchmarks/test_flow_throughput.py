"""RTL flow throughput benchmark -> BENCH_flows.json.

Times the suite-scale RTL verification — every (kernel, lanes) family of
the golden grid elaborated from its emitted Verilog text and
cycle-simulated against the kernel Python reference — and records the
points/s plus the per-stage breakdown (emit, elaborate, reference,
simulate, verify) as a CI artifact, so regressions in the pure-Python
backend's speed are visible run over run.

The same grid is run once more on the two interpreters kept as test
oracles: the recursive netlist interpreter
(``tests/flows/netlist_oracle.py``), driven one cycle at a time by the
per-cycle testbench loop, simulates and the per-item reference
interpreter (``tests/flows/reference_oracle.py``) computes the expected
words.  The gates are ratios of the two runs' times, which hold on any
machine: the ``simulate`` stage (which includes compiling each distinct
netlist's runner), the ``reference`` stage (which includes compiling each
distinct leaf datapath's reference function) and the whole flow.  Every
timed run starts from cleared front-end and reference memos, so both
sides parse, lint and elaborate each distinct kernel source once and the
compiled side compiles each reference function once; one more run with
the memos warm is recorded as ``warm_flow_seconds``, ungated.
"""

from __future__ import annotations

import importlib.util
import json
import statistics
from pathlib import Path

from repro.cost.cache import redirected_cache_dir
from repro.flows import flows, refmodel, rtlsim, run_flow_suite
from repro.kernels import kernel_names
from repro.suite.golden import golden_config

#: conservative CI gates; recorded throughput lives in the artifact
MIN_ITEMS_PER_SECOND = 100.0
MIN_FAMILIES_PER_SECOND = 1.0
#: the compiled simulator must run the golden grid's ``simulate`` stage
#: at least this many times faster than the interpreter oracle
MIN_SIMULATE_SPEEDUP = 5.0
#: ... the compiled reference model its ``reference`` stage (which
#: includes compiling each distinct leaf datapath) at least this many
#: times faster than the per-item interpreter oracle
MIN_REFERENCE_SPEEDUP = 4.0
#: ... and the whole flow, emit to verify, at least this many times faster
MIN_FLOW_SPEEDUP = 4.0
#: timed runs of the compiled path (the oracle's single run takes longer
#: than all of them together)
COMPILED_TRIALS = 3

ORACLE_DIR = Path(__file__).resolve().parents[1] / "tests" / "flows"


def _oracle(name: str):
    spec = importlib.util.spec_from_file_location(name, ORACLE_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _grid_run(cache_dir: Path):
    with redirected_cache_dir(cache_dir):
        return run_flow_suite(golden_config())


def _cold_run(cache_dir: Path):
    """One golden-grid flow run that parses and compiles each distinct
    kernel source and leaf datapath: the front-end and reference memos
    are cleared first."""
    flows._FRONT_END.clear()
    refmodel._PROGRAMS.clear()
    return _grid_run(cache_dir)


def _spread(values: list[float]) -> dict:
    return {"trials": values, "median": statistics.median(values),
            "spread": max(values) - min(values)}


def test_flow_suite_throughput_artifact(results_dir, tmp_path, monkeypatch):
    """Record the golden-grid RTL verification rates in BENCH_flows.json."""
    trials = [_cold_run(tmp_path / f"compiled-{i}") for i in range(COMPILED_TRIALS)]
    run = trials[0]
    assert run.ok, run.failures
    assert run.families == 3 * len(kernel_names())
    # the same grid again in this process: every kernel source and leaf
    # datapath is a memo hit
    warm = _grid_run(tmp_path / "warm")
    assert warm.report.to_json() == run.report.to_json()

    monkeypatch.setattr(rtlsim, "NetlistSimulator",
                        _oracle("netlist_oracle").InterpretedSimulator)
    monkeypatch.setattr(refmodel, "evaluate_items",
                        _oracle("reference_oracle").evaluate_items)
    oracle = _cold_run(tmp_path / "oracle")
    monkeypatch.undo()
    # same verdicts, bit for bit, from the compiled path and the oracles
    assert oracle.report.to_json() == run.report.to_json()

    simulate = _spread([t.stage_seconds["simulate"] for t in trials])
    reference = _spread([t.stage_seconds["reference"] for t in trials])
    flow = _spread([t.flow_seconds for t in trials])
    simulator = {
        "compiled_simulate_seconds": simulate,
        "compiled_elaborate_seconds": _spread(
            [t.stage_seconds["elaborate"] for t in trials]),
        "compiled_reference_seconds": reference,
        "compiled_flow_seconds": flow,
        "warm_flow_seconds": warm.flow_seconds,
        "oracle_simulate_seconds": oracle.stage_seconds["simulate"],
        "oracle_reference_seconds": oracle.stage_seconds["reference"],
        "oracle_flow_seconds": oracle.flow_seconds,
        "simulate_speedup": oracle.stage_seconds["simulate"] / simulate["median"],
        "min_simulate_speedup": MIN_SIMULATE_SPEEDUP,
        "reference_speedup": oracle.stage_seconds["reference"] / reference["median"],
        "min_reference_speedup": MIN_REFERENCE_SPEEDUP,
        "flow_speedup": oracle.flow_seconds / flow["median"],
        "min_flow_speedup": MIN_FLOW_SPEEDUP,
    }

    payload = {
        "kernels": kernel_names(),
        "grid": {
            "points": run.sweep.evaluated,
            "families": run.families,
            "simulated_items": run.simulated_items,
        },
        "throughput": {
            "flow_seconds": run.flow_seconds,
            "families_per_second": run.families_per_second,
            "items_per_second": run.items_per_second,
        },
        "stage_seconds": run.stage_seconds,
        "simulator": simulator,
        "totals": run.report.totals,
    }
    (results_dir / "BENCH_flows.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    assert simulator["simulate_speedup"] >= MIN_SIMULATE_SPEEDUP, payload
    assert simulator["reference_speedup"] >= MIN_REFERENCE_SPEEDUP, payload
    assert simulator["flow_speedup"] >= MIN_FLOW_SPEEDUP, payload
    assert run.items_per_second > MIN_ITEMS_PER_SECOND, payload
    assert run.families_per_second > MIN_FAMILIES_PER_SECOND, payload
    # the breakdown covers the whole pipeline of every flow
    assert {"emit", "elaborate", "reference", "simulate", "verify"} <= set(
        run.stage_seconds)


def test_flow_cache_serves_repeat_runs(tmp_path):
    """A second identical suite-scale run is served from the flow cache."""
    with redirected_cache_dir(tmp_path / "flow-bench-cache"):
        cold = run_flow_suite(golden_config(kernels=("nw",)))
        warm = run_flow_suite(golden_config(kernels=("nw",)))
    assert warm.report.to_json() == cold.report.to_json()
    # cache-served flows skip simulation entirely
    assert warm.flow_seconds < cold.flow_seconds
    assert not warm.stage_seconds


def test_flow_benchmark(benchmark):
    """pytest-benchmark timing of one uncached single-kernel flow pass."""
    from repro.flows import FlowSettings, RTLSimFlow
    from repro.kernels import get_kernel
    from repro.suite.runner import tiny_grid

    kernel = get_kernel("nw")
    module = kernel.build_module(lanes=1, grid=tiny_grid(kernel.default_grid))

    def _run():
        flow = RTLSimFlow(module, FlowSettings(n_items=64, use_cache=False))
        return flow.run().payload["ok"]

    assert benchmark(_run) is True
