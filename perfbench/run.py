"""Run one workload of the TyBEC end-to-end benchmark.

    python3 perfbench/run.py --workload {cli,sweep,serve,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` replays the same op sequence
untraced and then under per-layer wrappers and reports the per-layer
metrics.  Every op's output is checked.  The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit status
is 1 when an output was wrong, 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tybench.inputs import generate  # noqa: E402

#: cold set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: bare-interpreter and ``import repro.cli`` probes per traced run
START_PROBES = 3
#: ops generated per run; runs stop on time long before this
MAX_OPS = 5000


def percentile(ops, q: float) -> float:
    """Nearest-rank percentile of op latency in ms; a failed op counts as
    slower than any answered one."""
    walls = sorted(math.inf if op.failed else op.wall for op in ops)
    value = walls[max(0, math.ceil(q * len(walls)) - 1)]
    return value * 1e3


def timed_loop(workload, specs, first: int, seconds: float) -> list:
    """Closed loop: the next op starts when the previous one returned.

    The loop ends on a multiple of ``workload.block`` ops, so a mixed
    workload measures whole blocks and its kind shares do not vary.
    """
    ops = []
    index = first
    deadline = time.perf_counter() + seconds
    while index < len(specs) and (not ops or time.perf_counter() < deadline
                                  or len(ops) % workload.block):
        gc.collect()
        ops.append(workload.run_op(specs[index]))
        index += 1
    return ops


def warm_up(workload, specs) -> list:
    workload.op_site = "warmup"
    ops = [workload.run_op(spec) for spec in specs[:workload.warmup]]
    workload.op_site = "op"
    return ops


#: units of the figures each run prints beside the gated metrics
SHOWN_UNITS = {"ops": "count", "fail_ratio": "ratio", "points_per_s": "1/s",
               "items_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
               "replay_p50_ms": "ms", "cold_p50_ms": "ms"}


def end_to_end(name: str, ops: list, setups: list[float], extra: dict) -> tuple[dict, dict]:
    """(gated metrics, further figures printed for this workload)."""
    walls = sum(op.wall for op in ops)
    units = sum(op.units for op in ops if not op.failed)
    rate = units / walls
    gated = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": rate,
        "peak_rss_mb": extra["peak_rss_mb"],
    }
    shown = {"ops": len(ops), "fail_ratio": sum(op.failed for op in ops) / len(ops),
             "items_per_s" if name == "verify" else "points_per_s": rate}
    if name != "verify":      # its families differ ~100x in size
        shown["latency_p50_ms"] = percentile(ops, 0.5)
        if len(ops) >= 100:
            shown["latency_p90_ms"] = percentile(ops, 0.9)
    for kind in ("replay", "cold"):
        of_kind = [op for op in ops if op.kind == kind]
        if of_kind:
            shown[f"{kind}_p50_ms"] = percentile(of_kind, 0.5)
    return gated, shown


def start_probes(ctx) -> dict:
    """A bare interpreter start and a fresh ``import repro.cli``, in ms."""
    env = ctx.env(ctx.work / "cache")
    starts, imports = [], []
    for _ in range(START_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        starts.append((time.perf_counter() - started) * 1e3)
        out = subprocess.run(
            [sys.executable, "-c", "import time; t = time.perf_counter(); "
             "import repro.cli; print(time.perf_counter() - t)"],
            env=env, check=True, capture_output=True, text=True).stdout
        imports.append(float(out) * 1e3)
    return {"cli.interp_start_ms": statistics.median(starts),
            "cli.import_ms": statistics.median(imports)}


def run(args, ctx, workload, metrics: list[dict]) -> dict:
    specs = generate(args.workload, args.seed, MAX_OPS)
    if args.trace:
        workload.probe(0, last=True)
    else:
        setups = [workload.probe(i, last=i == SETUP_REPEATS - 1)
                  for i in range(SETUP_REPEATS)]
    workload.start()
    checked = warm_up(workload, specs)
    if not args.trace:
        ops = timed_loop(workload, specs, workload.warmup, args.seconds)
        extra = workload.finish(checked + ops)
        gated, shown = end_to_end(args.workload, ops, setups, extra)
        figures = {**gated, **shown}
        attempted = ops
    else:
        from repro.obs.trace import Tracer, summarize_trace

        from tybench import layers

        figures = start_probes(ctx)
        plain = timed_loop(workload, specs, workload.warmup, args.seconds / 2)
        tracer = Tracer(collect=True)
        workload.trace(tracer)
        checked += warm_up(workload, specs)
        traced = timed_loop(workload, specs, workload.warmup, args.seconds / 2)
        workload.finish(checked + plain + traced)
        records = tracer.drain() + workload.child_records()
        trace_file = ROOT / ".perfbench_work" / f"trace-{args.workload}.ndjson"
        layers.write_trace(trace_file, tracer.trace_id, records)
        figures.update(layers.summarize(records))
        figures["trace.overhead_ms"] = (
            statistics.median(op.wall for op in traced)
            - statistics.median(op.wall for op in plain)) * 1e3
        sites = summarize_trace(records)["sites"]
        print(f"trace: {trace_file.relative_to(ROOT)} ({len(records)} spans, "
              f"{len(sites)} sites)")
        attempted = plain + traced
    for name, value in figures.items():
        unit = next((m["unit"] for m in metrics if m["name"] == name), SHOWN_UNITS.get(name, ""))
        print(f"{args.workload:>7}  {name:<34} {value:>14.4f} {unit}")
    return {
        "correct": not ctx.mismatches,
        "attempted": len(attempted),
        "failed": sum(op.failed for op in attempted),
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli", "sweep", "serve", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
    os.environ["TYBEC_CACHE_DIR"] = str(work / "cache")
    os.environ.pop("TYBEC_TRACE", None)
    sys.path.insert(0, str(ROOT / "src"))

    from tybench.workloads import WORKLOADS, Context

    ctx = Context(root=ROOT, work=work, seed=args.seed)
    workload = WORKLOADS[args.workload](ctx)
    try:
        result = run(args, ctx, workload, metrics)
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    for message in ctx.mismatches[:20]:
        print(f"MISMATCH: {message}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
