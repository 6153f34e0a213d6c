"""Warm-vs-cold suite benchmark: proves the persistent cache pays.

Runs the multi-device workload suite twice in *separate processes*
against one persistent cache directory:

* **cold** — the cache directory starts empty; the run pays device
  calibration (one per device) and one full analysis per design family,
  and persists both.
* **warm** — a fresh process with the populated cache; calibration and
  family analyses load from disk, so only the cheap per-point work
  (throughput, feasibility, report assembly) remains.

The script asserts the warm run is at least ``--min-speedup`` times
faster (the CI gate), checks the two reports are byte-identical, and
writes the stage-timing breakdown to ``--output`` so the artifact names
the guilty stage whenever the ratio regresses.

Usage (CI runs exactly this)::

    PYTHONPATH=src python benchmarks/warm_cold_suite.py \
        --output benchmarks/results/warm_cold_suite.json --min-speedup 3
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

#: calibration-heavy but point-light: three devices multiply the one-time
#: work the persistent cache elides, while the tiny grids keep the
#: irreducible per-point work small
MEASURE_SNIPPET = """
import json, sys, time
from repro import replace
from repro.suite import SuiteConfig, WorkloadSuite

config = replace(
    SuiteConfig.tiny(devices=("stratix-v", "virtex-7", "small")),
    max_lanes=8,
)
suite = WorkloadSuite(config)
run = suite.run()
json.dump({
    "wall_seconds": run.wall_seconds,
    "points": run.evaluated,
    "variants_per_second": run.variants_per_second,
    "stats": run.stats,
    "report_sha": __import__("hashlib").sha256(
        run.report.to_json().encode()).hexdigest(),
}, sys.stdout)
"""


def _measure(cache_dir: str, repo_root: Path) -> dict:
    env = dict(os.environ)
    env["TYBEC_CACHE_DIR"] = cache_dir
    src = str(repo_root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", MEASURE_SNIPPET],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--output", type=Path, default=None,
                        help="write the cold/warm measurements as JSON")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="fail unless warm is this many times faster than cold")
    parser.add_argument("--repeats", type=int, default=2,
                        help="measurements per scenario (best is kept)")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parents[1]
    cache_dir = tempfile.mkdtemp(prefix="tybec-warm-cold-")
    try:
        shutil.rmtree(cache_dir, ignore_errors=True)
        cold = _measure(cache_dir, repo_root)   # first run populates the cache
        cold_best = cold
        warm_runs = [_measure(cache_dir, repo_root) for _ in range(args.repeats)]
        warm_best = min(warm_runs, key=lambda r: r["wall_seconds"])
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    speedup = cold_best["wall_seconds"] / warm_best["wall_seconds"]
    identical = cold_best["report_sha"] == warm_best["report_sha"]
    payload = {
        "points": cold_best["points"],
        "cold": cold_best,
        "warm": warm_best,
        "warm_speedup": speedup,
        "reports_identical": identical,
        "min_speedup_required": args.min_speedup,
    }
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(payload, indent=2) + "\n")

    print(f"cold: {cold_best['wall_seconds'] * 1e3:8.1f} ms "
          f"({cold_best['points']} points)")
    print(f"warm: {warm_best['wall_seconds'] * 1e3:8.1f} ms "
          f"-> {speedup:.2f}x (required: >= {args.min_speedup:.1f}x)")
    for scenario in ("cold", "warm"):
        seconds = payload[scenario]["stats"].get("stage_seconds", {})
        breakdown = "  ".join(f"{k} {v * 1e3:.1f}ms"
                              for k, v in sorted(seconds.items(), key=lambda kv: -kv[1]))
        print(f"  {scenario} stages: {breakdown}")

    if not identical:
        print("FAIL: cold and warm reports differ", file=sys.stderr)
        return 1
    if speedup < args.min_speedup:
        print(f"FAIL: warm speedup {speedup:.2f}x below the "
              f"{args.min_speedup:.1f}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
