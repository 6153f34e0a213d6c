"""Cold-process CLI benchmark -> BENCH_cli.json.

The paper's headline is estimator speed: TyBEC costs one design variant
in ~0.3 s. For a terminal user the unit of that wait is a whole ``tybec``
process: interpreter start, imports, costing, output and exit. This
benchmark times fresh ``python -m repro.cli`` processes against a warm
persistent cache (the state after ``tybec cache warm`` or any earlier
run) and records, per command, the median and interquartile range of
``TRIALS`` wall times in two bytecode modes: without ``.pyc`` (every
process compiles every module it imports, as with
``PYTHONDONTWRITEBYTECODE=1``) at the top level, and with ``.pyc`` (an
installed package's case, cached under a run-private
``PYTHONPYCACHEPREFIX``) under ``pyc``:

* ``help`` — ``tybec --help``: interpreter start plus the parser;
* ``cost`` — ``tybec cost examples/sor.tirl``: cost one 4-lane SOR variant;
* ``suite_run`` — the 468-point ``tybec suite run`` of the perfbench
  ``cli`` workload (six kernels, lanes <= 64, forms A/B/C, three clocks).

The timings are recorded, not gated: they move with the machine.  The
``cost`` median with ``.pyc`` is recorded beside ``COST_TARGET_MS``, the
target for costing one variant in a fresh process.  The gates are
deterministic facts of one probe process per command. None of the three
commands may import numpy, nor ``dataclasses`` or ``inspect`` (defining
a record costs no generated source), and none may load more ``repro``
modules than its ceiling in ``MODULE_CEILINGS``. A new eager import on
these paths fails here; lower a ceiling when a change loads fewer.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: wall-time trials per command
TRIALS = 7

#: the paper's TyBEC time to cost one design variant
PAPER_TYBEC_SECONDS = 0.3

#: target wall time of ``tybec cost`` with ``.pyc`` (recorded, not gated)
COST_TARGET_MS = 250.0

#: standard modules no command may load: ``dataclasses`` generates its
#: methods from source, and pulls in ``inspect`` (and ``ast``, ``dis``)
FORBIDDEN_MODULES = ("numpy", "dataclasses", "inspect")

COMMANDS = {
    "help": ["--help"],
    "cost": ["cost", "examples/sor.tirl"],
    "suite_run": ["suite", "run", "--max-lanes", "64", "--forms", "A", "B", "C",
                  "--clocks", "150", "200", "250"],
}

#: design points costed by ``suite_run``
SUITE_RUN_POINTS = 468

#: the most ``repro`` modules each command may load
MODULE_CEILINGS = {"help": 2, "cost": 40, "suite_run": 58}

#: runs ``tybec ARGS`` in this interpreter, then reports what it loaded
PROBE = """
import json, sys
from repro.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps({"loaded": [m for m in FORBIDDEN if m in sys.modules],
                  "repro": sum(m.split(".")[0] == "repro" for m in sys.modules)}),
      file=sys.stderr)
"""


def _env(cache_dir: Path, pycache: Path | None = None) -> dict:
    """A fresh process's environment: no ``.pyc`` unless ``pycache`` names
    a directory to keep them in."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TYBEC_CACHE_DIR=str(cache_dir),
               PYTHONDONTWRITEBYTECODE="1")
    if pycache is not None:
        del env["PYTHONDONTWRITEBYTECODE"]
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def _wall_ms(args: list[str], env: dict) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, "-m", "repro.cli", *args], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
                   timeout=300)
    return (time.perf_counter() - started) * 1e3


def _probe(args: list[str], env: dict) -> dict:
    probe = f"FORBIDDEN = {FORBIDDEN_MODULES!r}\n{PROBE}"
    proc = subprocess.run([sys.executable, "-c", probe, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=300)
    return json.loads(proc.stderr.strip().splitlines()[-1])


def _timings(args: list[str], env: dict) -> dict:
    walls = [_wall_ms(args, env) for _ in range(TRIALS)]
    q1, _, q3 = statistics.quantiles(walls, n=4)
    return {"median_ms": statistics.median(walls), "iqr_ms": q3 - q1, "trials_ms": walls}


def test_cli_startup_artifact(results_dir, tmp_path):
    env = _env(tmp_path / "cache")
    pyc_env = _env(tmp_path / "cache", pycache=tmp_path / "pycache")
    subprocess.run([sys.executable, "-m", "repro.cli", "cache", "warm"], cwd=ROOT,
                   env=pyc_env, check=True, capture_output=True, timeout=300)
    report = tmp_path / "report.json"
    payload: dict = {"trials": TRIALS, "paper_tybec_seconds": PAPER_TYBEC_SECONDS}
    forbidden: dict[str, list[str]] = {}
    for name, args in COMMANDS.items():
        if name == "suite_run":
            args = [*args, "-o", str(report)]
        probe = _probe(args, env)
        forbidden[name] = probe["loaded"]
        _wall_ms(args, pyc_env)     # writes the .pyc files this command loads
        payload[name] = {
            "argv": args,
            **_timings(args, env),
            "pyc": _timings(args, pyc_env),
            "repro_modules": probe["repro"],
            "module_ceiling": MODULE_CEILINGS[name],
        }
    payload["numpy_imports"] = sum("numpy" in loaded for loaded in forbidden.values())
    payload["forbidden_modules"] = forbidden
    payload["cost"]["pyc"]["target_ms"] = COST_TARGET_MS
    payload["cost"]["pyc"]["under_target"] = payload["cost"]["pyc"]["median_ms"] < COST_TARGET_MS
    payload["suite_run"]["points"] = SUITE_RUN_POINTS
    payload["suite_run"]["points_per_s"] = (
        SUITE_RUN_POINTS / (payload["suite_run"]["median_ms"] / 1e3))
    (results_dir / "BENCH_cli.json").write_text(json.dumps(payload, indent=2) + "\n")

    assert json.loads(report.read_text())["totals"]["points"] == SUITE_RUN_POINTS
    for name, loaded in forbidden.items():
        assert not loaded, f"tybec {name} imported {', '.join(loaded)}"
    for name in COMMANDS:
        assert payload[name]["repro_modules"] <= MODULE_CEILINGS[name], (
            f"tybec {name} loaded {payload[name]['repro_modules']} repro modules, "
            f"ceiling {MODULE_CEILINGS[name]}")
