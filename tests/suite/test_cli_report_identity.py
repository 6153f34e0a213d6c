"""A fresh ``tybec suite run`` process writes the committed report bytes.

The CLI's serial path costs without numpy (plain-Python ``polyval``,
``interp`` and ``linspace``, and ``math.log10`` in the bandwidth tables).
These tests pin what such a process writes:

* on the golden grid, each kernel's payload is byte-identical to its
  ``tests/golden/<kernel>.json``;
* on the full grid with forms A, B and C (468 points, the grid of the
  benchmark's ``cli`` workload), the report's SHA-256 equals
  ``tests/golden/cli/suite_run_full_grid.json``, recorded from the
  numpy-based scalar path. After an intentional model change, rewrite
  that digest from ``tybec <argv> -o report.json`` and commit it with the
  regenerated per-kernel goldens.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

from repro.suite import SuiteReport, canonical_json, load_report
from tests.conftest import ROOT, tybec_env

GOLDEN_DIR = ROOT / "tests" / "golden"


def run_suite(argv: list[str], cache_dir, output) -> bytes:
    subprocess.run([sys.executable, "-m", "repro.cli", *argv, "-o", str(output)],
                   cwd=ROOT, env=tybec_env(cache_dir), check=True,
                   capture_output=True, timeout=300)
    return output.read_bytes()


def test_golden_grid_report_matches_kernel_goldens(warm_cache_dir, tmp_path):
    run_suite(["suite", "run", "--tiny"], warm_cache_dir, tmp_path / "tiny.json")
    report = SuiteReport(load_report(tmp_path / "tiny.json"))
    assert sorted(report.kernels) == sorted(p.stem for p in GOLDEN_DIR.glob("*.json"))
    for name in report.kernels:
        assert canonical_json(report.kernel_payload(name)) == \
            (GOLDEN_DIR / f"{name}.json").read_text(), name


def test_full_grid_forms_abc_report_matches_recorded_digest(warm_cache_dir, tmp_path):
    golden = json.loads((GOLDEN_DIR / "cli" / "suite_run_full_grid.json").read_text())
    data = run_suite(golden["argv"], warm_cache_dir, tmp_path / "full.json")
    assert json.loads(data)["totals"]["points"] == golden["points"]
    assert len(data) == golden["bytes"]
    assert hashlib.sha256(data).hexdigest() == golden["sha256"]
