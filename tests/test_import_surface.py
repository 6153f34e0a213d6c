"""The import surface: what a cold ``tybec`` process loads, and what each
package exports.

Package ``__init__`` modules export lazily (PEP 562), and the CLI imports
what a sub-command runs inside its handler. So ``tybec --help``, ``tybec
cost`` and the serial ``tybec suite run`` never import numpy once the
device is calibrated (``tybec cache warm``, or any earlier run); only the
dense engine, calibration fitting and the kernels' reference models do.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tests.conftest import ROOT, tybec_env

#: runs ``tybec ARGS`` in this fresh interpreter, then reports what it loaded
PROBE = """
import json, sys
from repro.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules,
                  "repro": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "repro")}),
      file=sys.stderr)
"""


def run_probe(args: list[str], cache_dir: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], cwd=ROOT,
                          env=tybec_env(cache_dir),
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("args", [
    ["--help"],
    ["cost", "examples/sor.tirl"],
    ["suite", "run", "--tiny"],
], ids=["help", "cost", "suite-run"])
def test_scalar_commands_never_import_numpy(args, warm_cache_dir):
    probe = run_probe(args, warm_cache_dir)
    assert probe["code"] == 0
    assert not probe["numpy"], f"tybec {' '.join(args)} imported numpy"


def test_help_imports_only_the_cli(tmp_path):
    assert run_probe(["--help"], tmp_path)["repro"] == ["repro", "repro.cli"]


def _packages() -> list[str]:
    return ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg)


@pytest.mark.parametrize("name", _packages())
def test_package_exports_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    listing = dir(package)
    for attr in exported:
        assert getattr(package, attr) is not None, f"{name}.{attr}"
        assert attr in listing, f"{attr} missing from dir({name})"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")
