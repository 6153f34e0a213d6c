"""Shared fixtures for the test-suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir import IRBuilder, ScalarType

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session", autouse=True)
def _isolated_disk_cache(tmp_path_factory):
    """Point the persistent warm-start store at a per-session tmp dir."""
    from repro.cost.cache import redirected_cache_dir

    with redirected_cache_dir(tmp_path_factory.mktemp("tybec-cache")):
        yield


def tybec_env(cache_dir: Path) -> dict:
    """The environment of a fresh ``tybec`` process using ``cache_dir``."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                TYBEC_CACHE_DIR=str(cache_dir))


@pytest.fixture(scope="session")
def warm_cache_dir(tmp_path_factory) -> Path:
    """A persistent store filled by ``tybec cache warm``, as after a first run."""
    cache_dir = tmp_path_factory.mktemp("tybec-warm-cache")
    subprocess.run([sys.executable, "-m", "repro.cli", "cache", "warm"], cwd=ROOT,
                   env=tybec_env(cache_dir), check=True, capture_output=True,
                   timeout=300)
    return cache_dir


@pytest.fixture
def ui18():
    return ScalarType.uint(18)


@pytest.fixture
def ui32():
    return ScalarType.uint(32)


def build_stencil_module(lanes: int = 1, grid: tuple[int, int, int] = (8, 8, 8)):
    """Build a small SOR-like stencil module used across the tests.

    The kernel reads a pressure stream ``p`` and an ``rhs`` stream, forms
    two offset streams of ``p`` and computes a weighted update, reducing an
    error term into a global accumulator — structurally a miniature of the
    paper's Figure 12.
    """
    im, jm, km = grid
    n = im * jm * km
    ty = ScalarType.uint(18)

    b = IRBuilder(f"stencil_l{lanes}")
    b.constants(ND1=im, ND2=jm, ND3=km)

    mem_p = b.memory_object("mobj_p", ty, size=n, addr_space=1, label="p")
    mem_r = b.memory_object("mobj_rhs", ty, size=n, addr_space=1, label="rhs")
    mem_o = b.memory_object("mobj_pout", ty, size=n, addr_space=1, label="p_new")

    f = b.function("f0", kind="pipe", args=[(ty, "p"), (ty, "rhs")])
    pp1 = f.offset("p", +1, ty, result="pip1")
    pn1 = f.offset("p", "-ND1*ND2", ty, result="pkn1")
    t1 = f.mul(ty, pp1, 3)
    t2 = f.mul(ty, pn1, 5)
    t3 = f.add(ty, t1, t2)
    t4 = f.add(ty, t3, f.arg("rhs"))
    f.instr("sub", ty, t4, f.arg("p"), result="p_new")
    f.reduction("add", ty, "errAcc", "p_new")

    lane_ports = []
    for lane in range(lanes):
        sp = b.stream_object(f"strobj_p{lane}", mem_p, direction="istream")
        sr = b.stream_object(f"strobj_rhs{lane}", mem_r, direction="istream")
        so = b.stream_object(f"strobj_pout{lane}", mem_o, direction="ostream")
        lane_ports.append((sp, sr, so))

    if lanes == 1:
        b.port("f0", "p", ty, direction="istream", stream_object="strobj_p0")
        b.port("f0", "rhs", ty, direction="istream", stream_object="strobj_rhs0")
        b.port("f0", "p_new", ty, direction="ostream", stream_object="strobj_pout0")
        main = b.function("main", kind="none")
        main.call("f0", ["p", "rhs"], kind="pipe")
    else:
        top = b.function("f1", kind="par")
        for _ in range(lanes):
            top.call("f0", ["p", "rhs"], kind="pipe")
        b.port("f1", "p", ty, direction="istream", stream_object="strobj_p0")
        main = b.function("main", kind="none")
        main.call("f1", ["p", "rhs"], kind="par")
        # port declaration for f1 needs an argument of that name
        b.module.functions["f1"].args = [(ty, "p"), (ty, "rhs")]

    return b.build()


@pytest.fixture
def stencil_module():
    return build_stencil_module(lanes=1)


@pytest.fixture
def stencil_module_4lane():
    return build_stencil_module(lanes=4)
