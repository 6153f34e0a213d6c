"""Golden Verilog snapshots + structural lint for every kernel.

The snapshot pins the full emitted surface (kernel pipelines, compute
unit, configuration include, seeded testbench) so any codegen change
shows up as a reviewable text diff; the structural lint holds every
generated file to legal identifiers, balanced ``begin``/``end`` and
declared-before-use wires.  Re-record after an intentional change with::

    PYTHONPATH=src python -c \\
        "from repro.flows import record_verilog_snapshots; record_verilog_snapshots()"
"""

import hashlib
import re

import pytest

from repro.compiler.codegen.testbench import generate_testbench
from repro.compiler.codegen.verilog import VerilogGenerator
from repro.flows import kernel_verilog_bundle, lint_module, verilog_snapshot_dir
from repro.flows.verilog import parse_modules
from repro.kernels import REGISTRY, get_kernel
from repro.suite.runner import tiny_grid

ALL_KERNELS = REGISTRY.names()

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z_0-9$]*$")


def _generated_files(kernel_name: str, lanes: int = 2) -> dict[str, str]:
    kernel = get_kernel(kernel_name)
    module = kernel.build_module(lanes=lanes, grid=tiny_grid(kernel.default_grid))
    return VerilogGenerator(module).generate_all()


@pytest.mark.parametrize("kernel_name", ALL_KERNELS)
class TestGoldenSnapshots:
    def test_snapshot_matches_golden(self, kernel_name):
        golden = verilog_snapshot_dir() / f"{kernel_name}.v"
        assert golden.exists(), (
            f"missing Verilog snapshot for {kernel_name}; record with "
            "repro.flows.record_verilog_snapshots()")
        fresh = kernel_verilog_bundle(kernel_name)
        assert fresh == golden.read_text(), (
            f"generated Verilog for {kernel_name} drifted from the snapshot "
            "— if intentional, re-record the snapshots")


@pytest.mark.parametrize("kernel_name", ALL_KERNELS)
class TestStructuralLint:
    def test_all_generated_files_lint_clean(self, kernel_name):
        for name, text in _generated_files(kernel_name).items():
            if not name.endswith(".v"):
                continue
            problems = [p for module in parse_modules(text) for p in lint_module(module)]
            assert problems == [], f"{name}: {problems}"

    def test_identifiers_are_legal(self, kernel_name):
        # every declared reg/wire identifier must be a legal Verilog name
        decl = re.compile(r"^\s*(?:reg|wire)\s+(?:\[[^\]]+\]\s+)?(\S+?)\s*[;\[=]")
        for name, text in _generated_files(kernel_name).items():
            if not name.endswith(".v"):
                continue
            for line in text.splitlines():
                m = decl.match(line)
                if m:
                    assert _IDENTIFIER.match(m.group(1)), (name, line)

    def test_begin_end_balanced(self, kernel_name):
        for name, text in _generated_files(kernel_name).items():
            if not name.endswith(".v"):
                continue
            begins = len(re.findall(r"\bbegin\b", text))
            ends = len(re.findall(r"\bend\b(?!module)", text))
            assert begins == ends, f"{name}: {begins} begin vs {ends} end"


#: SHA-256 over ``repr(parse_modules(text))`` of every generated ``.v`` of
#: every kernel at lanes 1, 2 and 4, recorded before the tokenizer emitted
#: tuples and the expression parser climbed precedence in one loop
PARSED_DIGEST = "513a12684e8bde7dee49b0eb1cf84c05b4dffa957999a72e0165753028e397c1"


def test_parsed_modules_are_pinned():
    """Every parsed declaration, statement and expression tree, and every
    line number, of the 36 generated files is unchanged."""
    hasher = hashlib.sha256()
    for kernel_name in ALL_KERNELS:
        for lanes in (1, 2, 4):
            for name, text in sorted(_generated_files(kernel_name, lanes).items()):
                if name.endswith(".v"):
                    hasher.update(f"{kernel_name}/{lanes}/{name}\n"
                                  f"{parse_modules(text)!r}\n".encode())
    assert hasher.hexdigest() == PARSED_DIGEST


class TestTestbenchContract:
    """The machine-parsable testbench surface external simulators rely on."""

    def test_result_lines_and_seeded_stimulus(self):
        kernel = get_kernel("sor")
        module = kernel.build_module(lanes=1, grid=tiny_grid(kernel.default_grid))
        tb = generate_testbench(module, n_items=32, seed=0x1234)
        assert '$display("RESULT p_new %0d %h", out_index, s_p_new);' in tb
        assert '$display("REDUCTION sorErrAcc %h", g_sorErrAcc);' in tb
        assert '$display("DONE %0d", cycle);' in tb
        # the per-stream LCG seeds are pure functions of (seed, index)
        from repro.compiler.codegen.testbench import stream_seed

        assert f"32'h{stream_seed(0x1234, 0):08x}" in tb
        assert f"32'h{stream_seed(0x1234, 1):08x}" in tb

    def test_stimulus_words_mirror_verilog_lcg(self):
        # the Python mirror reproduces the LCG recurrence exactly
        from repro.compiler.codegen.testbench import (
            LCG_INCREMENT,
            LCG_MULTIPLIER,
            stimulus_words,
            stream_seed,
        )

        words = stimulus_words(7, 2, 4, 18)
        state = stream_seed(7, 2)
        expected = []
        for _ in range(4):
            expected.append(state & ((1 << 18) - 1))
            state = (state * LCG_MULTIPLIER + LCG_INCREMENT) & 0xFFFFFFFF
        assert words == expected
