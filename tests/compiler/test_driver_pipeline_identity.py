"""Differential tests: the driver shim is byte-identical to the pipeline.

``TybecCompiler.cost()`` is a facade over ``EstimationPipeline.cost()``;
nothing in the shim may perturb a report.  These tests pin that identity
across the *full kernel registry* (the PR-1 test covered only the SOR
family) — an invariant the golden-report harness silently assumes.
"""

import json

import pytest

from repro.compiler import CompilationOptions, EstimationPipeline, TybecCompiler
from repro.explore import canonical_report_dict
from repro.kernels import ALL_KERNELS, get_kernel
from repro.substrate import MAIA_STRATIX_V_GSD8
from repro.suite import tiny_grid


def _canonical_json(report) -> str:
    return json.dumps(canonical_report_dict(report), sort_keys=True)


class TestDriverMatchesPipeline:
    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_shim_byte_identical_per_kernel(self, name):
        kernel = get_kernel(name)
        grid = tiny_grid(kernel.default_grid)
        module = kernel.build_module(lanes=2, grid=grid)
        workload = kernel.workload(grid, iterations=10)

        driver = TybecCompiler(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        pipeline = EstimationPipeline(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        via_driver = driver.cost(module, workload)
        via_pipeline = pipeline.cost(module, workload)
        assert _canonical_json(via_driver) == _canonical_json(via_pipeline)

    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_shim_identical_from_ir_text(self, name):
        """The text entry point (parse stage) changes nothing either."""
        from repro.ir import print_module

        kernel = get_kernel(name)
        grid = tiny_grid(kernel.default_grid)
        module = kernel.build_module(lanes=1, grid=grid)
        workload = kernel.workload(grid, iterations=10)
        text = print_module(module)

        compiler = TybecCompiler(CompilationOptions(device=MAIA_STRATIX_V_GSD8))
        assert _canonical_json(compiler.cost(text, workload)) == (
            _canonical_json(compiler.cost(module, workload))
        )
