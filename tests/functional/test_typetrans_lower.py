"""Tests for type transformations and lowering to TyTra-IR."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import TybecCompiler
from repro.functional import (
    Program,
    TransformationError,
    lower_program,
    reshape_transform,
    verify_variant_equivalence,
)
from repro.functional.typetrans import valid_lane_counts
from repro.ir import print_module, validate_module
from repro.ir.functions import FunctionKind
from repro.models import KernelInstance, NDRange

from tests.functional.test_vector_program import make_saxpy_kernel


@pytest.fixture
def baseline():
    return Program.baseline(make_saxpy_kernel(), size=24)


def bindings(n=24, seed=0):
    rng = np.random.default_rng(seed)
    return {"x": rng.integers(0, 1000, n), "b": rng.integers(0, 1000, n)}


class TestReshapeTransform:
    def test_transform_creates_par_over_pipe(self, baseline):
        variant = reshape_transform(baseline, 4)
        assert variant.lanes() == 4
        assert variant.name.endswith("_l4")

    def test_lane_one_stays_pipeline(self, baseline):
        variant = reshape_transform(baseline, 1)
        assert variant.lanes() == 1

    def test_invalid_lane_counts(self, baseline):
        with pytest.raises(TransformationError):
            reshape_transform(baseline, 5)  # does not divide 24
        with pytest.raises(TransformationError):
            reshape_transform(baseline, 0)

    def test_only_baseline_programs_transformable(self, baseline):
        variant = reshape_transform(baseline, 2)
        with pytest.raises(TransformationError):
            reshape_transform(variant, 2)

    def test_valid_lane_counts(self):
        assert valid_lane_counts(24, max_lanes=8) == [1, 2, 3, 4, 6, 8]
        assert valid_lane_counts(7) == [1, 7]
        with pytest.raises(TransformationError):
            valid_lane_counts(0)

    def test_equivalence_of_variants(self, baseline):
        data = bindings()
        for lanes in (1, 2, 3, 4, 6, 8, 12, 24):
            variant = reshape_transform(baseline, lanes)
            assert verify_variant_equivalence(baseline, variant, data)

    @given(
        lanes=st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivalence_property(self, lanes, seed):
        base = Program.baseline(make_saxpy_kernel(), size=24)
        variant = reshape_transform(base, lanes)
        assert verify_variant_equivalence(base, variant, bindings(seed=seed))

    def test_equivalence_detects_differences(self, baseline):
        """The check must actually fail for a program that computes
        something different."""
        broken_kernel = make_saxpy_kernel()
        broken_kernel.golden = lambda c: {"y": 2 * c["x"] + c["b"]}
        broken = Program.baseline(broken_kernel, size=24)
        assert not verify_variant_equivalence(baseline, broken, bindings())


class TestLowering:
    def test_lower_baseline(self, baseline):
        module = lower_program(baseline, grid=(24,))
        validate_module(module)
        assert module.has_function("saxpy_pe")
        pe = module.get_function("saxpy_pe")
        assert pe.kind is FunctionKind.PIPE
        assert pe.instruction_count() == 2
        assert len(module.stream_objects) == 3  # x, b in; y out
        assert module.entry.calls()[0].callee == "saxpy_pe"

    def test_lower_four_lanes_matches_figure14(self, baseline):
        variant = reshape_transform(baseline, 4)
        module = lower_program(variant, grid=(24,))
        validate_module(module)
        wrapper = module.get_function("saxpy_lanes")
        assert wrapper.kind is FunctionKind.PAR
        assert len(wrapper.calls()) == 4
        # one stream object per lane per array
        assert len(module.stream_objects) == 3 * 4
        text = print_module(module)
        assert text.count("call @saxpy_pe") == 4

    def test_lowered_module_costs(self, baseline):
        variant = reshape_transform(baseline, 2)
        module = lower_program(variant, grid=(24,))
        compiler = TybecCompiler()
        report = compiler.cost(module, KernelInstance("saxpy", NDRange((24,)), repetitions=10))
        assert report.ekit > 0
        assert report.resources.structure.lanes == 2

    def test_lane_count_respected_in_structure(self, baseline):
        from repro.cost.resource_model import ModuleStructure

        for lanes in (1, 2, 4, 8):
            module = lower_program(reshape_transform(baseline, lanes), grid=(24,))
            assert ModuleStructure.from_module(module).lanes == lanes

    def test_grid_constants_recorded(self, baseline):
        module = lower_program(baseline, grid=(4, 3, 2))
        assert module.constants["ND1"] == 4
        assert module.constants["ND2"] == 3
        assert module.constants["ND3"] == 2
