"""Tests for the execution model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.models import KernelInstance, NDRange


class TestNDRange:
    def test_global_size(self):
        assert NDRange((24, 24, 24)).global_size == 13824
        assert NDRange((100,)).global_size == 100

    def test_cube(self):
        r = NDRange.cube(96)
        assert r.dims == (96, 96, 96)
        assert r.ndim == 3

    def test_reshape_preserves_size(self):
        r = NDRange((4, 4, 8))
        r2 = r.reshape((128,))
        assert r2.global_size == r.global_size

    def test_reshape_rejects_size_change(self):
        with pytest.raises(ValueError):
            NDRange((4, 4)).reshape((5, 5))

    @pytest.mark.parametrize("dims", [(), (1, 2, 3, 4), (0,), (-1, 2)])
    def test_invalid_dims(self, dims):
        with pytest.raises(ValueError):
            NDRange(dims)

    def test_str(self):
        assert str(NDRange((2, 3))) == "2x3"

    @given(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3))
    def test_reshape_to_flat_property(self, dims):
        r = NDRange(tuple(dims))
        flat = r.reshape((r.global_size,))
        assert flat.global_size == r.global_size


class TestKernelInstance:
    def test_totals(self):
        ki = KernelInstance("sor", NDRange.cube(24), repetitions=1000, words_per_item=11)
        assert ki.global_size == 13824
        assert ki.total_work_items == 13_824_000
        assert ki.total_words() == 13824 * 11

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelInstance("k", NDRange((4,)), repetitions=0)
        with pytest.raises(ValueError):
            KernelInstance("k", NDRange((4,)), words_per_item=0)
