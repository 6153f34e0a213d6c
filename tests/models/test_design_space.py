"""Tests for the design-space, memory-execution and streaming models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.models import (
    AccessPattern,
    ConfigurationClass,
    DesignPoint,
    MemoryExecutionForm,
    MemoryHierarchy,
    PatternKind,
    classify_design_point,
    select_memory_execution_form,
)


class TestDesignPoint:
    def test_defaults_are_single_pipeline(self):
        p = DesignPoint()
        assert classify_design_point(p) is ConfigurationClass.C2

    def test_replicated_lanes_is_c1(self):
        p = DesignPoint(pipelined=True, lanes=4)
        assert classify_design_point(p) is ConfigurationClass.C1

    def test_vectorised_pipeline_is_c1(self):
        p = DesignPoint(pipelined=True, lanes=1, vectorization=4)
        assert classify_design_point(p) is ConfigurationClass.C1

    def test_unpipelined_threads_is_c3(self):
        p = DesignPoint(pipelined=False, lanes=8)
        assert classify_design_point(p) is ConfigurationClass.C3

    def test_scalar_processor_is_c4(self):
        p = DesignPoint(pipelined=False, lanes=1, reuse_factor=64)
        assert classify_design_point(p) is ConfigurationClass.C4

    def test_vector_processor_is_c5(self):
        p = DesignPoint(pipelined=False, lanes=4, reuse_factor=128)
        assert classify_design_point(p) is ConfigurationClass.C5

    def test_reconfiguration_is_c6(self):
        p = DesignPoint(reconfigurations=2)
        assert classify_design_point(p) is ConfigurationClass.C6

    def test_moderate_reuse_unpipelined_is_c4(self):
        p = DesignPoint(pipelined=False, lanes=1, reuse_factor=4)
        assert classify_design_point(p) is ConfigurationClass.C4

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignPoint(lanes=0)
        with pytest.raises(ValueError):
            DesignPoint(vectorization=0)
        with pytest.raises(ValueError):
            DesignPoint(reuse_factor=0)
        with pytest.raises(ValueError):
            DesignPoint(reconfigurations=-1)

    def test_parallel_items_per_cycle(self):
        assert DesignPoint(lanes=4, vectorization=2).parallel_work_items_per_cycle == 8
        slow = DesignPoint(pipelined=False, lanes=1, reuse_factor=4)
        assert slow.parallel_work_items_per_cycle == pytest.approx(0.25)

    def test_descriptions_exist(self):
        for c in ConfigurationClass:
            assert c.description

    @given(
        lanes=st.integers(min_value=1, max_value=64),
        vec=st.integers(min_value=1, max_value=16),
    )
    def test_pipelined_designs_never_classify_as_processor(self, lanes, vec):
        p = DesignPoint(pipelined=True, lanes=lanes, vectorization=vec)
        assert classify_design_point(p) in (ConfigurationClass.C1, ConfigurationClass.C2)


class TestMemoryExecutionForm:
    def setup_method(self):
        # 1 MiB of usable local memory (2 MiB * 0.5 reserve), 1 GiB DRAM
        self.mem = MemoryHierarchy.generic(dram_bytes=1 << 30, bram_bytes=2 << 20)

    def test_small_footprint_is_form_c(self):
        sel = select_memory_execution_form(512 << 10, self.mem)
        assert sel.form is MemoryExecutionForm.C

    def test_medium_footprint_is_form_b(self):
        sel = select_memory_execution_form(64 << 20, self.mem)
        assert sel.form is MemoryExecutionForm.B

    def test_huge_footprint_is_form_a(self):
        sel = select_memory_execution_form(4 << 30, self.mem)
        assert sel.form is MemoryExecutionForm.A

    def test_host_resident_forces_form_a(self):
        sel = select_memory_execution_form(512 << 10, self.mem, host_resident=True)
        assert sel.form is MemoryExecutionForm.A

    def test_invalid_footprint(self):
        with pytest.raises(ValueError):
            select_memory_execution_form(0, self.mem)

    def test_descriptions(self):
        for form in MemoryExecutionForm:
            assert form.description
            assert form.host_transfer_repetitions


class TestAccessPattern:
    def test_contiguous(self):
        p = AccessPattern.contiguous(element_bytes=4)
        assert p.is_contiguous
        assert p.stride_bytes == 4

    def test_strided(self):
        p = AccessPattern.strided(1000, element_bytes=4)
        assert p.kind is PatternKind.STRIDED
        assert p.stride_bytes == 4000

    def test_stride_one_collapses_to_contiguous(self):
        assert AccessPattern.strided(1).is_contiguous

    def test_random(self):
        p = AccessPattern.random()
        assert p.kind is PatternKind.RANDOM
        assert p.stride_elements > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AccessPattern(PatternKind.STRIDED, 0, 4)
        with pytest.raises(ValueError):
            AccessPattern(PatternKind.CONTIGUOUS, 2, 4)
        with pytest.raises(ValueError):
            AccessPattern(PatternKind.CONTIGUOUS, 1, 0)
