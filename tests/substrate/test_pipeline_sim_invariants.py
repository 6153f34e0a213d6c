"""Invariants of the pipeline simulator's two execution modes.

These tests pin the reconciled fill/stall accounting and the documented
agreement invariant — analytic and cycle-stepping mode agree within one
pipeline depth (plus a few cycles of phase-boundary rounding) across
lanes x offsets x memory rates — together with the divergence guard, the
``cycle_accurate`` and ``fill_memory_gbps`` switches of
``run_kernel_instance`` and the separate offset-priming rate used by the
cross-validation subsystem.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.substrate import (
    CYCLE_AGREEMENT_SLACK,
    PipelineSimulator,
    PipelineSpec,
    SimulationDivergedError,
)


def make_spec(**kwargs):
    defaults = dict(
        name="spec",
        lanes=1,
        vectorization=1,
        pipeline_depth=25,
        instructions=19,
        cycles_per_instruction=1,
        offset_fill_words=576,
        input_words_per_item=9,
        output_words_per_item=2,
        element_bytes=4,
        clock_mhz=200.0,
    )
    defaults.update(kwargs)
    return PipelineSpec(**defaults)


class TestDivergenceGuard:
    def test_truncation_raises_instead_of_returning_wrong_cycles(self):
        sim = PipelineSimulator()
        with pytest.raises(SimulationDivergedError) as exc:
            sim.run_kernel_instance(make_spec(), 5000, cycle_accurate=True,
                                    max_cycles=10)
        assert exc.value.cycles == 10
        assert exc.value.retired == 0
        assert exc.value.n_items == 5000
        assert "diverged" in str(exc.value)

    def test_default_bound_never_trips_on_slow_memory(self):
        # a very slow but well-formed stream: the bound scales with the
        # analytic expectation, so it must not trip
        sim = PipelineSimulator()
        res = sim.run_kernel_instance(make_spec(offset_fill_words=64), 200,
                                      memory_gbps=0.05, cycle_accurate=True)
        assert res.cycles > 200

    def test_memory_gbps_must_be_positive(self):
        sim = PipelineSimulator()
        with pytest.raises(ValueError, match="memory_gbps"):
            sim.run_kernel_instance(make_spec(), 100, memory_gbps=0.0)
        with pytest.raises(ValueError, match="fill_memory_gbps"):
            sim.run_kernel_instance(make_spec(), 100, fill_memory_gbps=-1.0)


class TestModeSwitches:
    def test_cycle_accurate_selects_the_stepping_mode(self):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=64, lanes=2)
        # only the stepping mode honours the cycle bound: tripping it is
        # proof the flag took effect
        analytic = sim.run_kernel_instance(spec, 1000, max_cycles=10)
        with pytest.raises(SimulationDivergedError):
            sim.run_kernel_instance(spec, 1000, cycle_accurate=True,
                                    max_cycles=10)
        stepped = sim.run_kernel_instance(spec, 1000, cycle_accurate=True)
        assert abs(stepped.cycles - analytic.cycles) <= spec.pipeline_depth
        assert stepped.seconds == pytest.approx(stepped.cycles / spec.clock_hz)

    @pytest.mark.parametrize("cycle_accurate", [False, True])
    def test_fill_rate_reaches_either_mode(self, cycle_accurate):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=512)
        fast_fill = sim.run_kernel_instance(spec, 1000,
                                            cycle_accurate=cycle_accurate)
        slow_fill = sim.run_kernel_instance(spec, 1000, fill_memory_gbps=0.1,
                                            cycle_accurate=cycle_accurate)
        assert slow_fill.fill_cycles > fast_fill.fill_cycles


class TestFillRate:
    def test_separate_fill_rate_slows_priming_only(self):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=512, lanes=4)
        base = sim.run_kernel_instance(spec, 4000)
        slow = sim.run_kernel_instance(spec, 4000, fill_memory_gbps=0.2)
        # 0.2 GB/s at 200 MHz and 4-byte words is 0.25 words/cycle
        assert slow.fill_cycles - spec.pipeline_depth == math.ceil(512 / 0.25)
        # the steady state is untouched
        assert (slow.cycles - slow.fill_cycles) == (base.cycles - base.fill_cycles)

    def test_fill_rate_applies_to_both_modes(self):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=256, lanes=2)
        analytic = sim.run_kernel_instance(spec, 500, memory_gbps=4.0,
                                           fill_memory_gbps=0.5)
        stepped = sim.run_kernel_instance(spec, 500, memory_gbps=4.0,
                                          fill_memory_gbps=0.5,
                                          cycle_accurate=True)
        assert abs(analytic.fill_cycles - stepped.fill_cycles) <= 2
        assert abs(analytic.cycles - stepped.cycles) <= spec.pipeline_depth


class TestReconciledAccounting:
    def test_fill_cycles_include_depth_in_both_modes(self):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=128, lanes=2)
        analytic = sim.run_kernel_instance(spec, 1000)
        stepped = sim.run_kernel_instance(spec, 1000, cycle_accurate=True)
        expected_fill = math.ceil(128 / 2) + spec.pipeline_depth
        assert analytic.fill_cycles == expected_fill
        assert stepped.fill_cycles == expected_fill

    def test_stall_definition_shared(self):
        """stalls = cycles - fill_cycles - ceil(items / ideal rate)."""
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=0)
        for cycle_accurate in (False, True):
            res = sim.run_kernel_instance(spec, 1500, memory_gbps=2.0,
                                          cycle_accurate=cycle_accurate)
            ideal = math.ceil(1500 / spec.ideal_items_per_cycle)
            assert res.stall_cycles == res.cycles - res.fill_cycles - ideal

    def test_compute_bound_has_no_stalls_in_either_mode(self):
        sim = PipelineSimulator()
        spec = make_spec(offset_fill_words=0, lanes=4)
        for cycle_accurate in (False, True):
            res = sim.run_kernel_instance(spec, 2000, cycle_accurate=cycle_accurate)
            assert res.stall_cycles <= CYCLE_AGREEMENT_SLACK
            assert res.limited_by == "compute"


class TestModeAgreement:
    @given(
        items=st.integers(min_value=1, max_value=2000),
        lanes=st.integers(min_value=1, max_value=8),
        depth=st.integers(min_value=1, max_value=64),
        offset=st.integers(min_value=0, max_value=300),
        in_words=st.integers(min_value=1, max_value=8),
        out_words=st.integers(min_value=1, max_value=4),
        cpi=st.integers(min_value=1, max_value=3),
        instructions=st.integers(min_value=1, max_value=16),
        memory_gbps=st.one_of(st.none(), st.floats(min_value=1.0, max_value=64.0)),
        fill_gbps=st.one_of(st.none(), st.floats(min_value=1.0, max_value=64.0)),
    )
    @settings(max_examples=80, deadline=None)
    def test_modes_agree_within_depth_plus_issue_interval(
        self, items, lanes, depth, offset, in_words, out_words, cpi,
        instructions, memory_gbps, fill_gbps
    ):
        """The documented invariant, across lanes x offsets x memory rates
        x issue intervals.  For the fully pipelined specs the compiler
        schedules (``cycles_per_instruction == 1``) the issue-interval
        term is a single cycle, i.e. agreement within one pipeline depth;
        a time-multiplexed spec issues in bursts, which quantises the
        drain by up to one issue interval."""
        spec = make_spec(
            lanes=lanes,
            pipeline_depth=depth,
            offset_fill_words=offset,
            input_words_per_item=in_words,
            output_words_per_item=out_words,
            cycles_per_instruction=cpi,
            instructions=instructions,
        )
        sim = PipelineSimulator()
        analytic = sim.run_kernel_instance(spec, items, memory_gbps,
                                           fill_memory_gbps=fill_gbps)
        stepped = sim.run_kernel_instance(spec, items, memory_gbps,
                                          fill_memory_gbps=fill_gbps,
                                          cycle_accurate=True)
        gap = abs(analytic.cycles - stepped.cycles)
        assert gap <= depth + spec.issue_interval_cycles - 1 + CYCLE_AGREEMENT_SLACK
        assert analytic.limited_by == stepped.limited_by
        assert abs(analytic.fill_cycles - stepped.fill_cycles) <= 2
