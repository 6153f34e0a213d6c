"""Tests for the EKIT throughput expressions (Equations 1-3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    EKITParameters,
    LimitingFactor,
    ekit_form_a,
    ekit_form_b,
    ekit_form_c,
    estimate_throughput,
)
from repro.models import MemoryExecutionForm


def make_params(**overrides):
    """SOR-like parameters on a Maia-class board: 24^3 grid, three streamed
    words per work-item (p and rhs in, p_new out), 4-byte words."""
    defaults = dict(
        hpb_gbps=4.0,
        rho_h=0.8,
        gpb_gbps=38.4,
        rho_g=0.65,
        ngs=24 ** 3,
        nwpt=3,
        nki=1000,
        noff=576,
        kpd=25,
        fd_mhz=200.0,
        nto=1.0 / (19 * 3),
        ni=19,
        knl=1,
        dv=1,
        word_bytes=4,
    )
    defaults.update(overrides)
    return EKITParameters(**defaults)


class TestParameters:
    def test_validation_positive(self):
        with pytest.raises(ValueError):
            make_params(ngs=0)
        with pytest.raises(ValueError):
            make_params(knl=0)
        with pytest.raises(ValueError):
            make_params(fd_mhz=0)

    def test_validation_rho_range(self):
        with pytest.raises(ValueError):
            make_params(rho_h=0.0)
        with pytest.raises(ValueError):
            make_params(rho_g=1.5)

    def test_derived(self):
        p = make_params()
        assert p.fd_hz == pytest.approx(200e6)
        assert p.sustained_host_gbps == pytest.approx(3.2)
        assert p.total_stream_bytes == pytest.approx(24 ** 3 * 3 * 4)

    def test_pipelined_extraction_rule(self):
        p = EKITParameters.for_pipelined_design(
            hpb_gbps=4.0, rho_h=0.8, gpb_gbps=9.6, rho_g=0.65,
            ngs=1000, nwpt=11, nki=10, noff=0, kpd=20, fd_mhz=200.0,
            ni=19, knl=2, initiation_interval=1.0,
        )
        # compute term must reduce to NGS * II / (FD * KNL * DV)
        est = ekit_form_c(p)
        expected_compute = 1000 * 1.0 / (200e6 * 2 * 1)
        assert est.breakdown.compute == pytest.approx(expected_compute)


class TestForms:
    def test_form_a_includes_full_host_transfer(self):
        p = make_params()
        a = ekit_form_a(p)
        b = ekit_form_b(p)
        assert a.breakdown.host_transfer == pytest.approx(
            b.breakdown.host_transfer * p.nki
        )
        assert a.ekit < b.ekit

    def test_form_b_faster_or_equal_to_form_a(self):
        for lanes in (1, 2, 4, 8, 16):
            p = make_params(knl=lanes)
            assert ekit_form_b(p).ekit >= ekit_form_a(p).ekit

    def test_form_c_always_compute_bound(self):
        # even with terrible DRAM bandwidth, form C ignores the streaming term
        p = make_params(gpb_gbps=0.5, rho_g=0.1)
        c = ekit_form_c(p)
        assert c.breakdown.dram_streaming == 0.0
        assert c.limiting_factor in (
            LimitingFactor.COMPUTE,
            LimitingFactor.PIPELINE_FILL,
            LimitingFactor.OFFSET_FILL,
            LimitingFactor.HOST_BANDWIDTH,
        )

    def test_form_c_fastest(self):
        p = make_params(gpb_gbps=2.0, rho_g=0.3)
        assert ekit_form_c(p).ekit >= ekit_form_b(p).ekit >= ekit_form_a(p).ekit

    def test_dispatch(self):
        p = make_params()
        assert estimate_throughput(p, "A").form is MemoryExecutionForm.A
        assert estimate_throughput(p, MemoryExecutionForm.B).form is MemoryExecutionForm.B
        assert estimate_throughput(p, "C").form is MemoryExecutionForm.C

    def test_breakdown_total_is_sum(self):
        p = make_params()
        b = ekit_form_b(p).breakdown
        assert b.total == pytest.approx(
            b.host_transfer + b.offset_fill + b.pipeline_fill + b.streaming_or_compute
        )
        assert b.streaming_or_compute == max(b.dram_streaming, b.compute)

    def test_ekit_is_reciprocal_of_time(self):
        p = make_params()
        est = ekit_form_b(p)
        assert est.ekit == pytest.approx(1.0 / est.breakdown.total)
        assert est.kernel_instance_time_s == pytest.approx(est.breakdown.total)
        assert est.application_time_s == pytest.approx(p.nki * est.breakdown.total)
        assert est.ewgt == est.ekit

    def test_cycles_per_kernel_instance(self):
        p = make_params()
        est = ekit_form_c(p)
        assert est.cycles_per_kernel_instance == pytest.approx(
            est.breakdown.total * 200e6
        )


class TestScalingBehaviour:
    def test_lanes_improve_compute_bound_designs(self):
        p1 = make_params(knl=1)
        p4 = make_params(knl=4)
        # with generous bandwidth the design is compute bound and scales
        e1 = ekit_form_c(p1)
        e4 = ekit_form_c(p4)
        assert e4.ekit > 2.5 * e1.ekit

    def test_communication_wall_form_a(self):
        """Beyond a few lanes a form-A design stops scaling: the host
        transfer dominates (the 'communication wall' of Figure 15)."""
        ekits = [ekit_form_a(make_params(knl=l, nki=1)).ekit for l in (1, 2, 4, 8, 16, 32)]
        assert ekits[1] > ekits[0]  # still scaling early on
        # saturation: the last doubling buys almost nothing
        assert ekits[-1] / ekits[-2] < 1.1
        assert ekit_form_a(make_params(knl=32, nki=1)).limiting_factor is LimitingFactor.HOST_BANDWIDTH

    def test_communication_wall_moves_out_for_form_b(self):
        """Form B amortises host transfers, so the wall moves to the DRAM
        streams at a higher lane count (Figure 15's observation)."""
        wall_a = None
        wall_b = None
        for lanes in (1, 2, 4, 8, 16, 32, 64):
            a = ekit_form_a(make_params(knl=lanes, nki=1000))
            b = ekit_form_b(make_params(knl=lanes, nki=1000))
            if wall_a is None and a.limiting_factor is not LimitingFactor.COMPUTE:
                wall_a = lanes
            if wall_b is None and b.limiting_factor is not LimitingFactor.COMPUTE:
                wall_b = lanes
        assert wall_a is not None and wall_b is not None
        assert wall_b > wall_a

    def test_bandwidth_scaling_hurts(self):
        good = ekit_form_b(make_params(rho_g=0.9))
        poor = ekit_form_b(make_params(rho_g=0.05))
        assert good.ekit > poor.ekit
        assert poor.limiting_factor is LimitingFactor.DRAM_BANDWIDTH

    def test_deeper_pipeline_only_matters_for_small_ndranges(self):
        small_shallow = ekit_form_c(make_params(ngs=128, kpd=5))
        small_deep = ekit_form_c(make_params(ngs=128, kpd=500))
        big_shallow = ekit_form_c(make_params(ngs=10 ** 6, kpd=5))
        big_deep = ekit_form_c(make_params(ngs=10 ** 6, kpd=500))
        assert small_shallow.ekit / small_deep.ekit > big_shallow.ekit / big_deep.ekit

    @given(
        lanes=st.integers(min_value=1, max_value=64),
        ngs=st.integers(min_value=100, max_value=10 ** 6),
        nwpt=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_ekit_positive_and_monotone_in_lanes(self, lanes, ngs, nwpt):
        p = make_params(knl=lanes, ngs=ngs, nwpt=nwpt, nto=1.0 / (19 * nwpt))
        p2 = make_params(knl=2 * lanes, ngs=ngs, nwpt=nwpt, nto=1.0 / (19 * nwpt))
        for form_fn in (ekit_form_a, ekit_form_b, ekit_form_c):
            e1, e2 = form_fn(p), form_fn(p2)
            assert e1.ekit > 0
            assert e2.ekit >= e1.ekit * 0.999  # more lanes never hurt

    def test_as_dict(self):
        est = ekit_form_b(make_params())
        d = est.as_dict()
        assert d["form"] == "B"
        assert "breakdown" in d and d["ekit_per_s"] > 0
