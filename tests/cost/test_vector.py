"""Unit tests of the vectorized cost core (:mod:`repro.cost.vector`).

The differential contract with the scalar oracle is pinned end-to-end in
``tests/explore/test_dense.py``; here the individual array primitives are
exercised in isolation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler.pipeline import CompilationOptions, FeasibilityStage
from repro.cost.resource_model import ModuleResourceEstimate
from repro.cost.throughput import (
    EKITParameters,
    LimitingFactor,
    bandwidth_demand,
    estimate_throughput,
)
from repro.cost.vector import LIMITING_ORDER, evaluate_group, pareto_mask
from repro.models.memory_execution import MemoryExecutionForm
from repro.substrate.synthesis import ResourceUsage


#: the fixed case the property started from
FIXED_CASE = dict(nwpt=4, noff=17, kpd=120, ni=12, dv=1, word_bytes=3, ngs=512,
                  nki=10, hpb_gbps=8.0, rho_h=0.7, gpb_gbps=25.0, rho_g=0.8)

table_i = st.fixed_dictionaries({
    "nwpt": st.integers(1, 8),
    "noff": st.integers(0, 1 << 14),
    "kpd": st.integers(0, 2000),
    "ni": st.integers(1, 64),
    "dv": st.integers(1, 4),
    "word_bytes": st.integers(1, 8),
    "ngs": st.integers(1, 1 << 24),
    "nki": st.integers(1, 10_000),
    "hpb_gbps": st.floats(0.25, 64.0),
    "rho_h": st.floats(0.01, 1.0),
    "gpb_gbps": st.floats(1.0, 512.0),
    "rho_g": st.floats(0.01, 1.0),
})


def _scalar_params(case: dict, lanes: int, mhz: float) -> EKITParameters:
    return EKITParameters.for_pipelined_design(
        hpb_gbps=case["hpb_gbps"], rho_h=case["rho_h"], gpb_gbps=case["gpb_gbps"],
        rho_g=case["rho_g"], ngs=case["ngs"], nwpt=case["nwpt"], nki=case["nki"],
        noff=case["noff"], kpd=case["kpd"], fd_mhz=float(mhz), ni=case["ni"],
        knl=int(lanes), dv=case["dv"], word_bytes=case["word_bytes"],
    )


def _group(case: dict, lanes, clocks, form, fits):
    # the group's parameters at its first lane count and a placeholder
    # clock, as the dense backend takes them from its first lane group
    return evaluate_group(
        _scalar_params(case, lanes[0], 1.0), form, np.array(lanes, dtype=np.int64),
        np.array(clocks), np.array(fits, dtype=bool),
    )


class TestEvaluateGroup:
    @settings(max_examples=60, deadline=None)
    @given(case=table_i,
           lanes=st.lists(st.integers(1, 4096), min_size=1, max_size=4),
           clocks=st.lists(st.floats(10.0, 800.0), min_size=1, max_size=3),
           form=st.sampled_from(list(MemoryExecutionForm)))
    @example(case=FIXED_CASE, lanes=[1, 2, 8], clocks=[150.0, 250.0],
             form=MemoryExecutionForm.A)
    @example(case=FIXED_CASE, lanes=[1, 2, 8], clocks=[150.0, 250.0],
             form=MemoryExecutionForm.B)
    @example(case=FIXED_CASE, lanes=[1, 2, 8], clocks=[150.0, 250.0],
             form=MemoryExecutionForm.C)
    def test_mirrors_scalar_breakdown(self, case, lanes, clocks, form):
        fits = [True] * (len(lanes) - 1) + [False]
        group = _group(case, lanes, clocks, form, fits)
        assert group.ekit.shape == (len(lanes), len(clocks))
        # the dense bandwidth demand, on the same broadcast axes
        dense_dram, dense_host = (
            np.broadcast_to(a, group.ekit.shape) for a in bandwidth_demand(
                _scalar_params(case, 1, clocks[0]), form,
                (np.array(clocks) * 1e6)[None, :],
                np.array(lanes, dtype=np.int64)[:, None]))
        estimate = ModuleResourceEstimate(design="toy", total=ResourceUsage())
        for li, k in enumerate(lanes):
            for ci, mhz in enumerate(clocks):
                params = _scalar_params(case, k, mhz)
                est = estimate_throughput(params, form)
                assert group.ekit[li, ci] == est.ekit
                assert group.total_s[li, ci] == est.breakdown.total
                assert LIMITING_ORDER[group.limiting[li, ci]] is est.limiting_factor
                check = FeasibilityStage().run(estimate, params, form, CompilationOptions())
                assert dense_dram[li, ci] == check.required_dram_gbps
                assert dense_host[li, ci] == check.required_host_gbps
                assert bool(group.fits_bandwidth[li, ci]) == check.fits_bandwidth
                assert bool(group.feasible[li, ci]) == (fits[li] and check.fits_bandwidth)

    @pytest.mark.parametrize("form", [MemoryExecutionForm.A, MemoryExecutionForm.B])
    def test_streaming_compute_tie_names_dram_bandwidth(self, form):
        # 1 GHz x 4 lanes consumes 4 G words/s; 32 GB/s x 0.5 of 4-byte
        # words streams exactly as many, so dram_streaming == compute
        case = dict(nwpt=1, noff=0, kpd=0, ni=1, dv=1, word_bytes=4, ngs=1 << 20,
                    nki=10_000, hpb_gbps=64.0, rho_h=1.0, gpb_gbps=32.0, rho_g=0.5)
        est = estimate_throughput(_scalar_params(case, 4, 1000.0), form)
        assert est.breakdown.dram_streaming == est.breakdown.compute
        assert est.limiting_factor is LimitingFactor.DRAM_BANDWIDTH
        group = _group(case, [4], [1000.0], form, [True])
        assert LIMITING_ORDER[group.limiting[0, 0]] is LimitingFactor.DRAM_BANDWIDTH

    def test_feasibility_combines_resources_and_bandwidth(self):
        lanes = [1, 64]
        clocks = [250.0]
        group = _group(FIXED_CASE, lanes, clocks, MemoryExecutionForm.A, [True, True])
        # 64 lanes at 250 MHz demand more than the sustained host link
        assert bool(group.fits_bandwidth[0, 0])
        assert not bool(group.fits_bandwidth[1, 0])
        assert not bool(group.feasible[1, 0])
        # form C never constrains the sustained links
        group_c = _group(FIXED_CASE, lanes, clocks, MemoryExecutionForm.C, [True, False])
        assert group_c.fits_bandwidth.all()
        assert not bool(group_c.feasible[1, 0])


class TestParetoMask:
    def test_empty(self):
        assert pareto_mask(np.empty((0, 2))).shape == (0,)

    def test_single_point_survives(self):
        assert pareto_mask(np.array([[1.0, 2.0]])).tolist() == [True]

    def test_identical_scores_all_survive(self):
        scores = np.array([[1.0, 2.0]] * 5)
        assert pareto_mask(scores).all()

    def test_simple_dominance(self):
        scores = np.array([[1.0, 1.0], [2.0, 2.0], [0.5, 3.0]])
        assert pareto_mask(scores).tolist() == [False, True, True]

    def test_duplicates_of_dominated_point_all_die(self):
        scores = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert pareto_mask(scores).tolist() == [False, False, True]

    def test_three_objectives_fallback(self):
        scores = np.array([
            [1.0, 1.0, 1.0],
            [2.0, 0.5, 1.0],
            [2.0, 1.0, 1.0],
            [2.0, 1.0, 1.0],
        ])
        assert pareto_mask(scores).tolist() == [False, False, True, True]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            pareto_mask(np.zeros(4))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    min_size=1, max_size=40))
    def test_matches_pairwise_definition(self, points):
        scores = np.array(points, dtype=np.float64)
        mask = pareto_mask(scores)
        rows = [tuple(r) for r in points]
        for i, row in enumerate(rows):
            dominated = any(
                other != row and all(o >= s for o, s in zip(other, row))
                for other in rows
            )
            assert mask[i] == (not dominated)
