"""Vectorized struct-of-arrays evaluation of the EKIT cost model.

The scalar estimator walks Python dataclasses per design point; this
module evaluates whole grids at once.  Each design family is lowered to a
:class:`FamilyVector` — the flat record of lane-invariant scalars that
``compiler/lanescale.estimate_from_structure`` and the three EKIT forms
of :mod:`repro.cost.throughput` consume — and the lane and clock axes
become numpy array axes: resource totals, feasibility masks, time
breakdowns, limiting factors and EKIT all come out as arrays in one
broadcast pass.

The contract with the scalar path is absolute: a dense sweep re-costed
pointwise produces byte-identical canonical reports.  The EKIT time legs,
the limiting-factor rule and the bandwidth demand are not restated here:
:func:`evaluate_group` calls the scalar path's own functions in
:mod:`repro.cost.throughput` with the lane and clock axes as broadcast
arrays.  Only the resource fold of :func:`lane_axis` still mirrors its
scalar counterpart (same association order, same int->float promotions,
``np.rint`` for the banker's rounding of ``round()``), because the scalar
fold works on per-leaf ``ResourceUsage`` objects.  The scalar path stays
on as the differential oracle — see ``tests/explore/test_dense.py``.

This module deliberately imports no compiler machinery (the compiler
package imports :mod:`repro.cost`); family extraction and report
materialization live in :mod:`repro.explore.dense`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cost.throughput import (
    EKITParameters,
    LimitingFactor,
    bandwidth_demand,
    dram_bound,
    instance_time,
    time_legs,
)
from repro.models.memory_execution import MemoryExecutionForm

__all__ = [
    "DenseUnsupportedError",
    "FamilyVector",
    "LaneAxis",
    "GroupArrays",
    "LIMITING_ORDER",
    "RESOURCE_ORDER",
    "lane_axis",
    "evaluate_group",
    "pareto_mask",
]

#: Candidate order of the scalar ``_limiting_factor`` dict — the argmax
#: over the stacked time legs must break ties exactly like ``max`` over a
#: dict with this insertion order (first maximum wins).
LIMITING_ORDER = (
    LimitingFactor.HOST_BANDWIDTH,
    LimitingFactor.OFFSET_FILL,
    LimitingFactor.PIPELINE_FILL,
    LimitingFactor.DRAM_BANDWIDTH,
    LimitingFactor.COMPUTE,
)

#: Resource order of ``ResourceUsage.RESOURCES`` — the utilisation argmax
#: must pick the same first-maximum resource as ``max(util, key=util.get)``.
RESOURCE_ORDER = ("alut", "reg", "bram_bits", "dsp")


class DenseUnsupportedError(RuntimeError):
    """The dense path cannot represent this space; fall back to scalar.

    Raised when a design is not lane-separable (no family analysis), when
    lane scaling is disabled, or when a backend has no dense lowering.
    The exploration engine catches it and re-costs through the per-point
    oracle, so callers always get an answer.
    """


@dataclass(frozen=True)
class FamilyVector:
    """Lane-invariant scalars of one design family on one device.

    Everything the dense evaluator needs: the per-instance PE datapath
    usage, the per-lane offset-buffer usage (summed over buffers, not yet
    scaled by lanes), the scheduler's balancing-register bits, and the
    Table-I scalars that do not vary along the lane or clock axes.
    """

    kernel: str
    device: str
    pe_name: str
    #: per-instance PE datapath usage, RESOURCE_ORDER components (raw floats)
    pe_usage: tuple[float, float, float, float]
    #: summed per-lane offset-buffer usage, RESOURCE_ORDER components
    buffer_usage: tuple[float, float, float, float]
    #: scheduler balancing + input-delay bits per lane
    balancing_bits: int
    #: streams per lane (input + output)
    in_streams_per_lane: int
    out_streams_per_lane: int
    element_width: int
    word_bytes: int
    nwpt: int
    noff: int
    kpd: int
    ni: int
    dv: int

    @property
    def stream_usage(self) -> tuple[float, float, float, float]:
        """Per-stream control usage (``estimate_stream_control``'s rates)."""
        return (40 + self.element_width / 2, 48 + self.element_width, 0.0, 0.0)


@dataclass(frozen=True)
class LaneAxis:
    """Resource verdicts along the lane axis of one family on one device."""

    lanes: np.ndarray  #: int64 (L,)
    fits_resources: np.ndarray  #: bool (L,)
    #: the worst (limiting) fractional utilisation per lane count
    util_max: np.ndarray  #: float64 (L,)
    #: index into RESOURCE_ORDER of the limiting resource per lane count
    limiting_resource: np.ndarray  #: int64 (L,)


def lane_axis(fv: FamilyVector, lanes: Sequence[int], capacities: dict) -> LaneAxis:
    """Mirror ``estimate_from_structure`` + the balancing-register fold.

    Per component the scalar path computes, in order::

        total  = 0.0 + pe * lanes            # instance accumulation
        total += buffer_per_lane * lanes     # offset buffers, lane-scaled
        total += per_stream * total_streams  # stream control
        total  = round(total)                # banker's rounding
        total.reg += balancing_bits * lanes  # post-rounding register fold

    and the feasibility stage divides by the device capacities in
    ``RESOURCE_ORDER``, taking the *first* maximum as limiting.
    """
    k = np.asarray(lanes, dtype=np.int64)
    kf = k.astype(np.float64)
    streams = (fv.in_streams_per_lane + fv.out_streams_per_lane) * k
    sf = streams.astype(np.float64)

    util = np.empty((len(RESOURCE_ORDER), len(k)), dtype=np.float64)
    stream_usage = fv.stream_usage
    for i, name in enumerate(RESOURCE_ORDER):
        acc = fv.pe_usage[i] * kf
        acc = acc + fv.buffer_usage[i] * kf
        acc = acc + stream_usage[i] * sf
        total = np.rint(acc)
        if name == "reg":
            total = total + (fv.balancing_bits * k).astype(np.float64)
        util[i] = total / float(capacities[name])

    return LaneAxis(
        lanes=k,
        fits_resources=np.all(util <= 1.0, axis=0),
        util_max=np.max(util, axis=0),
        limiting_resource=np.argmax(util, axis=0),
    )


@dataclass(frozen=True)
class GroupArrays:
    """One (device, form, pattern) group evaluated over lanes x clocks."""

    form: MemoryExecutionForm
    ekit: np.ndarray  #: float64 (L, C)
    total_s: np.ndarray  #: float64 (L, C)
    #: index into LIMITING_ORDER, per point
    limiting: np.ndarray  #: int64 (L, C)
    fits_bandwidth: np.ndarray  #: bool (L, C)
    feasible: np.ndarray  #: bool (L, C)


def evaluate_group(
    fv: FamilyVector,
    lanes: np.ndarray,
    fd_mhz: np.ndarray,
    *,
    form: MemoryExecutionForm,
    ngs: int,
    nki: int,
    hpb_gbps: float,
    rho_h: float,
    gpb_gbps: float,
    rho_g: float,
    fits_resources: np.ndarray,
) -> GroupArrays:
    """Evaluate one EKIT form over the lane x clock plane.

    The time legs, the limiting-factor rule, the kernel-instance time and
    the bandwidth demand are the scalar path's own functions from
    :mod:`repro.cost.throughput`, called once with the lane axis as an
    ``(L, 1)`` array and the clock axis as a ``(1, C)`` array.  Only the
    array-specific steps live here: ``np.maximum`` for the ``max`` term,
    the first-maximum ``argmax`` over :data:`LIMITING_ORDER` and the
    resource mask.
    """
    knl = np.asarray(lanes, dtype=np.int64)[:, None]
    fd_hz = (np.asarray(fd_mhz, dtype=np.float64) * 1e6)[None, :]
    # the group's lane/clock-invariant scalars; the record's own knl and
    # fd_mhz are placeholders that the axes above replace
    p = EKITParameters.for_pipelined_design(
        hpb_gbps=hpb_gbps, rho_h=rho_h, gpb_gbps=gpb_gbps, rho_g=rho_g,
        ngs=ngs, nwpt=fv.nwpt, nki=nki, noff=fv.noff, kpd=fv.kpd, fd_mhz=1.0,
        ni=fv.ni, dv=fv.dv, word_bytes=fv.word_bytes,
    )

    host_transfer, offset_fill, pipeline_fill, dram_streaming, compute = \
        time_legs(p, form, fd_hz, knl)
    soc = np.maximum(dram_streaming, compute)
    total = instance_time(host_transfer, offset_fill, pipeline_fill, soc,
                          p.reconfiguration_s)
    ekit = 1.0 / total

    # the scalar candidate dict in insertion order; argmax = first max
    legs = np.empty((4,) + total.shape, dtype=np.float64)
    legs[0] = host_transfer
    legs[1] = offset_fill
    legs[2] = pipeline_fill
    legs[3] = soc
    first = np.argmax(legs, axis=0)
    limiting4 = np.where(
        dram_bound(form, dram_streaming, compute),
        np.int64(LIMITING_ORDER.index(LimitingFactor.DRAM_BANDWIDTH)),
        np.int64(LIMITING_ORDER.index(LimitingFactor.COMPUTE)),
    )
    limiting = np.where(first == 3, limiting4, first).astype(np.int64)

    required_dram, required_host = bandwidth_demand(p, form, fd_hz, knl)
    fits_bandwidth = np.broadcast_to(
        (required_dram <= p.sustained_dram_gbps)
        & (required_host <= p.sustained_host_gbps),
        total.shape,
    )
    feasible = np.asarray(fits_resources, dtype=bool)[:, None] & fits_bandwidth

    return GroupArrays(
        form=form,
        ekit=ekit,
        total_s=total,
        limiting=limiting,
        fits_bandwidth=fits_bandwidth,
        feasible=feasible,
    )


# ----------------------------------------------------------------------
# Vectorized Pareto dominance
# ----------------------------------------------------------------------


def pareto_mask(scores: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated rows of ``scores`` (maximised).

    A row is dominated iff some row with a *different* score vector is
    >= in every component — identical score vectors never dominate each
    other, so equal-score duplicates survive together, exactly like the
    pairwise scan this replaces.  Two objectives take an O(n log n)
    sort-based pass; higher dimensions fall back to a memory-blocked
    unique-row comparison.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError(f"scores must be 2-D (points x objectives), got {scores.shape}")
    n, d = scores.shape
    if n == 0:
        return np.zeros(0, dtype=bool)
    uniq, inverse = np.unique(scores, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    u = len(uniq)
    if u == 1:
        return np.ones(n, dtype=bool)

    if d == 2:
        # reversed unique order: first objective descending, second
        # descending within ties of the first
        rev = uniq[::-1]
        a, b = rev[:, 0], rev[:, 1]
        starts = np.empty(u, dtype=bool)
        starts[0] = True
        starts[1:] = a[1:] != a[:-1]
        start_pos = np.flatnonzero(starts)
        cummax_b = np.maximum.accumulate(b)
        # best second objective among rows with strictly larger first one
        prev_max = np.full(len(start_pos), -np.inf)
        prev_max[1:] = cummax_b[start_pos[1:] - 1]
        group = np.cumsum(starts) - 1
        dominated_rev = (~starts) | (prev_max[group] >= b)
        dominated = dominated_rev[::-1]
    else:
        dominated = np.zeros(u, dtype=bool)
        block = max(1, (1 << 22) // max(1, u * d))
        for start in range(0, u, block):
            blk = uniq[start : start + block]
            ge = (uniq[None, :, :] >= blk[:, None, :]).all(axis=-1)
            eq = (uniq[None, :, :] == blk[:, None, :]).all(axis=-1)
            dominated[start : start + block] = (ge & ~eq).any(axis=1)

    return ~dominated[inverse]
