"""Vectorized struct-of-arrays evaluation of the EKIT cost model.

The scalar estimator costs one design point at a time; this module
evaluates whole grids at once.  The lane and clock axes of one (device,
form, pattern) group become numpy array axes, and EKIT, time totals,
limiting factors and the feasibility mask come out as arrays in one
broadcast pass.

Nothing here restates the scalar arithmetic.  :func:`evaluate_group`
takes the group's Table-I parameters from
:meth:`~repro.compiler.pipeline.CostGroup.parameters`, its form from the
same group's form selection and its per-lane resource verdicts from the
groups' feasibility verdicts, and calls the scalar path's own functions
in :mod:`repro.cost.throughput` with the lane and clock axes as
broadcast arrays.  Only the array-specific steps live here.  A dense
sweep re-costed pointwise therefore produces byte-identical canonical
reports; the scalar path stays on as the differential oracle — see
``tests/explore/test_dense.py``.

This module deliberately imports no compiler machinery (the compiler
package imports :mod:`repro.cost`); the dense sweep itself lives in
:mod:`repro.explore.dense`.
"""

from __future__ import annotations

import numpy as np

from repro import record
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
    "GroupArrays",
    "LIMITING_ORDER",
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


class DenseUnsupportedError(RuntimeError):
    """The dense path cannot represent this space; fall back to scalar.

    Raised when a design is not lane-separable (no family analysis), when
    lane scaling is disabled, or when a backend has no dense lowering.
    The exploration engine catches it and re-costs through the per-point
    oracle, so callers always get an answer.
    """


@record(frozen=True)
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
    params: EKITParameters,
    form: MemoryExecutionForm,
    lanes: np.ndarray,
    fd_mhz: np.ndarray,
    fits_resources: np.ndarray,
) -> GroupArrays:
    """Evaluate one EKIT form over the lane x clock plane.

    ``params`` holds the group's lane- and clock-invariant Table-I
    scalars; its own ``knl`` and ``fd_mhz`` are placeholders that the
    axes replace.  The time legs, the limiting-factor rule, the
    kernel-instance time and the bandwidth demand are the scalar path's
    own functions from :mod:`repro.cost.throughput`, called once with the
    lane axis as an ``(L, 1)`` array and the clock axis as a ``(1, C)``
    array.  Only the array-specific steps live here: ``np.maximum`` for
    the ``max`` term, the first-maximum ``argmax`` over
    :data:`LIMITING_ORDER` and the resource mask ``fits_resources`` (one
    verdict per lane count).
    """
    knl = np.asarray(lanes, dtype=np.int64)[:, None]
    fd_hz = (np.asarray(fd_mhz, dtype=np.float64) * 1e6)[None, :]

    host_transfer, offset_fill, pipeline_fill, dram_streaming, compute = \
        time_legs(params, form, fd_hz, knl)
    soc = np.maximum(dram_streaming, compute)
    total = instance_time(host_transfer, offset_fill, pipeline_fill, soc,
                          params.reconfiguration_s)
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

    required_dram, required_host = bandwidth_demand(params, form, fd_hz, knl)
    fits_bandwidth = np.broadcast_to(
        (required_dram <= params.sustained_dram_gbps)
        & (required_host <= params.sustained_host_gbps),
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
