"""Variant generation for design-space exploration.

A *variant family* is the set of designs produced by applying the
``reshapeTo`` type transformation with different lane counts to a kernel's
baseline program — exactly what the paper sweeps in Figure 15 (1 to 16
lanes of the SOR pipeline).
"""

from __future__ import annotations

import math

from repro import record
from repro.functional.typetrans import valid_lane_counts
from repro.ir.functions import Module
from repro.kernels.base import ScientificKernel
from repro.models.execution import KernelInstance

__all__ = ["VariantRecord", "generate_lane_variants", "sweep_lane_counts"]


@record
class VariantRecord:
    """One generated design variant, ready to be costed."""

    kernel: str
    lanes: int
    module: Module
    workload: KernelInstance

    @property
    def name(self) -> str:
        return self.module.name


def sweep_lane_counts(
    kernel: ScientificKernel,
    grid: tuple[int, ...] | None = None,
    max_lanes: int = 16,
    lane_counts: list[int] | None = None,
) -> list[int]:
    """The lane counts to explore for a kernel on a given grid.

    Only counts for which the order-preserving reshape is defined (divisors
    of the NDRange size) are returned.
    """
    grid = grid or kernel.default_grid
    size = math.prod(grid)
    if lane_counts is not None:
        return [l for l in lane_counts if l > 0 and size % l == 0]
    return valid_lane_counts(size, max_lanes=max_lanes)


def generate_lane_variants(
    kernel: ScientificKernel,
    grid: tuple[int, ...] | None = None,
    iterations: int | None = None,
    max_lanes: int = 16,
    lane_counts: list[int] | None = None,
) -> list[VariantRecord]:
    """Generate the lane-variant family of a kernel as TyTra-IR modules."""
    grid = grid or kernel.default_grid
    counts = sweep_lane_counts(kernel, grid, max_lanes, lane_counts)
    workload = kernel.workload(grid, iterations)
    records = []
    for lanes in counts:
        module = kernel.build_module(lanes=lanes, grid=grid)
        records.append(
            VariantRecord(kernel=kernel.name, lanes=lanes, module=module, workload=workload)
        )
    return records
