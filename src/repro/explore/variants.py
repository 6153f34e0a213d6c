"""Variant generation for design-space exploration.

A *variant family* is the set of designs produced by applying the
``reshapeTo`` type transformation with different lane counts to a kernel's
baseline program — exactly what the paper sweeps in Figure 15 (1 to 16
lanes of the SOR pipeline).
"""

from __future__ import annotations

from repro import record
from repro.explore.space import DesignSpace
from repro.ir.functions import Module
from repro.kernels.base import ScientificKernel
from repro.models.execution import KernelInstance

__all__ = ["VariantRecord", "generate_lane_variants"]


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


def generate_lane_variants(
    kernel: ScientificKernel,
    grid: tuple[int, ...] | None = None,
    iterations: int | None = None,
    max_lanes: int = 16,
    lane_counts: list[int] | None = None,
) -> list[VariantRecord]:
    """Generate the lane-variant family of a kernel as TyTra-IR modules."""
    grid = grid or kernel.default_grid
    counts = DesignSpace(kernel, grid=grid, lanes=lane_counts,
                         max_lanes=max_lanes).lane_counts()
    workload = kernel.workload(grid, iterations)
    records = []
    for lanes in counts:
        module = kernel.build_module(lanes=lanes, grid=grid)
        records.append(
            VariantRecord(kernel=kernel.name, lanes=lanes, module=module, workload=workload)
        )
    return records
