"""Roofline-style view of design variants.

The paper points to the roofline extension for FPGAs (da Silva et al.) as
a more useful representation of its cost model's outputs.  This module
provides that view: for every costed variant it computes the operational
intensity (operations per byte moved from the limiting memory interface)
and the attainable performance, so variants can be placed against the
bandwidth roof and the compute roof of the target device.
"""

from __future__ import annotations

from repro import record
from repro.cost.report import CostReport

__all__ = ["RooflinePoint", "roofline_analysis"]


@record(frozen=True)
class RooflinePoint:
    """One variant placed in the roofline plane."""

    design: str
    lanes: int
    operational_intensity: float      # operations per byte
    attainable_gops: float            # operations per second the model predicts / 1e9
    compute_roof_gops: float
    bandwidth_roof_gops: float
    bound: str                        # 'compute' or 'memory'

    def as_dict(self) -> dict:
        return {
            "design": self.design,
            "lanes": self.lanes,
            "operational_intensity": self.operational_intensity,
            "attainable_gops": self.attainable_gops,
            "compute_roof_gops": self.compute_roof_gops,
            "bandwidth_roof_gops": self.bandwidth_roof_gops,
            "bound": self.bound,
        }


def roofline_analysis(
    reports: dict[int, CostReport],
    ops_per_item: float,
) -> list[RooflinePoint]:
    """Place every costed variant in the roofline plane.

    Parameters
    ----------
    reports:
        Cost reports keyed by lane count (e.g. from an exploration result).
    ops_per_item:
        Arithmetic operations per work-item of the kernel.
    """
    points: list[RooflinePoint] = []
    for lanes in sorted(reports):
        report = reports[lanes]
        params = report.throughput.parameters
        bytes_per_item = params.nwpt * params.word_bytes
        intensity = ops_per_item / bytes_per_item

        # compute roof: every lane retires one item per cycle
        compute_roof = params.knl * params.dv * params.fd_hz * ops_per_item / 1e9
        # bandwidth roof: sustained DRAM bandwidth converted to op/s via intensity
        bandwidth_roof = params.sustained_dram_gbps * 1e9 * intensity / 1e9

        items_per_second = report.throughput.ekit * params.ngs
        attainable = items_per_second * ops_per_item / 1e9
        points.append(
            RooflinePoint(
                design=report.design,
                lanes=lanes,
                operational_intensity=intensity,
                attainable_gops=attainable,
                compute_roof_gops=compute_roof,
                bandwidth_roof_gops=bandwidth_roof,
                bound="compute" if compute_roof <= bandwidth_roof else "memory",
            )
        )
    return points
