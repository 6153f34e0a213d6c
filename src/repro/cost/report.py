"""Aggregated cost reports for design variants.

The report combines everything Figure 2 says the cost model emits —
resource estimates, performance (EKIT) estimates and memory-bandwidth
requirements — together with a feasibility verdict against the target
device (the paper notes that resource and bandwidth estimates mainly serve
to confirm whether a variant is *valid*, while throughput is the main
differentiator when choosing among valid variants).
"""

from __future__ import annotations

from repro import field, record
from repro.cost.resource_model import ModuleResourceEstimate
from repro.cost.throughput import EKITEstimate, LimitingFactor
from repro.substrate.fpga_device import FPGADevice
from repro.substrate.synthesis import ResourceUsage

__all__ = ["FeasibilityCheck", "CostReport"]


@record(frozen=True)
class FeasibilityCheck:
    """Whether a variant fits the device and its IO budget."""

    fits_resources: bool
    limiting_resource: str
    limiting_resource_utilization: float
    required_dram_gbps: float
    available_dram_gbps: float
    required_host_gbps: float
    available_host_gbps: float

    def __init__(self, fits_resources, limiting_resource, limiting_resource_utilization,
                 required_dram_gbps, available_dram_gbps, required_host_gbps,
                 available_host_gbps) -> None:
        put = object.__setattr__
        put(self, "fits_resources", fits_resources)
        put(self, "limiting_resource", limiting_resource)
        put(self, "limiting_resource_utilization", limiting_resource_utilization)
        put(self, "required_dram_gbps", required_dram_gbps)
        put(self, "available_dram_gbps", available_dram_gbps)
        put(self, "required_host_gbps", required_host_gbps)
        put(self, "available_host_gbps", available_host_gbps)

    @property
    def fits_bandwidth(self) -> bool:
        return (
            self.required_dram_gbps <= self.available_dram_gbps
            and self.required_host_gbps <= self.available_host_gbps
        )

    @property
    def feasible(self) -> bool:
        return self.fits_resources and self.fits_bandwidth

    def as_dict(self) -> dict:
        return {
            "fits_resources": self.fits_resources,
            "limiting_resource": self.limiting_resource,
            "limiting_resource_utilization": self.limiting_resource_utilization,
            "required_dram_gbps": self.required_dram_gbps,
            "available_dram_gbps": self.available_dram_gbps,
            "required_host_gbps": self.required_host_gbps,
            "available_host_gbps": self.available_host_gbps,
            "feasible": self.feasible,
        }


@record
class CostReport:
    """The full output of costing one design variant."""

    design: str
    device: FPGADevice
    resources: ModuleResourceEstimate
    throughput: EKITEstimate
    feasibility: FeasibilityCheck
    #: wall-clock seconds the estimation itself took (the paper stresses the
    #: estimator's speed: ~0.3 s per variant vs ~70 s for HLS estimates)
    estimation_seconds: float = 0.0
    notes: list[str] = field(default_factory=list)

    def __init__(self, design, device, resources, throughput, feasibility,
                 estimation_seconds=0.0, notes=None) -> None:
        self.design = design
        self.device = device
        self.resources = resources
        self.throughput = throughput
        self.feasibility = feasibility
        self.estimation_seconds = estimation_seconds
        self.notes = [] if notes is None else notes

    # -- convenience views -------------------------------------------------
    @property
    def usage(self) -> ResourceUsage:
        return self.resources.total

    @property
    def utilization(self) -> dict[str, float]:
        return self.usage.utilization(self.device)

    @property
    def ekit(self) -> float:
        return self.throughput.ekit

    @property
    def limiting_factor(self) -> LimitingFactor:
        """The performance-limiting parameter (enables targeted optimisation)."""
        return self.throughput.limiting_factor

    @property
    def feasible(self) -> bool:
        return self.feasibility.feasible

    def as_dict(self) -> dict:
        return {
            "design": self.design,
            "device": self.device.name,
            "resources": self.resources.as_dict(),
            "utilization": self.utilization,
            "throughput": self.throughput.as_dict(),
            "feasibility": self.feasibility.as_dict(),
            "estimation_seconds": self.estimation_seconds,
            "notes": list(self.notes),
        }

    # -- rendering -----------------------------------------------------------
    def to_text(self) -> str:
        """Human-readable report, one variant per call."""
        util = self.utilization
        b = self.throughput.breakdown
        lines = [
            f"Cost report for design variant {self.design!r} on {self.device.name}",
            "-" * 72,
            "Resources (estimated):",
            f"  ALUTs     : {self.usage.alut:12.0f}  ({util['alut']*100:6.2f}% of device)",
            f"  Registers : {self.usage.reg:12.0f}  ({util['reg']*100:6.2f}% of device)",
            f"  BRAM bits : {self.usage.bram_bits:12.0f}  ({util['bram_bits']*100:6.2f}% of device)",
            f"  DSP blocks: {self.usage.dsp:12.0f}  ({util['dsp']*100:6.2f}% of device)",
            "Throughput (EKIT):",
            f"  form                : {self.throughput.form.value}",
            f"  kernel-instances/s  : {self.ekit:12.4f}",
            f"  kernel-instance time: {self.throughput.kernel_instance_time_s*1e3:12.4f} ms",
            f"  limiting factor     : {self.limiting_factor.value}",
            "  time breakdown (per kernel instance):",
            f"    host transfer : {b.host_transfer*1e3:10.4f} ms",
            f"    offset fill   : {b.offset_fill*1e3:10.4f} ms",
            f"    pipeline fill : {b.pipeline_fill*1e3:10.4f} ms",
            f"    DRAM streaming: {b.dram_streaming*1e3:10.4f} ms",
            f"    compute       : {b.compute*1e3:10.4f} ms",
            "Feasibility:",
            f"  fits resources : {self.feasibility.fits_resources} "
            f"(worst: {self.feasibility.limiting_resource} at "
            f"{self.feasibility.limiting_resource_utilization*100:.1f}%)",
            f"  fits bandwidth : {self.feasibility.fits_bandwidth} "
            f"(needs {self.feasibility.required_dram_gbps:.2f} GB/s DRAM, "
            f"{self.feasibility.required_host_gbps:.2f} GB/s host)",
            f"  feasible       : {self.feasible}",
            f"Estimation took {self.estimation_seconds*1e3:.1f} ms",
        ]
        if self.notes:
            lines.append("Notes:")
            lines.extend(f"  - {note}" for note in self.notes)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()
