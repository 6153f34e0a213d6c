"""Node power and energy model (used for Figure 18).

The paper measures the increase over idle power of the host+device node on
a wall power meter, for both the CPU-only and the CPU+FPGA solutions, and
reports the *delta energy* normalised against the CPU-only solution.

This module provides a simple calibrated power model with the behaviour
that produces those curves: a CPU whose active power rises well above
idle, and an FPGA board whose static power is modest and whose dynamic
power scales with the amount of configured logic that is toggling.  The
absolute wattages are representative desktop/accelerator figures; Figure
18 only depends on their ratios.
"""

from __future__ import annotations

from repro import record
from repro.substrate.fpga_device import FPGADevice
from repro.substrate.synthesis import ResourceUsage

__all__ = ["NodePowerModel", "EnergyReport"]


@record(frozen=True)
class EnergyReport:
    """Energy accounting for one application run."""

    label: str
    runtime_s: float
    idle_power_w: float
    active_power_w: float

    @property
    def delta_power_w(self) -> float:
        return self.active_power_w - self.idle_power_w

    @property
    def delta_energy_j(self) -> float:
        """Increase over idle energy consumption — the quantity of Figure 18."""
        return self.delta_power_w * self.runtime_s

    @property
    def total_energy_j(self) -> float:
        return self.active_power_w * self.runtime_s

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "runtime_s": self.runtime_s,
            "idle_power_w": self.idle_power_w,
            "active_power_w": self.active_power_w,
            "delta_power_w": self.delta_power_w,
            "delta_energy_j": self.delta_energy_j,
        }


@record
class NodePowerModel:
    """Power model of the host + accelerator node.

    Attributes
    ----------
    cpu_idle_w:
        Node power with the CPU idle (the baseline subtracted by the
        paper's measurement methodology).
    cpu_active_w:
        Node power with the CPU-only kernel running (single socket busy).
    fpga_static_w:
        Additional board power when the FPGA is configured but idle.
    fpga_dynamic_alut_w / fpga_dynamic_dsp_w / fpga_dynamic_bram_w:
        Dynamic power per utilised resource at the default toggle rate.
    host_assist_w:
        CPU power added while the host orchestrates FPGA streams (DMA,
        driver) — far below a fully busy core.
    """

    cpu_idle_w: float = 38.0
    cpu_active_w: float = 96.0
    fpga_static_w: float = 11.0
    fpga_dynamic_alut_w: float = 2.2e-5
    fpga_dynamic_dsp_w: float = 9.0e-4
    fpga_dynamic_bram_w: float = 3.0e-7  # per bit
    fpga_dynamic_reg_w: float = 6.0e-6
    host_assist_w: float = 9.0
    toggle_rate: float = 0.15

    # -- component powers -------------------------------------------------
    def cpu_run_power(self) -> float:
        """Node power during a CPU-only run."""
        return self.cpu_active_w

    def fpga_dynamic_power(self, usage: ResourceUsage, clock_mhz: float = 200.0,
                           toggle_rate: float | None = None) -> float:
        """Dynamic power of the configured FPGA logic."""
        toggle = self.toggle_rate if toggle_rate is None else toggle_rate
        freq_scale = clock_mhz / 200.0
        return freq_scale * toggle / 0.15 * (
            usage.alut * self.fpga_dynamic_alut_w
            + usage.reg * self.fpga_dynamic_reg_w
            + usage.dsp * self.fpga_dynamic_dsp_w
            + usage.bram_bits * self.fpga_dynamic_bram_w
        )

    def fpga_run_power(
        self,
        usage: ResourceUsage,
        device: FPGADevice | None = None,
        clock_mhz: float | None = None,
    ) -> float:
        """Node power during an FPGA-accelerated run."""
        mhz = clock_mhz or (device.fmax_mhz if device else 200.0)
        return (
            self.cpu_idle_w
            + self.host_assist_w
            + self.fpga_static_w
            + self.fpga_dynamic_power(usage, mhz)
        )

    # -- reports ------------------------------------------------------------
    def cpu_energy(self, label: str, runtime_s: float) -> EnergyReport:
        return EnergyReport(
            label=label,
            runtime_s=runtime_s,
            idle_power_w=self.cpu_idle_w,
            active_power_w=self.cpu_run_power(),
        )

    def fpga_energy(
        self,
        label: str,
        runtime_s: float,
        usage: ResourceUsage,
        device: FPGADevice | None = None,
        clock_mhz: float | None = None,
    ) -> EnergyReport:
        return EnergyReport(
            label=label,
            runtime_s=runtime_s,
            idle_power_w=self.cpu_idle_w,
            active_power_w=self.fpga_run_power(usage, device, clock_mhz),
        )
