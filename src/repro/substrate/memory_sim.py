"""Transaction-level DRAM + PCIe memory-system simulator.

This is the stand-in for the paper's sustained-bandwidth experiments
(§V-C, Figure 10), which extended the STREAM benchmark to OpenCL and ran
it through SDAccel on an Alpha-Data ADM-PCIE-7V3 board.  The simulator
models the mechanisms that produce the measured behaviour:

* a fixed software/DMA setup cost per kernel launch and buffer transfer,
  which dominates small transfers (the rising part of the contiguous
  curve, 0.3 GB/s at 100x100 elements);
* burst-oriented DRAM access through the memory interface, which
  approaches a device-efficiency-limited plateau for large contiguous
  transfers (~6.3 GB/s in the paper);
* per-element transactions with row-buffer misses for strided (or random)
  access, which collapse sustained bandwidth by roughly two orders of
  magnitude (0.04-0.07 GB/s), essentially independent of the stride value.

The same models provide the host-transfer times (``HPB * rhoH``) and
device-DRAM stream times (``GPB * rhoG``) used by the EKIT throughput
expressions.
"""

from __future__ import annotations

import math

from repro import record
from repro.models.streaming import AccessPattern, PatternKind
from repro.substrate.fpga_device import FPGADevice

__all__ = [
    "DRAMConfig",
    "PCIeConfig",
    "StreamMeasurement",
    "MemorySystemSimulator",
]


@record(frozen=True)
class DRAMConfig:
    """Device DRAM and memory-interface parameters.

    The defaults model a single DDR3-1600 channel behind a 512-bit AXI
    memory interface clocked conservatively, which is what gives the
    ~6.4 GB/s practical ceiling observed in the paper rather than the
    12.8 GB/s datasheet peak.
    """

    bus_width_bits: int = 64
    io_clock_mhz: float = 800.0          # DDR: two transfers per clock
    burst_bytes: int = 64                # one interface burst
    row_bytes: int = 8192
    banks: int = 8
    t_rcd_ns: float = 13.75
    t_rp_ns: float = 13.75
    t_cas_ns: float = 13.75
    #: per-transaction controller/interconnect overhead that cannot be hidden
    #: for dependent (non-pipelined) transactions
    transaction_overhead_ns: float = 40.0
    #: fraction of the datasheet peak reachable by a well-formed burst stream
    #: through the vendor memory interface
    interface_efficiency: float = 0.5

    @property
    def peak_gbps(self) -> float:
        """Datasheet peak bandwidth in GB/s."""
        return self.bus_width_bits / 8 * self.io_clock_mhz * 2 / 1e3

    @property
    def effective_peak_gbps(self) -> float:
        """Peak sustainable by the memory interface for ideal streams."""
        return self.peak_gbps * self.interface_efficiency

    @property
    def row_miss_penalty_ns(self) -> float:
        return self.t_rp_ns + self.t_rcd_ns + self.t_cas_ns


@record(frozen=True)
class PCIeConfig:
    """Host link parameters."""

    gen: int = 2
    lanes: int = 8
    tlp_payload_bytes: int = 256
    tlp_header_bytes: int = 26
    #: software + descriptor setup per DMA transfer
    dma_setup_us: float = 30.0
    #: driver/runtime overhead per kernel-instance launch
    kernel_launch_us: float = 100.0
    protocol_efficiency: float = 0.95

    _PER_LANE_GBPS = {1: 0.25, 2: 0.5, 3: 0.985, 4: 1.969}

    def __post_init__(self) -> None:
        if self.gen not in self._PER_LANE_GBPS:
            raise ValueError(
                f"unsupported PCIe generation {self.gen!r}; supported "
                f"generations: {sorted(self._PER_LANE_GBPS)}"
            )
        if self.lanes < 1:
            raise ValueError(f"PCIe lanes must be >= 1, got {self.lanes}")

    @property
    def raw_gbps(self) -> float:
        return self._PER_LANE_GBPS[self.gen] * self.lanes

    @property
    def effective_gbps(self) -> float:
        payload_eff = self.tlp_payload_bytes / (self.tlp_payload_bytes + self.tlp_header_bytes)
        return self.raw_gbps * payload_eff * self.protocol_efficiency

    @staticmethod
    def for_device(device: FPGADevice) -> "PCIeConfig":
        return PCIeConfig(gen=device.pcie_gen, lanes=device.pcie_lanes)


@record(frozen=True)
class StreamMeasurement:
    """One sustained-bandwidth measurement (one point of Figure 10)."""

    elements: int
    element_bytes: int
    pattern: PatternKind
    stride_elements: int
    total_bytes: int
    seconds: float
    sustained_gbps: float

    def as_dict(self) -> dict:
        return {
            "elements": self.elements,
            "element_bytes": self.element_bytes,
            "pattern": self.pattern.value,
            "stride_elements": self.stride_elements,
            "total_bytes": self.total_bytes,
            "seconds": self.seconds,
            "sustained_gbps": self.sustained_gbps,
        }


class MemorySystemSimulator:
    """Analytic transaction-level model of the board's memory system."""

    def __init__(
        self,
        device: FPGADevice | None = None,
        dram: DRAMConfig | None = None,
        pcie: PCIeConfig | None = None,
    ):
        self.device = device
        if dram is None:
            if device is not None:
                # scale interface efficiency so the effective peak tracks the
                # device's datasheet DRAM bandwidth
                dram = DRAMConfig(
                    io_clock_mhz=device.dram_peak_gbps / (64 / 8) / 2 * 1e3,
                )
            else:
                dram = DRAMConfig()
        self.dram = dram
        self.pcie = pcie or (PCIeConfig.for_device(device) if device else PCIeConfig())

    # ------------------------------------------------------------------
    # Device DRAM streams (kernel side)
    # ------------------------------------------------------------------
    def dram_stream_time(
        self,
        n_elements: int,
        element_bytes: int = 4,
        pattern: AccessPattern | None = None,
        *,
        include_setup: bool = True,
    ) -> float:
        """Seconds to stream ``n_elements`` from device DRAM to the kernel."""
        if n_elements <= 0:
            return 0.0
        pattern = pattern or AccessPattern.contiguous(element_bytes)
        total_bytes = n_elements * element_bytes
        setup_s = (self.pcie.kernel_launch_us + self.pcie.dma_setup_us) * 1e-6 if include_setup else 0.0

        if pattern.is_contiguous:
            # bursts pipeline through the interface; row misses are amortised
            data_s = total_bytes / (self.dram.effective_peak_gbps * 1e9)
            rows = max(1, math.ceil(total_bytes / self.dram.row_bytes))
            row_s = rows * self.dram.row_miss_penalty_ns * 1e-9 * 0.1  # mostly hidden
            return setup_s + data_s + row_s

        # strided / random: one transaction per element, overhead not hidden
        stride_bytes = pattern.stride_bytes
        if stride_bytes >= self.dram.row_bytes:
            row_miss_fraction = 1.0
        else:
            # consecutive accesses share a row every row_bytes/stride accesses
            row_miss_fraction = stride_bytes / self.dram.row_bytes
        per_element_ns = (
            self.dram.transaction_overhead_ns
            + row_miss_fraction * self.dram.row_miss_penalty_ns
            + self.dram.t_cas_ns * (1 - row_miss_fraction)
            + element_bytes / (self.dram.peak_gbps)  # data beat itself
        )
        return setup_s + n_elements * per_element_ns * 1e-9

    # ------------------------------------------------------------------
    # Host <-> device transfers (PCIe)
    # ------------------------------------------------------------------
    def host_transfer_time(self, nbytes: int, *, include_setup: bool = True) -> float:
        """Seconds to move ``nbytes`` between host and device DRAM by DMA."""
        if nbytes <= 0:
            return 0.0
        setup_s = self.pcie.dma_setup_us * 1e-6 if include_setup else 0.0
        return setup_s + nbytes / (self.pcie.effective_gbps * 1e9)

    def host_sustained_gbps(self, nbytes: int) -> float:
        seconds = self.host_transfer_time(nbytes)
        return nbytes / seconds / 1e9 if seconds else 0.0

    # ------------------------------------------------------------------
    # The STREAM-style benchmark of Figure 10
    # ------------------------------------------------------------------
    def stream_benchmark(
        self,
        side: int,
        element_bytes: int = 4,
        pattern: str | PatternKind = PatternKind.CONTIGUOUS,
        stride_elements: int | None = None,
    ) -> StreamMeasurement:
        """Measure sustained bandwidth for one square-array configuration.

        ``side`` is the size of one dimension of a square 2-D array (the
        horizontal axis of Figure 10); for strided access the stride equals
        ``side`` elements, exactly as in the paper's experiment.
        """
        if side <= 0:
            raise ValueError("side must be positive")
        kind = PatternKind(pattern)
        n_elements = side * side
        if kind is PatternKind.CONTIGUOUS:
            access = AccessPattern.contiguous(element_bytes)
        else:
            stride = stride_elements if stride_elements is not None else side
            access = (
                AccessPattern.strided(max(2, stride), element_bytes)
                if kind is PatternKind.STRIDED
                else AccessPattern.random(element_bytes, typical_span_elements=n_elements)
            )
        seconds = self.dram_stream_time(n_elements, element_bytes, access)
        total_bytes = n_elements * element_bytes
        return StreamMeasurement(
            elements=n_elements,
            element_bytes=element_bytes,
            pattern=kind,
            stride_elements=access.stride_elements,
            total_bytes=total_bytes,
            seconds=seconds,
            sustained_gbps=total_bytes / seconds / 1e9,
        )

    DEFAULT_SIDES = (100, 500, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500, 5000, 6000)

    def run_stream_suite(
        self,
        sides: tuple[int, ...] = DEFAULT_SIDES,
        element_bytes: int = 4,
    ) -> list[StreamMeasurement]:
        """Run the full Figure-10 suite: contiguous and strided at each size."""
        measurements: list[StreamMeasurement] = []
        for side in sides:
            measurements.append(self.stream_benchmark(side, element_bytes, PatternKind.CONTIGUOUS))
            measurements.append(self.stream_benchmark(side, element_bytes, PatternKind.STRIDED))
        return measurements
