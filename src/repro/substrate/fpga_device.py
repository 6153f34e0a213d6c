"""FPGA device and board descriptions.

A :class:`FPGADevice` captures the architecture-description inputs the cost
model needs (peak bandwidths, resource capacities, clock) — the "one-time
input for each unique FPGA target" of the paper's Figure 2 — together with
the parameters the synthetic synthesiser uses for technology mapping.

Two real boards from the paper are described:

* ``MAIA_STRATIX_V_GSD8`` — the Maxeler Maia DFE used in the case study
  (Altera Stratix-V GSD8, 695K logic elements, PCIe gen2 x8 host link);
* ``VIRTEX7_ADM_PCIE_7V3`` — the Alpha-Data ADM-PCIE-7V3 used for the
  sustained-bandwidth experiments of Figure 10.

plus ``SMALL_EDU_DEVICE``, a deliberately small device used by the
variant-sweep experiment so that the computation wall of Figure 15 appears
at single-digit lane counts (documented substitution; the paper's own
figure shows percentages of an unspecified reference budget).
"""

from __future__ import annotations

from repro import field, record
from repro.models.memory import MemoryHierarchy

__all__ = [
    "FPGADevice",
    "MAIA_STRATIX_V_GSD8",
    "VIRTEX7_ADM_PCIE_7V3",
    "SMALL_EDU_DEVICE",
    "DEVICES",
    "get_device",
]


@record(frozen=True)
class FPGADevice:
    """Capacities and nominal figures of an FPGA accelerator board.

    Attributes
    ----------
    name / family / vendor:
        Identification; ``family`` selects technology-mapping parameters in
        the synthetic synthesiser.
    aluts / registers / bram_bits / dsps:
        Fabric resource capacities.  ``aluts`` are adaptive LUTs (Altera) or
        LUT6 equivalents (Xilinx).
    dsp_input_width:
        Native multiplier input width of a DSP block (18 for Stratix-V /
        Virtex-7 style 18x18 partial products).
    fmax_mhz:
        Typical achievable kernel clock for streaming pipelines (``FD``).
    dram_bytes / dram_peak_gbps:
        On-board DRAM capacity and peak bandwidth (``GPB``).
    host_peak_gbps:
        Peak host-device bandwidth over PCIe (``HPB``).
    pcie_lanes / pcie_gen:
        Host link configuration (used by the PCIe simulator).
    bram_block_bits:
        Size of one physical block RAM (M20K = 20 kbit, BRAM36 = 36 kbit);
        buffer allocations are rounded up to whole blocks by the
        synthesiser but *not* by the light-weight cost model.
    """

    name: str
    family: str
    vendor: str
    aluts: int
    registers: int
    bram_bits: int
    dsps: int
    dsp_input_width: int = 18
    fmax_mhz: float = 200.0
    dram_bytes: int = 8 << 30
    dram_peak_gbps: float = 9.6
    host_peak_gbps: float = 4.0
    pcie_lanes: int = 8
    pcie_gen: int = 2
    bram_block_bits: int = 20_480
    #: extra metadata (board name, notes)
    info: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        for attr in ("aluts", "registers", "bram_bits", "dsps"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    # a device is hashed several times per design point (it keys the
    # calibration and cost-group caches); ``info`` takes no part
    def _identity(self) -> tuple:
        return (self.name, self.family, self.vendor, self.aluts, self.registers,
                self.bram_bits, self.dsps, self.dsp_input_width, self.fmax_mhz,
                self.dram_bytes, self.dram_peak_gbps, self.host_peak_gbps,
                self.pcie_lanes, self.pcie_gen, self.bram_block_bits)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._identity() == other._identity()
        return NotImplemented

    def __hash__(self) -> int:
        # the _identity tuple, written out: one call fewer per hash
        return hash((self.name, self.family, self.vendor, self.aluts, self.registers,
                     self.bram_bits, self.dsps, self.dsp_input_width, self.fmax_mhz,
                     self.dram_bytes, self.dram_peak_gbps, self.host_peak_gbps,
                     self.pcie_lanes, self.pcie_gen, self.bram_block_bits))

    # -- derived views ----------------------------------------------------
    def memory_hierarchy(self) -> MemoryHierarchy:
        """The device's memory hierarchy in terms of the §III-2 model."""
        return MemoryHierarchy.generic(
            dram_bytes=self.dram_bytes,
            bram_bytes=self.bram_bits // 8,
            register_bytes=self.registers // 8,
            dram_peak_gbps=self.dram_peak_gbps,
            bram_peak_gbps=self.fmax_mhz * 1e6 * (self.bram_bits // self.bram_block_bits) * 4 / 1e9,
            host_link_peak_gbps=self.host_peak_gbps,
        )

    def resource_capacities(self) -> dict[str, int]:
        """Capacities keyed by the resource names used throughout the repo."""
        return {
            "alut": self.aluts,
            "reg": self.registers,
            "bram_bits": self.bram_bits,
            "dsp": self.dsps,
        }

    @property
    def clock_hz(self) -> float:
        return self.fmax_mhz * 1e6


#: Maxeler Maia DFE (case study of §VII): Altera Stratix-V GSD8.
#: 695K logic elements ~= 262K ALMs ~= 524K ALUTs; 1963 DSP blocks;
#: 50 Mbit of M20K block RAM; 48 GB on-board DRAM; PCIe gen2 x8.
MAIA_STRATIX_V_GSD8 = FPGADevice(
    name="maia-stratix-v-gsd8",
    family="stratix-v",
    vendor="altera",
    aluts=524_000,
    registers=1_048_000,
    bram_bits=52_428_800,
    dsps=1963,
    dsp_input_width=18,
    fmax_mhz=200.0,
    dram_bytes=48 << 30,
    dram_peak_gbps=38.4,
    host_peak_gbps=4.0,
    pcie_lanes=8,
    pcie_gen=2,
    bram_block_bits=20_480,
    info={"board": "Maxeler Maia DFE", "logic_elements": 695_000},
)

#: Alpha-Data ADM-PCIE-7V3 (Figure 10 experiments): Xilinx Virtex-7 690T.
VIRTEX7_ADM_PCIE_7V3 = FPGADevice(
    name="adm-pcie-7v3-virtex7",
    family="virtex-7",
    vendor="xilinx",
    aluts=433_200,
    registers=866_400,
    bram_bits=52_920_000,
    dsps=3600,
    dsp_input_width=18,
    fmax_mhz=250.0,
    dram_bytes=16 << 30,
    dram_peak_gbps=21.3,
    host_peak_gbps=7.9,
    pcie_lanes=8,
    pcie_gen=3,
    bram_block_bits=36_864,
    info={"board": "Alpha-Data ADM-PCIE-7V3"},
)

#: A deliberately small device used for wall/feasibility studies
#: (the Figure 15 sweep), so that resource walls appear at single-digit
#: lane counts as in the paper's illustration.
SMALL_EDU_DEVICE = FPGADevice(
    name="small-edu-device",
    family="stratix-v",
    vendor="altera",
    aluts=4_000,
    registers=8_000,
    bram_bits=1_000_000,
    dsps=32,
    dsp_input_width=18,
    fmax_mhz=150.0,
    dram_bytes=2 << 30,
    dram_peak_gbps=6.4,
    host_peak_gbps=1.6,
    pcie_lanes=4,
    pcie_gen=2,
    bram_block_bits=20_480,
    info={"board": "synthetic small device for wall studies"},
)

DEVICES: dict[str, FPGADevice] = {
    d.name: d
    for d in (MAIA_STRATIX_V_GSD8, VIRTEX7_ADM_PCIE_7V3, SMALL_EDU_DEVICE)
}
# convenient aliases
DEVICES["stratix-v"] = MAIA_STRATIX_V_GSD8
DEVICES["virtex-7"] = VIRTEX7_ADM_PCIE_7V3
DEVICES["small"] = SMALL_EDU_DEVICE


def get_device(name: str) -> FPGADevice:
    """Look a device up by name or alias."""
    try:
        return DEVICES[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(DEVICES)}"
        ) from exc
