"""Memory-hierarchy model (paper §III-2, Figure 4).

The TyTra flow adopts the OpenCL abstractions for the FPGA memory
hierarchy.  The number attached to each level is the address-space
identifier used in the TyTra-IR (``addrSpace(n)``):

======  ==========  =====================================
number  OpenCL      FPGA realisation
======  ==========  =====================================
0       private     pipeline registers
1       global      device DRAM (on-board memory)
2       local       on-chip block RAMs
3       constant    device DRAM, read-only, cacheable
======  ==========  =====================================
"""

from __future__ import annotations

from enum import IntEnum

from repro import field, record

__all__ = ["AddressSpace", "MemoryLevel", "MemoryHierarchy"]


class AddressSpace(IntEnum):
    """OpenCL-style address-space identifiers used by the TyTra-IR."""

    PRIVATE = 0
    GLOBAL = 1
    LOCAL = 2
    CONSTANT = 3

    @property
    def is_on_chip(self) -> bool:
        """True for memories realised inside the FPGA fabric."""
        return self in (AddressSpace.PRIVATE, AddressSpace.LOCAL)

    @property
    def is_off_chip(self) -> bool:
        return not self.is_on_chip


@record(frozen=True)
class MemoryLevel:
    """One level of the hierarchy with its capacity and nominal figures.

    Attributes
    ----------
    space:
        The address space this level realises.
    capacity_bytes:
        Usable capacity.  For ``PRIVATE`` this is the register budget of
        the device expressed in bytes.
    peak_bandwidth_gbps:
        Peak bandwidth to the consumer of this level in GB/s (datasheet
        figure; sustained bandwidth is modelled separately).
    latency_cycles:
        Nominal access latency in device clock cycles.
    """

    space: AddressSpace
    capacity_bytes: int
    peak_bandwidth_gbps: float
    latency_cycles: int = 1


@record
class MemoryHierarchy:
    """The full hierarchy of a platform, indexable by address space."""

    levels: dict[AddressSpace, MemoryLevel] = field(default_factory=dict)
    #: Peak bandwidth of the host <-> device link (PCIe), GB/s.
    host_link_peak_gbps: float = 4.0

    def add(self, level: MemoryLevel) -> "MemoryHierarchy":
        self.levels[level.space] = level
        return self

    def __getitem__(self, space: AddressSpace | int) -> MemoryLevel:
        return self.levels[AddressSpace(space)]

    def __contains__(self, space: AddressSpace | int) -> bool:
        return AddressSpace(space) in self.levels

    @property
    def global_memory(self) -> MemoryLevel:
        return self[AddressSpace.GLOBAL]

    @property
    def local_memory(self) -> MemoryLevel:
        return self[AddressSpace.LOCAL]

    @property
    def private_memory(self) -> MemoryLevel:
        return self[AddressSpace.PRIVATE]

    @staticmethod
    def generic(
        dram_bytes: int = 8 << 30,
        bram_bytes: int = 6 << 20,
        register_bytes: int = 1 << 20,
        dram_peak_gbps: float = 9.6,
        bram_peak_gbps: float = 400.0,
        host_link_peak_gbps: float = 4.0,
    ) -> "MemoryHierarchy":
        """A representative PCIe FPGA accelerator card hierarchy."""
        h = MemoryHierarchy(host_link_peak_gbps=host_link_peak_gbps)
        h.add(MemoryLevel(AddressSpace.GLOBAL, dram_bytes, dram_peak_gbps, latency_cycles=200))
        h.add(MemoryLevel(AddressSpace.CONSTANT, dram_bytes, dram_peak_gbps, latency_cycles=200))
        h.add(MemoryLevel(AddressSpace.LOCAL, bram_bytes, bram_peak_gbps, latency_cycles=2))
        h.add(MemoryLevel(AddressSpace.PRIVATE, register_bytes, 10 * bram_peak_gbps, latency_cycles=1))
        return h
