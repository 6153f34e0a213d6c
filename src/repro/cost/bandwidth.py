"""Sustained stream-bandwidth model (paper §V-C, Figure 10).

While peak bandwidths can be read off datasheets, the bandwidth a stream
actually sustains depends strongly on the access pattern and the transfer
size — contiguity alone changes it by up to two orders of magnitude.  The
paper therefore builds an *empirical* model from a STREAM-style benchmark
run once per target, and incorporates it into the compiler.

This module provides that model:

* :class:`BandwidthTable` — sustained GB/s as a function of total transfer
  size, interpolated (in log-size space) between measured points;
* :class:`SustainedBandwidthModel` — one table per access-pattern class
  plus the peak figure, from which the ``rho`` scaling factors used in the
  EKIT expressions are derived (``rho = sustained / peak``).

Constructors are provided for (a) ingesting measurements from the memory
simulator (the reproduction's stand-in for running the benchmark on the
board), and (b) the paper's own Figure-10 numbers, used as a documented
fallback and in the ablation experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cost.numerics import interp, sorted_axis
from repro.models.streaming import AccessPattern, PatternKind
from repro.substrate.memory_sim import MemorySystemSimulator, StreamMeasurement

__all__ = ["BandwidthTable", "SustainedBandwidthModel"]


@dataclass
class BandwidthTable:
    """Sustained bandwidth (GB/s) as a function of transfer size (bytes)."""

    sizes_bytes: list[float]
    gbps: list[float]

    def __post_init__(self) -> None:
        if len(self.sizes_bytes) != len(self.gbps) or not self.sizes_bytes:
            raise ValueError("bandwidth table needs matching, non-empty size/bandwidth lists")
        self.sizes_bytes, self.gbps = sorted_axis(
            "bandwidth table", "sizes_bytes", self.sizes_bytes, "gbps", self.gbps)
        if any(s <= 0 for s in self.sizes_bytes) or any(b <= 0 for b in self.gbps):
            raise ValueError("sizes and bandwidths must be positive")

    def sustained(self, nbytes: float) -> float:
        """Interpolate sustained bandwidth at ``nbytes`` (clamped at the ends)."""
        if nbytes <= 0:
            return self.gbps[0]
        if len(self.sizes_bytes) == 1:
            return self.gbps[0]
        log_sizes = [math.log10(s) for s in self.sizes_bytes]
        return interp(math.log10(nbytes), log_sizes, self.gbps)

    @property
    def plateau_gbps(self) -> float:
        """The large-transfer plateau (the last table entry)."""
        return self.gbps[-1]

    def as_dict(self) -> dict:
        return {"sizes_bytes": self.sizes_bytes, "gbps": self.gbps}

    @staticmethod
    def from_dict(data: dict) -> "BandwidthTable":
        return BandwidthTable(list(data["sizes_bytes"]), list(data["gbps"]))


@dataclass
class SustainedBandwidthModel:
    """Empirical sustained-bandwidth model for one memory interface."""

    peak_gbps: float
    contiguous: BandwidthTable
    strided: BandwidthTable
    name: str = "device-dram"
    #: measurements the model was fitted from (if any), kept for reports
    measurements: list[StreamMeasurement] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.peak_gbps <= 0:
            raise ValueError("peak bandwidth must be positive")

    # ------------------------------------------------------------------
    def table_for(self, pattern: AccessPattern | PatternKind) -> BandwidthTable:
        kind = pattern.kind if isinstance(pattern, AccessPattern) else PatternKind(pattern)
        return self.contiguous if kind is PatternKind.CONTIGUOUS else self.strided

    def sustained_gbps(
        self, nbytes: float, pattern: AccessPattern | PatternKind = PatternKind.CONTIGUOUS
    ) -> float:
        return self.table_for(pattern).sustained(nbytes)

    def rho(
        self, nbytes: float, pattern: AccessPattern | PatternKind = PatternKind.CONTIGUOUS
    ) -> float:
        """The scaling factor applied to the peak bandwidth in the EKIT model.

        Memoized per (size, pattern class): a sweep evaluates thousands of
        points over a handful of distinct footprints, and the log-space
        interpolation behind :meth:`sustained_gbps` is pure function of
        both arguments.  The cached value is the verbatim result of the
        same computation, so memoization cannot change any report.
        """
        kind = pattern.kind if isinstance(pattern, AccessPattern) else PatternKind(pattern)
        cache = self.__dict__.setdefault("_rho_cache", {})
        key = (nbytes, kind)
        value = cache.get(key)
        if value is None:
            if len(cache) > 4096:
                cache.clear()
            value = min(1.0, self.sustained_gbps(nbytes, kind) / self.peak_gbps)
            cache[key] = value
        return value

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "peak_gbps": self.peak_gbps,
            "contiguous": self.contiguous.as_dict(),
            "strided": self.strided.as_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "SustainedBandwidthModel":
        return SustainedBandwidthModel(
            peak_gbps=float(data["peak_gbps"]),
            contiguous=BandwidthTable.from_dict(data["contiguous"]),
            strided=BandwidthTable.from_dict(data["strided"]),
            name=data.get("name", "device-dram"),
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_measurements(
        cls,
        measurements: list[StreamMeasurement],
        peak_gbps: float,
        name: str = "device-dram",
    ) -> "SustainedBandwidthModel":
        """Fit the model from benchmark measurements (Figure 2's one-time input)."""
        contiguous = [(m.total_bytes, m.sustained_gbps) for m in measurements
                      if m.pattern is PatternKind.CONTIGUOUS]
        non_contiguous = [(m.total_bytes, m.sustained_gbps) for m in measurements
                          if m.pattern is not PatternKind.CONTIGUOUS]
        if not contiguous:
            raise ValueError("need at least one contiguous measurement")
        if not non_contiguous:
            # paper: strided and random sustain essentially the same low
            # bandwidth; without measurements assume a pessimistic 1/50th
            non_contiguous = [(size, gbps / 50.0) for size, gbps in contiguous]
        return cls(
            peak_gbps=peak_gbps,
            contiguous=BandwidthTable(*map(list, zip(*contiguous))),
            strided=BandwidthTable(*map(list, zip(*non_contiguous))),
            name=name,
            measurements=list(measurements),
        )

    @classmethod
    def from_simulator(
        cls,
        simulator: MemorySystemSimulator,
        sides: tuple[int, ...] = MemorySystemSimulator.DEFAULT_SIDES,
        element_bytes: int = 4,
        name: str = "device-dram",
    ) -> "SustainedBandwidthModel":
        """Run the STREAM suite on the memory simulator and fit the model."""
        measurements = simulator.run_stream_suite(sides=sides, element_bytes=element_bytes)
        return cls.from_measurements(
            measurements, peak_gbps=simulator.dram.peak_gbps, name=name
        )

    #: The measured points of the paper's Figure 10 (Alpha-Data ADM-PCIE-7V3,
    #: Virtex-7, SDAccel, no vendor-recommended optimisations).  The x values
    #: are sides of a square array of 4-byte elements; the contiguous series
    #: rises to a ~6.3 GB/s plateau around 1000x1000 elements and the strided
    #: series stays around 0.04-0.07 GB/s.
    PAPER_FIG10_SIDES = (100, 500, 750, 1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000, 6000)
    PAPER_FIG10_CONTIGUOUS_GBPS = (0.3, 1.2, 1.7, 2.4, 4.1, 5.2, 5.6, 5.8, 6.1, 6.2, 6.2, 6.3)
    PAPER_FIG10_STRIDED_GBPS = (0.04, 0.07, 0.07, 0.07, 0.07, 0.07, 0.07, 0.07, 0.07, 0.07, 0.07, 0.07)

    @classmethod
    def paper_figure10(cls, element_bytes: int = 4, peak_gbps: float = 9.6) -> "SustainedBandwidthModel":
        """The empirical model built directly from the paper's reported points."""
        sizes = [s * s * element_bytes for s in cls.PAPER_FIG10_SIDES]
        return cls(
            peak_gbps=peak_gbps,
            contiguous=BandwidthTable(sizes, list(cls.PAPER_FIG10_CONTIGUOUS_GBPS)),
            strided=BandwidthTable(sizes, list(cls.PAPER_FIG10_STRIDED_GBPS)),
            name="paper-figure-10",
        )

    @classmethod
    def host_from_simulator(
        cls,
        simulator: MemorySystemSimulator,
        sizes_bytes: tuple[int, ...] = (1 << 12, 1 << 16, 1 << 20, 1 << 24, 1 << 27, 1 << 30),
        name: str = "host-pcie",
    ) -> "SustainedBandwidthModel":
        """Fit the host-link (PCIe) sustained-bandwidth model (``rho_H``).

        Host DMA transfers are contiguous by construction (the runtime
        packs buffers), so the strided table simply mirrors the contiguous
        one; the size dependence (DMA setup amortisation) is what matters.
        """
        points = [(float(n), simulator.host_sustained_gbps(n)) for n in sizes_bytes]
        table = BandwidthTable([p[0] for p in points], [p[1] for p in points])
        return cls(
            peak_gbps=simulator.pcie.raw_gbps,
            contiguous=table,
            strided=table,
            name=name,
        )

    @classmethod
    def flat(cls, peak_gbps: float, efficiency: float = 1.0, name: str = "flat") -> "SustainedBandwidthModel":
        """A degenerate model with no size/pattern dependence.

        Used by the ablation experiment that quantifies what ignoring the
        empirical model costs in throughput-estimation accuracy.
        """
        table = BandwidthTable([1.0, 1e12], [peak_gbps * efficiency] * 2)
        return cls(peak_gbps=peak_gbps, contiguous=table, strided=table, name=name)
