"""CPU baseline execution model.

The case study of §VII compares FPGA solutions against a Fortran CPU
implementation compiled with ``gcc -O2`` on a 1.6 GHz Intel i7.  The
reproduction replaces those measured runtimes with a roofline-style CPU
execution model: per kernel iteration the runtime is the larger of the
compute time (operations at an effective scalar issue rate) and the memory
time (bytes at the sustainable memory bandwidth, once the working set
spills out of the last-level cache).

The absolute figures are representative of the machine the paper used;
Figures 17 and 18 are normalised against this baseline so only relative
shapes matter, but the crossovers (FPGA slower at tiny grids, much faster
at large ones) emerge from the same mechanism as on real hardware.
"""

from __future__ import annotations

from repro import record

__all__ = ["CPUModel", "CPURunEstimate"]


@record(frozen=True)
class CPURunEstimate:
    """Runtime breakdown for a CPU execution."""

    seconds: float
    compute_seconds: float
    memory_seconds: float
    per_iteration_overhead_seconds: float

    @property
    def bound(self) -> str:
        return "compute" if self.compute_seconds >= self.memory_seconds else "memory"


@record
class CPUModel:
    """Single-socket CPU execution model (gcc -O2 style scalar code).

    Attributes
    ----------
    frequency_ghz:
        Core clock.  The paper's host is an Intel i7 at 1.6 GHz.
    ops_per_cycle:
        Sustained arithmetic operations per cycle for compiled scalar
        stencil code (includes the effect of loop overhead, address
        arithmetic and stalls).
    memory_bandwidth_gbps:
        Sustainable DRAM bandwidth from a single core.
    llc_bytes:
        Last-level cache size; working sets below this run from cache and
        do not pay the DRAM bandwidth cost.
    cache_bandwidth_gbps:
        Bandwidth when the working set is cache resident.
    threads:
        Number of worker threads (1 for the paper's baseline).
    per_call_overhead_us:
        Loop/setup overhead per kernel call (per outer iteration).
    """

    name: str = "intel-i7-1.6GHz"
    frequency_ghz: float = 1.6
    ops_per_cycle: float = 1.4
    memory_bandwidth_gbps: float = 10.0
    llc_bytes: int = 8 << 20
    cache_bandwidth_gbps: float = 60.0
    threads: int = 1
    per_call_overhead_us: float = 5.0

    def estimate_iteration(
        self,
        n_items: int,
        ops_per_item: float,
        bytes_per_item: float,
        working_set_bytes: int | None = None,
    ) -> CPURunEstimate:
        """Estimate one kernel call (one pass over the NDRange)."""
        if n_items <= 0:
            raise ValueError("n_items must be positive")
        total_ops = n_items * ops_per_item
        total_bytes = n_items * bytes_per_item
        working_set = working_set_bytes if working_set_bytes is not None else total_bytes

        compute_s = total_ops / (self.frequency_ghz * 1e9 * self.ops_per_cycle * self.threads)
        bandwidth = (
            self.cache_bandwidth_gbps
            if working_set <= self.llc_bytes
            else self.memory_bandwidth_gbps
        )
        memory_s = total_bytes / (bandwidth * 1e9)
        overhead_s = self.per_call_overhead_us * 1e-6
        return CPURunEstimate(
            seconds=max(compute_s, memory_s) + overhead_s,
            compute_seconds=compute_s,
            memory_seconds=memory_s,
            per_iteration_overhead_seconds=overhead_s,
        )

    def estimate_application(
        self,
        n_items: int,
        ops_per_item: float,
        bytes_per_item: float,
        iterations: int,
        working_set_bytes: int | None = None,
    ) -> float:
        """Total seconds for ``iterations`` kernel calls."""
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        one = self.estimate_iteration(n_items, ops_per_item, bytes_per_item, working_set_bytes)
        return iterations * one.seconds
