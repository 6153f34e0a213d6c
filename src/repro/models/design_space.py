"""The TyTra-FPGA design-space abstraction (paper §III-4, Figure 5).

The design space is spanned by three axes:

* **pipeline parallelism** — medium-grained parallelism by pipelining loop
  iterations;
* **thread parallelism** — replicating the pipeline lane (or vectorising);
* **degree of re-use** — folding the kernel onto fewer functional units
  when it is too large to fit spatially, up to full instruction-processor
  style execution and run-time reconfiguration.

The named configuration classes of Figure 5 are:

=====  ==========================================================
class  meaning
=====  ==========================================================
C0     anywhere in the design space (unconstrained)
C1     replicated pipeline lanes (x-y plane): thread + pipeline
       parallelism, fine-grained ILP presumed within each lane
C2     a single pipelined kernel lane
C3     vectorised loops (medium-grained) or pure thread
       parallelism without pipelining
C4     scalar instruction processor (full re-use, no parallelism)
C5     vector instruction processor (re-use + vectorisation)
C6     run-time reconfiguration (kernel does not fit at once)
=====  ==========================================================

The paper expects C1 to be the preferred route for most small to medium
sized HPC kernels, and this is what the TyTra compiler's supported
configurations (Figure 7) target.
"""

from __future__ import annotations

from enum import Enum

from repro import record

__all__ = ["ConfigurationClass", "DesignPoint", "classify_design_point"]


class ConfigurationClass(str, Enum):
    """Named regions of the TyTra design space (Figure 5)."""

    C0 = "C0"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6 = "C6"

    @property
    def description(self) -> str:
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    ConfigurationClass.C0: "anywhere in the design space",
    ConfigurationClass.C1: "replicated pipeline lanes (thread + pipeline parallelism)",
    ConfigurationClass.C2: "single pipelined kernel lane",
    ConfigurationClass.C3: "vectorised loops or thread parallelism without pipelining",
    ConfigurationClass.C4: "scalar instruction processor (full re-use)",
    ConfigurationClass.C5: "vector instruction processor",
    ConfigurationClass.C6: "run-time reconfiguration",
}


@record(frozen=True)
class DesignPoint:
    """Coordinates of a design variant in the TyTra design space.

    Attributes
    ----------
    pipelined:
        True when loop iterations are pipelined through a datapath
        (``pipe`` functions).
    lanes:
        Number of replicated kernel lanes — the thread-parallelism axis
        (``KNL``).
    vectorization:
        Degree of vectorisation within a lane (``DV``).
    reuse_factor:
        Degree of re-use: 1 means fully spatial; greater than 1 means
        functional units are time-multiplexed (``NTO`` rises with it);
        ``float('inf')`` would be an instruction processor, modelled here
        by any value >= ``INSTRUCTION_PROCESSOR_REUSE``.
    reconfigurations:
        Number of run-time reconfigurations needed per kernel instance
        (0 for designs that fit on the device at once).
    """

    pipelined: bool = True
    lanes: int = 1
    vectorization: int = 1
    reuse_factor: int = 1
    reconfigurations: int = 0

    #: Re-use factor at and beyond which the design degenerates into an
    #: instruction-processor style configuration (C4/C5).
    INSTRUCTION_PROCESSOR_REUSE = 64

    def __post_init__(self) -> None:
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")
        if self.vectorization < 1:
            raise ValueError("vectorization must be >= 1")
        if self.reuse_factor < 1:
            raise ValueError("reuse_factor must be >= 1")
        if self.reconfigurations < 0:
            raise ValueError("reconfigurations must be >= 0")

    @property
    def parallel_work_items_per_cycle(self) -> float:
        """Upper bound on work-items retired per cycle across the device."""
        if not self.pipelined and self.reuse_factor > 1:
            return self.lanes * self.vectorization / self.reuse_factor
        return float(self.lanes * self.vectorization)


def classify_design_point(point: DesignPoint) -> ConfigurationClass:
    """Map a design point onto the named configuration classes of Figure 5."""
    if point.reconfigurations > 0:
        return ConfigurationClass.C6
    if point.reuse_factor >= DesignPoint.INSTRUCTION_PROCESSOR_REUSE:
        if point.vectorization > 1 or point.lanes > 1:
            return ConfigurationClass.C5
        return ConfigurationClass.C4
    if point.pipelined:
        if point.lanes > 1 or point.vectorization > 1:
            return ConfigurationClass.C1
        return ConfigurationClass.C2
    # not pipelined
    if point.lanes > 1 or point.vectorization > 1:
        return ConfigurationClass.C3
    if point.reuse_factor > 1:
        return ConfigurationClass.C4
    return ConfigurationClass.C0
