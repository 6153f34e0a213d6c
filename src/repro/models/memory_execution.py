"""Memory-execution model (paper §III-5, Figure 6).

A host–device application can traverse the memory hierarchy in different
ways as multiple kernel instances are executed, and this strongly affects
performance, so the cost model distinguishes three forms:

* **Form A** — every kernel instance requires the full NDRange data set to
  be transported between the host and the device DRAM.  The host transfer
  cost is paid ``NKI`` times.
* **Form B** — data is moved to/from device global memory only once by the
  host; all kernel-instance iterations then stream from device DRAM.  The
  paper expects this to be the common case for real scientific
  applications.
* **Form C** — the NDRange data fits inside the device's local memory
  (on-chip block RAM); after an initial load, every iteration streams from
  on-chip memory and the execution is always compute bound.

The throughput expressions of the cost model (Equations 1-3) differ per
form; :func:`select_memory_execution_form` chooses the appropriate form
for a workload from its footprint and the device's memory capacities.
"""

from __future__ import annotations

from enum import Enum

from repro import record
from repro.models.memory import MemoryHierarchy

__all__ = ["MemoryExecutionForm", "select_memory_execution_form", "FormSelection"]


class MemoryExecutionForm(str, Enum):
    """The three memory-execution scenarios of Figure 6."""

    A = "A"
    B = "B"
    C = "C"

    @property
    def description(self) -> str:
        return {
            MemoryExecutionForm.A: (
                "host <-> device-DRAM transfer for every kernel instance"
            ),
            MemoryExecutionForm.B: (
                "single host transfer; kernel instances stream from device DRAM"
            ),
            MemoryExecutionForm.C: (
                "data resident in on-chip local memory; compute bound"
            ),
        }[self]

    @property
    def host_transfer_repetitions(self) -> str:
        """How often the host transfer cost is paid (documentation helper)."""
        return {"A": "every kernel instance", "B": "once", "C": "once"}[self.value]


@record(frozen=True)
class FormSelection:
    """Outcome of form selection, with the reasoning captured for reports."""

    form: MemoryExecutionForm
    footprint_bytes: int
    reason: str

    def __init__(self, form, footprint_bytes, reason) -> None:
        put = object.__setattr__
        put(self, "form", form)
        put(self, "footprint_bytes", footprint_bytes)
        put(self, "reason", reason)


def select_memory_execution_form(
    footprint_bytes: int,
    memory: MemoryHierarchy,
    *,
    host_resident: bool = False,
    local_memory_reserved_fraction: float = 0.5,
) -> FormSelection:
    """Choose the memory-execution form for a workload.

    Parameters
    ----------
    footprint_bytes:
        Total bytes of the kernel-instance data set (all input and output
        arrays of the NDRange).
    memory:
        The device memory hierarchy.
    host_resident:
        Force form A — the application insists the data lives on the host
        between kernel instances (e.g. it is consumed/produced there every
        iteration).
    local_memory_reserved_fraction:
        Fraction of on-chip block RAM assumed unavailable to data (used by
        offset buffers, FIFOs and the HLS base platform), so form C is only
        selected when the data comfortably fits.
    """
    if footprint_bytes <= 0:
        raise ValueError("footprint_bytes must be positive")

    if host_resident:
        return FormSelection(
            MemoryExecutionForm.A,
            footprint_bytes,
            "data must return to the host after every kernel instance",
        )

    local = memory.local_memory
    usable_local = int(local.capacity_bytes * (1.0 - local_memory_reserved_fraction))
    if footprint_bytes <= usable_local:
        return FormSelection(
            MemoryExecutionForm.C,
            footprint_bytes,
            f"footprint fits in on-chip local memory ({footprint_bytes} <= {usable_local} B)",
        )

    global_mem = memory.global_memory
    if footprint_bytes <= global_mem.capacity_bytes:
        return FormSelection(
            MemoryExecutionForm.B,
            footprint_bytes,
            f"footprint fits in device DRAM ({footprint_bytes} <= {global_mem.capacity_bytes} B)",
        )

    return FormSelection(
        MemoryExecutionForm.A,
        footprint_bytes,
        "footprint exceeds device DRAM; data must be streamed from the host",
    )
