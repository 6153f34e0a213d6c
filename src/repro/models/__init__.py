"""Models of abstraction in the TyTra framework (paper §III).

The paper reasons about designs through six structured abstractions,
largely adopted from the OpenCL standard where possible. Five of them
live here. The sixth, the platform model (host, compute device, compute
units, processing elements and the stream-control block), has no class
of its own: the configuration tree (:mod:`repro.compiler.analysis`)
carries the lanes of kernel pipelines, the device records
(:mod:`repro.substrate.fpga_device`) carry the device, and the resource
model costs the stream control.

1. **Memory hierarchy model** (:mod:`repro.models.memory`) — global /
   constant (device DRAM), local (on-chip block RAM) and private
   (registers) memories with their OpenCL address-space numbers.
2. **Execution model** (:mod:`repro.models.execution`) — kernels,
   work-items, NDRanges and the *kernel-instance* against which
   throughput (EKIT) is defined.
3. **Design-space model** (:mod:`repro.models.design_space`) — the C0–C6
   configuration classes of Figure 5 spanned by pipeline parallelism,
   thread parallelism and degree of re-use.
4. **Memory execution model** (:mod:`repro.models.memory_execution`) —
   forms A, B and C describing how data traverses the memory hierarchy
   across kernel-instance iterations (Figure 6).
5. **Streaming data-pattern model** (:mod:`repro.models.streaming`) —
   contiguous vs. strided access and its effect on sustained bandwidth.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.models.memory": ("AddressSpace", "MemoryHierarchy", "MemoryLevel"),
    "repro.models.execution": ("KernelInstance", "NDRange"),
    "repro.models.design_space": (
        "ConfigurationClass", "DesignPoint", "classify_design_point",
    ),
    "repro.models.memory_execution": (
        "MemoryExecutionForm", "select_memory_execution_form",
    ),
    "repro.models.streaming": ("AccessPattern", "PatternKind"),
})
