"""Models of abstraction in the TyTra framework (paper §III).

The cost model reasons about designs through six structured abstractions,
largely adopted from the OpenCL standard where possible:

1. **Platform model** (:mod:`repro.models.platform`) — host, compute
   device, compute units, processing elements (kernel pipelines) and the
   stream-control block.
2. **Memory hierarchy model** (:mod:`repro.models.memory`) — global /
   constant (device DRAM), local (on-chip block RAM) and private
   (registers) memories with their OpenCL address-space numbers.
3. **Execution model** (:mod:`repro.models.execution`) — kernels,
   work-items, work-groups, NDRanges and the *kernel-instance* against
   which throughput (EKIT) is defined.
4. **Design-space model** (:mod:`repro.models.design_space`) — the C0–C6
   configuration classes of Figure 5 spanned by pipeline parallelism,
   thread parallelism and degree of re-use.
5. **Memory execution model** (:mod:`repro.models.memory_execution`) —
   forms A, B and C describing how data traverses the memory hierarchy
   across kernel-instance iterations (Figure 6).
6. **Streaming data-pattern model** (:mod:`repro.models.streaming`) —
   contiguous vs. strided access and its effect on sustained bandwidth.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.models.platform": (
        "ComputeUnit", "PlatformModel", "ProcessingElement", "StreamControl",
    ),
    "repro.models.memory": ("AddressSpace", "MemoryHierarchy", "MemoryLevel"),
    "repro.models.execution": ("KernelInstance", "NDRange", "WorkGroup"),
    "repro.models.design_space": (
        "ConfigurationClass", "DesignPoint", "classify_design_point",
    ),
    "repro.models.memory_execution": (
        "MemoryExecutionForm", "select_memory_execution_form",
    ),
    "repro.models.streaming": ("AccessPattern", "PatternKind"),
})

__all__ = [
    "PlatformModel",
    "ComputeUnit",
    "ProcessingElement",
    "StreamControl",
    "AddressSpace",
    "MemoryLevel",
    "MemoryHierarchy",
    "NDRange",
    "WorkGroup",
    "KernelInstance",
    "ConfigurationClass",
    "DesignPoint",
    "classify_design_point",
    "MemoryExecutionForm",
    "select_memory_execution_form",
    "AccessPattern",
    "PatternKind",
]
