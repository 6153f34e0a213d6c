"""HDL and HLS-framework code generation.

``verilog``
    Emits synthesizeable Verilog for the scheduled kernel pipelines,
    offset buffers and the lane-replicated compute unit.

``wrapper``
    Emits the integration glue the paper describes for the Maxeler flow: a
    MaxJ-style wrapper kernel for the custom HDL block plus a host-side
    API stub (Figure 16's division of labour).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.compiler.codegen.verilog": ("VerilogGenerator",),
    "repro.compiler.codegen.wrapper": (
        "generate_host_stub", "generate_maxj_wrapper",
    ),
    "repro.compiler.codegen.testbench": ("generate_testbench",),
})
