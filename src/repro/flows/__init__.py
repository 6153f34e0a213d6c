"""Flow orchestration: from generated Verilog back to the cost model.

The estimate → cycle-sim → validate triangle of PRs 1–4 never executed
the HDL the compiler emits; this package closes that loop in the style of
the xeda flow-automation framework — declarative
:class:`~repro.flows.base.Flow`/:class:`~repro.flows.base.SimFlow`/
:class:`~repro.flows.base.SynthFlow` classes with managed run
directories, artifact manifests and content-keyed result caching — on
top of a dependency-free pure-Python RTL backend (parser, structural
netlist, cycle simulator) plus optional iverilog/verilator/yosys
adapters discovered on PATH.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.flows.base": (
        "Flow", "FlowResult", "FlowSettings", "SimFlow", "SynthFlow",
    ),
    "repro.flows.flows": (
        "FLOW_CLASSES", "ElaborateFlow", "IcarusSimFlow", "RTLSimFlow",
        "VerilatorLintFlow", "YosysSynthFlow", "default_sim_flow",
    ),
    "repro.flows.netlist": (
        "ElaborationError", "Netlist", "NetlistSimulator", "elaborate",
        "lint_module", "lint_source",
    ),
    "repro.flows.refmodel": (
        "ReferenceResult", "kernel_stimulus", "reference_outputs",
    ),
    "repro.flows.rtlsim": (
        "RTLSimOutcome", "RTLSimulationError", "compare_outcome",
        "simulate_stream",
    ),
    "repro.flows.suite": (
        "DEFAULT_MAX_ITEMS", "FLOW_SCHEMA", "FlowReport", "FlowSuiteRun",
        "check_flow_goldens", "flow_golden_dir", "kernel_verilog_bundle",
        "record_flow_goldens", "record_verilog_snapshots", "run_flow_suite",
        "run_golden_flows", "verilog_snapshot_dir",
    ),
    "repro.flows.tools": (
        "ToolUnavailableError", "find_tool",
    ),
    "repro.flows.verilog": (
        "VerilogModule", "VerilogParseError", "parse_module_text",
        "parse_modules",
    ),
})
