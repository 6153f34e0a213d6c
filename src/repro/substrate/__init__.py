"""Simulated hardware substrates.

The paper's empirical inputs come from vendor synthesis tools (Quartus /
Vivado / SDAccel), a PCIe FPGA board and a wall power meter.  None of these
are available to a pure-Python reproduction, so this package provides
simulated substrates that exercise the same code paths and exhibit the
same functional behaviour (see DESIGN.md §2 for the substitution table):

``fpga_device``
    Device descriptions (Stratix-V GSD8 / Maxeler Maia, Virtex-7 /
    ADM-PCIE-7V3, plus a small teaching device used for wall studies).

``synthesis``
    A synthetic synthesiser: first-principles technology mapping of each IR
    operator onto ALUTs/registers/BRAM/DSPs plus design-level elaboration.
    Provides both the one-time calibration data the cost model is fitted
    from (Figure 9) and the "actual" utilisation numbers of Table II.

``memory_sim``
    A transaction-level DRAM + PCIe simulator and a GPU-STREAM-style
    benchmark used to measure sustained bandwidth vs. size and contiguity
    (Figure 10).

``pipeline_sim``
    A cycle-accurate simulator of the streaming pipelines generated by the
    back-end compiler; provides the "actual" cycles-per-kernel-instance.

``power``
    Node power/energy model (Figure 18).

``hls_baseline`` / ``cpu_baseline``
    The comparison points of the case study (Figures 17-18): a MaxJ-like
    single-pipeline HLS flow and a CPU execution model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.substrate.fpga_device": (
        "DEVICES", "FPGADevice", "MAIA_STRATIX_V_GSD8", "SMALL_EDU_DEVICE",
        "VIRTEX7_ADM_PCIE_7V3", "get_device",
    ),
    "repro.substrate.synthesis": (
        "CalibrationDataset", "CalibrationPoint", "DesignNetlist",
        "NetlistOperator", "ResourceUsage", "SyntheticSynthesizer",
    ),
    "repro.substrate.memory_sim": (
        "DRAMConfig", "MemorySystemSimulator", "PCIeConfig",
        "StreamMeasurement",
    ),
    "repro.substrate.pipeline_sim": (
        "CYCLE_AGREEMENT_SLACK", "PipelineSimulator", "PipelineSpec",
        "SimulationDivergedError", "SimulationResult",
    ),
    "repro.substrate.power": ("NodePowerModel", "EnergyReport"),
    "repro.substrate.cpu_baseline": ("CPUModel", "CPURunEstimate"),
    "repro.substrate.hls_baseline": (
        "BaselineHLSFlow", "HLSKernelCharacteristics",
    ),
})
