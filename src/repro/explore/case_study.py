"""The §VII case study: TyTra-generated SOR vs a commercial HLS flow vs CPU.

The paper integrates the HDL generated by the TyTra back-end compiler into
the Maxeler flow and compares three implementations of the SOR kernel over
a range of grid sizes (24 to 192 elements per dimension, 1000 kernel
iterations):

* ``cpu``        — the original Fortran implementation compiled with
  ``gcc -O2`` on the host (an Intel i7 at 1.6 GHz);
* ``fpga-maxJ``  — a straightforward Maxeler implementation: a single
  kernel pipeline with the pipeline parallelism the HLS compiler extracts
  automatically;
* ``fpga-tytra`` — the TyTra-selected variant: four thread-parallel lanes
  in addition to pipeline parallelism.

Figure 17 reports runtime and Figure 18 the increase over idle energy,
both normalised to the CPU solution.  This module reproduces those
experiments on the simulated substrates; the absolute seconds and joules
are model outputs, but the qualitative shape — FPGA overheads dominating
at the smallest grid, ``fpga-tytra`` overtaking both alternatives from
mid-sized grids, ``fpga-maxJ`` remaining slower than the CPU even at large
grids, and the large energy advantage of the FPGA solutions — follows from
the same mechanisms as on the real hardware.
"""

from __future__ import annotations

from repro import record
from repro.explore.engine import ExplorationEngine
from repro.explore.space import CostJob, DesignPoint
from repro.kernels.sor import SORKernel
from repro.substrate.cpu_baseline import CPUModel
from repro.substrate.fpga_device import FPGADevice, MAIA_STRATIX_V_GSD8
from repro.substrate.hls_baseline import BaselineHLSFlow
from repro.substrate.power import NodePowerModel

__all__ = ["CaseStudyPoint", "CaseStudyConfig", "run_sor_case_study"]


@record(frozen=True)
class CaseStudyPoint:
    """Runtimes and energies of the three implementations for one grid size."""

    grid_side: int
    iterations: int
    cpu_seconds: float
    maxj_seconds: float
    tytra_seconds: float
    cpu_delta_energy_j: float
    maxj_delta_energy_j: float
    tytra_delta_energy_j: float

    # -- normalised views (the y axes of Figures 17 and 18) ----------------
    @property
    def runtime_normalised(self) -> dict[str, float]:
        return {
            "cpu": 1.0,
            "fpga-maxJ": self.maxj_seconds / self.cpu_seconds,
            "fpga-tytra": self.tytra_seconds / self.cpu_seconds,
        }

    @property
    def energy_normalised(self) -> dict[str, float]:
        return {
            "cpu": 1.0,
            "fpga-maxJ": self.maxj_delta_energy_j / self.cpu_delta_energy_j,
            "fpga-tytra": self.tytra_delta_energy_j / self.cpu_delta_energy_j,
        }

    @property
    def tytra_speedup_vs_cpu(self) -> float:
        return self.cpu_seconds / self.tytra_seconds

    @property
    def tytra_speedup_vs_maxj(self) -> float:
        return self.maxj_seconds / self.tytra_seconds

    @property
    def tytra_energy_gain_vs_cpu(self) -> float:
        return self.cpu_delta_energy_j / self.tytra_delta_energy_j

    @property
    def tytra_energy_gain_vs_maxj(self) -> float:
        return self.maxj_delta_energy_j / self.tytra_delta_energy_j

    def as_dict(self) -> dict:
        return {
            "grid_side": self.grid_side,
            "iterations": self.iterations,
            "cpu_seconds": self.cpu_seconds,
            "maxj_seconds": self.maxj_seconds,
            "tytra_seconds": self.tytra_seconds,
            "runtime_normalised": self.runtime_normalised,
            "energy_normalised": self.energy_normalised,
        }


@record
class CaseStudyConfig:
    """Calibration of the case-study setup (documented model inputs).

    The CPU figure models ``gcc -O2`` scalar code with modest instruction
    level parallelism on the paper's 1.6 GHz i7; the HLS baseline clock is
    derated as vendor flows typically close timing below the device's
    streaming-pipeline fmax; the TyTra variant uses four lanes as selected
    in the paper.
    """

    device: FPGADevice = MAIA_STRATIX_V_GSD8
    lanes: int = 4
    iterations: int = 1000
    cpu: CPUModel = None
    power: NodePowerModel = None
    #: per-call stream set-up overhead applied to the TyTra design (it
    #: handles ``lanes`` times more streams per array than the baseline —
    #: the effect the paper observes at small grid sizes)
    per_stream_overhead_s: float = 18e-6
    per_call_overhead_s: float = 120e-6

    def __post_init__(self) -> None:
        if self.cpu is None:
            self.cpu = CPUModel(name="intel-i7-1.6GHz", frequency_ghz=1.6, ops_per_cycle=2.4)
        if self.power is None:
            self.power = NodePowerModel()


def run_sor_case_study(
    grid_sides: tuple[int, ...] = (24, 48, 96, 144, 192),
    config: CaseStudyConfig | None = None,
    engine: ExplorationEngine | None = None,
) -> list[CaseStudyPoint]:
    """Run the full case study and return one record per grid size.

    The TyTra and single-lane (maxJ-equivalent) variants of every grid
    size are costed as one batch through the exploration engine, so the
    per-device calibration is shared and a parallel backend can spread the
    estimations over worker processes.
    """
    config = config or CaseStudyConfig()
    kernel = SORKernel()
    engine = engine or ExplorationEngine()
    hls = BaselineHLSFlow(config.device)
    profile = kernel.cpu_profile()

    # ---- cost every FPGA variant (2 per grid size) in one batch ----------
    jobs: list[CostJob] = []
    for side in grid_sides:
        grid = (side, side, side)
        workload = kernel.workload(grid, config.iterations)
        for lanes in (config.lanes, 1):
            point = DesignPoint(
                kernel=kernel.name,
                lanes=lanes,
                grid=grid,
                iterations=config.iterations,
                device=config.device,
            )
            jobs.append(
                CostJob(
                    point=point,
                    module=kernel.build_module(lanes=lanes, grid=grid),
                    workload=workload,
                )
            )
    sweep = engine.cost_many(jobs)
    reports = {
        (entry.point.grid[0], entry.point.lanes): entry.report for entry in sweep.entries
    }

    points: list[CaseStudyPoint] = []
    for side in grid_sides:
        grid = (side, side, side)
        n_items = side ** 3

        # ---- CPU baseline -------------------------------------------------
        cpu_seconds = config.cpu.estimate_application(
            n_items=n_items,
            ops_per_item=profile["ops_per_item"],
            bytes_per_item=profile["bytes_per_item"],
            iterations=config.iterations,
            working_set_bytes=int(n_items * profile["bytes_per_item"]),
        )

        # ---- fpga-maxJ: single-pipeline HLS baseline ------------------------
        chars = kernel.hls_characteristics(grid)
        maxj_seconds, _ = hls.estimate_runtime(chars, n_items, config.iterations)

        # ---- fpga-tytra: the 4-lane TyTra variant ---------------------------
        report = reports[(side, config.lanes)]
        streams_per_call = config.lanes * kernel.spec().words_per_item
        tytra_call_overhead = (
            config.per_call_overhead_s + streams_per_call * config.per_stream_overhead_s
        )
        tytra_seconds = (
            report.throughput.application_time_s + config.iterations * tytra_call_overhead
        )

        # ---- energies (increase over idle, as measured in the paper) --------
        power = config.power
        cpu_energy = power.cpu_energy("cpu", cpu_seconds).delta_energy_j

        maxj_report = reports[(side, 1)]
        maxj_energy = power.fpga_energy(
            "fpga-maxJ", maxj_seconds, maxj_report.usage, config.device
        ).delta_energy_j
        tytra_energy = power.fpga_energy(
            "fpga-tytra", tytra_seconds, report.usage, config.device
        ).delta_energy_j

        points.append(
            CaseStudyPoint(
                grid_side=side,
                iterations=config.iterations,
                cpu_seconds=cpu_seconds,
                maxj_seconds=maxj_seconds,
                tytra_seconds=tytra_seconds,
                cpu_delta_energy_j=cpu_energy,
                maxj_delta_energy_j=maxj_energy,
                tytra_delta_energy_j=tytra_energy,
            )
        )
    return points
