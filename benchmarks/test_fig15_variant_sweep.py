"""Experiment E3 — Figure 15: evaluating SOR lane variants with the cost model.

The paper sweeps the number of SOR kernel pipelines (lanes) and plots, for
each variant, the percentage utilisation of every resource, the host and
device-DRAM bandwidth demands, and the throughput (EWGT).  Three walls
structure the figure:

* a **host communication wall** around 4 lanes when the data crosses the
  PCIe link every kernel instance (form A);
* a **computation wall** around 6 lanes, where the device runs out of
  resources;
* a **DRAM communication wall** around 16 lanes when the data is staged in
  device global memory (form B).

The device used for the sweep is a small reference target (documented in
DESIGN.md) sized so that the walls appear at the paper's lane counts; the
paper's own figure likewise expresses utilisation relative to an
unspecified resource budget.
"""

import pytest

from repro.compiler import CompilationOptions, TybecCompiler
from repro.cost.throughput import LimitingFactor, estimate_throughput
from repro.explore import (
    CostJob,
    ExplorationEngine,
    SerialBackend,
    generate_lane_variants,
)
from repro.kernels import SORKernel
from repro.models import MemoryExecutionForm
from repro.substrate import FPGADevice

from .conftest import format_table

#: reference target for the sweep: sized so the computation wall falls at
#: ~6 lanes, the host wall at ~4 and the DRAM wall at ~16 (see DESIGN.md)
FIG15_DEVICE = FPGADevice(
    name="fig15-reference-device",
    family="stratix-v",
    vendor="altera",
    aluts=4_200,
    registers=9_000,
    bram_bits=2_300_000,
    dsps=32,
    fmax_mhz=150.0,
    dram_bytes=2 << 30,
    dram_peak_gbps=43.2,
    host_peak_gbps=5.4,
    pcie_lanes=8,
    pcie_gen=2,
)

GRID = (96, 96, 96)
LANE_COUNTS = [1, 2, 3, 4, 6, 8, 12, 16]
ITERATIONS = 10


@pytest.fixture(scope="module")
def compiler():
    c = TybecCompiler(CompilationOptions(device=FIG15_DEVICE, form=MemoryExecutionForm.B))
    _ = c.cost_db, c.dram_bandwidth, c.host_bandwidth
    return c


@pytest.fixture(scope="module")
def variants():
    return generate_lane_variants(SORKernel(), grid=GRID, iterations=ITERATIONS,
                                  lane_counts=LANE_COUNTS)


def _sweep(compiler, variants):
    engine = ExplorationEngine(SerialBackend(pipeline=compiler))
    return engine.cost_many([CostJob.from_variant(v, compiler.options) for v in variants])


def test_fig15_variant_sweep(benchmark, compiler, variants, write_result):
    result = benchmark.pedantic(_sweep, args=(compiler, variants), rounds=1, iterations=1)

    # form-A estimates for the same variants (host transfer every instance)
    ewgt_form_a = {}
    for record in variants:
        variant = compiler.analyze(record.module)
        params, _ = compiler.extract_parameters(variant, record.workload)
        ewgt_form_a[record.lanes] = estimate_throughput(params, MemoryExecutionForm.A).ewgt

    rows = []
    for row in result.summary_rows():
        lanes = row["lanes"]
        rows.append([
            lanes,
            round(row["alut_pct"], 1), round(row["reg_pct"], 1),
            round(row["bram_pct"], 1), round(row["dsp_pct"], 1),
            round(ewgt_form_a[lanes], 1), round(row["ewgt_per_s"], 1),
            row["limiting_factor"], "yes" if row["feasible"] else "NO",
        ])
    write_result(
        "fig15_variant_sweep",
        format_table(
            ["lanes", "ALUT%", "REG%", "BRAM%", "DSP%",
             "EWGT/s (form A)", "EWGT/s (form B)", "limiting (B)", "fits"],
            rows,
            title=f"Figure 15: SOR lane-variant sweep on {FIG15_DEVICE.name} "
                  f"(grid {GRID}, {ITERATIONS} kernel iterations)",
        ),
    )

    reports = {entry.point.lanes: entry.report for entry in result.entries}

    # --- resource utilisation grows linearly with lanes -----------------------
    util = {l: reports[l].utilization["alut"] for l in LANE_COUNTS}
    assert util[4] == pytest.approx(4 * util[1], rel=0.15)

    # --- computation wall around 6 lanes --------------------------------------
    feasible = [l for l in LANE_COUNTS if reports[l].feasibility.fits_resources]
    assert max(feasible) in (4, 6, 8)
    assert not reports[12].feasibility.fits_resources
    assert not reports[16].feasibility.fits_resources

    # --- host communication wall around 4 lanes (form A) ------------------------
    assert ewgt_form_a[2] > ewgt_form_a[1] * 1.3          # still scaling early
    assert ewgt_form_a[16] / ewgt_form_a[4] < 1.5          # saturated past the wall
    assert ewgt_form_a[16] / ewgt_form_a[8] < 1.15

    # --- DRAM communication wall only at much higher lane counts (form B) -------
    ewgt_form_b = {l: reports[l].throughput.ewgt for l in LANE_COUNTS}
    assert ewgt_form_b[8] > ewgt_form_b[4] * 1.4           # form B still scales at 8
    assert ewgt_form_b[16] / ewgt_form_b[12] < 1.25        # ... and saturates by ~16
    assert reports[16].limiting_factor in (
        LimitingFactor.DRAM_BANDWIDTH, LimitingFactor.COMPUTE
    )
    # the wall moves out by roughly the host:DRAM bandwidth ratio
    assert all(ewgt_form_b[l] >= ewgt_form_a[l] * 0.99 for l in LANE_COUNTS)

    # --- the estimator remains fast across the whole sweep -----------------------
    assert result.estimation_seconds < 2.0
