#!/usr/bin/env python3
"""Design-space exploration of the SOR kernel (the Figure-15 experiment).

Starting from the baseline functional program, the ``reshapeTo`` type
transformation generates variants with 1..16 parallel kernel lanes.  Each
variant is lowered to TyTra-IR and costed; the script prints the resource
utilisation and throughput (EWGT) per lane count, and reports where the
communication and computation walls appear.

Run with:  python examples/sor_design_space.py [--device small|stratix-v]
"""

import argparse

from repro.compiler import CompilationOptions
from repro.explore import (
    CostJob,
    DesignSpace,
    ExplorationEngine,
    generate_lane_variants,
    roofline_analysis,
)
from repro.kernels import SORKernel
from repro.substrate import get_device


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--device", default="small",
                        help="FPGA target (the small device makes the walls visible)")
    parser.add_argument("--grid", type=int, default=16, help="grid elements per dimension")
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--max-lanes", type=int, default=16)
    args = parser.parse_args()

    kernel = SORKernel()
    device = get_device(args.device)
    grid = (args.grid, args.grid, args.grid)
    options = CompilationOptions(device=device)

    variants = generate_lane_variants(kernel, grid=grid, iterations=args.iterations,
                                      max_lanes=args.max_lanes)
    result = ExplorationEngine().cost_many(
        [CostJob.from_variant(variant, options) for variant in variants])
    reports = {entry.point.lanes: entry.report for entry in result.entries}
    best = result.best()

    print(f"SOR variant sweep on {device.name} (grid {grid}, {args.iterations} iterations)")
    header = (f"{'lanes':>5} {'EWGT/s':>12} {'ALUT%':>7} {'REG%':>7} {'BRAM%':>7} "
              f"{'DSP%':>6} {'limiting factor':>18} {'fits':>5}")
    print(header)
    print("-" * len(header))
    for row in result.summary_rows():
        print(f"{row['lanes']:>5} {row['ewgt_per_s']:>12.1f} {row['alut_pct']:>7.2f} "
              f"{row['reg_pct']:>7.2f} {row['bram_pct']:>7.2f} {row['dsp_pct']:>6.2f} "
              f"{row['limiting_factor']:>18} {'yes' if row['feasible'] else 'NO':>5}")

    walls = [row["lanes"] for row in result.summary_rows() if not row["feasible"]]
    if walls:
        print(f"\ncomputation wall: the design no longer fits beyond {walls[0] - 1} lane(s)")
    print(f"best feasible variant: {best.point.lanes if best else None} lane(s)")
    print(f"total estimation time for {result.evaluated} variants: "
          f"{result.estimation_seconds:.3f} s")

    print("\nroofline view (operations per byte vs attainable GOP/s):")
    for point in roofline_analysis(reports, ops_per_item=kernel.ops_per_item):
        print(f"  {point.lanes:>2} lanes: OI={point.operational_intensity:5.2f} op/B  "
              f"attainable={point.attainable_gops:7.3f} GOP/s  "
              f"(compute roof {point.compute_roof_gops:7.3f}, "
              f"bandwidth roof {point.bandwidth_roof_gops:7.3f}, {point.bound}-bound)")

    # ---- multi-axis exploration: lanes x clock frequency --------------------
    space = DesignSpace(
        kernel=kernel,
        grid=grid,
        iterations=args.iterations,
        max_lanes=args.max_lanes,
        clocks_mhz=(100.0, 150.0, 200.0),
        devices=(device,),
    )
    sweep = ExplorationEngine().explore(space)
    print(f"\nmulti-axis sweep: {len(space)} points over axes {space.active_axes} "
          f"({sweep.variants_per_second:.1f} variants/s)")
    for entry in sweep.pareto_frontier():
        report = entry.report
        print(f"  pareto: {entry.point.label}  EKIT {report.ekit:.1f}/s, "
              f"worst utilisation "
              f"{report.feasibility.limiting_resource_utilization * 100:.1f}%")
    best = sweep.best()
    if best is not None:
        print(f"best feasible point overall: {best.point.label}")


if __name__ == "__main__":
    main()
