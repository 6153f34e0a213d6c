"""Experiment E4 — Table II: estimated vs actual resources and cycles.

The paper validates the cost model on the integer versions of three HPC
kernels — Hotspot and LavaMD from Rodinia and the LES SOR kernel — by
comparing the estimates against the post-synthesis utilisation and the
measured cycles-per-kernel-instance.  Reported errors range from 0% to 13%
(most below ~7%).

Here the "actual" columns come from the synthetic synthesiser and the
cycle-accurate pipeline simulator (the documented substitutions for
Quartus/Vivado and the FPGA run); the benchmark regenerates the full table
and asserts that every error stays in the paper's band.
"""

import pytest

from repro.kernels import get_kernel

from .conftest import format_table

#: workloads used for the accuracy study (compute-bound, like the paper's)
KERNEL_GRIDS = {
    "hotspot": (64, 64),
    "lavamd": (16, 16, 16),
    "sor": (24, 24, 24),
}
#: kernel-instance repetitions; the paper's kernels are compute bound, so the
#: (amortised) host-transfer contribution to CPKI is negligible
ITERATIONS = 1000

#: acceptable relative errors (the paper's worst case is 13%, on a DSP count)
MAX_RELATIVE_ERROR = {
    "alut": 0.10,
    "reg": 0.12,
    "bram_bits": 0.05,
    "cpki": 0.20,
}
MAX_DSP_ABS_ERROR = 4


def _evaluate_kernel(compiler, name):
    kernel = get_kernel(name)
    grid = KERNEL_GRIDS[name]
    module = kernel.build_module(lanes=1, grid=grid)
    workload = kernel.workload(grid, ITERATIONS)
    report = compiler.cost(module, workload)
    variant = compiler.analyze(module)
    actual_resources = compiler.synthesize_actual(variant)
    actual_run = compiler.simulate_actual(variant, workload)
    return report, actual_resources, actual_run


def _error(estimated: float, actual: float) -> float:
    if actual == 0:
        return 0.0 if estimated == 0 else float("inf")
    return abs(estimated - actual) / actual


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_GRIDS))
def test_table2_per_kernel_accuracy(benchmark, maia_compiler, kernel_name):
    report, actual_resources, actual_run = benchmark.pedantic(
        _evaluate_kernel, args=(maia_compiler, kernel_name), rounds=1, iterations=1
    )

    est = report.usage
    est_cpki = report.throughput.cycles_per_kernel_instance
    act_cpki = actual_run.cycles_per_kernel_instance

    assert _error(est.alut, actual_resources.alut) <= MAX_RELATIVE_ERROR["alut"]
    assert _error(est.reg, actual_resources.reg) <= MAX_RELATIVE_ERROR["reg"]
    if actual_resources.bram_bits > 0:
        assert _error(est.bram_bits, actual_resources.bram_bits) <= MAX_RELATIVE_ERROR["bram_bits"]
    else:
        assert est.bram_bits == 0
    assert abs(est.dsp - actual_resources.dsp) <= MAX_DSP_ABS_ERROR
    assert _error(est_cpki, act_cpki) <= MAX_RELATIVE_ERROR["cpki"]


def test_table2_full_table(benchmark, maia_compiler, write_result):
    """Regenerate the whole of Table II and record it for EXPERIMENTS.md."""
    evaluations = benchmark.pedantic(
        lambda: {name: _evaluate_kernel(maia_compiler, name)
                 for name in ("hotspot", "lavamd", "sor")},
        rounds=1, iterations=1,
    )
    rows = []
    worst_error = 0.0
    for name in ("hotspot", "lavamd", "sor"):
        report, actual_resources, actual_run = evaluations[name]
        est = report.usage
        est_cpki = report.throughput.cycles_per_kernel_instance
        act_cpki = actual_run.cycles_per_kernel_instance
        for label, e, a in [
            ("ALUT", est.alut, actual_resources.alut),
            ("REG", est.reg, actual_resources.reg),
            ("BRAM(bits)", est.bram_bits, actual_resources.bram_bits),
            ("DSP", est.dsp, actual_resources.dsp),
            ("CPKI", est_cpki, actual_run.cycles_per_kernel_instance),
        ]:
            err = _error(e, a)
            if a > 0:
                worst_error = max(worst_error, err)
            rows.append([name, label, round(e, 1), round(float(a), 1),
                         f"{err * 100:.2f}%" if a else "n/a"])
        _ = act_cpki
    write_result(
        "table2_estimated_vs_actual",
        format_table(
            ["kernel", "quantity", "estimated", "actual", "error"],
            rows,
            title="Table II: estimated vs actual utilisation and cycles-per-kernel-instance "
                  "(\"actual\" = this repo's substrate/synthesis.py and pipeline "
                  "simulator, so this is a consistency check, not an external "
                  "validation)",
        ),
    )
    # the paper's worst error is 13%; allow a little slack for the simulated tools
    assert worst_error <= 0.20
