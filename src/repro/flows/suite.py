"""Suite-scale RTL flows: the whole kernel grid, one canonical report.

:func:`run_flow_suite` batches a :class:`~repro.suite.runner.SuiteConfig`
grid through the exploration engine (the costed sweep anchors the grid
and warms the family caches), reduces the kernel x device x form x lane
points to their unique *RTL families* (kernel, lanes, grid — the
coordinates that change the generated HDL or the stream it processes),
runs the pure-Python :class:`RTLSimFlow` on every family (optionally on
worker processes) and folds everything into a canonical, version-stamped
``repro-flow-report/1`` with the same determinism guarantees as the
suite and validation reports: sorted keys, no wall-clock fields,
integers everywhere.

The per-kernel goldens live in ``tests/golden/flows`` and are recorded /
checked exactly like the PR-2 suite goldens (``tybec suite record-golden
--flows``); the CI ``flow-smoke`` job re-runs the grid and gates on them.
"""

from __future__ import annotations

from pathlib import Path

from repro import record
from repro.compiler.codegen.testbench import DEFAULT_STIMULUS_SEED
from repro.explore.engine import SweepResult
from repro.flows.base import FlowSettings
from repro.flows.flows import RTLSimFlow
from repro.kernels import get_kernel
from repro.suite.diff import FieldDiff
from repro.suite.golden import (
    diff_kernel_goldens,
    golden_config,
    write_kernel_goldens,
)
from repro.suite.report import FLOW_SCHEMA, SuiteReport
from repro.suite.runner import SuiteConfig, WorkloadSuite, stage_map

__all__ = [
    "FLOW_SCHEMA",
    "DEFAULT_MAX_ITEMS",
    "FlowFamily",
    "FlowReport",
    "FlowSuiteRun",
    "run_flow_suite",
    "flow_golden_dir",
    "run_golden_flows",
    "record_flow_goldens",
    "check_flow_goldens",
    "verilog_snapshot_dir",
    "kernel_verilog_bundle",
    "record_verilog_snapshots",
]

#: cap on work items streamed per family; bounds RTL simulation time on
#: full-size grids while leaving tiny (golden) grids exact
DEFAULT_MAX_ITEMS = 512


@record(frozen=True)
class FlowFamily:
    """One unique RTL verification job: (kernel, lanes, grid) plus the
    per-lane stream length it is simulated with."""

    kernel: str
    lanes: int
    grid: tuple[int, ...]
    n_items: int
    seed: int

    @property
    def key(self) -> str:
        return f"l{self.lanes}"


class FlowReport(SuiteReport):
    """A canonical flow report (same shell as a suite report)."""

    @property
    def flow(self) -> dict:
        return self.payload.get("flow", {})

    def kernel_payload(self, name: str) -> dict:
        payload = super().kernel_payload(name)
        payload["flow"] = self.payload["flow"]
        return payload


@record
class FlowSuiteRun:
    """Outcome of one suite-scale flow run."""

    report: FlowReport
    #: kernel -> family key -> RTLSimFlow payload
    records: dict[str, dict[str, dict]]
    sweep: SweepResult
    #: wall seconds spent in the RTL flows alone (outside the report)
    flow_seconds: float
    #: aggregated per-stage wall seconds over every flow (empty on
    #: cache-served runs); outside the canonical report, like sweep stats
    stage_seconds: dict = None  # type: ignore[assignment]

    @property
    def families(self) -> int:
        return sum(len(records) for records in self.records.values())

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [
            (kernel, key)
            for kernel, records in self.records.items()
            for key, payload in records.items()
            if not payload.get("ok")
        ]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def simulated_items(self) -> int:
        return sum(payload.get("items", 0)
                   for records in self.records.values()
                   for payload in records.values())

    @property
    def items_per_second(self) -> float:
        if self.flow_seconds <= 0:
            return 0.0
        return self.simulated_items / self.flow_seconds

    @property
    def families_per_second(self) -> float:
        if self.flow_seconds <= 0:
            return 0.0
        return self.families / self.flow_seconds


def _family_payload(family: FlowFamily) -> tuple[dict, dict]:
    """Worker entry point: verify one RTL family (pure function).

    Returns ``(payload, stage_seconds)`` — the payload is deterministic,
    the stage timings are measurement and stay out of the report.
    """
    module = get_kernel(family.kernel).build_module(
        lanes=family.lanes, grid=family.grid)
    flow = RTLSimFlow(
        module,
        FlowSettings(n_items=family.n_items, seed=family.seed),
    )
    result = flow.run()
    return result.payload, dict(result.stage_seconds or {})


def _families_for(config: SuiteConfig, name: str, entries, seed: int,
                  max_items: int) -> list[FlowFamily]:
    workload = config.workload_for(name)
    lanes = sorted({entry.point.lanes for entry in entries})
    families = []
    for lane_count in lanes:
        per_lane = max(1, workload.global_size // lane_count)
        families.append(
            FlowFamily(
                kernel=name,
                lanes=lane_count,
                grid=workload.grid,
                n_items=min(per_lane, max_items),
                seed=seed,
            )
        )
    return families


def run_flow_suite(
    config: SuiteConfig | None = None,
    backend=None,
    *,
    seed: int = DEFAULT_STIMULUS_SEED,
    max_items: int = DEFAULT_MAX_ITEMS,
    jobs: int | None = None,
) -> FlowSuiteRun:
    """Cost a suite grid, then RTL-verify every unique design family.

    ``backend`` selects the costing backend; ``jobs`` fans the RTL
    simulations themselves over worker processes.  Flow payloads are pure
    functions of (kernel, lanes, grid, n_items, seed), so every
    combination produces byte-identical reports.
    """
    import time

    suite = WorkloadSuite(config or SuiteConfig(), backend)
    spaces, sweep = suite.sweep()
    slices = suite.kernel_entries(spaces, sweep)

    all_families: list[FlowFamily] = []
    per_kernel: dict[str, list[FlowFamily]] = {}
    for name, entries in slices.items():
        families = _families_for(suite.config, name, entries, seed, max_items)
        per_kernel[name] = families
        all_families.extend(families)

    started = time.perf_counter()
    results = stage_map(_family_payload, all_families, jobs)
    flow_seconds = time.perf_counter() - started
    by_family = dict(zip(all_families, (payload for payload, _ in results)))
    stage_seconds: dict[str, float] = {}
    for _, stages in results:
        for stage, seconds in stages.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds

    kernels: dict[str, dict] = {}
    records: dict[str, dict[str, dict]] = {}
    families_total = 0
    ok_total = 0
    max_gap = 0
    for name, entries in slices.items():
        workload = suite.config.workload_for(name)
        family_payloads = {f.key: by_family[f] for f in per_kernel[name]}
        records[name] = family_payloads
        families_total += len(family_payloads)
        ok_total += sum(1 for p in family_payloads.values() if p.get("ok"))
        for payload in family_payloads.values():
            cycles = payload.get("cycles", {})
            max_gap = max(max_gap, cycles.get("gap_analytic", 0),
                          cycles.get("gap_stepped", 0))
        kernels[name] = {
            "workload": {"grid": list(workload.grid),
                         "iterations": workload.iterations},
            "points": len(entries),
            "families": {
                f.key: {"lanes": f.lanes, "items": f.n_items,
                        "result": by_family[f]}
                for f in per_kernel[name]
            },
        }

    payload = {
        "schema": FLOW_SCHEMA,
        "config": suite.config.as_dict(),
        "flow": {
            "backend": "pyrtl",
            "seed": seed,
            "max_items": max_items,
        },
        "kernels": kernels,
        "totals": {
            "kernels": len(kernels),
            "points": sweep.evaluated,
            "families": families_total,
            "ok": ok_total,
            "failing": families_total - ok_total,
            "max_cycle_gap": max_gap,
        },
    }
    return FlowSuiteRun(
        report=FlowReport(payload),
        records=records,
        sweep=sweep,
        flow_seconds=flow_seconds,
        stage_seconds=stage_seconds,
    )


# ----------------------------------------------------------------------
# The flow golden harness (mirrors repro.suite.golden)
# ----------------------------------------------------------------------


def flow_golden_dir(root: Path | str | None = None) -> Path:
    """``tests/golden/flows`` under the repo root."""
    if root is not None:
        return Path(root)
    # src/repro/flows/suite.py -> repo root is three parents above src/
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "flows"


def run_golden_flows(kernels: tuple[str, ...] = ()) -> FlowReport:
    """RTL-verify the golden suite configuration."""
    return run_flow_suite(golden_config(kernels)).report


def record_flow_goldens(directory: Path | str | None = None,
                        kernels: tuple[str, ...] = ()) -> list[Path]:
    """(Re-)write one flow golden per kernel; returns written paths."""
    return write_kernel_goldens(run_golden_flows(kernels),
                                flow_golden_dir(directory))


# ----------------------------------------------------------------------
# Golden Verilog snapshots (codegen text pinning)
# ----------------------------------------------------------------------

#: the pinned snapshot configuration: two lanes exercise the compute
#: unit's replication, the tiny golden grid keeps offset spans small,
#: and the fixed item count pins the testbench's stimulus block
SNAPSHOT_LANES = 2
SNAPSHOT_ITEMS = 64


def verilog_snapshot_dir(root: Path | str | None = None) -> Path:
    """``tests/golden/verilog`` under the repo root."""
    if root is not None:
        return Path(root)
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "verilog"


def kernel_verilog_bundle(kernel_name: str) -> str:
    """Every generated file of one kernel, concatenated deterministically.

    The bundle covers the kernel pipeline modules, the compute unit, the
    configuration include and the seeded testbench — the full emitted
    surface a codegen change can move.
    """
    from repro.compiler.codegen.testbench import generate_testbench
    from repro.compiler.codegen.verilog import VerilogGenerator
    from repro.suite.runner import tiny_grid

    kernel = get_kernel(kernel_name)
    grid = tiny_grid(kernel.default_grid)
    module = kernel.build_module(lanes=SNAPSHOT_LANES, grid=grid)
    generator = VerilogGenerator(module)
    files = dict(generator.generate_all())
    files["testbench.v"] = generate_testbench(module, n_items=SNAPSHOT_ITEMS)
    parts = [f"// golden Verilog snapshot for kernel {kernel_name!r} "
             f"(lanes {SNAPSHOT_LANES}, grid {grid}, {SNAPSHOT_ITEMS} items)\n"]
    for name in sorted(files):
        parts.append(f"// ==== file: {name} ====\n{files[name]}")
    return "\n".join(parts)


def record_verilog_snapshots(directory: Path | str | None = None,
                             kernels: tuple[str, ...] = ()) -> list[Path]:
    """(Re-)write one golden Verilog snapshot per kernel."""
    from repro.kernels import REGISTRY

    directory = verilog_snapshot_dir(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(k.lower() for k in kernels) if kernels else REGISTRY.names()
    written = []
    for name in names:
        path = directory / f"{name}.v"
        path.write_text(kernel_verilog_bundle(name))
        written.append(path)
    return written


def check_flow_goldens(directory: Path | str | None = None,
                       kernels: tuple[str, ...] = (),
                       rtol: float = 0.0) -> dict[str, list[FieldDiff]]:
    """Re-run the RTL flows and diff against the recorded goldens."""
    return diff_kernel_goldens(
        run_golden_flows(kernels), flow_golden_dir(directory), FLOW_SCHEMA,
        "flow golden missing — run `suite record-golden --flows`", rtol=rtol)
