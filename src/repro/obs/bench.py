"""Benchmark trend reporting: one table over every ``BENCH_*.json``.

Each benchmark module under ``benchmarks/`` writes its measurements to
``benchmarks/results/BENCH_<name>.json`` with its own payload layout —
useful individually, invisible collectively.  This module merges them
into one trend table (``tybec bench report``): per benchmark, the
headline metrics, the gate each one is held to, and whether the stored
measurement passes it.

The headline map is curated, not schema-driven: every benchmark file
keeps its natural shape and this module knows where its load-bearing
numbers live.  Unknown ``BENCH_*`` files (a new benchmark that has not
been curated yet) still show up via a generic numeric-leaf fallback, so
the report never silently omits an artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "BenchMetric",
    "DEFAULT_RESULTS_DIR",
    "collect_bench_metrics",
    "format_bench_table",
    "load_bench_file",
]

#: where the benchmark suite writes its artifacts (repo-relative)
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"

#: generic-fallback cap on leaves shown for an uncurated benchmark file
_FALLBACK_LEAVES = 8

#: benchmark name -> [(dotted metric path, gate expression | None)].
#: A gate is ``"<op> <operand>"`` where the operand is a literal number
#: or ``@dotted.path`` resolved against the same payload (so a file that
#: records its own threshold — e.g. ``max_overhead_ratio`` — is gated
#: against exactly what its benchmark asserted).
_HEADLINES: dict[str, list[tuple[str, str | None]]] = {
    "chaos": [
        ("overhead_ratio", "<= @max_overhead_ratio"),
        ("clean_wall_seconds", None),
        ("armed_wall_seconds", None),
    ],
    "obs": [
        ("overhead_ratio", "<= @max_overhead_ratio"),
        ("clean_wall_seconds", None),
        ("traced_wall_seconds", None),
        ("spans", "> 0"),
    ],
    "cli": [
        ("numpy_imports", "== 0"),
        ("help.repro_modules", "<= @help.module_ceiling"),
        ("cost.repro_modules", "<= @cost.module_ceiling"),
        ("suite_run.repro_modules", "<= @suite_run.module_ceiling"),
        ("help.median_ms", None),
        ("cost.median_ms", None),
        ("suite_run.points_per_s", None),
    ],
    "dense": [
        ("suite_grid.speedup", ">= 1"),
        ("suite_grid.dense_points_per_second", None),
        ("million_point_grid.points_per_second", None),
    ],
    "dse": [
        ("surrogate.scalar_fraction", "<= @surrogate.max_scalar_fraction"),
        ("fmax.probe_reduction", ">= 1"),
        ("fmax.probes_per_family", None),
    ],
    "explore": [
        ("memoization_speedup", ">= 1"),
        ("first_pass.variants_per_second", None),
        ("memoized_pass.variants_per_second", None),
    ],
    "flows": [
        ("totals.failing", "== 0"),
        ("simulator.simulate_speedup", ">= @simulator.min_simulate_speedup"),
        ("simulator.flow_speedup", ">= @simulator.min_flow_speedup"),
        ("throughput.families_per_second", None),
        ("throughput.items_per_second", None),
    ],
    "service": [
        ("warm.speedup_vs_cold", ">= 1"),
        ("sustained.requests_per_second", None),
        ("sustained.p99_seconds", None),
    ],
    "suite": [
        ("full_grid.warm_speedup", ">= 1"),
        ("full_grid.lane_scaling_warm.variants_per_second", None),
        ("full_grid.lane_scaling_warm.wall_seconds", None),
    ],
    "validate": [
        ("totals.disagreeing", "== 0"),
        ("totals.max_seconds_relative_error", "<= @validation.tolerance"),
        ("points_per_second", None),
    ],
}


@dataclass(frozen=True)
class BenchMetric:
    """One row of the trend table."""

    benchmark: str
    metric: str
    value: float
    #: human-readable gate with the operand resolved ("" when ungated)
    gate: str
    #: None when ungated, else whether the measurement passes the gate
    ok: bool | None

    def as_dict(self) -> dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "metric": self.metric,
            "value": self.value,
            "gate": self.gate,
            "ok": self.ok,
        }


def _resolve(payload: dict, dotted: str):
    node: Any = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _numeric_leaves(payload, prefix: str = "") -> Iterable[tuple[str, float]]:
    if isinstance(payload, dict):
        for key, value in payload.items():
            yield from _numeric_leaves(
                value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        yield prefix, float(payload)


_GATE_OPS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
}


def _evaluate_gate(gate: str, value: float,
                   payload: dict) -> tuple[str, bool | None]:
    """Resolve a gate expression to (rendered gate, verdict)."""
    op, operand = gate.split(None, 1)
    if operand.startswith("@"):
        threshold = _resolve(payload, operand[1:])
        if not isinstance(threshold, (int, float)):
            return f"{op} {operand}?", None
        threshold = float(threshold)
    else:
        threshold = float(operand)
    return f"{op} {threshold:g}", _GATE_OPS[op](value, threshold)


def load_bench_file(path: Path) -> list[BenchMetric]:
    """The trend-table rows of one ``BENCH_<name>.json`` artifact."""
    name = path.stem
    if name.startswith("BENCH_"):
        name = name[len("BENCH_"):]
    payload = json.loads(path.read_text())
    rows: list[BenchMetric] = []
    headlines = _HEADLINES.get(name)
    if headlines is None:
        # uncurated benchmark: surface its first few numeric leaves ungated
        for metric, value in list(_numeric_leaves(payload))[:_FALLBACK_LEAVES]:
            rows.append(BenchMetric(name, metric, value, "", None))
        return rows
    for metric, gate in headlines:
        value = _resolve(payload, metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        value = float(value)
        if gate is None:
            rows.append(BenchMetric(name, metric, value, "", None))
        else:
            rendered, ok = _evaluate_gate(gate, value, payload)
            rows.append(BenchMetric(name, metric, value, rendered, ok))
    return rows


def collect_bench_metrics(results_dir: Path) -> list[BenchMetric]:
    """Every trend-table row across every artifact in ``results_dir``."""
    rows: list[BenchMetric] = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        rows.extend(load_bench_file(path))
    return rows


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.6g}"


def format_bench_table(rows: list[BenchMetric]) -> str:
    """Render the trend table as fixed-width text."""
    if not rows:
        return "no BENCH_*.json artifacts found"
    header = (f"{'benchmark':<10} {'metric':<48} {'value':>14} "
              f"{'gate':<14} {'ok':>3}")
    lines = [header, "-" * len(header)]
    for row in rows:
        verdict = "-" if row.ok is None else ("y" if row.ok else "N")
        lines.append(
            f"{row.benchmark:<10} {row.metric:<48}"
            f" {_format_value(row.value):>14} {row.gate:<14} {verdict:>3}")
    gated = [row for row in rows if row.ok is not None]
    failing = [row for row in rows if row.ok is False]
    lines.append(
        f"{len(rows)} metric(s) from "
        f"{len({row.benchmark for row in rows})} benchmark(s); "
        f"{len(gated) - len(failing)}/{len(gated)} gate(s) passing")
    return "\n".join(lines)
