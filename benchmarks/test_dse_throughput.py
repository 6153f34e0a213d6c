"""Optimizer-driven DSE efficiency benchmark -> BENCH_dse.json.

Records the acceptance evidence of the incremental-optimizer PR on the
306-point full suite grid (every kernel, lanes to 64, a three-clock
axis):

* **surrogate prune** — the dense broadcast pass scores every point, but
  at most 25% of them may reach the scalar pipeline, and each kernel's
  best point must be exactly the one the exhaustive sweep picks.  The
  differential identity of the dense engine (BENCH_dense.json) is what
  licenses pruning on dense scores.
* **fmax binary search** — bracketing the highest feasible clock per
  design family must need far fewer probes than stepping a dense clock
  axis at the same resolution, and every closed bracket is re-verified:
  the returned clock costs feasible, the bracket's upper edge costs
  infeasible.
"""

from __future__ import annotations

import json
import time

from repro.explore import (
    DenseBackend,
    DesignSpace,
    ExplorationEngine,
    FmaxBinarySearchOptimizer,
    SurrogatePrunedOptimizer,
)
from repro.suite import WorkloadSuite

from benchmarks.test_suite_throughput import FULL_GRID_CONFIG

#: acceptance gate: fraction of grid points the surrogate may cost exactly
MAX_SCALAR_FRACTION = 0.25

#: fmax search setup: bracket the bandwidth-bound forms on the full grid
FMAX_RESOLUTION_MHZ = 2.0
FMAX_LANES = [1, 2]
FMAX_FORMS = ("A", "B")
FMAX_CLOCK_SPAN_MHZ = (25.0, 1600.0)


def test_dse_optimizer_artifact(results_dir):
    payload = {}
    engine = ExplorationEngine()
    spaces = WorkloadSuite(FULL_GRID_CONFIG).spaces()
    total_points = sum(len(space) for space in spaces.values())
    assert total_points >= 300

    # -- exhaustive oracle (also warms the family/analysis caches) -----
    started = time.perf_counter()
    exhaustive_best = {name: engine.explore(space).best()
                       for name, space in spaces.items()}
    exhaustive_seconds = time.perf_counter() - started

    # -- surrogate prune: dense scores gate the scalar pipeline --------
    dense_backend = DenseBackend()
    per_kernel = {}
    scalar_total = 0
    started = time.perf_counter()
    for name, space in spaces.items():
        run = engine.run_optimizer(SurrogatePrunedOptimizer(
            space, keep_fraction=0.1, backend=dense_backend))
        result = run.result
        assert not result["fallback"], f"{name}: dense prune unavailable"
        assert run.best() is not None
        assert run.best().point == exhaustive_best[name].point, \
            f"{name}: surrogate picked a different best point"
        scalar_total += result["scalar_points"]
        per_kernel[name] = {
            "grid_points": result["dense_points"],
            "scalar_points": result["scalar_points"],
            "best": result["best"],
        }
    surrogate_seconds = time.perf_counter() - started

    scalar_fraction = scalar_total / total_points
    payload["surrogate"] = {
        "config": FULL_GRID_CONFIG.as_dict(),
        "grid_points": total_points,
        "scalar_points": scalar_total,
        "scalar_fraction": scalar_fraction,
        "max_scalar_fraction": MAX_SCALAR_FRACTION,
        "exhaustive_seconds": exhaustive_seconds,
        "surrogate_seconds": surrogate_seconds,
        "kernels": per_kernel,
        "best_points_match_exhaustive": True,
    }
    assert scalar_fraction <= MAX_SCALAR_FRACTION, payload["surrogate"]

    # -- fmax binary search: probes vs a stepped clock axis ------------
    fmax_spaces = [DesignSpace(kernel=name, grid=(24, 24, 24), iterations=10,
                               lanes=FMAX_LANES, forms=FMAX_FORMS)
                   for name in sorted(spaces)]
    started = time.perf_counter()
    run = engine.run_optimizer(FmaxBinarySearchOptimizer(
        fmax_spaces, resolution=FMAX_RESOLUTION_MHZ,
        min_mhz=FMAX_CLOCK_SPAN_MHZ[0], max_mhz=FMAX_CLOCK_SPAN_MHZ[1]))
    fmax_seconds = time.perf_counter() - started
    families = run.result["families"]
    finite = [f for f in families if f["fmax_mhz"] is not None
              and not f["capped"]]
    assert len(finite) == len(families), \
        "every kernel x form x lanes family must bracket on the full grid"

    # stepping the whole span at the same resolution, per family
    span = FMAX_CLOCK_SPAN_MHZ[1] - FMAX_CLOCK_SPAN_MHZ[0]
    stepped_points = int(span / FMAX_RESOLUTION_MHZ) * len(families)
    for fam in finite:
        lo, hi = fam["bracket_mhz"]
        assert hi - lo <= FMAX_RESOLUTION_MHZ
        probe = DesignSpace(kernel=fam["kernel"], grid=(24, 24, 24),
                            iterations=10, lanes=[fam["lanes"]],
                            forms=(fam["form"],), clocks_mhz=(lo, hi))
        by_clock = {e.point.resolved_clock_mhz: e.report
                    for e in engine.explore(probe).entries}
        assert by_clock[lo].feasible, fam
        assert not by_clock[hi].feasible, fam

    payload["fmax"] = {
        "resolution_mhz": FMAX_RESOLUTION_MHZ,
        "families": len(families),
        "probes": run.evaluated,
        "probes_per_family": run.evaluated / len(families),
        "stepped_axis_points": stepped_points,
        "probe_reduction": stepped_points / run.evaluated,
        "seconds": fmax_seconds,
        "brackets_verified": len(finite),
    }
    assert run.evaluated < stepped_points / 10, payload["fmax"]

    (results_dir / "BENCH_dse.json").write_text(
        json.dumps(payload, indent=2) + "\n")
