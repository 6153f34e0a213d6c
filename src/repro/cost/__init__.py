"""The TyTra cost model (paper §V) — the reproduction's core contribution.

Given a design variant expressed in TyTra-IR, the cost model produces in
well under a second:

* **resource-utilisation estimates** — ALUTs, registers, block-RAM bits and
  DSP blocks, accumulated from per-instruction cost expressions fitted to a
  one-time set of synthesis experiments per device (Figure 9);
* **sustained-bandwidth estimates** — an empirical model of how transfer
  size and access contiguity scale the peak host and device-DRAM
  bandwidths (Figure 10), yielding the ``rho`` scaling factors;
* **throughput estimates** — the EKIT (Effective Kernel-Instance
  Throughput) expressions, Equations (1)-(3), one per memory-execution
  form, which also expose the performance-limiting factor.

Sub-modules
-----------
``calibration``
    Cost-expression types (polynomial, piece-wise linear, step) and the
    fitting of a per-device cost database from calibration data.
``resource_model``
    Walks Compute-IR functions and accumulates per-instruction, offset
    buffer and stream-control resource costs.
``bandwidth``
    The sustained-bandwidth empirical model and ``rho`` factors.
``throughput``
    The EKIT parameters and equations, with time breakdown and limiting
    factor analysis.
``report``
    Aggregation of everything into a single cost report for a variant.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cost.cache": ("BoundedCache", "DiskCache", "default_disk_cache"),
    "repro.cost.calibration": (
        "CostExpression", "DeviceCostDB", "PiecewiseLinearCost",
        "PolynomialCost", "StepCost", "calibrate_device",
        "fit_piecewise_linear", "fit_polynomial", "fit_step",
    ),
    "repro.cost.resource_model": ("ResourceEstimator",),
    "repro.cost.bandwidth": ("BandwidthTable", "SustainedBandwidthModel"),
    "repro.cost.throughput": (
        "EKITEstimate", "EKITParameters", "LimitingFactor", "ekit_form_a",
        "ekit_form_b", "ekit_form_c", "estimate_throughput",
    ),
    "repro.cost.report": ("CostReport", "FeasibilityCheck"),
})
