"""Cost expressions and per-device calibration (paper §V-A, Figure 9).

The paper observes that the regularity of FPGA fabric lets very simple
first- or second-order expressions capture the resource usage of most
primitive instructions as a function of operand bit-width, fitted from a
handful of synthesis experiments per device:

* unsigned integer **division** ALUTs follow a quadratic trend line
  (``x^2 + 3.7x - 10.6`` on the paper's Stratix-V data), fitted from just
  three data points (18, 32 and 64 bits) and then interpolated — at 24
  bits the interpolation gives 654 ALUTs against an actual 652;
* **multiplication** shows piece-wise-linear ALUT behaviour and a step-wise
  DSP-block count with clearly identifiable discontinuities at the DSP
  input width;
* most other instructions are linear or constant.

This module provides those expression families, the fitting routines, and
the :class:`DeviceCostDB` that stores the fitted expressions for a device
(the output of the "one-time benchmark experiments" of Figure 2).
"""

from __future__ import annotations

import math

from repro import field, record
from repro.cost.numerics import interp, polyval, sorted_axis
from repro.ir.instructions import OPCODES
from repro.substrate.synthesis import CalibrationDataset, ResourceUsage

__all__ = [
    "CostExpression",
    "PolynomialCost",
    "PiecewiseLinearCost",
    "StepCost",
    "fit_polynomial",
    "fit_piecewise_linear",
    "fit_step",
    "OperatorCostModel",
    "DeviceCostDB",
    "calibrate_device",
]


# ----------------------------------------------------------------------
# Expression families
# ----------------------------------------------------------------------


class CostExpression:
    """A scalar cost as a function of operand bit-width."""

    kind = "abstract"

    def evaluate(self, width: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def as_dict(self) -> dict:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, width: float) -> float:
        return max(0.0, float(self.evaluate(width)))

    @staticmethod
    def from_dict(data: dict) -> "CostExpression":
        kind = data["kind"]
        if kind == "polynomial":
            return PolynomialCost(list(data["coefficients"]))
        if kind == "piecewise-linear":
            return PiecewiseLinearCost(list(data["xs"]), list(data["ys"]))
        if kind == "step":
            return StepCost(data["unit_width"], data["per_tile_pair"])
        raise ValueError(f"unknown cost expression kind {kind!r}")


@record
class PolynomialCost(CostExpression):
    """``c[0] + c[1]*w + c[2]*w^2 + ...`` (coefficients in ascending order)."""

    coefficients: list[float]
    kind: str = field(default="polynomial", init=False)

    def evaluate(self, width: float) -> float:
        return polyval(width, self.coefficients)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def as_dict(self) -> dict:
        return {"kind": self.kind, "coefficients": [float(c) for c in self.coefficients]}

    def __str__(self) -> str:
        terms = []
        for power, coeff in enumerate(self.coefficients):
            if abs(coeff) < 1e-12:
                continue
            if power == 0:
                terms.append(f"{coeff:.3g}")
            elif power == 1:
                terms.append(f"{coeff:.3g}*x")
            else:
                terms.append(f"{coeff:.3g}*x^{power}")
        return " + ".join(terms) if terms else "0"


@record
class PiecewiseLinearCost(CostExpression):
    """Linear interpolation between calibration points, linear extrapolation
    beyond them (using the slope of the nearest segment)."""

    xs: list[float]
    ys: list[float]
    kind: str = field(default="piecewise-linear", init=False)

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("piecewise-linear cost needs >= 2 (x, y) pairs")
        self.xs, self.ys = sorted_axis("piecewise-linear cost", "xs", self.xs,
                                       "ys", self.ys)

    def evaluate(self, width: float) -> float:
        xs, ys = self.xs, self.ys
        if width <= xs[0]:
            slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
            return ys[0] + slope * (width - xs[0])
        if width >= xs[-1]:
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            return ys[-1] + slope * (width - xs[-1])
        return interp(width, xs, ys)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "xs": self.xs, "ys": self.ys}


@record
class StepCost(CostExpression):
    """Step-wise cost for tiled resources such as DSP blocks.

    Models ``per_tile_pair * ceil(ceil(w / unit_width)^2 / 2)`` — the number
    of hard multiplier tiles needed to build a ``w``-bit multiplier from
    ``unit_width``-bit partial products, with two tiles packed per DSP
    block.  ``per_tile_pair`` is normally 1.0 but is fitted so that devices
    with different packing still calibrate.
    """

    unit_width: float
    per_tile_pair: float = 1.0
    kind: str = field(default="step", init=False)

    def evaluate(self, width: float) -> float:
        if width <= 0:
            return 0.0
        tiles = math.ceil(width / self.unit_width)
        return self.per_tile_pair * math.ceil(tiles * tiles / 2)

    def as_dict(self) -> dict:
        return {"kind": self.kind, "unit_width": self.unit_width, "per_tile_pair": self.per_tile_pair}


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------


def fit_polynomial(points: list[tuple[float, float]], degree: int) -> PolynomialCost:
    """Least-squares polynomial fit (exactly determined when possible).

    With ``degree + 1`` points this is interpolation — the paper's quadratic
    divider trend line is fitted from exactly three widths.
    """
    if len(points) < degree + 1:
        raise ValueError(f"need at least {degree + 1} points for a degree-{degree} fit")
    import numpy as np

    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    coeffs = np.polynomial.polynomial.polyfit(xs, ys, degree)
    return PolynomialCost([float(c) for c in coeffs])


def fit_piecewise_linear(points: list[tuple[float, float]]) -> PiecewiseLinearCost:
    """Use the calibration points directly as the breakpoints."""
    if len(points) < 2:
        raise ValueError("need at least 2 points for a piecewise-linear fit")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return PiecewiseLinearCost(xs, ys)


def fit_step(points: list[tuple[float, float]], unit_width: float = 18.0) -> StepCost:
    """Fit the per-tile-pair scale of a step cost from calibration points."""
    if not points:
        raise ValueError("need at least 1 point for a step fit")
    import numpy as np

    ratios = []
    for width, value in points:
        tiles = math.ceil(width / unit_width)
        expected = math.ceil(tiles * tiles / 2)
        if expected > 0 and value > 0:
            ratios.append(value / expected)
    scale = float(np.mean(ratios)) if ratios else 0.0
    return StepCost(unit_width=unit_width, per_tile_pair=scale)


# ----------------------------------------------------------------------
# Per-operator model and the device database
# ----------------------------------------------------------------------


@record
class OperatorCostModel:
    """Fitted cost expressions for one (opcode, constant-operand) pair."""

    opcode: str
    constant_operand: bool
    expressions: dict[str, CostExpression]

    def estimate(self, width: int) -> ResourceUsage:
        return ResourceUsage(
            alut=self.expressions["alut"](width),
            reg=self.expressions["reg"](width),
            bram_bits=self.expressions["bram_bits"](width),
            dsp=self.expressions["dsp"](width),
        )

    def as_dict(self) -> dict:
        return {
            "opcode": self.opcode,
            "constant_operand": self.constant_operand,
            "expressions": {k: e.as_dict() for k, e in self.expressions.items()},
        }

    @staticmethod
    def from_dict(data: dict) -> "OperatorCostModel":
        return OperatorCostModel(
            opcode=data["opcode"],
            constant_operand=bool(data["constant_operand"]),
            expressions={
                k: CostExpression.from_dict(v) for k, v in data["expressions"].items()
            },
        )


#: Which expression family to fit per (opcode category, resource).
_FIT_RULES: dict[str, dict[str, tuple[str, int]]] = {
    # category: resource -> (family, degree)
    "div": {"alut": ("poly", 2), "reg": ("poly", 2), "bram_bits": ("poly", 1), "dsp": ("poly", 0)},
    "mul": {"alut": ("pwl", 0), "reg": ("poly", 1), "bram_bits": ("poly", 0), "dsp": ("step", 0)},
    "special": {"alut": ("poly", 2), "reg": ("poly", 2), "bram_bits": ("poly", 1), "dsp": ("poly", 0)},
    "default": {"alut": ("poly", 1), "reg": ("poly", 1), "bram_bits": ("poly", 1), "dsp": ("poly", 0)},
}


def _fit_one(
    family: str, degree: int, points: list[tuple[float, float]], unit_width: float
) -> CostExpression:
    if family == "pwl" and len(points) >= 2:
        return fit_piecewise_linear(points)
    if family == "step":
        return fit_step(points, unit_width)
    # polynomial fallback; cap degree by available points
    usable_degree = min(degree, len(points) - 1)
    if usable_degree < 0:
        return PolynomialCost([0.0])
    return fit_polynomial(points, usable_degree)


@record
class DeviceCostDB:
    """Fitted per-instruction cost expressions for one device."""

    device_name: str
    dsp_input_width: float = 18.0
    models: dict[tuple[str, bool], OperatorCostModel] = field(default_factory=dict)

    def add(self, model: OperatorCostModel) -> None:
        self.models[(model.opcode, model.constant_operand)] = model

    def has(self, opcode: str, constant_operand: bool = False) -> bool:
        return (opcode, constant_operand) in self.models

    def lookup(self, opcode: str, width: int, constant_operand: bool = False) -> ResourceUsage:
        """Estimate the resources of one operator instance.

        Falls back first to the non-constant variant of the same opcode,
        then to another calibrated opcode of the same category (the cost
        model's category abstraction), before giving up.
        """
        key = (opcode, constant_operand)
        if key in self.models:
            return self.models[key].estimate(width)
        if (opcode, False) in self.models:
            return self.models[(opcode, False)].estimate(width)
        category = OPCODES[opcode].category if opcode in OPCODES else None
        if category is not None:
            for (other, const), model in self.models.items():
                if const is False and other in OPCODES and OPCODES[other].category == category:
                    return model.estimate(width)
        raise KeyError(
            f"no cost model for opcode {opcode!r} (constant_operand={constant_operand}) "
            f"on device {self.device_name!r}"
        )

    def opcodes(self) -> set[str]:
        return {op for op, _ in self.models}

    def as_dict(self) -> dict:
        return {
            "device_name": self.device_name,
            "dsp_input_width": self.dsp_input_width,
            "models": [m.as_dict() for m in self.models.values()],
        }

    @staticmethod
    def from_dict(data: dict) -> "DeviceCostDB":
        db = DeviceCostDB(
            device_name=data["device_name"],
            dsp_input_width=float(data.get("dsp_input_width", 18.0)),
        )
        for rec in data["models"]:
            db.add(OperatorCostModel.from_dict(rec))
        return db


def calibrate_device(
    dataset: CalibrationDataset,
    dsp_input_width: float = 18.0,
) -> DeviceCostDB:
    """Fit a :class:`DeviceCostDB` from one-time calibration measurements.

    This is the step the paper performs once per FPGA target (Figure 2):
    synthesise each primitive at a few widths, then fit the family of
    expression appropriate to the primitive (quadratic for dividers,
    piece-wise linear + DSP steps for multipliers, linear otherwise).
    """
    db = DeviceCostDB(device_name=dataset.device_name, dsp_input_width=dsp_input_width)

    combos = {(p.opcode, p.constant_operand) for p in dataset.points}
    for opcode, constant_operand in sorted(combos):
        points = [
            p for p in dataset.points
            if p.opcode == opcode and p.constant_operand == constant_operand
        ]
        category = OPCODES[opcode].category if opcode in OPCODES else "default"
        rules = _FIT_RULES.get(category, _FIT_RULES["default"])
        expressions: dict[str, CostExpression] = {}
        for resource in ResourceUsage.RESOURCES:
            series = [(float(p.width), float(getattr(p.usage, resource))) for p in points]
            family, degree = rules.get(resource, ("poly", 1))
            if constant_operand and resource == "dsp":
                # constant multiplies never use DSPs regardless of width
                expressions[resource] = PolynomialCost([0.0])
                continue
            expressions[resource] = _fit_one(family, degree, series, dsp_input_width)
        db.add(OperatorCostModel(opcode, constant_operand, expressions))
    return db
