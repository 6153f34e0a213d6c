"""Tests for cost expressions and device calibration (Figure 9)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost import (
    DeviceCostDB,
    PiecewiseLinearCost,
    PolynomialCost,
    StepCost,
    calibrate_device,
    fit_piecewise_linear,
    fit_polynomial,
    fit_step,
)
from repro.cost.calibration import CostExpression, OperatorCostModel
from repro.ir import ScalarType
from repro.substrate import MAIA_STRATIX_V_GSD8, SyntheticSynthesizer


@pytest.fixture(scope="module")
def synth():
    return SyntheticSynthesizer(MAIA_STRATIX_V_GSD8)


@pytest.fixture(scope="module")
def cost_db(synth):
    return calibrate_device(synth.characterize())


class TestExpressions:
    def test_polynomial(self):
        p = PolynomialCost([-10.6, 3.7, 1.0])  # the paper's divider trend line
        assert p.evaluate(24) == pytest.approx(654.2, abs=0.5)
        assert p.degree == 2
        assert "x^2" in str(p)

    def test_polynomial_clamped_non_negative_via_call(self):
        p = PolynomialCost([-100.0])
        assert p(32) == 0.0

    def test_piecewise_linear_interpolates(self):
        pwl = PiecewiseLinearCost([18, 36, 54], [9, 36, 63])
        assert pwl.evaluate(27) == pytest.approx((9 + 36) / 2)
        # extrapolation uses the slope of the nearest segment
        assert pwl.evaluate(72) == pytest.approx(63 + (63 - 36) / 18 * 18)
        assert pwl.evaluate(9) == pytest.approx(9 - 27 / 18 * 9)

    def test_piecewise_requires_two_points(self):
        with pytest.raises(ValueError):
            PiecewiseLinearCost([1], [1])

    def test_piecewise_duplicate_xs_rejected(self):
        """Two equal breakpoints used to divide by zero at the lower end."""
        with pytest.raises(ValueError, match="xs must be strictly increasing"):
            PiecewiseLinearCost([18, 18, 36], [9, 10, 36])

    def test_piecewise_non_finite_rejected(self):
        with pytest.raises(ValueError, match="ys must be finite"):
            PiecewiseLinearCost([18, 36], [9, float("nan")])
        with pytest.raises(ValueError, match="xs must be finite"):
            PiecewiseLinearCost([18, float("inf")], [9, 36])

    def test_piecewise_from_dict_validates(self):
        with pytest.raises(ValueError, match="xs"):
            CostExpression.from_dict({"kind": "piecewise-linear",
                                      "xs": [18, 18], "ys": [9, 36]})

    def test_step_cost(self):
        step = StepCost(unit_width=18)
        assert step.evaluate(18) == 1
        assert step.evaluate(19) == 2
        assert step.evaluate(36) == 2
        assert step.evaluate(64) == 8
        assert step.evaluate(0) == 0

    def test_serialization_roundtrip(self):
        for expr in [
            PolynomialCost([1.0, 2.0]),
            PiecewiseLinearCost([1, 2], [3, 4]),
            StepCost(18, 1.0),
        ]:
            back = CostExpression.from_dict(expr.as_dict())
            assert type(back) is type(expr)
            assert back.evaluate(20) == pytest.approx(expr.evaluate(20))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CostExpression.from_dict({"kind": "spline"})


class TestFitting:
    def test_quadratic_fit_from_three_points_matches_paper(self, synth):
        """Figure 9's experiment: fit the divider ALUT curve from the
        18/32/64-bit synthesis results and interpolate 24 bits."""
        points = []
        for width in (18, 32, 64):
            usage = synth.synthesize_operator("div", ScalarType.uint(width))
            points.append((width, usage.alut))
        poly = fit_polynomial(points, degree=2)
        predicted = poly(24)
        actual = synth.synthesize_operator("div", ScalarType.uint(24)).alut
        assert predicted == pytest.approx(actual, rel=0.05)
        assert predicted == pytest.approx(654, rel=0.08)

    def test_fit_polynomial_requires_enough_points(self):
        with pytest.raises(ValueError):
            fit_polynomial([(1, 1), (2, 2)], degree=2)

    def test_fit_piecewise_linear(self):
        pwl = fit_piecewise_linear([(18, 9), (36, 36)])
        assert pwl.evaluate(27) == pytest.approx(22.5)

    def test_fit_step_recovers_unit(self, synth):
        points = [
            (w, synth.synthesize_operator("mul", ScalarType.uint(w)).dsp)
            for w in (18, 32, 64)
        ]
        step = fit_step(points, unit_width=18)
        assert step.evaluate(18) == pytest.approx(1, abs=0.2)
        assert step.evaluate(64) == pytest.approx(8, abs=1)

    def test_fit_step_needs_points(self):
        with pytest.raises(ValueError):
            fit_step([])

    @given(
        coeffs=st.lists(st.floats(min_value=0.1, max_value=10), min_size=2, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_polynomial_fit_recovers_exact_polynomials(self, coeffs):
        truth = PolynomialCost(list(coeffs))
        degree = len(coeffs) - 1
        points = [(w, truth.evaluate(w)) for w in (8, 16, 24, 32, 48, 64)]
        fitted = fit_polynomial(points, degree)
        for w in (12, 20, 40):
            assert fitted.evaluate(w) == pytest.approx(truth.evaluate(w), rel=1e-6)


class TestDeviceCostDB:
    def test_calibrated_db_has_expected_opcodes(self, cost_db):
        assert {"add", "mul", "div"} <= cost_db.opcodes()
        assert cost_db.has("mul", constant_operand=True)

    def test_lookup_interpolates_unseen_width(self, cost_db, synth):
        est = cost_db.lookup("div", 24)
        actual = synth.synthesize_operator("div", ScalarType.uint(24))
        assert est.alut == pytest.approx(actual.alut, rel=0.05)

    def test_lookup_falls_back_to_nonconstant(self, cost_db):
        # 'add' has no constant-operand calibration; the fallback must work
        usage = cost_db.lookup("add", 32, constant_operand=True)
        assert usage.alut > 0

    def test_lookup_falls_back_to_category(self, cost_db):
        # 'udiv' was not characterised but shares the 'div' category
        usage = cost_db.lookup("udiv", 32)
        ref = cost_db.lookup("div", 32)
        assert usage.alut == pytest.approx(ref.alut)

    def test_lookup_unknown_raises(self):
        db = DeviceCostDB("empty")
        with pytest.raises(KeyError):
            db.lookup("add", 32)

    def test_constant_mul_has_no_dsp(self, cost_db):
        assert cost_db.lookup("mul", 48, constant_operand=True).dsp == 0
        assert cost_db.lookup("mul", 48, constant_operand=False).dsp >= 2

    def test_serialization_roundtrip(self, cost_db):
        data = cost_db.as_dict()
        back = DeviceCostDB.from_dict(data)
        assert back.device_name == cost_db.device_name
        assert back.opcodes() == cost_db.opcodes()
        for opcode in ("add", "mul", "div"):
            for width in (18, 24, 32, 64):
                a = cost_db.lookup(opcode, width)
                b = back.lookup(opcode, width)
                assert a.alut == pytest.approx(b.alut)
                assert a.dsp == pytest.approx(b.dsp)

    def test_operator_model_roundtrip(self, cost_db):
        model = next(iter(cost_db.models.values()))
        back = OperatorCostModel.from_dict(model.as_dict())
        assert back.opcode == model.opcode
        assert back.estimate(32).alut == pytest.approx(model.estimate(32).alut)

    @given(width=st.integers(min_value=12, max_value=96))
    @settings(max_examples=30, deadline=None)
    def test_estimates_track_synthesis_within_ten_percent(self, width):
        """Core accuracy property: for integer arithmetic the fitted
        expressions stay close to what the synthesiser produces."""
        synth = SyntheticSynthesizer(MAIA_STRATIX_V_GSD8)
        db = calibrate_device(synth.characterize(widths=[8, 16, 18, 24, 32, 48, 64, 96]))
        for opcode in ("add", "div"):
            est = db.lookup(opcode, width).alut
            act = synth.synthesize_operator(opcode, ScalarType.uint(width)).alut
            if act > 10:
                assert est == pytest.approx(act, rel=0.12)
