import numpy as np
import pytest

from multiphase import (Domain2D, ExponentTriple, ScalarField, UNIT_SQUARE,
                        WeightPair, check_h1, check_hprime, check_log_holder,
                        compute_r0, critical_exponent,
                        estimate_holder_constant, tighten_r0)
from multiphase.expressions import ExpressionError, parse_expression
from multiphase.fields import HypothesisError, HypothesisReport


class TestDomain:
    def test_unit_square_area(self):
        assert UNIT_SQUARE.area == pytest.approx(1.0)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(ValueError):
            Domain2D(((0, 0), (1, 0), (2, 0)))

    def test_self_intersection_rejected(self):
        with pytest.raises(ValueError):
            Domain2D(((0, 0), (1, 1), (1, 0), (0, 1)))

    def test_contains(self):
        inside = UNIT_SQUARE.contains([(0.5, 0.5), (1.5, 0.5), (0.0, 0.0)])
        assert list(inside) == [True, False, True]

    def test_sample_grid_inside(self):
        pts = UNIT_SQUARE.sample_grid(16)
        assert np.all((pts >= -1e-12) & (pts <= 1 + 1e-12))

    @pytest.mark.parametrize("domain", [
        UNIT_SQUARE,
        Domain2D(tuple((np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3)),
    ], ids=["square", "hexagon"])
    def test_edge_midpoints_inside(self, domain):
        """A crossing on a later edge does not toggle an edge point out."""
        v = np.asarray(domain.vertices)
        assert np.all(domain.contains(0.5 * (v + np.roll(v, -1, axis=0))))

    def test_sample_grid_keeps_the_boundary_rows(self):
        # 128^2 grid points, every one in the closed square, and 4 vertices
        assert len(UNIT_SQUARE.sample_grid(128)) == 128 ** 2 + 4

    def test_exponent_below_one_on_the_bottom_edge(self):
        """p(0.5, 0) = 0.7: only the bottom edge between the corners shows it."""
        p = ScalarField.expression("1.5 + 200*x2 - 0.8*sin(3.14159*x1)")
        with pytest.raises(HypothesisError, match="exceed 1"):
            ExponentTriple.sample(p, ScalarField.constant(250.0),
                                  ScalarField.constant(300.0))


class TestExpressions:
    def test_arithmetic(self):
        f = parse_expression("1 + 2*x1 - x2/2 + x1^2")
        assert f(2.0, 4.0) == pytest.approx(1 + 4 - 2 + 4)

    def test_functions(self):
        f = parse_expression("sin(x1) + max(x2, 0.5) + abs(-3)")
        assert f(0.0, 0.2) == pytest.approx(0.5 + 3)

    def test_vectorized(self):
        f = parse_expression("exp(x1) * cos(x2)")
        x = np.array([0.0, 1.0])
        assert f(x, np.zeros(2)) == pytest.approx([1.0, np.e])

    def test_rejects_unknown_names(self):
        with pytest.raises(ExpressionError):
            parse_expression("__import__('os')")
        with pytest.raises(ExpressionError):
            parse_expression("y + 1")

    @pytest.mark.parametrize("text", ["x1 + True", "False * x2"])
    def test_rejects_bool_constants(self, text):
        with pytest.raises(ExpressionError, match="non-numeric"):
            parse_expression(text)


class TestScalarField:
    def test_from_spec_const(self):
        f = ScalarField.from_spec({"const": 2.5})
        assert f(0.1, 0.9) == pytest.approx(2.5)

    def test_from_spec_affine(self):
        f = ScalarField.from_spec({"affine": [1.0, 2.0, 3.0]})
        assert f(0.5, 0.5) == pytest.approx(1 + 1 + 1.5)

    def test_from_spec_expr(self):
        f = ScalarField.from_spec({"expr": "min(x1, x2)"})
        assert f(0.3, 0.8) == pytest.approx(0.3)

    def test_unknown_spec(self):
        with pytest.raises(ValueError):
            ScalarField.from_spec({"mystery": 1})

    def test_declared_bounds_enforced(self):
        f = ScalarField(lambda x1, x2: x1, declared_bounds=(0.0, 0.5))
        with pytest.raises(ValueError):
            f(0.9, 0.0)


class TestCriticalExponent:
    def test_half_of_n(self):
        p = ScalarField.constant(2.0)
        assert critical_exponent(p, 4, (0.5, 0.5)) == pytest.approx(4.0)

    def test_plane_value(self):
        p = ScalarField.constant(1.5)
        assert critical_exponent(p, 2, (0.5, 0.5)) == pytest.approx(6.0)

    def test_p_equal_n_errors(self):
        with pytest.raises(ValueError, match="critical exponent"):
            critical_exponent(ScalarField.constant(2.0), 2, (0.5, 0.5))


class TestH1:
    def test_constant_pass(self):
        exp = ExponentTriple.constants(1.5, 1.7, 2.0)
        w = WeightPair.constants(0, 0)
        rep = check_h1(exp, w, 2, UNIT_SQUARE.sample_grid(16))
        assert rep.passed and rep.margin > 0

    def test_equality_fails(self):
        exp = ExponentTriple.constants(2, 2, 2)
        w = WeightPair.constants(0, 0)
        rep = check_h1(exp, w, 3, UNIT_SQUARE.sample_grid(8))
        assert not rep.passed

    def test_affine_fields_pass(self):
        p = ScalarField.affine(1.5, 0.2, 0.0)
        q = ScalarField.affine(1.6, 0.2, 0.0)
        r = ScalarField.affine(1.7, 0.2, 0.0)
        exp = ExponentTriple.sample(p, q, r, UNIT_SQUARE, n=64)
        w = WeightPair.constants(1, 1)
        rep = check_h1(exp, w, 2, UNIT_SQUARE.sample_grid(64))
        assert rep.passed

    def test_extremes_bracket_samples(self):
        p = ScalarField.affine(1.5, 0.2, 0.1)
        q = ScalarField.affine(1.8, 0.2, 0.1)
        r = ScalarField.affine(2.1, 0.2, 0.1)
        exp = ExponentTriple.sample(p, q, r, UNIT_SQUARE)
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (10000, 2))
        for f, lo, hi in ((p, exp.p_minus, exp.p_plus),
                          (q, exp.q_minus, exp.q_plus),
                          (r, exp.r_minus, exp.r_plus)):
            vals = f.at(pts)
            assert np.all(vals >= lo - 1e-12) and np.all(vals <= hi + 1e-12)

    def test_unordered_exponents_rejected(self):
        with pytest.raises(HypothesisError):
            ExponentTriple.constants(3, 2, 4)

    def test_negative_weight_rejected(self):
        with pytest.raises(HypothesisError):
            WeightPair.constants(-0.5, 0)

    @pytest.mark.parametrize("p, q, r", [(np.nan, 2, 3), (2, np.nan, 3),
                                         (2, 3, np.nan), (2, 3, np.inf),
                                         (np.inf, np.inf, np.inf)])
    def test_non_finite_exponents_rejected(self, p, q, r):
        """NaN fails neither p > 1 nor p <= q <= r, and r = inf passes both."""
        with pytest.raises(HypothesisError, match="exponents must be finite"):
            ExponentTriple.constants(p, q, r)

    def test_non_finite_exponent_somewhere_rejected(self):
        r = ScalarField(lambda x1, x2: np.where(x1 > 0.5, np.inf, 4.0))
        with pytest.raises(HypothesisError, match="exponents must be finite"):
            ExponentTriple.sample(ScalarField.constant(2.0),
                                  ScalarField.constant(3.0), r, UNIT_SQUARE, n=8)


class TestHprime:
    def test_pass(self):
        exp = ExponentTriple.constants(2.0, 2.2, 2.4)
        rep = check_hprime(exp, 1.0, 2, UNIT_SQUARE.sample_grid(8))
        assert rep.passed
        assert rep.margin == pytest.approx(1.5 - 1.2)

    def test_fail(self):
        exp = ExponentTriple.constants(2.0, 2.0, 3.2)
        rep = check_hprime(exp, 1.0, 2, UNIT_SQUARE.sample_grid(8))
        assert not rep.passed

    def test_near_constant_margin(self):
        exp = ExponentTriple.constants(2.0, 2.0, 2.0 + 1e-9)
        rep = check_hprime(exp, 0.5, 2, UNIT_SQUARE.sample_grid(8))
        assert rep.passed
        assert rep.margin == pytest.approx(0.25, abs=1e-8)

    def test_limit_bound_two(self):
        # as N grows with sigma = 1 the bound tends to 1 from above, so the
        # check passes whenever q, r <= 2p only for moderate N
        exp = ExponentTriple.constants(2.0, 2.5, 3.0)
        rep = check_hprime(exp, 1.0, 2, UNIT_SQUARE.sample_grid(8))
        assert rep.margin == pytest.approx(1.5 - 1.5, abs=1e-12) or not rep.passed

    def test_bad_sigma(self):
        exp = ExponentTriple.constants(2.0, 2.1, 2.2)
        with pytest.raises(ValueError):
            check_hprime(exp, 0.0, 2, UNIT_SQUARE.sample_grid(4))


class TestHolderConstants:
    def test_constant_field_zero(self):
        f = ScalarField.constant(3.0)
        pts = UNIT_SQUARE.sample_grid(8)
        assert estimate_holder_constant(f, 1.0, pts) == 0.0

    def test_linear_field(self):
        f = ScalarField.affine(2.0, 0.1, 0.0)
        pts = UNIT_SQUARE.sample_grid(16)
        assert estimate_holder_constant(f, 1.0, pts) == pytest.approx(0.1)

    def test_sine_field_bounds(self):
        f = ScalarField.expression("sin(x1)")
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (1000, 2))
        c = estimate_holder_constant(f, 1.0, pts)
        assert 0.9 <= c <= 1.0

    def test_monotone_in_samples(self):
        f = ScalarField.expression("sin(3*x1) * cos(2*x2)")
        rng = np.random.default_rng(2)
        pts = rng.uniform(0, 1, (200, 2))
        small = estimate_holder_constant(f, 0.7, pts[:50])
        large = estimate_holder_constant(f, 0.7, pts)
        assert large >= small


class TestLogHolder:
    def test_constant_zero(self):
        f = ScalarField.constant(1.0)
        pts = np.array([(0.0, 0.0), (0.1, 0.0)])
        assert check_log_holder(f, pts) == 0.0

    def test_lipschitz_pair(self):
        f = ScalarField.affine(0.0, 1.0, 0.0)
        pts = np.array([(0.0, 0.0), (0.1, 0.0)])
        expected = 0.1 * abs(np.log(0.1))
        assert check_log_holder(f, pts) == pytest.approx(expected, rel=1e-12)

    def test_no_close_pairs(self):
        f = ScalarField.constant(1.0)
        pts = np.array([(0.0, 0.0), (0.9, 0.0)])
        with pytest.raises(ValueError, match="1/2"):
            check_log_holder(f, pts)


class TestR0:
    def test_basic_value(self):
        assert compute_r0(1.5, 1.0, 2, 1.0, 1.2) == pytest.approx(0.1125)

    def test_large_holder_constant(self):
        assert compute_r0(1.5, 1.0, 2, 1e3, 1.2) == pytest.approx(1.125e-4)

    def test_clamped_to_one(self):
        assert compute_r0(1.5, 1.0, 2, 1e-6, 1.2) == 1.0

    def test_hprime_violation(self):
        with pytest.raises(ValueError, match="violated"):
            compute_r0(1.5, 1.0, 2, 1.0, 1.6)

    def test_monotone_in_inputs(self):
        base = compute_r0(1.5, 1.0, 2, 1.0, 1.2)
        assert compute_r0(1.5, 1.0, 2, 2.0, 1.2) <= base
        assert compute_r0(1.5, 1.0, 2, 1.0, 1.3) <= base
        for L in (0.01, 0.1, 1, 10, 100):
            assert 0 < compute_r0(1.5, 1.0, 2, L, 1.2) <= 1.0


class TestTightenR0:
    def test_keeps_smaller(self):
        assert tighten_r0(0.1125, 1.5, 1.0, 0.5, 1.0) == pytest.approx(0.1125)

    def test_second_bound_binds(self):
        out = tighten_r0(0.1125, 1.5, 1.0, 0.99, 1.0)
        assert out == pytest.approx((1 - 0.99) / 0.99 * 1.5 / 2, rel=1e-6)

    def test_small_d_returns_r0(self):
        assert tighten_r0(0.1125, 1.5, 1.0, 1e-9, 1.0) == pytest.approx(0.1125)

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            tighten_r0(0.1, 1.5, 1.0, 1.0, 1.0)


class TestHypothesisReport:
    def test_consistent(self):
        assert HypothesisReport("H1", True, (0.5, 0.5), 0.1).passed

    @pytest.mark.parametrize("passed, margin", [(True, -0.1), (True, 0.0),
                                                (False, 0.1)])
    def test_inconsistent_rejected(self, passed, margin):
        with pytest.raises(ValueError, match="contradicts"):
            HypothesisReport("H1", passed, (0.5, 0.5), margin)
