import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiphase import (ExponentTriple, FeFunction, ScalarField, UNIT_SQUARE,
                        WeightPair, check_delta2, check_norm_modular_relations,
                        check_seminorm_domination, check_subadditivity,
                        check_uniform_convexity, interpolate, luxemburg_norm,
                        modular, t_value, weighted_seminorm)
from multiphase.modular import PhaseFunction

from conftest import random_fe

GOLDEN_RATIO_NORM = 1.2720196495140689  # 1/sqrt(y), y + y^2 = 1


@pytest.fixture(scope="module")
def quad16(square16):
    return square16.quadrature(5)


def const_fe(mesh, c):
    return FeFunction(mesh, np.full(mesh.n_vertices, float(c)))


class TestTValue:
    def test_zero(self, triple_phase):
        assert t_value(triple_phase, (0.3, 0.7), 0.0) == 0.0

    def test_sum_of_powers(self, triple_phase):
        assert t_value(triple_phase, (0.5, 0.5), 2.0) == pytest.approx(28.0)
        assert t_value(triple_phase, (0.5, 0.5), 1.0) == pytest.approx(3.0)

    def test_negative_t_rejected(self, triple_phase):
        with pytest.raises(ValueError):
            t_value(triple_phase, (0.5, 0.5), -1.0)


class TestModular:
    def test_unit_constant(self, laplace_phase, square16, quad16):
        assert modular(laplace_phase, const_fe(square16, 1), quad16) == pytest.approx(1.0)

    def test_squares(self, laplace_phase, square16, quad16):
        assert modular(laplace_phase, const_fe(square16, 2), quad16) == pytest.approx(4.0)

    def test_two_term(self, square16, quad16):
        tf = PhaseFunction(ExponentTriple.constants(2, 4, 4),
                           WeightPair.constants(1, 0))
        assert modular(tf, const_fe(square16, 1), quad16) == pytest.approx(2.0)

    def test_zero_iff_vanishing(self, laplace_phase, square16, quad16):
        assert modular(laplace_phase, const_fe(square16, 0), quad16) == 0.0

    def test_monotone(self, laplace_phase, square16, quad16):
        rng = np.random.default_rng(3)
        u = random_fe(square16, rng)
        v = FeFunction(square16, 2 * np.abs(u.nodal_values) + 0.1)
        assert modular(laplace_phase, u, quad16) <= modular(laplace_phase, v, quad16)


class TestLuxemburgNorm:
    def test_pure_power(self, laplace_phase, square16, quad16):
        rep = luxemburg_norm(laplace_phase, const_fe(square16, 2), quad16)
        assert rep.luxemburg_norm == pytest.approx(2.0, rel=1e-9)

    def test_golden_ratio_case(self, square16, quad16):
        # p=2, q=4, mu1=1: solve y + y^2 = 1 with y = 1/alpha^2
        tf = PhaseFunction(ExponentTriple.constants(2, 4, 4),
                           WeightPair.constants(1, 0))
        rep = luxemburg_norm(tf, const_fe(square16, 1), quad16)
        assert rep.luxemburg_norm == pytest.approx(GOLDEN_RATIO_NORM, rel=1e-9)

    def test_zero_function(self, triple_phase, square16, quad16):
        rep = luxemburg_norm(triple_phase, const_fe(square16, 0), quad16)
        assert rep.luxemburg_norm == 0.0 and rep.modular_value == 0.0

    def test_unit_sphere_identity(self, variable_phase, square16, quad16):
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = random_fe(square16, rng, scale=3.0)
            rep = luxemburg_norm(variable_phase, u, quad16, rel_tol=1e-10)
            if rep.luxemburg_norm > 0:
                scaled = u.nodal_values / rep.luxemburg_norm
                rho = modular(variable_phase, FeFunction(square16, scaled), quad16)
                assert abs(rho - 1.0) <= 1e-10

    def test_homogeneity(self, variable_phase, square16, quad16):
        rng = np.random.default_rng(5)
        u = random_fe(square16, rng)
        n1 = luxemburg_norm(variable_phase, u, quad16).luxemburg_norm
        for c in (0.3, 2.0, 17.0):
            v = FeFunction(square16, c * u.nodal_values)
            nc = luxemburg_norm(variable_phase, v, quad16).luxemburg_norm
            assert nc == pytest.approx(c * n1, rel=2e-10)

    def test_triangle_inequality(self, variable_phase, square16, quad16):
        rng = np.random.default_rng(6)
        for _ in range(20):
            u = random_fe(square16, rng)
            v = random_fe(square16, rng)
            s = FeFunction(square16, u.nodal_values + v.nodal_values)
            nu = luxemburg_norm(variable_phase, u, quad16).luxemburg_norm
            nv = luxemburg_norm(variable_phase, v, quad16).luxemburg_norm
            ns = luxemburg_norm(variable_phase, s, quad16).luxemburg_norm
            assert ns <= nu + nv + 1e-8

    def test_bracket_contains_norm(self, triple_phase, square16, quad16):
        rng = np.random.default_rng(7)
        u = random_fe(square16, rng, scale=2.0)
        rep = luxemburg_norm(triple_phase, u, quad16)
        lo, hi = rep.bracket
        assert lo <= rep.luxemburg_norm <= hi


class TestLuxemburgProperties:
    """The Luxemburg norm is a norm, up to its root-finding tolerance."""

    REL_TOL = 1e-10

    @staticmethod
    def _samples(quad, seed, scale):
        rng = np.random.default_rng(seed)
        return scale * rng.uniform(-1.0, 1.0, quad.weights.shape)

    def _norm(self, tf, vals, quad):
        return luxemburg_norm(tf, vals, quad, rel_tol=self.REL_TOL).luxemburg_norm

    @settings(max_examples=30, deadline=None)
    @given(phase=st.sampled_from(["triple_phase", "variable_phase"]),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-3, 1e3),
           c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
    def test_homogeneous(self, request, square8, phase, seed, scale, c):
        tf, quad = request.getfixturevalue(phase), square8.quadrature(5)
        u = self._samples(quad, seed, scale)
        n1, nc = self._norm(tf, u, quad), self._norm(tf, c * u, quad)
        assert abs(nc - abs(c) * n1) <= 4 * self.REL_TOL * abs(c) * n1

    @settings(max_examples=30, deadline=None)
    @given(phase=st.sampled_from(["triple_phase", "variable_phase"]),
           seeds=st.tuples(st.integers(0, 2 ** 32 - 1),
                           st.integers(0, 2 ** 32 - 1)),
           scales=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)))
    def test_triangle_inequality(self, request, square8, phase, seeds, scales):
        tf, quad = request.getfixturevalue(phase), square8.quadrature(5)
        u = self._samples(quad, seeds[0], scales[0])
        v = self._samples(quad, seeds[1], scales[1])
        nu, nv = self._norm(tf, u, quad), self._norm(tf, v, quad)
        assert self._norm(tf, u + v, quad) <= (nu + nv) * (1 + 4 * self.REL_TOL)


class TestWeightedSeminorm:
    def test_zero_weight(self, square16, quad16):
        out = weighted_seminorm(ScalarField.constant(2), ScalarField.constant(0),
                                const_fe(square16, 5), quad16)
        assert out == 0.0

    def test_unit_weight(self, square16, quad16):
        out = weighted_seminorm(ScalarField.constant(2), ScalarField.constant(1),
                                const_fe(square16, 2), quad16)
        assert out == pytest.approx(2.0, rel=1e-9)

    def test_weight_four(self, square16, quad16):
        out = weighted_seminorm(ScalarField.constant(2), ScalarField.constant(4),
                                const_fe(square16, 1), quad16)
        assert out == pytest.approx(2.0, rel=1e-9)


class TestNormModularRelations:
    def test_pure_power_small(self, laplace_phase, square16, quad16):
        rep = check_norm_modular_relations(laplace_phase, const_fe(square16, 0.5), quad16)
        assert rep.passed

    def test_pure_power_large(self, laplace_phase, square16, quad16):
        rep = check_norm_modular_relations(laplace_phase, const_fe(square16, 2), quad16)
        assert rep.passed

    def test_three_term(self, triple_phase, square16, quad16):
        rep = check_norm_modular_relations(triple_phase, const_fe(square16, 0.3), quad16)
        assert rep.passed
        nrm = luxemburg_norm(triple_phase, const_fe(square16, 0.3), quad16).luxemburg_norm
        rho = modular(triple_phase, const_fe(square16, 0.3), quad16)
        assert nrm ** 4 <= rho + 1e-10 <= nrm ** 2 + 2e-10

    def test_random_sweep(self, variable_phase, square16, quad16):
        rng = np.random.default_rng(8)
        for _ in range(25):
            u = random_fe(square16, rng, scale=rng.uniform(0.1, 5))
            rep = check_norm_modular_relations(variable_phase, u, quad16)
            assert rep.passed, rep.slacks


class TestDelta2:
    def test_arithmetic_case(self, triple_phase):
        rep = check_delta2(triple_phase, [(0.5, 0.5)], [1.0])
        # T(2) = 28 <= 16 * T(1) = 48
        assert rep.passed

    def test_pure_square_boundary(self, laplace_phase):
        rep = check_delta2(laplace_phase, [(0.2, 0.8)], [3.0])
        assert rep.passed
        assert rep.slacks["c_delta_minus_max_ratio"] == pytest.approx(0.0, abs=1e-12)

    def test_random_sweep(self, variable_phase):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 1, (10000, 2))
        ts = 10.0 ** rng.uniform(-6, 3, 10000)
        rep = check_delta2(variable_phase, pts, ts)
        assert rep.passed


class TestSubadditivity:
    def test_equal_args_reduces_to_delta2(self, triple_phase):
        rep = check_subadditivity(triple_phase, [(0.5, 0.5)], [1.0], [1.0])
        assert rep.passed

    def test_zero_s(self, triple_phase):
        rep = check_subadditivity(triple_phase, [(0.5, 0.5)], [2.0], [0.0])
        assert rep.passed

    def test_random_sweep(self):
        tf = PhaseFunction(ExponentTriple.constants(1.5, 2, 3),
                           WeightPair.constants(0.7, 0.3))
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 1, (10000, 2))
        ts = rng.uniform(1e-6, 10, 10000)
        ss = rng.uniform(1e-6, 10, 10000)
        rep = check_subadditivity(tf, pts, ts, ss)
        assert rep.passed
        assert rep.slacks["c_delta_minus_max_ratio"] >= 0


class TestUniformConvexity:
    def test_extreme_pair(self, laplace_phase):
        rep = check_uniform_convexity(laplace_phase, 0.5, [(0.5, 0.5)], [1.0], [0.0])
        assert rep.slacks["eta_hat"] == pytest.approx(0.5)

    def test_filter_excludes_equal(self, laplace_phase):
        with pytest.raises(ValueError):
            check_uniform_convexity(laplace_phase, 0.5, [(0.5, 0.5)], [1.0], [1.0])

    def test_random_sweep(self):
        exp = ExponentTriple.constants(1.5, 2, 4)
        rng = np.random.default_rng(11)
        w = WeightPair.sample(ScalarField.expression("x1"),
                              ScalarField.expression("x2"), UNIT_SQUARE, n=16)
        tf = PhaseFunction(exp, w)
        pts = rng.uniform(0, 1, (10000, 2))
        ts = 10.0 ** rng.uniform(-6, 3, 10000)
        ss = 10.0 ** rng.uniform(-6, 3, 10000)
        rep = check_uniform_convexity(tf, 0.5, pts, ts, ss)
        assert rep.passed and rep.slacks["eta_hat"] > 0


class TestSeminormDomination:
    def test_zero_weights(self, laplace_phase, square16, quad16):
        rep = check_seminorm_domination(laplace_phase, const_fe(square16, 2), quad16)
        assert rep.passed

    def test_zero_function(self, triple_phase, square16, quad16):
        rep = check_seminorm_domination(triple_phase, const_fe(square16, 0), quad16)
        assert rep.passed

    def test_random_function(self, variable_phase, square16, quad16):
        rng = np.random.default_rng(12)
        rep = check_seminorm_domination(variable_phase,
                                        random_fe(square16, rng, scale=2.0), quad16)
        assert rep.passed


class TestDoublePhaseReduction:
    def test_mu2_zero_matches_two_term(self, square16, quad16):
        """Dropping the third term entirely must reproduce the mu2 = 0 values."""
        exp = ExponentTriple.constants(2, 3, 4)
        tf = PhaseFunction(exp, WeightPair.constants(0.8, 0.0))
        rng = np.random.default_rng(13)
        u = random_fe(square16, rng, scale=2.0)
        rho = modular(tf, u, quad16)
        nrm = luxemburg_norm(tf, u, quad16).luxemburg_norm
        # independent two-term path
        x1, x2 = quad16.points[:, 0], quad16.points[:, 1]
        vals = np.abs(u.at_quad(quad16))
        pv, qv = exp.p(x1, x2), exp.q(x1, x2)
        m1 = np.full_like(pv, 0.8)

        def rho2(alpha):
            return float(quad16.weights @ ((vals / alpha) ** pv
                                           + m1 * (vals / alpha) ** qv))

        assert rho == pytest.approx(rho2(1.0), rel=1e-13)
        lo, hi = 1e-6, 1e6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if rho2(mid) > 1:
                lo = mid
            else:
                hi = mid
        assert nrm == pytest.approx(0.5 * (lo + hi), rel=1e-9)
