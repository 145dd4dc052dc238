import numpy as np
import pytest

from multiphase import (Ball, BallFamily, FeFunction, FluxParams, UNIT_SQUARE,
                        ball_quadrature,
                        boundary_higher_integrability_probe, caccioppoli_ratio,
                        caccioppoli_truncation_ratio, higher_integrability_probe,
                        interpolate, minimize_dirichlet, poincare_w0_ratio,
                        refine, sobolev_poincare_ratio,
                        sobolev_poincare_zero_set, structured_mesh)
from multiphase import solver
from multiphase.operator import PhaseDiscretization
from multiphase.solver import (PhaseProblem, SourceTerm, first_eigenvalue,
                               weak_residual_sup)

from conftest import random_fe

CENTER_PAIR = (Ball((0.5, 0.5), 0.1), Ball((0.5, 0.5), 0.2))


class TestBallFamily:
    def test_concentric_pairs_layout(self):
        fam = BallFamily.concentric_pairs([(0.5, 0.5), (0.3, 0.3)],
                                          [(0.1, 0.2)])
        assert len(fam.balls) == 4 and len(fam.pairing) == 2

    def test_non_concentric_rejected(self):
        with pytest.raises(ValueError, match="concentric"):
            BallFamily((Ball((0, 0), 0.1), Ball((1, 0), 0.2)), ((0, 1),))

    def test_unordered_radii_rejected(self):
        with pytest.raises(ValueError, match="R1 < R2"):
            BallFamily((Ball((0, 0), 0.2), Ball((0, 0), 0.1)), ((0, 1),))


class TestMinimizeDirichlet:
    def test_affine_trace_is_minimizer(self, laplace_flux, square16):
        u = minimize_dirichlet(laplace_flux, square16,
                               lambda x, y: 1 + x - 2 * y)
        exact = interpolate(lambda x, y: 1 + x - 2 * y, square16)
        assert np.allclose(u.nodal_values, exact.nodal_values, atol=1e-9)

    def test_triple_phase_minimizer(self, triple_flux, square16):
        u = minimize_dirichlet(triple_flux, square16,
                               lambda x, y: np.sin(np.pi * x) * y)
        assert np.all(np.isfinite(u.nodal_values))

    def test_carries_no_discretization(self, triple_flux, square16):
        """The minimizer comes without the solve's discretization, and its
        residual check reads what a freshly built discretization reads."""
        def trace(x, y):
            return np.sin(np.pi * x) * y

        u = minimize_dirichlet(triple_flux, square16, trace)
        assert u.discretization is None
        prob = PhaseProblem(square16, triple_flux, SourceTerm.zero(),
                            interpolate(trace, square16).nodal_values)
        fresh = PhaseDiscretization(triple_flux, square16)
        load = solver._source_load(fresh, prob.source, u.nodal_values)
        assert weak_residual_sup(prob, u) == solver._sup_norm(
            fresh.residual(u.nodal_values, load, eps=triple_flux.check_eps))


class TestCaccioppoli:
    def test_affine_closed_form(self, laplace_flux):
        """p = 2, mu = 0, affine u: ratio = 4 R1^2 (R2-R1)^2 / R2^4."""
        mesh = structured_mesh(UNIT_SQUARE, 64)
        u = interpolate(lambda x, y: 2 * x - y, mesh)
        r1, r2 = 0.1, 0.2
        got = caccioppoli_ratio(laplace_flux, u,
                                (Ball((0.5, 0.5), r1), Ball((0.5, 0.5), r2)))
        expect = 4 * r1 ** 2 * (r2 - r1) ** 2 / r2 ** 4
        assert got == pytest.approx(expect, rel=0.02)

    def test_constant_zero_ratio(self, triple_flux, square32):
        u = FeFunction(square32, np.full(square32.n_vertices, 3.0))
        assert caccioppoli_ratio(triple_flux, u, CENTER_PAIR) == 0.0

    def test_minimizer_finite_and_stable(self, triple_flux):
        mesh = structured_mesh(UNIT_SQUARE, 16)
        vals = []
        for _ in range(2):
            u = minimize_dirichlet(triple_flux, mesh,
                                   lambda x, y: np.sin(np.pi * x) * y)
            vals.append(caccioppoli_ratio(triple_flux, u, CENTER_PAIR))
            mesh = refine(mesh)
        assert np.isfinite(vals[0]) and np.isfinite(vals[1])
        assert abs(vals[1] - vals[0]) <= 0.5 * max(abs(vals[0]), abs(vals[1]))

    def test_bad_pair_rejected(self, triple_flux, square16):
        u = FeFunction(square16, np.zeros(square16.n_vertices))
        with pytest.raises(ValueError):
            caccioppoli_ratio(triple_flux, u,
                              (Ball((0.5, 0.5), 0.2), Ball((0.5, 0.5), 0.1)))


class TestTruncation:
    def test_level_above_max_gives_zero(self, triple_flux, square16):
        u = interpolate(lambda x, y: x * (1 - x), square16)
        r = caccioppoli_truncation_ratio(triple_flux, u, CENTER_PAIR, 10.0, +1)
        assert r == 0.0

    def test_level_below_min_matches_shifted(self, laplace_flux):
        mesh = structured_mesh(UNIT_SQUARE, 32)
        u = interpolate(lambda x, y: 2 * x - y, mesh)
        full = caccioppoli_truncation_ratio(laplace_flux, u, CENTER_PAIR,
                                            -100.0, +1)
        assert np.isfinite(full) and full > 0

    def test_bad_sign(self, laplace_flux, square16):
        u = FeFunction(square16, np.zeros(square16.n_vertices))
        with pytest.raises(ValueError, match="sign"):
            caccioppoli_truncation_ratio(laplace_flux, u, CENTER_PAIR, 0.0, 2)


class TestSobolevPoincare:
    def test_finite_for_minimizer(self, triple_flux, square16):
        u = minimize_dirichlet(triple_flux, square16,
                               lambda x, y: np.sin(np.pi * x) * y)
        r = sobolev_poincare_ratio(triple_flux, u, Ball((0.5, 0.5), 0.2), 0.5)
        assert np.isfinite(r) and r >= 0

    def test_constant_gives_zero(self, triple_flux, square32):
        u = FeFunction(square32, np.full(square32.n_vertices, 4.0))
        r = sobolev_poincare_ratio(triple_flux, u, Ball((0.5, 0.5), 0.2), 0.5)
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_delta_range(self, triple_flux, square16):
        u = FeFunction(square16, np.zeros(square16.n_vertices))
        with pytest.raises(ValueError, match="delta"):
            sobolev_poincare_ratio(triple_flux, u, Ball((0.5, 0.5), 0.2), 1.5)

    def test_zero_set_variant(self, laplace_flux, square32):
        # u vanishes on the left half of the ball
        u = interpolate(lambda x, y: np.maximum(x - 0.5, 0.0), square32)
        ind = lambda x, y: x <= 0.5
        r = sobolev_poincare_zero_set(laplace_flux, u, Ball((0.5, 0.5), 0.2),
                                      ind, 0.5, 0.4)
        assert np.isfinite(r) and r > 0

    def test_zero_set_measure_guard(self, laplace_flux, square32):
        u = FeFunction(square32, np.zeros(square32.n_vertices))
        ind = lambda x, y: x <= 0.31  # sliver of the ball around (0.5, 0.5)
        with pytest.raises(ValueError, match="gamma"):
            sobolev_poincare_zero_set(laplace_flux, u, Ball((0.5, 0.5), 0.2),
                                      ind, 0.5, 0.9)


class TestPoincareW0:
    def test_matches_eigenvalue_for_laplace(self, laplace_flux):
        mesh = structured_mesh(UNIT_SQUARE, 24)
        lam, ef = first_eigenvalue(mesh, 2.0)
        r = poincare_w0_ratio(laplace_flux, ef)
        assert r == pytest.approx(1.0 / np.sqrt(lam), rel=1e-8)

    def test_random_below_eigen_bound(self, laplace_flux, square16):
        lam, _ = first_eigenvalue(square16, 2.0)
        rng = np.random.default_rng(40)
        for _ in range(5):
            u = random_fe(square16, rng)
            assert poincare_w0_ratio(laplace_flux, u) <= 1 / np.sqrt(lam) + 1e-10

    def test_boundary_guard(self, laplace_flux, square8):
        u = FeFunction(square8, np.ones(square8.n_vertices))
        with pytest.raises(ValueError, match="boundary"):
            poincare_w0_ratio(laplace_flux, u)


class TestHigherIntegrability:
    def test_constant_gradient_sanity(self, triple_flux, square32):
        """Affine u: every reverse-Hoelder ratio reduces to g/(1+g) exactly."""
        u = interpolate(lambda x, y: x + y, square32)
        fam = BallFamily.concentric_pairs([(0.5, 0.5)], [(0.1, 0.2)])
        rep = higher_integrability_probe(triple_flux, u, fam, [0.05, 0.1])
        s = np.sqrt(2.0)
        g = s ** 2 + s ** 3 + s ** 4
        for _, m, r in rep.per_ball:
            assert r == pytest.approx(g / (1 + g), abs=1e-8)

    def test_minimizer_stable_m(self, triple_flux):
        mesh = structured_mesh(UNIT_SQUARE, 16)
        u = minimize_dirichlet(triple_flux, mesh,
                               lambda x, y: np.sin(np.pi * x) * y)
        fam = BallFamily.concentric_pairs([(0.5, 0.5), (0.3, 0.7)],
                                          [(0.1, 0.2)])
        rep = higher_integrability_probe(triple_flux, u, fam,
                                         [0.02, 0.05, 0.1])
        assert rep.parameters["largest_stable_m"] is not None

    def test_m_grid_guard(self, triple_flux, square16):
        u = FeFunction(square16, np.zeros(square16.n_vertices))
        fam = BallFamily.concentric_pairs([(0.5, 0.5)], [(0.1, 0.2)])
        with pytest.raises(ValueError, match="m_grid"):
            higher_integrability_probe(triple_flux, u, fam, [1.5])

    def test_empty_inputs_rejected(self, triple_flux, square16):
        u = FeFunction(square16, np.zeros(square16.n_vertices))
        with pytest.raises(ValueError, match="ball family has no pairs"):
            higher_integrability_probe(triple_flux, u, BallFamily((), ()), [0.1])
        fam = BallFamily.concentric_pairs([(0.5, 0.5)], [(0.1, 0.2)])
        with pytest.raises(ValueError, match="m_grid is empty"):
            higher_integrability_probe(triple_flux, u, fam, [])


class TestBoundaryHigherIntegrability:
    def test_identical_maps_bounded(self, triple_flux, square32):
        v = interpolate(lambda x, y: x + y, square32)
        rep = boundary_higher_integrability_probe(
            triple_flux, v, v, [CENTER_PAIR], m_grid=(0.05,))
        assert rep.empirical_constant < 1.0

    def test_pair_validation(self, triple_flux, square16):
        v = FeFunction(square16, np.zeros(square16.n_vertices))
        bad = (Ball((0.4, 0.5), 0.1), Ball((0.5, 0.5), 0.2))
        with pytest.raises(ValueError):
            boundary_higher_integrability_probe(triple_flux, v, v, [bad])

    def test_empty_inputs_rejected(self, triple_flux, square16):
        v = FeFunction(square16, np.zeros(square16.n_vertices))
        with pytest.raises(ValueError, match="ball_pairs is empty"):
            boundary_higher_integrability_probe(triple_flux, v, v, [])
        with pytest.raises(ValueError, match="m_grid is empty"):
            boundary_higher_integrability_probe(triple_flux, v, v,
                                                [CENTER_PAIR], m_grid=())

    @pytest.mark.parametrize("m", [1.5, -0.5, 0.0])
    def test_m_outside_unit_interval_rejected(self, triple_flux, square16, m):
        v = interpolate(lambda x, y: x + y, square16)
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            boundary_higher_integrability_probe(triple_flux, v, v,
                                                [CENTER_PAIR], m_grid=(m,))


class TestBallWithoutPoints:
    """A ball that holds no quadrature point is a ValueError naming the
    ball, from all six ball probes on both phase kinds."""

    TINY = Ball((0.51, 0.52), 1e-7)
    PAIR = (TINY, Ball((0.51, 0.52), 2e-7))
    PROBES = {
        "caccioppoli": lambda fp, u, pair: caccioppoli_ratio(fp, u, pair),
        "truncation": lambda fp, u, pair: caccioppoli_truncation_ratio(
            fp, u, pair, 0.0, +1),
        "sobolev_poincare": lambda fp, u, pair: sobolev_poincare_ratio(
            fp, u, pair[0], 0.5),
        "zero_set": lambda fp, u, pair: sobolev_poincare_zero_set(
            fp, u, pair[0], lambda x, y: x >= 0, 0.5, 0.1),
        "higher": lambda fp, u, pair: higher_integrability_probe(
            fp, u, BallFamily(pair, ((0, 1),)), [0.1]),
        "boundary": lambda fp, u, pair: boundary_higher_integrability_probe(
            fp, u, u, [pair]),
    }

    @pytest.mark.parametrize("probe", sorted(PROBES))
    @pytest.mark.parametrize("phase", ["triple_flux", "variable"])
    def test_value_error(self, request, square16, variable_phase, phase, probe):
        fp = (request.getfixturevalue(phase) if phase == "triple_flux"
              else FluxParams(variable_phase, eps=1e-8))
        x, y = square16.vertices.T
        u = FeFunction(square16, x * y)
        with pytest.raises(ValueError, match=r"Ball\(center=\(0\.51, 0\.52\), "
                                             r"radius=1e-07\) holds no quadrature"):
            self.PROBES[probe](fp, u, self.PAIR)
        # the ball quadrature itself is empty, not an error
        assert len(ball_quadrature(square16, self.TINY).weights) == 0
