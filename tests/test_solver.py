import logging
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from multiphase import solver
from multiphase import (Domain2D, ExponentTriple, FluxParams, PhaseProblem,
                        SourceTerm, UNIT_SQUARE, WeightPair, check_h2,
                        check_h3, first_eigenvalue, interpolate, refine,
                        solve_convection,
                        solve_variational, structured_mesh,
                        verify_uniqueness_empirical, weak_residual_sup)
from multiphase.mesh import FeFunction
from multiphase.modular import PhaseFunction
from multiphase.operator import PhaseDiscretization
from multiphase.solver import _linear_solve

from conftest import random_fe

TWO_PI_SQ = 2 * np.pi ** 2


def dirichlet_zero(mesh):
    return np.zeros(mesh.n_vertices)


def sine_load():
    return SourceTerm.of_x(
        lambda x, y: TWO_PI_SQ * np.sin(np.pi * x) * np.sin(np.pi * y))


class TestVariationalLaplace:
    def test_manufactured_convergence(self, laplace_flux):
        errs = []
        for n in (8, 16, 32):
            mesh = structured_mesh(UNIT_SQUARE, n)
            prob = PhaseProblem(mesh, laplace_flux, sine_load(),
                                dirichlet_zero(mesh))
            rep = solve_variational(prob, tol=1e-12)
            assert rep.converged
            exact = interpolate(
                lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mesh)
            errs.append(np.max(np.abs(rep.solution.nodal_values
                                      - exact.nodal_values)))
        assert errs[1] / errs[2] > 3.0
        assert errs[0] / errs[1] > 3.0

    def test_manufactured_rates_over_refine(self, laplace_flux):
        """Over a refine hierarchy (n = 8 ... 64) the error of the P1
        solution falls at rate 1 in the H1 seminorm and 2 in L2."""
        mesh = structured_mesh(UNIT_SQUARE, 4)
        h1, l2 = [], []
        for _ in range(4):
            mesh = refine(mesh)
            prob = PhaseProblem(mesh, laplace_flux, sine_load(),
                                dirichlet_zero(mesh))
            rep = solve_variational(prob, tol=1e-12)
            assert rep.converged
            quad = mesh.quadrature(5)
            x, y = np.pi * quad.points.T
            grad = np.pi * np.column_stack([np.cos(x) * np.sin(y),
                                            np.sin(x) * np.cos(y)])
            dg = rep.solution.gradients()[quad.tri_index] - grad
            h1.append(np.sqrt(quad.weights @ np.sum(dg * dg, axis=1)))
            du = rep.solution.at_quad(quad) - np.sin(x) * np.sin(y)
            l2.append(np.sqrt(quad.weights @ du ** 2))
        h1_rates = np.log2(np.array(h1[:-1]) / h1[1:])
        l2_rates = np.log2(np.array(l2[:-1]) / l2[1:])
        assert np.all(np.abs(h1_rates - 1.0) <= 0.05), h1_rates
        assert np.all(np.abs(l2_rates - 2.0) <= 0.05), l2_rates

    def test_zero_load_zero_solution(self, laplace_flux, square8):
        prob = PhaseProblem(square8, laplace_flux, SourceTerm.zero(),
                            dirichlet_zero(square8))
        rep = solve_variational(prob)
        assert rep.converged
        assert np.max(np.abs(rep.solution.nodal_values)) == 0.0

    def test_dirichlet_lift(self, laplace_flux, square8):
        g = interpolate(lambda x, y: 1 + 2 * x - y, square8)
        prob = PhaseProblem(square8, laplace_flux, SourceTerm.zero(),
                            g.nodal_values)
        rep = solve_variational(prob, tol=1e-12)
        # affine data is harmonic: the P1 interpolant is the exact solution
        assert np.allclose(rep.solution.nodal_values, g.nodal_values,
                           atol=1e-10)

    def test_maximum_principle(self, laplace_flux, square16):
        f = SourceTerm.of_x(lambda x, y: np.ones(np.shape(x)))
        prob = PhaseProblem(square16, laplace_flux, f, dirichlet_zero(square16))
        rep = solve_variational(prob)
        assert np.all(rep.solution.nodal_values >= -1e-12)

    def test_grad_dependent_rejected(self, laplace_flux, square8):
        f = SourceTerm(lambda x1, x2, t, z1, z2: z1, grad_dependent=True)
        prob = PhaseProblem(square8, laplace_flux, f, dirichlet_zero(square8))
        with pytest.raises(ValueError, match="gradient-independent"):
            solve_variational(prob)


class TestVariationalNonlinear:
    def test_p3_radial_disk(self):
        """Radial p-Laplace benchmark on the unit disk, p = 3."""
        p = 3.0
        const = (p - 1) / p * 0.5 ** (1 / (p - 1))
        exact = lambda rho: const * (1 - rho ** (p / (p - 1)))
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(3, 3, 3),
                                      WeightPair.constants(0, 0)), eps=1e-8)
        errs = []
        for n_vert, n in ((16, 4), (32, 8), (64, 16)):
            th = np.linspace(0, 2 * np.pi, n_vert, endpoint=False)
            disk = Domain2D(tuple(zip(np.cos(th), np.sin(th))))
            mesh = structured_mesh(disk, n)
            prob = PhaseProblem(mesh, fp, SourceTerm.of_x(
                lambda x, y: np.ones(np.shape(x))), dirichlet_zero(mesh))
            rep = solve_variational(prob, tol=1e-10)
            assert rep.converged
            rho = np.linalg.norm(mesh.vertices, axis=1)
            interior = ~mesh.boundary_flags
            err = np.max(np.abs(rep.solution.nodal_values[interior]
                                - exact(rho[interior])))
            errs.append(err)
        assert errs[0] > errs[1] > errs[2]

    def test_triple_phase_converges(self, triple_flux, square16):
        prob = PhaseProblem(square16, triple_flux, sine_load(),
                            dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        assert rep.residual_history[-1] <= 1e-10
        assert np.max(np.abs(rep.solution.nodal_values)) > 0.1

    def test_energy_monotone_history(self, triple_flux, square16):
        prob = PhaseProblem(square16, triple_flux, sine_load(),
                            dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10)
        e = rep.energy_history
        assert e[-1] <= e[0] + 1e-12

    def test_weak_residual_matches(self, triple_flux, square16):
        prob = PhaseProblem(square16, triple_flux, sine_load(),
                            dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10)
        assert weak_residual_sup(prob, rep.solution) <= 1e-10


class TestConvection:
    def make_problem(self, mesh, fp, k3=0.05, k4=0.05):
        f = SourceTerm(
            lambda x1, x2, t, z1, z2:
                np.sin(np.pi * x1) * np.sin(np.pi * x2)
                + k3 * z1 + k4 * t,
            grad_dependent=True, constants={"k3": k3, "k4": k4,
                                            "k5": k3, "k6": k4})
        return PhaseProblem(mesh, fp, f, dirichlet_zero(mesh))

    def test_converges_small_coupling(self, triple_flux, square16):
        prob = self.make_problem(square16, triple_flux)
        rep = solve_convection(prob, tol=1e-10)
        assert rep.converged
        assert weak_residual_sup(prob, rep.solution) <= 1e-8
        assert np.max(np.abs(rep.solution.nodal_values)) > 0

    def test_matches_variational_when_uncoupled(self, triple_flux, square16):
        prob_c = self.make_problem(square16, triple_flux, k3=0.0, k4=0.0)
        prob_v = PhaseProblem(square16, triple_flux, SourceTerm.of_x(
            lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)),
            dirichlet_zero(square16))
        rc = solve_convection(prob_c, tol=1e-11)
        rv = solve_variational(prob_v, tol=1e-11)
        assert np.max(np.abs(rc.solution.nodal_values
                             - rv.solution.nodal_values)) <= 1e-9

    def test_uniqueness_multistart(self, triple_flux, square8):
        prob = self.make_problem(square8, triple_flux)
        dist = verify_uniqueness_empirical(prob, 3, tol=1e-10)
        assert dist <= 1e-9

    def test_too_few_starts(self, triple_flux, square8):
        prob = self.make_problem(square8, triple_flux)
        with pytest.raises(ValueError):
            verify_uniqueness_empirical(prob, 1)


class TestEigenvalue:
    def test_m2_unit_square(self):
        mesh = structured_mesh(UNIT_SQUARE, 32)
        lam, ef = first_eigenvalue(mesh, 2.0)
        assert lam == pytest.approx(TWO_PI_SQ, rel=5e-3)
        assert lam >= TWO_PI_SQ  # Galerkin upper bound
        assert np.all(ef.nodal_values[mesh.boundary_flags] == 0)

    def test_m2_refinement_monotone(self):
        lams = [first_eigenvalue(structured_mesh(UNIT_SQUARE, n), 2.0)[0]
                for n in (8, 16, 32)]
        assert lams[0] > lams[1] > lams[2] > TWO_PI_SQ

    def test_eigenfunction_sign(self):
        mesh = structured_mesh(UNIT_SQUARE, 16)
        _, ef = first_eigenvalue(mesh, 2.0)
        interior = ef.nodal_values[~mesh.boundary_flags]
        assert np.all(interior > 0) or np.all(interior < 0)

    def test_m3_above_zero(self):
        mesh = structured_mesh(UNIT_SQUARE, 12)
        lam, _ = first_eigenvalue(mesh, 3.0)
        assert lam > 0

    def test_m3_descent_improves_m2_start(self):
        mesh = structured_mesh(UNIT_SQUARE, 12)
        lam2, ef2 = first_eigenvalue(mesh, 2.0)
        lam3, _ = first_eigenvalue(mesh, 3.0)
        from multiphase.solver import (PhaseDiscretization, FluxParams,
                                       _m_power_quantities)
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(3, 3, 3),
                                      WeightPair.constants(0, 0)), eps=1e-10)
        disc = PhaseDiscretization(fp, mesh)
        N, D, _ = _m_power_quantities(disc, 3.0, ef2.nodal_values)
        assert lam3 <= N / D + 1e-10

    def test_invalid_m(self, square8):
        with pytest.raises(ValueError):
            first_eigenvalue(square8, 1.0)

    @pytest.mark.parametrize("m", [np.nan, np.inf])
    def test_non_finite_m(self, square8, m):
        """A typed error, not an eps retry of the inverse power step."""
        with pytest.raises(ValueError, match="exceed 1 and be finite"):
            first_eigenvalue(square8, m)

    # lambda of the Rayleigh descent the inverse power method replaced
    # (seed 7, n = 16); a minimised quotient may only come out lower
    DESCENT_M3_N16 = 63.9569147823
    DESCENT_M15_N16 = 10.1521495410

    def test_m3_not_above_descent(self, square16):
        lam, _ = first_eigenvalue(square16, 3.0)
        assert lam <= self.DESCENT_M3_N16 * (1 + 1e-9)

    def test_m15_not_above_descent(self, square16):
        lam, _ = first_eigenvalue(square16, 1.5)
        assert lam <= self.DESCENT_M15_N16 * (1 + 1e-9)

    @pytest.mark.filterwarnings("error")
    def test_m15_warning_free(self, square16):
        """u = 0 on triangles with only boundary nodes: |u|^(m-2) u must
        not warn there."""
        first_eigenvalue(square16, 1.5)

    def test_max_iter_exhausted_raises(self, square16):
        with pytest.raises(RuntimeError):
            first_eigenvalue(square16, 3.0, max_iter=1)

    @pytest.mark.parametrize("m", [1.5, 3.0])
    def test_m_eigenfunction_normalised_one_sign(self, square16, m):
        lam, ef = first_eigenvalue(square16, m)
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(m, m, m),
                                      WeightPair.constants(0, 0)), eps=1e-10)
        N, D, _ = solver._m_power_quantities(
            PhaseDiscretization(fp, square16), m, ef.nodal_values)
        assert D == pytest.approx(1.0, rel=1e-12)
        assert lam == pytest.approx(N / D, rel=1e-12)
        interior = ef.nodal_values[~square16.boundary_flags]
        assert np.all(interior > 0) or np.all(interior < 0)

    @pytest.mark.parametrize("m", [1.1, 1.5, 3.0])
    def test_m_eigenpair_solves_equation(self, square16, m):
        """-Delta_m u = lambda |u|^(m-2) u to 1e-4 of its load: an
        unsettled pair (a step solved with its gradients below eps) leaves
        a residual of the size of the load."""
        lam, ef = first_eigenvalue(square16, m)
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(m, m, m),
                                      WeightPair.constants(0, 0)),
                        eps=0.0 if m >= 2 else 1e-10)
        disc = PhaseDiscretization(fp, square16)
        _, _, gD = solver._m_power_quantities(disc, m, ef.nodal_values)
        load = lam * gD / m
        res = disc.residual(ef.nodal_values, load)
        assert np.max(np.abs(res)) <= 1e-4 * np.max(np.abs(load[disc.free]))

    # lambda of first_eigenvalue(square16, 3.0) since its m = 2 inverse
    # iteration starts from the indicator of the free nodes
    M3_N16 = 63.956914647854425

    def test_one_factor_alive(self, square16, monkeypatch):
        """The m = 2 stiffness factor is released before the inverse power
        steps factor their Jacobians: no factor is alive when the next one
        is made, and lambda is unchanged."""
        refs, alive = [], []

        def record_alive(solve):
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(solve))
            return solve

        count_factors(monkeypatch, record_alive)
        lam, _ = first_eigenvalue(square16, 3.0)
        assert len(alive) >= 2 and max(alive) == 0
        assert lam == self.M3_N16

    def test_m_near_one_raises(self, square16):
        """At m = 1.05 the step's Newton solve stalls above sqrt(tol) of
        its load: no lambda rather than an unsettled one.  A solver that
        settles it must still come out at or below the descent's
        5.1322338515."""
        with pytest.raises(RuntimeError, match=r"not solved \(max_iter\)"):
            first_eigenvalue(square16, 1.05)

    @pytest.mark.parametrize("tol", [1e-2, 1e-3])
    def test_loose_tol_still_descends(self, tol):
        """A loose tol loosens the steps relative to their load, so they
        still move: lambda ends below the m = 2 start's quotient and
        within tol of the tight value."""
        mesh = structured_mesh(UNIT_SQUARE, 32)
        _, ef2 = first_eigenvalue(mesh, 2.0)
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(3, 3, 3),
                                      WeightPair.constants(0, 0)), eps=0.0)
        N, D, _ = solver._m_power_quantities(
            PhaseDiscretization(fp, mesh), 3.0, np.abs(ef2.nodal_values))
        tight, _ = first_eigenvalue(mesh, 3.0)
        lam, _ = first_eigenvalue(mesh, 3.0, tol=tol)
        assert lam < N / D
        assert lam <= tight * (1 + tol)


class TestH2H3:
    def test_h2_pass(self):
        src = SourceTerm.zero()
        src.constants.update(k3=0.2, k4=1.0)
        rep = check_h2(src, 19.7)
        assert rep.passed
        assert rep.margin == pytest.approx(1 - 0.2 - 1.0 / 19.7)

    def test_h2_fail(self):
        src = SourceTerm.zero()
        src.constants.update(k3=1.5, k4=0.0)
        assert not check_h2(src, 19.7).passed

    def test_h2_bad_lambda(self):
        with pytest.raises(ValueError):
            check_h2(SourceTerm.zero(), 0.0)

    def test_h3_margins(self):
        src = SourceTerm.zero()
        src.constants.update(k5=1.0, k6=1.0)
        rep = check_h3(src, 19.7)
        assert rep.passed
        assert rep.margin == pytest.approx(1 - 1 / 19.7 - 1 / np.sqrt(19.7))

    def test_h3_fail(self):
        src = SourceTerm.zero()
        src.constants.update(k5=50.0, k6=0.0)
        assert not check_h3(src, 19.7).passed


class TestLinearSolve:
    def test_spd_matches_spsolve(self):
        rng = np.random.default_rng(40)
        n = 300
        R = sp.random(n, n, density=0.01, random_state=rng, format="csr")
        A = (R @ R.T + sp.diags(rng.uniform(1.0, 2.0, n))).tocsr()
        b = rng.standard_normal(n)
        x = _linear_solve(A, b)
        ref = spla.spsolve(A.tocsc(), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_jacobian_matches_spsolve(self, triple_flux, square16):
        disc = PhaseDiscretization(triple_flux, square16)
        rng = np.random.default_rng(41)
        J = disc.jacobian(random_fe(square16, rng).nodal_values, eps=0.0)
        b = rng.standard_normal(J.shape[0])
        ref = spla.spsolve(J.tocsc(), b)
        assert np.max(np.abs(_linear_solve(J, b) - ref)) <= (
            1e-12 * np.max(np.abs(ref)))

    def test_singular_raises_linalg_error(self):
        A = sp.csr_matrix(np.diag([1.0, 0.0, 2.0]))
        with pytest.raises(np.linalg.LinAlgError):
            _linear_solve(A, np.ones(3))


class TestEpsRetry:
    def test_line_search_uses_retried_eps(self, triple_flux, square8,
                                          monkeypatch):
        """After a failed linear solve raises eps, the line search measures
        the merit at the raised eps, like the residual and Jacobian, and
        starts from the merit of the current state at that eps."""
        events = []
        real_solve = solver._linear_solve
        real_residual = PhaseDiscretization.residual
        real_energy = PhaseDiscretization.energy

        def failing_second(J, rhs):
            events.append(("solve", None, None))
            if sum(kind == "solve" for kind, _, _ in events) == 2:
                raise np.linalg.LinAlgError("forced")
            return real_solve(J, rhs)

        def recording_residual(self, u_vals, load=None, eps=None):
            events.append(("residual", eps, u_vals.copy()))
            return real_residual(self, u_vals, load, eps)

        def recording_energy(self, u_vals, eps=0.0):
            events.append(("energy", eps, u_vals.copy()))
            return real_energy(self, u_vals, eps)

        monkeypatch.setattr(solver, "_linear_solve", failing_second)
        monkeypatch.setattr(PhaseDiscretization, "residual", recording_residual)
        monkeypatch.setattr(PhaseDiscretization, "energy", recording_energy)
        prob = PhaseProblem(square8, triple_flux, sine_load(),
                            dirichlet_zero(square8))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        assert rep.eps_schedule == [0.0, 1e-6]
        third = [i for i, (kind, _, _) in enumerate(events)
                 if kind == "solve"][2]
        state = [u for kind, _, u in events[:third] if kind == "residual"][-1]
        search = []
        for kind, eps, u in events[third + 1:]:
            if kind != "energy":
                break
            search.append((eps, u))
        assert len(search) >= 2          # the merit at u, then the trials
        assert all(eps == 1e-6 for eps, _ in search)
        assert np.array_equal(search[0][1], state)


def rough_start(mesh, seed, scale=1.0):
    """Uniform random interior values in [-scale, scale], zero boundary."""
    vals = np.zeros(mesh.n_vertices)
    free = ~mesh.boundary_flags
    vals[free] = np.random.default_rng(seed).uniform(-scale, scale,
                                                     int(free.sum()))
    return vals


class TestStartChoice:
    """With an initial state, Newton starts from the lower-merit one of that
    state and the Dirichlet lift; the minimiser does not depend on it."""

    @pytest.fixture(params=["triple", "variable"])
    def flux(self, request, triple_flux, variable_phase):
        if request.param == "triple":
            return triple_flux
        return FluxParams(variable_phase, eps=1e-8)

    def test_rough_start_takes_lift(self, flux, square8):
        prob = PhaseProblem(square8, flux, sine_load(), dirichlet_zero(square8))
        plain = solve_variational(prob, tol=1e-10)
        rough = solve_variational(prob, tol=1e-10,
                                  initial=rough_start(square8, 3))
        assert plain.start == "lift" and rough.start == "lift"
        assert plain.converged and rough.converged
        assert np.max(np.abs(rough.solution.nodal_values
                             - plain.solution.nodal_values)) <= 1e-10

    def test_good_start_is_kept(self, flux, square8):
        prob = PhaseProblem(square8, flux, sine_load(), dirichlet_zero(square8))
        plain = solve_variational(prob, tol=1e-10)
        warm = solve_variational(prob, tol=1e-10,
                                 initial=plain.solution.nodal_values)
        assert warm.start == "initial"
        assert warm.converged
        assert warm.iterations <= plain.iterations

    def test_tie_keeps_initial(self, triple_flux, square8):
        prob = PhaseProblem(square8, triple_flux, sine_load(),
                            dirichlet_zero(square8))
        rep = solve_variational(prob, tol=1e-10,
                                initial=np.zeros(square8.n_vertices))
        assert rep.start == "initial"
        assert rep.converged

    def test_singular_lift_retries_eps(self, square8):
        # p- > 2 at eps = 0: the Jacobian vanishes at the zero-gradient lift,
        # so the first solve fails and eps is raised once, as without initial
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(2.5, 3, 4),
                                      WeightPair.constants(1, 1)), eps=0.0)
        prob = PhaseProblem(square8, fp, sine_load(), dirichlet_zero(square8))
        rep = solve_variational(prob, tol=1e-10,
                                initial=rough_start(square8, 4))
        assert rep.start == "lift"
        assert rep.converged
        assert rep.eps_schedule == [0.0, 1e-6]
        assert weak_residual_sup(prob, rep.solution) <= 1e-10

    def test_programming_error_is_not_an_eps_retry(self, triple_flux, square8,
                                                   monkeypatch):
        def broken(self, u_vals, eps=None):
            raise TypeError("broken assembly")

        monkeypatch.setattr(PhaseDiscretization, "jacobian", broken)
        prob = PhaseProblem(square8, triple_flux, sine_load(),
                            dirichlet_zero(square8))
        with pytest.raises(TypeError, match="broken assembly"):
            solve_variational(prob)


class TestConvectionReport:
    make_problem = TestConvection.make_problem

    def test_tolerance(self, triple_flux, square8):
        rep = solve_convection(self.make_problem(square8, triple_flux))
        assert rep.converged
        assert rep.stop_reason == "tolerance"
        assert rep.start == "lift"

    def test_max_iter_outer(self, triple_flux, square8):
        rep = solve_convection(self.make_problem(square8, triple_flux),
                               max_iter_outer=2)
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.stop_reason == "max_iter_outer"

    def test_growth(self, laplace_flux, square8):
        # k4 = 60 is about three times the first eigenvalue of -Laplace:
        # the fixed-point map expands and the outer distances keep growing
        rep = solve_convection(self.make_problem(square8, laplace_flux,
                                                 k3=0.0, k4=60.0))
        assert not rep.converged
        assert rep.stop_reason == "growth"
        assert rep.iterations == 6
        assert all(b > a for a, b in zip(rep.residual_history[1:],
                                         rep.residual_history[2:]))

    def test_start_of_first_inner_solve(self, triple_flux, square8):
        prob = self.make_problem(square8, triple_flux)
        rough = solve_convection(prob, initial=rough_start(square8, 5))
        assert rough.start == "lift"
        warm = solve_convection(prob, initial=rough.solution.nodal_values)
        assert warm.start == "initial"
        assert warm.stop_reason == "tolerance"
        assert np.max(np.abs(warm.solution.nodal_values
                             - rough.solution.nodal_values)) <= 1e-9

    def test_fewer_linear_solves_than_warm_start_only(self, triple_flux,
                                                      square16, monkeypatch):
        prob = self.make_problem(square16, triple_flux)
        starts = [rough_start(square16, seed, square16.h_max)
                  for seed in (21, 22)]
        count = [0]
        real_solve = solver._linear_solve

        def counting_solve(J, rhs):
            count[0] += 1
            return real_solve(J, rhs)

        def run():
            count[0] = 0
            reps = [solve_convection(prob, initial=s) for s in starts]
            assert all(rep.converged for rep in reps)
            return count[0], reps

        monkeypatch.setattr(solver, "_linear_solve", counting_solve)
        chosen, reps = run()
        # the warm-start-only path: give the zero-interior lift infinite merit
        real_energy = PhaseDiscretization.energy

        def no_lift(self, u_vals, eps=0.0):
            if not np.any(u_vals[self.free]):
                return np.inf
            return real_energy(self, u_vals, eps)

        monkeypatch.setattr(PhaseDiscretization, "energy", no_lift)
        warm_only, warm_reps = run()
        assert all(rep.start == "initial" for rep in warm_reps)
        assert all(rep.start == "lift" for rep in reps)
        assert chosen < warm_only
        for a, b in zip(reps, warm_reps):
            assert np.max(np.abs(a.solution.nodal_values
                                 - b.solution.nodal_values)) <= 1e-9


class _AlwaysFresh(solver._HeldFactor):
    """A held factor whose eps reads as NaN, which equals no stage eps: every
    step releases it and factors afresh, the first step of an inner solve
    included (that step skips the contraction test, so lowering
    CHORD_CONTRACTION alone would not force it)."""

    eps = property(lambda self: np.nan, lambda self, value: None)


def count_factors(monkeypatch, wrap=None):
    """Count (and optionally wrap) the solve functions _factor makes."""
    real_factor = solver._factor
    made = []

    def counting_factor(J, *args):
        made.append(J.shape)
        solve = real_factor(J, *args)
        return solve if wrap is None else wrap(solve)

    monkeypatch.setattr(solver, "_factor", counting_factor)
    return made


class TestChordSteps:
    """Direct steps reuse one held LU factor while it contracts the residual,
    within an eps stage and across the inner solves of the fixed point."""

    make_problem = TestConvection.make_problem

    def problems(self, triple_flux, variable_phase, square16):
        return {
            "triple": (solve_variational, PhaseProblem(
                square16, triple_flux, sine_load(), dirichlet_zero(square16))),
            "variable": (solve_variational, PhaseProblem(
                square16, FluxParams(variable_phase, eps=1e-8), sine_load(),
                dirichlet_zero(square16))),
            "convection": (solve_convection,
                           self.make_problem(square16, triple_flux)),
        }

    @pytest.mark.parametrize("case", ["triple", "variable", "convection"])
    def test_same_answer_as_fresh_jacobians(self, case, triple_flux,
                                            variable_phase, square16,
                                            monkeypatch):
        solve, prob = self.problems(triple_flux, variable_phase, square16)[case]
        reused = solve(prob, tol=1e-10)
        monkeypatch.setattr(solver, "_HeldFactor", _AlwaysFresh)
        fresh = solve(prob, tol=1e-10)
        assert reused.converged and fresh.converged
        assert reused.factorizations < fresh.factorizations
        assert np.max(np.abs(reused.solution.nodal_values
                             - fresh.solution.nodal_values)) <= 1e-10

    def test_fewer_factorizations_than_steps(self, triple_flux, square16,
                                             monkeypatch):
        prob = self.make_problem(square16, triple_flux)
        made = count_factors(monkeypatch)
        inner = []
        real_newton = solver._newton

        def recording_newton(*args, **kwargs):
            rep = real_newton(*args, **kwargs)
            inner.append((rep.iterations, rep.factorizations))
            return rep

        monkeypatch.setattr(solver, "_newton", recording_newton)
        # without an initial state the Poisson start's solve is counted too
        for initial in (None, rough_start(square16, 21, square16.h_max),
                        rough_start(square16, 22, square16.h_max)):
            made.clear()
            inner.clear()
            rep = solve_convection(prob, initial=initial)
            assert rep.converged
            assert rep.factorizations == len(made)
            assert rep.factorizations == sum(f for _, f in inner)
            assert rep.factorizations < sum(steps for steps, _ in inner)
            # the first inner solve hands its factor to the later ones
            assert all(f == 0 for _, f in inner[1:])

    def test_one_factor_alive(self, triple_flux, variable_phase, square16,
                              monkeypatch):
        refs = []

        def only_alive(solve):
            assert all(ref() is None for ref in refs)
            refs.append(weakref.ref(solve))
            return solve

        count_factors(monkeypatch, only_alive)
        for solve, prob in self.problems(triple_flux, variable_phase,
                                         square16).values():
            refs.clear()
            assert solve(prob, tol=1e-10).converged
            assert len(refs) >= 2

    def test_bad_chord_falls_back(self, triple_flux, square16, monkeypatch):
        """A held factor that returns an ascent direction after its first
        (fresh) step: no such step is accepted, the next Jacobian is
        assembled at the state the chord step started from."""
        events = []

        def ascent_after_first(solve):
            calls = [0]

            def bad(rhs):
                calls[0] += 1
                if calls[0] == 1:
                    return solve(rhs)
                events.append(("chord", None))
                return -solve(rhs)
            return bad

        count_factors(monkeypatch, ascent_after_first)
        real_residual = PhaseDiscretization.residual
        real_jacobian = PhaseDiscretization.jacobian

        def recording_residual(self, u_vals, load=None, eps=None):
            events.append(("residual", u_vals.copy()))
            return real_residual(self, u_vals, load, eps)

        def recording_jacobian(self, u_vals, eps=None):
            events.append(("jacobian", u_vals.copy()))
            return real_jacobian(self, u_vals, eps)

        monkeypatch.setattr(PhaseDiscretization, "residual", recording_residual)
        monkeypatch.setattr(PhaseDiscretization, "jacobian", recording_jacobian)
        prob = self.make_problem(square16, triple_flux)
        rep = solve_convection(prob, tol=1e-10)
        assert rep.converged
        assert weak_residual_sup(prob, rep.solution) <= 1e-8
        chords = [i for i, (kind, _) in enumerate(events) if kind == "chord"]
        assert chords
        for i in chords:
            state = [u for kind, u in events[:i] if kind == "residual"][-1]
            kind, u = next(e for e in events[i + 1:] if e[0] != "chord")
            assert kind == "jacobian"
            assert np.array_equal(u, state)

    def test_damped_chord_refreshes(self, triple_flux, square16, monkeypatch):
        """A chord direction 2.1 times too long fails the full step and
        lands near the Newton point after one halving, contracting the
        residual well past CHORD_CONTRACTION: a damped step still makes the
        next step factor afresh."""
        events = []

        def overshoot_after_first(solve):
            calls = [0]

            def long(rhs):
                calls[0] += 1
                if calls[0] == 1:
                    return solve(rhs)
                events.append("chord")
                return 2.1 * solve(rhs)
            return long

        count_factors(monkeypatch, overshoot_after_first)
        real_jacobian = PhaseDiscretization.jacobian

        def recording_jacobian(self, u_vals, eps=None):
            events.append("fresh")
            return real_jacobian(self, u_vals, eps)

        monkeypatch.setattr(PhaseDiscretization, "jacobian", recording_jacobian)
        rep = solve_convection(self.make_problem(square16, triple_flux))
        assert rep.converged
        assert "chord" in events
        assert ("chord", "chord") not in set(zip(events, events[1:]))

    def test_damped_step_releases_handed_on_factor(self, triple_flux,
                                                   square16, monkeypatch):
        """Two solves share one held factor; every direction is 2.1 times
        too long, so each step of the first solve is damped (and factors
        afresh), and the second solve factors before its first step instead
        of taking a chord step.  A loose tol keeps the full step out of the
        merit's rounding noise, which would pass it."""
        events = []

        def overshoot(solve):
            def long(rhs):
                events.append("solve")
                return 2.1 * solve(rhs)
            return long

        count_factors(monkeypatch, overshoot)
        real_jacobian = PhaseDiscretization.jacobian

        def recording_jacobian(self, u_vals, eps=None):
            events.append("fresh")
            return real_jacobian(self, u_vals, eps)

        monkeypatch.setattr(PhaseDiscretization, "jacobian", recording_jacobian)
        prob = PhaseProblem(square16, triple_flux, sine_load(),
                            dirichlet_zero(square16))
        disc = PhaseDiscretization(triple_flux, square16)
        load = solver._source_load(disc, prob.source,
                                   np.zeros(square16.n_vertices))
        held = solver._HeldFactor()
        first = solver._newton(disc, prob, load, 1e-6, 100,
                               initial=np.zeros(square16.n_vertices),
                               held=held, choose_start=False)
        assert first.converged and first.iterations >= 2
        assert events == ["fresh", "solve"] * first.iterations
        events.clear()
        second = solver._newton(disc, prob, 1.1 * load, 1e-6, 100,
                                initial=first.solution.nodal_values,
                                held=held, choose_start=False)
        assert second.converged
        assert events[0] == "fresh"

    def test_check_eps(self, triple_flux, square8):
        low = FluxParams(PhaseFunction(ExponentTriple.constants(1.8, 1.9, 2.0),
                                       WeightPair.constants(1, 1)), eps=1e-8)
        for fp, expected in ((triple_flux, 0.0), (low, 1e-8)):
            prob = PhaseProblem(square8, fp, sine_load(),
                                dirichlet_zero(square8))
            assert solve_variational(prob).check_eps == expected
        rep = solve_convection(self.make_problem(square8, triple_flux))
        assert rep.check_eps == 0.0


class TestInnerForcing:
    """Each inner solve of the fixed point stops at INNER_FORCING times its
    starting residual; the fixed point ends only after one reaches tol."""

    make_problem = TestConvection.make_problem

    def run(self, prob, monkeypatch, **kwargs):
        """The report and the inner reports of one solve_convection."""
        inner = []
        real_newton = solver._newton

        def recording_newton(*args, **kw):
            rep = real_newton(*args, **kw)
            inner.append(rep)
            return rep

        monkeypatch.setattr(solver, "_newton", recording_newton)
        rep = solve_convection(prob, **kwargs)
        monkeypatch.setattr(solver, "_newton", real_newton)
        return rep, inner

    @pytest.mark.parametrize("seed", [None, 21])
    def test_relaxed_inner_solves(self, seed, triple_flux, square16,
                                  monkeypatch):
        prob = self.make_problem(square16, triple_flux)
        tol = 1e-10
        initial = None if seed is None else rough_start(square16, seed,
                                                        square16.h_max)
        rep, inner = self.run(prob, monkeypatch, tol=tol, initial=initial)
        assert rep.converged and rep.stop_reason == "tolerance"
        targets = [max(tol, solver.INNER_FORCING * r.residual_history[0])
                   for r in inner]
        assert any(t > tol for t in targets[:-1])
        for r, t in zip(inner[:-1], targets):
            assert r.residual_history[-1] <= t
        assert inner[-1].residual_history[-1] <= tol

        monkeypatch.setattr(solver, "INNER_FORCING", 0.0)
        exact, exact_inner = self.run(prob, monkeypatch, tol=tol,
                                      initial=initial)
        assert exact.converged
        assert all(r.residual_history[-1] <= tol for r in exact_inner)
        assert (sum(r.iterations for r in inner)
                < sum(r.iterations for r in exact_inner))
        assert np.max(np.abs(rep.solution.nodal_values
                             - exact.solution.nodal_values)) <= 1e-9

    def test_max_iter_outer_after_relaxed_solve(self, triple_flux, square16,
                                                monkeypatch):
        tol = 1e-10
        rep, inner = self.run(self.make_problem(square16, triple_flux),
                              monkeypatch, tol=tol, max_iter_outer=2)
        assert inner[-1].converged and inner[-1].residual_history[-1] > tol
        assert not rep.converged
        assert rep.stop_reason == "max_iter_outer"


class TestConvectionStartChoice:
    make_problem = TestConvection.make_problem

    def test_one_lift_merit_per_call(self, triple_flux, square8, monkeypatch):
        """Only the first inner solve weighs its start against the Dirichlet
        lift (zero interior here), whichever start wins."""
        prob = self.make_problem(square8, triple_flux)
        rough = solve_convection(prob, initial=rough_start(square8, 5))
        lift_merits = [0]
        real_energy = PhaseDiscretization.energy

        def counting_energy(self, u_vals, eps=0.0):
            lift_merits[0] += not np.any(u_vals[self.free])
            return real_energy(self, u_vals, eps)

        monkeypatch.setattr(PhaseDiscretization, "energy", counting_energy)
        for initial, start in ((rough_start(square8, 5), "lift"),
                               (rough.solution.nodal_values, "initial")):
            lift_merits[0] = 0
            rep = solve_convection(prob, initial=initial)
            assert rep.converged and rep.start == start
            assert lift_merits[0] == 1


def constant_flux(p, eps=1e-8):
    """The constant phase (p, p + 0.4, p + 0.8) with unit weights."""
    exp = ExponentTriple.constants(p, p + 0.4, p + 0.8)
    return FluxParams(PhaseFunction(exp, WeightPair.constants(1, 1)), eps=eps)


def unit_sine_load():
    return SourceTerm.of_x(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))


def record_energies(monkeypatch):
    """Record (eps, state) of every energy evaluation."""
    calls = []
    real_energy = PhaseDiscretization.energy

    def recording_energy(self, u_vals, eps=0.0):
        calls.append((eps, u_vals.copy()))
        return real_energy(self, u_vals, eps)

    monkeypatch.setattr(PhaseDiscretization, "energy", recording_energy)
    return calls


class TestContinuationOnDemand:
    """Newton starts at the final eps and climbs to the top of the eps
    ladder only when a fresh step struggles, then walks back down."""

    def test_easy_solve_stays_at_final_eps(self, variable_phase, square16):
        prob = PhaseProblem(square16, FluxParams(variable_phase, eps=1e-8),
                            unit_sine_load(), dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        assert rep.eps_schedule == [1e-8]

    def test_damped_first_step_climbs_to_top(self, square16, monkeypatch):
        # p- = 3.5: at the zero-gradient lift the eps = 1e-8 Jacobian is
        # nearly singular and the first Newton step overshoots by orders of
        # magnitude, so its line search gives up below T_MIN.  The zero
        # initial state is that lift and bypasses the Poisson start.
        prob = PhaseProblem(square16, constant_flux(3.5), unit_sine_load(),
                            dirichlet_zero(square16))
        ladder = solver._eps_schedule(prob.fp)
        calls = record_energies(monkeypatch)
        rep = solve_variational(prob, tol=1e-10,
                                initial=np.zeros(square16.n_vertices))
        assert rep.converged
        assert rep.eps_schedule == [1e-8] + ladder
        before = next(i for i, (eps, _) in enumerate(calls) if eps == ladder[0])
        assert all(eps == 1e-8 for eps, _ in calls[:before])
        # the merits of the lift and of the initial state, then the trials
        # t = 1, 1/2, ..., T_MIN
        assert before == 3 + round(np.log2(1 / solver.T_MIN))

    def test_singular_step_climbs(self, variable_phase, square8, monkeypatch):
        calls = [0]
        real_solve = solver._linear_solve

        def failing_first(J, rhs):
            calls[0] += 1
            if calls[0] == 1:
                raise np.linalg.LinAlgError("forced")
            return real_solve(J, rhs)

        monkeypatch.setattr(solver, "_linear_solve", failing_first)
        prob = PhaseProblem(square8, FluxParams(variable_phase, eps=1e-8),
                            unit_sine_load(), dirichlet_zero(square8))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        assert rep.eps_schedule == [1e-8] + solver._eps_schedule(prob.fp)


class TestFailedSolves:
    """The failure branches of _newton's step, reached through its
    _linear_solve hook."""

    def test_failed_chord_solve_refactors(self, triple_flux, square16,
                                          monkeypatch):
        """The first solve with a held factor raises: the step is redone
        with a fresh factor, counted, and the solve converges to the same
        state."""
        prob = PhaseProblem(square16, triple_flux, sine_load(),
                            dirichlet_zero(square16))
        plain = solve_variational(prob, tol=1e-10)
        real_solve = solver._linear_solve
        last, solves = [None], []

        def failing_first_reuse(solve, rhs):
            reuse = solve is last[0]
            if reuse and "failed" not in solves:
                solves.append("failed")
                raise np.linalg.LinAlgError("forced")
            solves.append("chord" if reuse else "fresh")
            last[0] = solve
            return real_solve(solve, rhs)

        monkeypatch.setattr(solver, "_linear_solve", failing_first_reuse)
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        after = solves.index("failed") + 1
        assert solves[after] == "fresh"
        # the Poisson start is one factorisation, each fresh step another
        assert rep.factorizations == 1 + solves.count("fresh")
        assert np.max(np.abs(rep.solution.nodal_values
                             - plain.solution.nodal_values)) <= 1e-10

    def test_non_finite_step_climbs(self, variable_phase, square8,
                                    monkeypatch):
        """A NaN first step struggles like a singular one."""
        calls = [0]
        real_solve = solver._linear_solve

        def nan_first(J, rhs):
            calls[0] += 1
            if calls[0] == 1:
                return np.full(len(rhs), np.nan)
            return real_solve(J, rhs)

        monkeypatch.setattr(solver, "_linear_solve", nan_first)
        prob = PhaseProblem(square8, FluxParams(variable_phase, eps=1e-8),
                            unit_sine_load(), dirichlet_zero(square8))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        assert rep.eps_schedule == [1e-8] + solver._eps_schedule(prob.fp)

    def test_sixth_eps_retry_raises(self, triple_flux, square8, monkeypatch):
        """On the one-rung ladder of eps = 0 every failed solve raises eps,
        and the sixth failure ends the solve."""
        def always_fails(J, rhs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(solver, "_linear_solve", always_fails)
        assert triple_flux.eps == 0.0
        prob = PhaseProblem(square8, triple_flux, sine_load(),
                            dirichlet_zero(square8))
        with pytest.raises(RuntimeError, match="5 eps retries"):
            solve_variational(prob)


class TestEpsZeroPolish:
    """For p- >= 2 a solve at a user eps > 0 is judged at check_eps = 0; the
    check stage at check_eps closes the gap to tol with Newton steps on the
    Jacobian of that residual."""

    @pytest.mark.parametrize("n", [32, 64])
    def test_large_user_eps_converges_at_zero(self, n):
        mesh = structured_mesh(UNIT_SQUARE, n)
        prob = PhaseProblem(mesh, constant_flux(2.2, eps=0.1),
                            unit_sine_load(), dirichlet_zero(mesh))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.check_eps == 0.0
        assert rep.converged, rep.residual_history[-1]
        assert rep.residual_history[-1] <= 1e-10
        assert rep.factorizations <= 5


# Factorisations of these solves (32 x 32 square, unit sine load) measured
# before the check stage, when a former eps = 0 Newton polish of undamped
# steps, each with a fresh factor, closed the gap to check_eps; the check
# stage takes no more
POLISH_FACTORIZATIONS = {((2.2, 2.6, 3.0), 0.1): 5, ((2.2, 2.6, 3.0), 0.03): 6,
                         ((2.0, 2.5, 3.0), 0.1): 6, ((2.0, 2.5, 3.0), 0.03): 5,
                         ((3, 3, 4), 0.1): 7, ((3, 3, 4), 0.03): 8}


def check_stage_problem(exps, eps, n=32):
    mesh = structured_mesh(UNIT_SQUARE, n)
    fp = FluxParams(PhaseFunction(ExponentTriple.constants(*exps),
                                  WeightPair.constants(1, 1)), eps=eps)
    return PhaseProblem(mesh, fp, unit_sine_load(), dirichlet_zero(mesh))


class TestCheckStage:
    """For p- >= 2 a solve at a user eps > 0 whose residual at check_eps = 0
    is above tol ends with an ordinary damped Newton stage at check_eps."""

    make_problem = TestConvection.make_problem

    @pytest.mark.parametrize("exps, eps", list(POLISH_FACTORIZATIONS))
    def test_every_step_descends(self, exps, eps, monkeypatch):
        prob = check_stage_problem(exps, eps)
        states = []             # the distinct states judged at check_eps
        real_residual = PhaseDiscretization.residual

        def recording_residual(self, u_vals, load=None, eps=None):
            if eps == 0.0 and not (states
                                   and np.array_equal(states[-1], u_vals)):
                states.append(u_vals.copy())
            return real_residual(self, u_vals, load, eps)

        monkeypatch.setattr(PhaseDiscretization, "residual", recording_residual)
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged and rep.stop_reason is None
        assert rep.eps_schedule == [eps, 0.0]
        assert rep.factorizations <= POLISH_FACTORIZATIONS[exps, eps]
        disc = PhaseDiscretization(prob.fp, prob.mesh)
        load = solver._source_load(disc, prob.source,
                                   np.zeros(prob.mesh.n_vertices))
        free = disc.free
        merits = [disc.energy(u) - float(load[free] @ u[free]) for u in states]
        # the state the final-eps stage left, then one per check-stage step
        assert len(merits) >= 2
        assert all(b <= a + 1e-13 * abs(a) for a, b in zip(merits, merits[1:]))
        # the check stage adds its merits to energy_history, then the energy
        # of the solution
        tail = rep.energy_history[-len(merits) - 1:]
        assert tail == pytest.approx(merits + merits[-1:], rel=1e-14)

    @pytest.fixture
    def singular_at_zero(self, monkeypatch):
        real_jacobian = PhaseDiscretization.jacobian

        def jacobian(self, u_vals, eps=None):
            if eps == 0.0:
                raise np.linalg.LinAlgError("forced")
            return real_jacobian(self, u_vals, eps)

        monkeypatch.setattr(PhaseDiscretization, "jacobian", jacobian)

    def test_singular_check_stage_stops(self, singular_at_zero):
        rep = solve_variational(check_stage_problem((2.2, 2.6, 3.0), 0.1),
                                tol=1e-10)
        assert not rep.converged
        assert rep.stop_reason == "singular"
        assert rep.eps_schedule == [0.1, 0.0]
        assert rep.residual_history[-1] > 1e-10

    def test_convection_stops_on_singular_check_stage(self, singular_at_zero,
                                                      triple_phase, square8):
        prob = self.make_problem(square8, FluxParams(triple_phase, eps=0.1))
        rep = solve_convection(prob, tol=1e-10)
        assert not rep.converged
        assert rep.stop_reason == "singular"
        assert rep.iterations == 1


class TestFinalResidual:
    """The residual at check_eps of the state a solve ends on is evaluated
    once: a last stage at check_eps, or its closing test at check_eps, has
    computed it already."""

    make_problem = TestConvection.make_problem

    @staticmethod
    def record(monkeypatch):
        """The (eps, state, load) of every residual evaluation, as bytes."""
        calls = []
        real_residual = PhaseDiscretization.residual

        def recording_residual(self, u_vals, load=None, eps=None):
            calls.append((eps, u_vals.tobytes(),
                          None if load is None else load.tobytes()))
            return real_residual(self, u_vals, load, eps)

        monkeypatch.setattr(PhaseDiscretization, "residual", recording_residual)
        return calls

    @pytest.mark.parametrize("eps, schedule", [(0.0, [0.0]), (1e-8, [1e-8])])
    def test_variational(self, triple_phase, square16, eps, schedule,
                         monkeypatch):
        calls = self.record(monkeypatch)
        prob = PhaseProblem(square16, FluxParams(triple_phase, eps=eps),
                            sine_load(), dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged and rep.eps_schedule == schedule
        assert rep.check_eps == 0.0
        assert len(calls) == len(set(calls))

    def test_convection(self, triple_flux, square16, monkeypatch):
        calls = self.record(monkeypatch)
        rep = solve_convection(self.make_problem(square16, triple_flux),
                               tol=1e-10)
        assert rep.converged
        assert len(calls) == len(set(calls))


class TestPoissonStart:
    """Without an initial state Newton starts on the ray from the Dirichlet
    lift along its Poisson correction, at a merit never above the lift's;
    the minimiser does not depend on it."""

    def test_p35_no_longer_climbs(self, square16):
        prob = PhaseProblem(square16, constant_flux(3.5), unit_sine_load(),
                            dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged and rep.start == "lift"
        assert rep.eps_schedule == [1e-8]
        assert rep.iterations <= 8 and rep.factorizations <= 6

    def test_laplace_start_is_the_solution(self, laplace_flux, square8):
        """For the Laplacian the merit along the ray is least at t = 1,
        where the start solves the problem: no Newton step is left."""
        x, y = square8.vertices.T
        prob = PhaseProblem(square8, laplace_flux, sine_load(), 1.0 + x * y)
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged and rep.start == "lift"
        assert rep.iterations == 0 and rep.factorizations == 1
        assert weak_residual_sup(prob, rep.solution) <= 1e-10

    def test_variable_phase_ceilings(self, variable_phase, square16):
        # from the zero-interior lift: 8 steps and 3 factorisations
        prob = PhaseProblem(square16, FluxParams(variable_phase, eps=1e-8),
                            unit_sine_load(), dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        assert rep.iterations <= 6 and rep.factorizations <= 2


class TestLineSearchFailure:
    """A fresh step whose line search finds no descent is never taken: it
    climbs the eps ladder while a rung is left, else the solve stops."""

    make_problem = TestConvection.make_problem

    @pytest.fixture
    def reject_trials(self, monkeypatch):
        # every state but the zero-interior lift has infinite merit
        real_energy = PhaseDiscretization.energy

        def energy(self, u_vals, eps=0.0):
            if np.any(u_vals[self.free]):
                return np.inf
            return real_energy(self, u_vals, eps)

        monkeypatch.setattr(PhaseDiscretization, "energy", energy)

    @pytest.mark.parametrize("case, schedule", [("eps0", [0.0]),
                                                ("ladder", [1e-8, 1e-2])])
    def test_no_descent_stops_the_solve(self, case, schedule, reject_trials,
                                        triple_flux, variable_phase, square8):
        fp = triple_flux if case == "eps0" else FluxParams(variable_phase,
                                                           eps=1e-8)
        prob = PhaseProblem(square8, fp, unit_sine_load(),
                            dirichlet_zero(square8))
        rep = solve_variational(prob, tol=1e-10)
        assert not rep.converged
        assert rep.stop_reason == "line_search"
        assert rep.iterations == 0
        assert rep.eps_schedule == schedule
        # the Poisson start's factorisation, then one per stage
        assert rep.factorizations == len(schedule) + 1
        assert rep.start == "lift"
        assert not np.any(rep.solution.nodal_values)
        assert rep.residual_history[-1] > 1e-10

    def test_step_budget_names_max_iter(self, triple_flux, square8):
        prob = PhaseProblem(square8, triple_flux, unit_sine_load(),
                            dirichlet_zero(square8))
        rep = solve_variational(prob, tol=1e-10, max_iter=1)
        assert not rep.converged
        assert rep.stop_reason == "max_iter"
        assert rep.iterations == 1
        assert solve_variational(prob, tol=1e-10).stop_reason is None

    def test_convection_stops_on_inner_failure(self, reject_trials,
                                               triple_flux, square8):
        prob = self.make_problem(square8, triple_flux)
        rep = solve_convection(prob, tol=1e-10)
        assert not rep.converged
        assert rep.stop_reason == "line_search"
        assert rep.iterations == 1


class TestEnergyHistory:
    def test_steps_record_stage_merit(self, variable_phase, square16,
                                      monkeypatch):
        """Per-step entries are merits at the final eps, which the line
        search computes anyway; only the last entry costs an eps = 0
        energy."""
        prob = PhaseProblem(square16, FluxParams(variable_phase, eps=1e-8),
                            unit_sine_load(), dirichlet_zero(square16))
        calls = record_energies(monkeypatch)
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        assert sum(eps == 0.0 for eps, _ in calls) == 1
        assert len(rep.energy_history) == len(rep.residual_history)
        steps = rep.energy_history[:-1]
        assert all(b <= a + 1e-13 * abs(a) for a, b in zip(steps, steps[1:]))
        disc = PhaseDiscretization(prob.fp, square16)
        load = solver._source_load(disc, prob.source,
                                   np.zeros(square16.n_vertices))
        u, free = rep.solution.nodal_values, disc.free
        assert rep.energy_history[-1] == (disc.energy(u)
                                          - float(load[free] @ u[free]))

    def test_eps0_last_entry_reuses_carried_merit(self, triple_flux, square8,
                                                  monkeypatch):
        prob = PhaseProblem(square8, triple_flux, unit_sine_load(),
                            dirichlet_zero(square8))
        calls = record_energies(monkeypatch)
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        u = rep.solution.nodal_values
        assert sum(eps == 0.0 and np.array_equal(v, u)
                   for eps, v in calls) == 1
        assert rep.energy_history[-1] == rep.energy_history[-2]


# Factorisations of these solves when each ran the whole eps ladder (the
# constant phases of the sweep and the bench's variable phase, 16 x 16
# square, unit sine load).
FACTORIZATION_CEILINGS = {1.05: 23, 1.1: 23, 1.3: 22, 1.6: 8, 2.0: 5, 2.2: 6,
                          3.5: 9, "variable": 6}


class TestSweepGuard:
    make_problem = TestConvection.make_problem

    @pytest.mark.parametrize("case", list(FACTORIZATION_CEILINGS))
    def test_factorizations_at_most_ladder_counts(self, case, variable_phase,
                                                  square16):
        fp = (FluxParams(variable_phase, eps=1e-8) if case == "variable"
              else constant_flux(case))
        prob = PhaseProblem(square16, fp, unit_sine_load(),
                            dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        assert rep.factorizations <= FACTORIZATION_CEILINGS[case]

    def test_convection_at_small_eps(self, triple_phase, square16,
                                     monkeypatch):
        inner = []
        real_newton = solver._newton

        def recording_newton(*args, **kwargs):
            rep = real_newton(*args, **kwargs)
            inner.append(rep)
            return rep

        monkeypatch.setattr(solver, "_newton", recording_newton)
        reps = {}
        for eps in (0.0, 1e-8):
            inner.clear()
            prob = self.make_problem(square16,
                                     FluxParams(triple_phase, eps=eps))
            reps[eps] = solve_convection(prob, tol=1e-10)
            assert reps[eps].converged
            assert weak_residual_sup(prob, reps[eps].solution) <= 1e-8
        assert len(inner) >= 2
        assert all(rep.eps_schedule == [1e-8] for rep in inner[1:])
        assert reps[1e-8].factorizations <= 2 * reps[0.0].factorizations


@settings(max_examples=20, deadline=None)
@given(p=st.floats(1.05, 3.5))
def test_accepted_steps_descend_stage_merit(square8, p):
    """Between two residuals at one eps lies one accepted step, which never
    raises the merit at that eps beyond the line search's noise allowance;
    the solve meets tol at its check eps."""
    prob = PhaseProblem(square8, constant_flux(p), unit_sine_load(),
                        dirichlet_zero(square8))
    states = []
    real_residual = PhaseDiscretization.residual

    def recording_residual(self, u_vals, load=None, eps=None):
        states.append((eps, u_vals.copy(), load))
        return real_residual(self, u_vals, load, eps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PhaseDiscretization, "residual", recording_residual)
        rep = solve_variational(prob, tol=1e-10)
    assert rep.converged
    assert weak_residual_sup(prob, rep.solution) <= 1e-10
    disc = PhaseDiscretization(prob.fp, square8)
    free = disc.free

    def merit(u, eps, load):
        return disc.energy(u, eps=eps) - float(load[free] @ u[free])

    for (e0, u0, l0), (e1, u1, _) in zip(states, states[1:]):
        if e0 == e1:
            m0 = merit(u0, e0, l0)
            assert merit(u1, e0, l0) <= m0 + 1e-13 * abs(m0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p, slope", [(1.25, 3.88e-119), (1.5, 4.38e-136)])
def test_tiny_gradient_below_two_warning_free(square8, p, slope):
    """At eps = 0 with p- < 2, s^(p-4) overflows for gradients this small;
    the energy and a solve from such boundary data must not warn."""
    dirichlet = slope * square8.vertices[:, 0]
    prob = PhaseProblem(square8, constant_flux(p), unit_sine_load(), dirichlet)
    energy = PhaseDiscretization(prob.fp, square8).energy(dirichlet, eps=0.0)
    assert np.isfinite(energy) and energy >= 0.0
    assert solve_variational(prob, tol=1e-10).converged


@settings(max_examples=20, deadline=None)
@given(p=st.floats(1.05, 3.5), slope=st.floats(-1.0, 1.0))
def test_poisson_start_not_above_lift(square8, p, slope):
    """The start's merit at the final eps is at most the zero-interior
    lift's, and the solve ends where one from that lift ends."""
    dirichlet = slope * square8.vertices[:, 0]
    prob = PhaseProblem(square8, constant_flux(p), unit_sine_load(), dirichlet)
    starts = []
    real_start = solver._ray_start

    def recording_start(*args):
        starts.append(real_start(*args))
        return starts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_ray_start", recording_start)
        rep = solve_variational(prob, tol=1e-10)
    zero = solve_variational(prob, tol=1e-10,
                             initial=np.zeros(square8.n_vertices))
    assert rep.converged and zero.converged
    (u0, m0), = starts
    disc = PhaseDiscretization(prob.fp, square8)
    load = solver._source_load(disc, prob.source,
                               np.zeros(square8.n_vertices))
    free = disc.free

    def merit(u):
        return disc.energy(u, eps=prob.fp.eps) - float(load[free] @ u[free])

    lift = np.where(square8.boundary_flags, dirichlet, 0.0)
    assert np.array_equal(u0[square8.boundary_flags], lift[square8.boundary_flags])
    assert m0 == merit(u0)
    assert m0 <= merit(lift)
    # two states within tol of the residual's zero lie within |J^-1| 2 tol
    # of each other; at p = 3.5 that reaches 1.04e-10 on this mesh
    assert np.max(np.abs(rep.solution.nodal_values
                         - zero.solution.nodal_values)) <= 1e-9


def count_builds(monkeypatch):
    """Count the PhaseDiscretization builds, made through the real
    constructor."""
    real_init = PhaseDiscretization.__init__
    builds = []

    def counting_init(self, fp, mesh):
        builds.append(fp)
        real_init(self, fp, mesh)

    monkeypatch.setattr(PhaseDiscretization, "__init__", counting_init)
    return builds


class TestSolveCarriesDiscretization:
    """The answer of solve_variational carries the PhaseDiscretization it
    was solved on, and the residual check of that answer reuses it; nothing
    is held on the mesh or carried from one solve to the next."""

    def test_solve_and_check_build_once(self, variable_phase, monkeypatch):
        mesh = structured_mesh(UNIT_SQUARE, 8)
        prob = PhaseProblem(mesh, FluxParams(variable_phase, eps=1e-8),
                            sine_load(), dirichlet_zero(mesh))
        builds = count_builds(monkeypatch)
        for k in (1, 2):
            rep = solve_variational(prob, tol=1e-10)
            wres = weak_residual_sup(prob, rep.solution)
            assert rep.converged and wres <= 1e-8
            assert builds == [prob.fp] * k
            assert rep.solution.discretization is None
        monkeypatch.undo()
        fresh = PhaseDiscretization(prob.fp, mesh)
        u = rep.solution.nodal_values
        load = solver._source_load(fresh, prob.source, u)
        assert wres == solver._sup_norm(
            fresh.residual(u, load, eps=prob.fp.check_eps))

    def test_other_flux_builds_anew(self, variable_phase, triple_phase,
                                    monkeypatch):
        """A check with another FluxParams, even an equal one, or of a
        state that carries no discretization builds its own, and reads
        what a freshly built discretization reads."""
        mesh = structured_mesh(UNIT_SQUARE, 8)
        fp1 = FluxParams(variable_phase, eps=1e-8)
        rep = solve_variational(PhaseProblem(mesh, fp1, sine_load(),
                                             dirichlet_zero(mesh)), tol=1e-10)
        u = rep.solution
        assert u.discretization.fp is fp1
        plain = FeFunction(mesh, u.nodal_values)
        assert plain.discretization is None
        cases = [(fp1, plain), (FluxParams(variable_phase, eps=1e-8), u),
                 (FluxParams(triple_phase, eps=0.0), u)]
        got, builds = [], count_builds(monkeypatch)
        for fp, v in cases:
            prob = PhaseProblem(mesh, fp, sine_load(), dirichlet_zero(mesh))
            got.append(weak_residual_sup(prob, v))
        assert builds == [fp for fp, _ in cases]
        monkeypatch.undo()
        for (fp, v), wres in zip(cases, got):
            fresh = PhaseDiscretization(fp, mesh)
            load = solver._source_load(fresh, sine_load(), v.nodal_values)
            assert wres == solver._sup_norm(
                fresh.residual(v.nodal_values, load, eps=fp.check_eps))

    def test_mesh_freed_on_del(self, variable_phase):
        """With the cyclic collector off, a solved mesh and its answer are
        freed as soon as the last reference goes."""
        import gc

        mesh = structured_mesh(UNIT_SQUARE, 8)
        prob = PhaseProblem(mesh, FluxParams(variable_phase, eps=1e-8),
                            sine_load(), dirichlet_zero(mesh))
        rep = solve_variational(prob, tol=1e-10)
        assert weak_residual_sup(prob, rep.solution) <= 1e-8
        ref = weakref.ref(mesh)
        gc.disable()
        try:
            del mesh, prob, rep
            assert ref() is None
        finally:
            gc.enable()


class TestEachEvaluationOnce:
    """A solve evaluates the residual and the merit of a state at most once
    per eps: the check stage starts from the residual that the closing test
    of the stage before it computed."""

    def test_check_stage_reuses_closing_test(self, square16, monkeypatch):
        calls = {"residual": [], "energy": []}
        real_residual = PhaseDiscretization.residual
        real_energy = PhaseDiscretization.energy

        def recording_residual(self, u_vals, load=None, eps=None):
            calls["residual"].append((eps, u_vals.tobytes()))
            return real_residual(self, u_vals, load, eps)

        def recording_energy(self, u_vals, eps=0.0):
            calls["energy"].append((eps, u_vals.tobytes()))
            return real_energy(self, u_vals, eps)

        monkeypatch.setattr(PhaseDiscretization, "residual", recording_residual)
        monkeypatch.setattr(PhaseDiscretization, "energy", recording_energy)
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(2.2, 2.6, 3.0),
                                      WeightPair.constants(1, 1)), eps=0.1)
        prob = PhaseProblem(square16, fp, sine_load(),
                            dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged
        assert rep.eps_schedule == [0.1, 0.0]
        for kind, seen in calls.items():
            assert len(seen) == len(set(seen)), kind


def test_eigenvalue_without_free_nodes_raises():
    mesh = structured_mesh(UNIT_SQUARE, 1)
    for m in (2.0, 3.0):
        with pytest.raises(ValueError, match="no free nodes"):
            first_eigenvalue(mesh, m)


class TestBadTol:
    """A tol that is not a positive finite number is a ValueError before any
    work: a NaN tol stops no iteration, so a solve ran to max_iter."""

    BAD = [np.nan, -1.0, 0.0, np.inf]

    @staticmethod
    def no_discretization(monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a discretization was built")

        monkeypatch.setattr(solver, "PhaseDiscretization", refused)

    @pytest.mark.parametrize("tol", BAD)
    def test_solve_variational(self, triple_flux, square8, tol, monkeypatch):
        prob = PhaseProblem(square8, triple_flux, sine_load(),
                            dirichlet_zero(square8))
        self.no_discretization(monkeypatch)
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            solve_variational(prob, tol=tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_solve_convection(self, triple_flux, square8, tol, monkeypatch):
        prob = TestConvection().make_problem(square8, triple_flux)
        self.no_discretization(monkeypatch)
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            solve_convection(prob, tol=tol)

    @pytest.mark.parametrize("tol", BAD)
    def test_first_eigenvalue(self, square8, tol, monkeypatch):
        self.no_discretization(monkeypatch)
        with pytest.raises(ValueError, match="tol must be a positive finite"):
            first_eigenvalue(square8, 3.0, tol=tol)

    def test_positive_tol_still_solves(self, triple_flux, square8):
        prob = PhaseProblem(square8, triple_flux, sine_load(),
                            dirichlet_zero(square8))
        assert solve_variational(prob, tol=1e-9).converged
        assert solve_convection(TestConvection().make_problem(square8, triple_flux),
                                tol=1e-9).converged
        assert first_eigenvalue(square8, 2.0, tol=1e-9)[0] > TWO_PI_SQ


class TestTrace:
    """Each report keeps one record per step in its trace and reads its five
    summaries from it; the summaries below were recorded before the trace
    replaced them."""

    make_problem = TestConvection.make_problem

    @staticmethod
    def assert_summaries(rep, iterations, factorizations, eps_schedule,
                         residuals, merits):
        assert rep.iterations == iterations
        assert rep.factorizations == factorizations
        assert rep.eps_schedule == eps_schedule
        assert rep.residual_history == pytest.approx(residuals, rel=1e-9,
                                                     abs=1e-12)
        assert rep.energy_history == pytest.approx(merits, rel=1e-9,
                                                   abs=1e-12)

    def test_climbing_solve(self, square16, monkeypatch):
        made = count_factors(monkeypatch)
        prob = PhaseProblem(square16, constant_flux(3.5), unit_sine_load(),
                            dirichlet_zero(square16))
        rep = solve_variational(prob, tol=1e-10,
                                initial=np.zeros(square16.n_vertices))
        assert rep.converged
        assert sum(r.factored for r in rep.trace) == len(made)
        assert rep.trace[-1].kind == "end"
        self.assert_summaries(
            rep, 11, 10, [1e-8] + solver._eps_schedule(prob.fp),
            [0.003881230770196727, 1.1837476250955992e-09,
             1.2663481374630692e-16, 1.1622647289044608e-16],
            [2.858761622318299e-29, -0.02454126593670498,
             -0.02454126593670503, -0.024541265936705043])

    def test_check_stage_solve(self, monkeypatch):
        made = count_factors(monkeypatch)
        rep = solve_variational(check_stage_problem((2.2, 2.6, 3.0), 0.1),
                                tol=1e-10)
        assert rep.converged
        # the Poisson start comes first, the check stage's records at
        # check_eps = 0 after the stage at eps = 0.1
        assert rep.trace[0].kind == "ray" and rep.trace[0].factored == 1
        assert sum(r.factored for r in rep.trace) == len(made)
        assert [r.eps for r in rep.trace if r.merit is not None][7:] == [0.0] * 6
        self.assert_summaries(
            rep, 10, 4, [0.1, 0.0],
            [0.0002035886374821182, 7.400103942618473e-06,
             5.399447661445247e-07, 3.930814927374793e-08,
             2.8049224502844743e-09, 1.9637422997388285e-10,
             1.4013449309378118e-11, 0.0004940799762171479,
             5.228960818277743e-05, 3.3472956357605624e-07,
             4.313241306437218e-09, 5.5749423306938883e-11,
             5.5749423306938883e-11],
            [-0.0015530499891583689, -0.0017040045255129754,
             -0.001704136427134073, -0.0017041369088463768,
             -0.0017041369107045293, -0.0017041369107118221,
             -0.001704136910711855, -0.0069327380440159896,
             -0.007003647575669301, -0.0070036943901116006,
             -0.007003694390216511, -0.007003694390216518,
             -0.007003694390216518])

    def test_kinds_match_the_factor_spies(self, triple_flux, square16,
                                          monkeypatch):
        """A fresh record assembled and factored a Jacobian for its step, a
        chord record solved with the factor held from before."""
        made = count_factors(monkeypatch)
        jacobians, solves, last = [], [], [None]
        real_jacobian = PhaseDiscretization.jacobian
        real_solve = solver._linear_solve

        def recording_jacobian(self, u_vals, eps=None):
            jacobians.append(eps)
            return real_jacobian(self, u_vals, eps)

        def recording_solve(solve, rhs):
            solves.append("chord" if solve is last[0] else "fresh")
            last[0] = solve
            return real_solve(solve, rhs)

        monkeypatch.setattr(PhaseDiscretization, "jacobian", recording_jacobian)
        monkeypatch.setattr(solver, "_linear_solve", recording_solve)
        rep = solve_convection(self.make_problem(square16, triple_flux))
        assert rep.converged
        records = [r for outer in rep.trace for r in outer.inner]
        steps = [r for r in records if r.kind in ("fresh", "chord")]
        assert [r.kind for r in steps] == solves
        assert "chord" in solves
        assert all(r.factored == (r.kind == "fresh") for r in steps)
        # the Poisson start's factor is the one that is not a Jacobian's
        assert sum(r.factored for r in steps) == len(jacobians)
        assert [r.kind for r in records if r.factored] == (
            ["ray"] + ["fresh"] * len(jacobians))
        assert rep.factorizations == len(made) == len(jacobians) + 1
        assert rep.iterations == len(rep.trace)

    def test_convection_fixed_point(self, triple_flux, square16, monkeypatch):
        made = count_factors(monkeypatch)
        rep = solve_convection(self.make_problem(square16, triple_flux),
                               tol=1e-10)
        assert rep.converged
        assert all(r.kind == "outer" and r.t == 1.0 for r in rep.trace)
        assert all(r.factored == sum(s.factored for s in r.inner)
                   and r.merit == r.inner[-1].merit for r in rep.trace)
        assert sum(r.factored for r in rep.trace) == len(made)
        self.assert_summaries(
            rep, 5, 2, [0.0],
            [0.045500060479611845, 0.000160813045283148,
             5.832693444896009e-07, 3.6970075542597236e-09, 0.0],
            [-0.005803112146901091, -0.005828224127737134,
             -0.005828116876099311, -0.005828116180869224,
             -0.005828116180738233])

    def test_one_log_line_per_record(self, variable_phase, square16, caplog):
        prob = PhaseProblem(square16, FluxParams(variable_phase, eps=1e-8),
                            unit_sine_load(), dirichlet_zero(square16))
        caplog.set_level(logging.INFO, logger="multiphase")
        rep = solve_variational(prob, tol=1e-10)
        assert [rec.getMessage() for rec in caplog.records] == [
            str(r) for r in rep.trace]

    @pytest.mark.parametrize("seed", range(6))
    def test_max_iter_bounds_the_whole_solve(self, square8, seed):
        """max_iter counts the steps of every eps stage together: this
        solve climbs the ladder and took 7 steps over six stages when the
        budget was per stage."""
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(3.5, 3.6, 4),
                                      WeightPair.constants(1, 1)), eps=1e-6)
        prob = PhaseProblem(square8, fp, sine_load(), dirichlet_zero(square8))
        initial = np.random.default_rng(seed).uniform(-1, 1,
                                                      square8.n_vertices)
        rep = solve_variational(prob, max_iter=2, initial=initial)
        assert rep.iterations == 2
        assert not rep.converged and rep.stop_reason == "max_iter"
        assert rep.trace[-1].kind == "end"
