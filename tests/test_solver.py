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

    # lambda of the Rayleigh descent the inverse power method replaced
    # (seed 7, n = 16); a minimised quotient may only come out lower
    DESCENT_M3_N16 = 63.9569147823
    DESCENT_M15_N16 = 10.1521495410

    def test_m3_seed_free(self, square16):
        lams = [first_eigenvalue(square16, 3.0, seed=s)[0] for s in range(20)]
        assert max(lams) <= self.DESCENT_M3_N16 * (1 + 1e-9)
        assert max(lams) - min(lams) <= 1e-9 * min(lams)

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

    def counting_factor(J):
        made.append(J.shape)
        solve = real_factor(J)
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
        for seed in (21, 22):
            made.clear()
            inner.clear()
            rep = solve_convection(
                prob, initial=rough_start(square16, seed, square16.h_max))
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

    def test_check_eps(self, triple_flux, square8):
        low = FluxParams(PhaseFunction(ExponentTriple.constants(1.8, 1.9, 2.0),
                                       WeightPair.constants(1, 1)), eps=1e-8)
        for fp, expected in ((triple_flux, 0.0), (low, 1e-8)):
            prob = PhaseProblem(square8, fp, sine_load(),
                                dirichlet_zero(square8))
            assert solve_variational(prob).check_eps == expected
        rep = solve_convection(self.make_problem(square8, triple_flux))
        assert rep.check_eps == 0.0


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


class TestEpsZeroPolish:
    """For p- >= 2 a solve at a user eps > 0 is judged at check_eps = 0;
    the closing Newton polish must use the Jacobian of that residual."""

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
