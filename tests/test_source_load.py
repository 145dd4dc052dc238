"""What a solve evaluates once: the load of an x-only source
(SourceTerm.of_x) is formed once per discretization and serves the weak
residual check, a start choice hands the state it picks back to the
discretization's memo, and a source value that is not finite is a
ValueError that names the source."""

import numpy as np
import pytest

from multiphase import (FluxParams, PhaseProblem, SourceTerm, UNIT_SQUARE,
                        solve_convection, solve_variational, structured_mesh,
                        weak_residual_sup)
from multiphase import solver
from multiphase.operator import PhaseDiscretization


def sin_sin(x1, x2):
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


def counted(fn, calls):
    """fn, appending its first argument's shape to calls on each call."""
    def wrapper(*args):
        calls.append(np.shape(args[0]))
        return fn(*args)
    return wrapper


def count_load_vectors(monkeypatch):
    real = PhaseDiscretization.load_vector
    calls = []
    monkeypatch.setattr(PhaseDiscretization, "load_vector",
                        lambda self, f: calls.append(1) or real(self, f))
    return calls


def record_reductions(monkeypatch):
    """(eps, state) of each reduction that the memo did not serve."""
    real = PhaseDiscretization._reduced
    misses = []

    def recording(self, u_vals, eps):
        before = self.memo
        out = real(self, u_vals, eps)
        if self.memo is not before:
            misses.append((eps, np.array(u_vals, dtype=float)))
        return out

    monkeypatch.setattr(PhaseDiscretization, "_reduced", recording)
    return misses


def repeats(misses):
    """The reductions of a state at an eps that was reduced before."""
    return [k for k, (eps, u) in enumerate(misses)
            if any(e == eps and np.array_equal(v, u) for e, v in misses[:k])]


class TestXOnlyLoad:
    def test_solve_and_check_evaluate_once(self, variable_phase, monkeypatch):
        """The benchmark's variable-phase solve and its weak residual check
        evaluate an x-only source once and form its load once."""
        mesh = structured_mesh(UNIT_SQUARE, 8)
        evals = []
        prob = PhaseProblem(mesh, FluxParams(variable_phase, eps=1e-8),
                            SourceTerm.of_x(counted(sin_sin, evals)),
                            np.zeros(mesh.n_vertices))
        loads = count_load_vectors(monkeypatch)
        rep = solve_variational(prob, tol=1e-10)
        wres = weak_residual_sup(prob, rep.solution)
        assert rep.converged and wres <= 1e-8
        assert len(evals) == 1 and len(loads) == 1
        monkeypatch.undo()
        fresh = PhaseDiscretization(prob.fp, mesh)
        u = rep.solution.nodal_values
        assert wres == solver._sup_norm(fresh.residual(
            u, solver._source_load(fresh, prob.source, u),
            eps=prob.fp.check_eps))

    def test_other_source_or_discretization_evaluates_again(
            self, variable_phase, monkeypatch):
        """Another source object, even of the same function, or a check on a
        discretization of its own evaluates the source again."""
        mesh = structured_mesh(UNIT_SQUARE, 8)
        fp = FluxParams(variable_phase, eps=1e-8)
        evals = []
        fn = counted(sin_sin, evals)
        prob = PhaseProblem(mesh, fp, SourceTerm.of_x(fn),
                            np.zeros(mesh.n_vertices))
        rep = solve_variational(prob, tol=1e-10)
        other = PhaseProblem(mesh, fp, SourceTerm.of_x(fn), prob.dirichlet)
        assert len(evals) == 1
        same = weak_residual_sup(other, rep.solution)
        assert len(evals) == 2
        again = weak_residual_sup(prob, rep.solution)   # no disc carried
        assert len(evals) == 3 and same == again

    def test_load_equals_state_evaluated_load(self, variable_phase):
        """The x-only load is bit for bit the load of the same function
        evaluated at a state, is read-only and is held per function."""
        mesh = structured_mesh(UNIT_SQUARE, 8)
        disc = PhaseDiscretization(FluxParams(variable_phase, eps=1e-8), mesh)
        x_only = SourceTerm.of_x(sin_sin)
        full = SourceTerm(lambda x1, x2, t, z1, z2: sin_sin(x1, x2))
        u = np.random.default_rng(3).standard_normal(mesh.n_vertices)
        load = solver._source_load(disc, x_only, u)
        assert np.array_equal(load, solver._source_load(disc, full, u))
        assert not load.flags.writeable
        assert solver._source_load(disc, x_only, 2 * u) is load
        other = SourceTerm.of_x(lambda x1, x2: x1 * x2)
        assert solver._source_load(disc, other, u) is not load
        assert disc.x_load[1] is not load

    def test_zero_is_x_only(self, square8, triple_flux):
        disc = PhaseDiscretization(triple_flux, square8)
        zero = SourceTerm.zero()
        load = solver._source_load(disc, zero, np.ones(square8.n_vertices))
        assert disc.x_load[0] is zero.eval
        assert np.array_equal(load, np.zeros(square8.n_vertices))


class TestStartChoiceReducesOnce:
    def test_ray_start(self, variable_phase, monkeypatch):
        """The state the Poisson-ray start picks is reduced once: its first
        residual and Jacobian read the memo."""
        mesh = structured_mesh(UNIT_SQUARE, 8)
        prob = PhaseProblem(mesh, FluxParams(variable_phase, eps=1e-8),
                            SourceTerm.of_x(sin_sin), np.zeros(mesh.n_vertices))
        misses = record_reductions(monkeypatch)
        rep = solve_variational(prob, tol=1e-10)
        assert rep.converged and rep.trace[0].kind == "ray"
        assert misses and repeats(misses) == []

    @pytest.mark.parametrize("scale, picks_lift", [(1.0, False), (1e5, True)])
    def test_ray_start_hands_back_memo(self, triple_flux, scale, picks_lift):
        """Whichever state the ray start picks, a point of the ray or (under
        a load so large that every point overshoots) the lift, the memo
        holds its reductions when it returns."""
        mesh = structured_mesh(UNIT_SQUARE, 8)
        disc = PhaseDiscretization(triple_flux, mesh)
        lift = np.zeros(mesh.n_vertices)
        load = scale * solver._source_load(disc, SourceTerm.of_x(sin_sin), lift)
        free = disc.free

        def merit(v):
            return disc.energy(v, eps=0.0) - float(load[free] @ v[free])

        u, m = solver._ray_start(disc, load, lift, merit)
        assert (u is lift) == picks_lift
        eps, held, reduced = disc.memo
        assert eps == 0.0 and np.array_equal(held, u)
        assert reduced[0] - float(load[free] @ u[free]) == m

    def test_convection_lift_beats_warm(self, triple_flux, monkeypatch):
        """A convection start whose lift has the lower merit does not reduce
        the lift again."""
        mesh = structured_mesh(UNIT_SQUARE, 8)
        src = SourceTerm(lambda x1, x2, t, z1, z2: sin_sin(x1, x2) + 0.05 * z1,
                         grad_dependent=True)
        prob = PhaseProblem(mesh, triple_flux, src, np.zeros(mesh.n_vertices))
        far = np.where(mesh.boundary_flags, 0.0,
                       np.random.default_rng(7).uniform(-5, 5, mesh.n_vertices))
        misses = record_reductions(monkeypatch)
        rep = solve_convection(prob, tol=1e-10, initial=far)
        assert rep.converged and rep.start == "lift"
        assert repeats(misses) == []


class TestNonFiniteSource:
    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("solve", [solve_variational, solve_convection])
    def test_x_only(self, square8, triple_flux, solve, bad):
        src = SourceTerm.of_x(lambda x1, x2: np.where(x1 > 0.5, bad, 1.0))
        prob = PhaseProblem(square8, triple_flux, src,
                            np.zeros(square8.n_vertices))
        with pytest.raises(ValueError, match=r"the source f\(x, u, grad u\) "
                           r"is not finite at \d+ of \d+ quadrature points"):
            solve(prob, tol=1e-10)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_state_dependent(self, square8, triple_flux, bad):
        """A value that turns non-finite at a later state raises there."""
        src = SourceTerm(lambda x1, x2, t, z1, z2:
                         np.where(t > 0.01, bad, 1.0) + 0.05 * z1,
                         grad_dependent=True)
        prob = PhaseProblem(square8, triple_flux, src,
                            np.zeros(square8.n_vertices))
        with pytest.raises(ValueError, match="the source"):
            solve_convection(prob, tol=1e-10)
