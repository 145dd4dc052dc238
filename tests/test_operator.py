import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from multiphase import (ExponentTriple, FeFunction, FluxParams, ScalarField,
                        UNIT_SQUARE, WeightPair, check_coercive,
                        check_gateaux, check_monotone, energy, interpolate,
                        structured_mesh)
from multiphase.modular import PhaseFunction
from multiphase import operator as op
from multiphase.operator import PhaseDiscretization
from multiphase.solver import PhaseProblem, SourceTerm, solve_variational

from conftest import random_fe


class TestFluxParams:
    def test_negative_eps_rejected(self, laplace_phase):
        with pytest.raises(ValueError):
            FluxParams(laplace_phase, eps=-1e-3)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_eps_rejected(self, laplace_phase, eps):
        with pytest.raises(ValueError, match="nonnegative finite"):
            FluxParams(laplace_phase, eps=eps)

    def test_zero_eps_needs_p2(self):
        tf = PhaseFunction(ExponentTriple.constants(1.5, 2, 3),
                           WeightPair.constants(0, 0))
        with pytest.raises(ValueError, match="p_minus"):
            FluxParams(tf, eps=0.0)
        FluxParams(tf, eps=1e-8)  # fine with regularization

    @pytest.mark.parametrize("p", [1.8, 2.2])
    def test_check_eps_one_owner(self, p, square8, monkeypatch):
        """A solve's verdict and the Gateaux and coercivity checks all judge
        at fp.check_eps: 0 when p- >= 2, else the regularising eps."""
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(p, p + 0.1, p + 0.2),
                                      WeightPair.constants(1, 1)), eps=1e-8)
        assert fp.check_eps == (0.0 if p >= 2 else 1e-8)
        prob = PhaseProblem(square8, fp,
                            SourceTerm.of_x(lambda x1, x2: np.ones_like(x1)),
                            np.zeros(square8.n_vertices))
        assert solve_variational(prob).check_eps == fp.check_eps
        seen = []
        real_residual = PhaseDiscretization.residual

        def recording_residual(self, u_vals, load=None, eps=None):
            seen.append(eps)
            return real_residual(self, u_vals, load, eps)

        monkeypatch.setattr(PhaseDiscretization, "residual", recording_residual)
        u = random_fe(square8, np.random.default_rng(3))
        check_gateaux(fp, u, u, 1e-5)
        check_coercive(fp, u, [1.0, 2.0])
        assert seen == [fp.check_eps] * 3


class TestEnergy:
    def test_affine_laplace(self, laplace_flux, square8):
        u = interpolate(lambda x, y: 3 * x, square8)
        assert energy(laplace_flux, u) == pytest.approx(4.5, rel=1e-12)

    def test_affine_triple(self, triple_flux, square8):
        # |grad u| = 1 everywhere: 1/2 + 1/3 + 1/4
        u = interpolate(lambda x, y: x, square8)
        assert energy(triple_flux, u) == pytest.approx(1 / 2 + 1 / 3 + 1 / 4,
                                                       rel=1e-12)

    def test_zero_state(self, triple_flux, square8):
        u = FeFunction(square8, np.zeros(square8.n_vertices))
        assert energy(triple_flux, u) == 0.0

    def test_scaling_pure_power(self, laplace_flux, square16):
        rng = np.random.default_rng(20)
        u = random_fe(square16, rng)
        e1 = energy(laplace_flux, u)
        e2 = energy(laplace_flux, FeFunction(square16, 3 * u.nodal_values))
        assert e2 == pytest.approx(9 * e1, rel=1e-12)


class TestResidualJacobian:
    def test_laplace_matches_stiffness(self, laplace_flux, square8):
        rng = np.random.default_rng(21)
        u = random_fe(square8, rng)
        disc = PhaseDiscretization(laplace_flux, square8)
        res = disc.residual(u.nodal_values)
        J = disc.jacobian(u.nodal_values, eps=0.0)
        # for p = 2 the operator is linear: residual = J u on free nodes
        assert np.allclose(res, J @ u.nodal_values[disc.free], atol=1e-13)

    def test_jacobian_symmetry(self, triple_flux, square8):
        rng = np.random.default_rng(22)
        u = random_fe(square8, rng)
        J = PhaseDiscretization(triple_flux, square8).jacobian(u.nodal_values,
                                                              eps=0.0)
        assert abs(J - J.T).max() < 1e-12

    def test_jacobian_positive_definite(self, triple_flux, square8):
        rng = np.random.default_rng(23)
        u = random_fe(square8, rng)
        J = PhaseDiscretization(triple_flux, square8).jacobian(u.nodal_values,
                                                              eps=0.0)
        lam = spla.eigsh(J, k=1, which="SA",
                         return_eigenvectors=False)[0]
        assert lam > 0

    def test_jacobian_matches_fd(self, triple_flux, square8):
        rng = np.random.default_rng(24)
        disc = PhaseDiscretization(triple_flux, square8)
        u = random_fe(square8, rng).nodal_values
        h = random_fe(square8, rng).nodal_values
        delta = 1e-6
        fd = (disc.residual(u + delta * h, eps=1e-8)
              - disc.residual(u - delta * h, eps=1e-8)) / (2 * delta)
        Jh = disc.jacobian(u, eps=1e-8) @ h[disc.free]
        denom = max(np.max(np.abs(Jh)), 1e-30)
        assert np.max(np.abs(fd - Jh)) / denom < 1e-5

    def test_residual_zero_state(self, triple_flux, square8):
        disc = PhaseDiscretization(triple_flux, square8)
        res = disc.residual(np.zeros(square8.n_vertices), eps=0.0)
        assert np.all(res == 0.0)

    def test_load_vector_constant(self, laplace_flux, square8):
        disc = PhaseDiscretization(laplace_flux, square8)
        f = np.ones(disc.qweights.shape)
        load = disc.load_vector(f)
        # load sums to int_Omega 1 dx = 1 by partition of unity
        assert load.sum() == pytest.approx(1.0, rel=1e-13)


class TestGateaux:
    def test_laplace(self, laplace_flux, square16):
        rng = np.random.default_rng(26)
        u = random_fe(square16, rng)
        h = random_fe(square16, rng)
        assert check_gateaux(laplace_flux, u, h, 1e-5) < 1e-8

    def test_triple(self, triple_flux, square16):
        rng = np.random.default_rng(27)
        disc = PhaseDiscretization(triple_flux, square16)
        u = random_fe(square16, rng)
        h = random_fe(square16, rng)
        pairing = abs(float(disc.residual(u.nodal_values, eps=0.0)
                            @ h.nodal_values[disc.free]))
        assert check_gateaux(triple_flux, u, h, 1e-5) <= 1e-6 * (1 + pairing)

    def test_boundary_direction_rejected(self, triple_flux, square8):
        u = FeFunction(square8, np.zeros(square8.n_vertices))
        h = FeFunction(square8, np.ones(square8.n_vertices))
        with pytest.raises(ValueError, match="boundary"):
            check_gateaux(triple_flux, u, h, 1e-5)

    def test_bad_delta(self, triple_flux, square8):
        u = FeFunction(square8, np.zeros(square8.n_vertices))
        with pytest.raises(ValueError):
            check_gateaux(triple_flux, u, u, 0.0)


class TestMonotone:
    def test_random_pairs(self, triple_flux, square8):
        rng = np.random.default_rng(28)
        for _ in range(25):
            u = random_fe(square8, rng)
            v = random_fe(square8, rng)
            assert check_monotone(triple_flux, u, v) >= -1e-12

    def test_symmetric_in_arguments(self, triple_flux, square8):
        rng = np.random.default_rng(29)
        u = random_fe(square8, rng)
        v = random_fe(square8, rng)
        assert check_monotone(triple_flux, u, v) == pytest.approx(
            check_monotone(triple_flux, v, u), rel=1e-12)

    def test_mismatched_boundary_rejected(self, triple_flux, square8):
        u = FeFunction(square8, np.zeros(square8.n_vertices))
        v = FeFunction(square8, np.ones(square8.n_vertices))
        with pytest.raises(ValueError, match="boundary"):
            check_monotone(triple_flux, u, v)

    def test_pairs_the_operator_at_check_eps(self, square8):
        """Like check_gateaux and check_coercive, the pairing is of the
        operator at check_eps, eps = 0 for p- >= 2, not of the operator
        regularised by the solver's eps."""
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(2.5, 3, 4),
                                      WeightPair.constants(1, 1)), eps=0.5)
        rng = np.random.default_rng(30)
        u, v = random_fe(square8, rng), random_fe(square8, rng)
        disc = PhaseDiscretization(fp, square8)
        du = (u.nodal_values - v.nodal_values)[disc.free]

        def pairing(eps):
            return float((disc.residual(u.nodal_values, eps=eps)
                          - disc.residual(v.nodal_values, eps=eps)) @ du)

        assert fp.check_eps == 0.0
        assert check_monotone(fp, u, v) == pairing(0.0)
        assert abs(pairing(fp.eps) - pairing(0.0)) > 1e-3 * abs(pairing(0.0))


class TestCoercive:
    def test_ratios_exceed_bounds(self, triple_flux, square8):
        rng = np.random.default_rng(30)
        u = random_fe(square8, rng)
        rows = check_coercive(triple_flux, u, [1, 2, 4, 8])
        for _, ratio, bound in rows:
            assert ratio >= bound

    def test_ratios_increase(self, triple_flux, square8):
        rng = np.random.default_rng(31)
        u = random_fe(square8, rng)
        ratios = [r for _, r, _ in check_coercive(triple_flux, u,
                                                  [1, 2, 4, 8, 16])]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_zero_state_rejected(self, triple_flux, square8):
        u = FeFunction(square8, np.zeros(square8.n_vertices))
        with pytest.raises(ValueError, match="nonzero"):
            check_coercive(triple_flux, u, [1.0])

    def test_zero_scale_rejected(self, triple_flux, square8):
        """At scale 0 both the pairing and the norm vanish; a negative scale
        gives the ratio and bound of its absolute value."""
        u = random_fe(square8, np.random.default_rng(32))
        with pytest.raises(ValueError, match="nonzero"):
            check_coercive(triple_flux, u, [1.0, 0.0])
        (_, neg, neg_bound), (_, pos, pos_bound) = check_coercive(
            triple_flux, u, [-2.0, 2.0])
        assert neg == pytest.approx(pos, rel=1e-12)
        assert neg_bound == pos_bound


class TestReductionRegressions:
    """Degenerate weights must reproduce simpler operators exactly."""

    def test_mu2_zero_matches_double_phase(self, square8):
        exp = ExponentTriple.constants(2, 3, 4)
        fp3 = FluxParams(PhaseFunction(exp, WeightPair.constants(0.7, 0.0)),
                         eps=0.0)
        rng = np.random.default_rng(32)
        u = random_fe(square8, rng).nodal_values
        disc = PhaseDiscretization(fp3, square8)
        res = disc.residual(u, eps=0.0)
        # independent two-term assembly
        g = disc._gradients(u)
        s = np.linalg.norm(g, axis=1)[:, None]
        coef = disc._pow(s, disc.p - 2) + 0.7 * disc._pow(s, disc.q - 2)
        c = np.sum(disc.qweights * coef, axis=1)
        gdphi = np.einsum("td,tjd->tj", g, square8.basis_grads)
        ref = np.zeros(square8.n_vertices)
        np.add.at(ref, square8.triangles.ravel(), (c[:, None] * gdphi).ravel())
        assert np.max(np.abs(res - ref[disc.free])) <= 1e-12

    def test_equal_exponents_match_p_laplacian(self, square8):
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(3, 3, 3),
                                      WeightPair.constants(0.5, 0.25)),
                        eps=0.0)
        rng = np.random.default_rng(33)
        u = random_fe(square8, rng).nodal_values
        disc = PhaseDiscretization(fp, square8)
        res = disc.residual(u, eps=0.0)
        # (1 + mu1 + mu2) |g|^{p-2} g against basis gradients
        g = disc._gradients(u)
        s = np.linalg.norm(g, axis=1)
        c = 1.75 * s * np.sum(disc.qweights, axis=1)
        gdphi = np.einsum("td,tjd->tj", g, square8.basis_grads)
        ref = np.zeros(square8.n_vertices)
        np.add.at(ref, square8.triangles.ravel(), (c[:, None] * gdphi).ravel())
        assert np.max(np.abs(res - ref[disc.free])) <= 1e-12


# -- Newton-step kernel: the properties the symmetric LU relies on ----------

def _constant_phase(p, dq, dr, mu1, mu2):
    return PhaseFunction(ExponentTriple.constants(p, p + dq, p + dq + dr),
                         WeightPair.constants(mu1, mu2))


def _fields_at(tf, qp):
    x1, x2 = qp[..., 0], qp[..., 1]
    return (tf.exp.p(x1, x2), tf.exp.q(x1, x2), tf.exp.r(x1, x2),
            tf.w.mu1(x1, x2), tf.w.mu2(x1, x2))


def _coo_jacobian(disc, u, eps):
    """Reference Jacobian: 7-point fields, s^(e-4) powers and a COO build."""
    mesh = disc.mesh
    p, q, r, m1, m2 = _fields_at(disc.fp.tf, disc.qpoints)
    G = mesh.basis_grads
    g = np.einsum("tj,tjd->td", u[mesh.triangles], G)
    s = np.sqrt(np.sum(g * g, axis=1) + eps ** 2)[:, None]
    # at eps = 0 a triangle with only boundary nodes has s = 0 and non-finite
    # entries; they sit in boundary rows, which are dropped below
    with np.errstate(divide="ignore", invalid="ignore"):
        A = s ** (p - 2) + m1 * s ** (q - 2) + m2 * s ** (r - 2)
        B = ((p - 2) * s ** (p - 4) + m1 * (q - 2) * s ** (q - 4)
             + m2 * (r - 2) * s ** (r - 4))
        a = np.sum(disc.qweights * A, axis=1)
        b = np.sum(disc.qweights * B, axis=1)
        gd = np.einsum("td,tjd->tj", g, G)
        local = (a[:, None, None] * np.einsum("tjd,tkd->tjk", G, G)
                 + b[:, None, None] * gd[:, :, None] * gd[:, None, :])
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    nv = mesh.n_vertices
    K = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    return K[disc.free][:, disc.free]


def _seven_point(disc):
    """A copy of disc whose constant fields are spread over every point,
    with the stacked arrays the kernel reads (X and Wa = w (1, mu1, mu2))
    rebuilt from them here in the (3 K, T) layout of a space-varying phase,
    so the copy shares none of the per-triangle ones made in __init__."""
    full = PhaseDiscretization(disc.fp, disc.mesh)
    shape = disc.qweights.shape
    for name in ("p", "q", "r", "m1", "m2"):
        setattr(full, name, np.broadcast_to(getattr(disc, name), shape))
    X = np.concatenate([full.p.T, full.q.T, full.r.T])
    Wa = np.concatenate([full.qweights.T, (full.qweights * full.m1).T,
                         (full.qweights * full.m2).T])
    full._X, full._Wa = X, Wa
    full._ones = np.ones(len(X))
    assert all(a.shape == (3 * shape[1], shape[0]) for a in (full._X, full._Wa))
    return full


def _rel_err(a, ref):
    return np.max(np.abs(a - ref)) / max(np.max(np.abs(ref)), 1e-300)


_phase_args = dict(dq=st.floats(0.0, 1.0), dr=st.floats(0.0, 1.0),
                   mu1=st.floats(0.0, 2.0), mu2=st.floats(0.0, 2.0),
                   seed=st.integers(0, 2 ** 32 - 1))
_regularized = given(p=st.floats(1.1, 3.0),
                     eps=st.sampled_from([1e-8, 1e-4, 1e-2]), **_phase_args)
_unregularized = given(p=st.floats(2.0, 3.0), eps=st.just(0.0), **_phase_args)
_settings = settings(max_examples=25, deadline=None)


class TestJacobianProperties:
    def _check_spd(self, mesh, p, dq, dr, mu1, mu2, eps, seed):
        fp = FluxParams(_constant_phase(p, dq, dr, mu1, mu2), eps=eps)
        u = random_fe(mesh, np.random.default_rng(seed)).nodal_values
        J = PhaseDiscretization(fp, mesh).jacobian(u, eps=eps).toarray()
        assert np.array_equal(J, J.T)
        np.linalg.cholesky(J)

    @_settings
    @_regularized
    def test_symmetric_positive_definite_eps(self, square8, p, dq, dr, mu1,
                                             mu2, eps, seed):
        self._check_spd(square8, p, dq, dr, mu1, mu2, eps, seed)

    @_settings
    @_unregularized
    def test_symmetric_positive_definite_eps0(self, square8, p, dq, dr, mu1,
                                              mu2, eps, seed):
        self._check_spd(square8, p, dq, dr, mu1, mu2, eps, seed)

    @_settings
    @_regularized
    def test_cached_pattern_matches_coo(self, square8, p, dq, dr, mu1, mu2,
                                        eps, seed):
        fp = FluxParams(_constant_phase(p, dq, dr, mu1, mu2), eps=eps)
        disc = PhaseDiscretization(fp, square8)
        rng = np.random.default_rng(seed)
        for _ in range(2):      # the second call reuses the cached pattern
            u = random_fe(square8, rng).nodal_values
            J = disc.jacobian(u, eps=eps)
            assert J.has_canonical_format
            assert _rel_err(J.toarray(),
                            _coo_jacobian(disc, u, eps).toarray()) <= 1e-14

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), eps=st.sampled_from([0.0, 1e-8]))
    def test_variable_phase_matches_coo(self, square8, variable_phase, seed,
                                        eps):
        fp = FluxParams(variable_phase, eps=eps)
        disc = PhaseDiscretization(fp, square8)
        assert disc.p.shape == disc.qweights.shape
        u = random_fe(square8, np.random.default_rng(seed)).nodal_values
        J = disc.jacobian(u, eps=eps)
        assert _rel_err(J.toarray(),
                        _coo_jacobian(disc, u, eps).toarray()) <= 1e-14

    @_settings
    @_regularized
    def test_per_triangle_matches_seven_point(self, square8, p, dq, dr, mu1,
                                              mu2, eps, seed):
        fp = FluxParams(_constant_phase(p, dq, dr, mu1, mu2), eps=eps)
        disc = PhaseDiscretization(fp, square8)
        assert disc.p.shape == (square8.triangles.shape[0], 1)
        full = _seven_point(disc)
        u = random_fe(square8, np.random.default_rng(seed)).nodal_values
        for e in (0.0, eps):
            assert disc.energy(u, eps=e) == pytest.approx(
                full.energy(u, eps=e), rel=1e-13)
        assert _rel_err(disc.residual(u, eps=eps),
                        full.residual(u, eps=eps)) <= 1e-13
        assert _rel_err(disc.jacobian(u, eps=eps).toarray(),
                        full.jacobian(u, eps=eps).toarray()) <= 1e-13

    def test_constant_phase_samples_no_field(self, triple_flux, square8,
                                             monkeypatch):
        def no_eval(self, x1, x2):
            raise AssertionError("a constant field was evaluated")

        monkeypatch.setattr(ScalarField, "__call__", no_eval)
        disc = PhaseDiscretization(triple_flux, square8)
        T = square8.n_triangles
        for name, value in zip(("p", "q", "r", "m1", "m2"), (2, 3, 4, 1, 1)):
            assert np.array_equal(getattr(disc, name), np.full((T, 1), value))

    def test_zero_state_limits(self, triple_flux, square8):
        # s = 0 everywhere at eps = 0: the rank-one term drops out and the
        # p = 2 term leaves the plain stiffness matrix
        disc = PhaseDiscretization(triple_flux, square8)
        zero = np.zeros(square8.n_vertices)
        J = disc.jacobian(zero, eps=0.0).toarray()
        ref = PhaseDiscretization(FluxParams(_constant_phase(2, 0, 0, 0, 0),
                                             eps=0.0), square8)
        assert np.all(np.isfinite(J))
        assert np.allclose(J, ref.jacobian(zero, eps=0.0).toarray(),
                           rtol=0, atol=1e-13)
        assert disc.energy(zero) == 0.0
        # p < 2: s^(p-2) blows up at s = 0, but energy and flux vanish there
        sub = PhaseDiscretization(FluxParams(_constant_phase(1.5, 0.5, 1, 1, 1),
                                             eps=1e-8), square8)
        assert sub.energy(zero) == 0.0
        assert np.all(sub.residual(zero, eps=0.0) == 0.0)


class TestStateMemo:
    """Energy, residual and Jacobian of one state share a memoised phase
    evaluation; the memo must never serve a different state or eps."""

    @staticmethod
    def _all(disc, u, load, eps):
        return (disc.energy(u, eps=eps), disc.residual(u, load, eps=eps),
                disc.jacobian(u, eps=eps))

    @staticmethod
    def _assert_identical(got, ref):
        assert got[0] == ref[0]
        assert np.array_equal(got[1], ref[1])
        assert np.array_equal(got[2].indptr, ref[2].indptr)
        assert np.array_equal(got[2].indices, ref[2].indices)
        assert np.array_equal(got[2].data, ref[2].data)

    @pytest.mark.parametrize("phase", ["triple_phase", "variable_phase"])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_bit_identical_to_fresh(self, request, square8, phase, eps):
        fp = FluxParams(request.getfixturevalue(phase), eps=1e-8)
        rng = np.random.default_rng(11)
        u = random_fe(square8, rng).nodal_values
        load = rng.standard_normal(square8.n_vertices)
        memoised = self._all(PhaseDiscretization(fp, square8), u, load, eps)
        # a fresh discretization per quantity: no memo to draw on
        fresh = (PhaseDiscretization(fp, square8).energy(u, eps=eps),
                 PhaseDiscretization(fp, square8).residual(u, load, eps=eps),
                 PhaseDiscretization(fp, square8).jacobian(u, eps=eps))
        self._assert_identical(memoised, fresh)

    def test_in_place_mutation_gives_fresh_values(self, triple_flux, square8):
        rng = np.random.default_rng(12)
        u = random_fe(square8, rng).nodal_values
        load = rng.standard_normal(square8.n_vertices)
        disc = PhaseDiscretization(triple_flux, square8)
        before = self._all(disc, u, load, 0.0)
        u[disc.free] *= 1.5                # same array object, new values
        after = self._all(disc, u, load, 0.0)
        ref = self._all(PhaseDiscretization(triple_flux, square8), u, load, 0.0)
        self._assert_identical(after, ref)
        assert after[0] != before[0]

    def test_eps_is_part_of_the_key(self, triple_flux, square8):
        rng = np.random.default_rng(13)
        u = random_fe(square8, rng).nodal_values
        disc = PhaseDiscretization(triple_flux, square8)
        for eps in (0.0, 1e-2, 0.0):
            fresh = PhaseDiscretization(triple_flux, square8)
            assert disc.energy(u, eps=eps) == fresh.energy(u, eps=eps)
            assert np.array_equal(disc.residual(u, eps=eps),
                                  fresh.residual(u, eps=eps))

    def test_one_phase_evaluation_per_state(self, request, square8,
                                            monkeypatch):
        """p, q and r are raised in one power evaluation per state, over
        the stacked exponents, and never again for the same values."""
        real_pow = PhaseDiscretization._pow
        shapes = []

        def counting_pow(s, e, out=None):
            shapes.append(np.shape(e))
            return real_pow(s, e, out)

        monkeypatch.setattr(PhaseDiscretization, "_pow",
                            staticmethod(counting_pow))
        T = square8.n_triangles
        for phase, shape in (("triple_phase", (3, T)),
                             ("variable_phase", (3 * 7, T))):
            fp = FluxParams(request.getfixturevalue(phase), eps=1e-8)
            disc = PhaseDiscretization(fp, square8)
            u = random_fe(square8, np.random.default_rng(14)).nodal_values
            shapes.clear()
            self._all(disc, u, None, 0.0)
            assert shapes == [shape]             # p, q and r at once
            self._all(disc, u.copy(), None, 0.0)  # another array, same values
            assert shapes == [shape]


class TestPhasePowers:
    """The kernel's one power evaluation, exp(e log s), against np.power
    and against a direct 7-point evaluation of the energy and residual."""

    @settings(max_examples=50, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(-12.0, 6.0),
                                    st.floats(-1.0, 2.0, exclude_min=True)),
                          min_size=1, max_size=20))
    def test_exp_log_matches_power(self, pairs):
        """s in [1e-12, 1e6] and e = exponent - 2 in (-1, 2]."""
        log_s, e = np.array(pairs).T
        s = 10.0 ** log_s
        v = PhaseDiscretization._pow(s, e)
        assert np.max(np.abs(v / np.power(s, e) - 1)) <= 1e-14
        out = e.copy()                  # in place over the exponents
        assert PhaseDiscretization._pow(s, out, out=out) is out
        assert np.array_equal(out, PhaseDiscretization._pow(s, e))

    def test_zero_base(self):
        e = np.array([0.0, 1e-300, 0.2, 2.0, -0.5, -1e-300])
        v = PhaseDiscretization._pow(np.zeros((2, 1)), np.tile(e, (2, 1)))
        assert np.array_equal(v, np.tile([1.0, 0, 0, 0, 0, 0], (2, 1)))
        # s along the last axis, as the kernel passes it: one column is s = 0
        v = PhaseDiscretization._pow(np.array([0.0, 2.0]), e[:, None])
        assert np.array_equal(v[:, 0], [1.0, 0, 0, 0, 0, 0])
        assert np.array_equal(v[:, 1], np.power(2.0, e))

    @pytest.mark.parametrize("eps", [0.0, 1e-8, 1e-2])
    def test_variable_phase_matches_seven_point(self, square8, variable_phase,
                                                eps):
        disc = PhaseDiscretization(FluxParams(variable_phase, eps=1e-8),
                                   square8)
        p, q, r, m1, m2 = _fields_at(variable_phase, disc.qpoints)
        w = disc.qweights
        rng = np.random.default_rng(15)
        for _ in range(3):
            u = random_fe(square8, rng).nodal_values
            g = np.einsum("tj,tjd->td", u[square8.triangles],
                          square8.basis_grads)
            s = np.sqrt(np.sum(g * g, axis=1) + eps ** 2)[:, None]
            density = s ** p / p + m1 * s ** q / q + m2 * s ** r / r
            a = np.sum(w * (s ** (p - 2) + m1 * s ** (q - 2)
                            + m2 * s ** (r - 2)), axis=1)
            gd = np.einsum("td,tjd->tj", g, square8.basis_grads)
            ref = np.zeros(square8.n_vertices)
            np.add.at(ref, square8.triangles.ravel(), (a[:, None] * gd).ravel())
            assert disc.energy(u, eps=eps) == pytest.approx(
                np.sum(w * density), rel=1e-14)
            assert _rel_err(disc.residual(u, eps=eps),
                            ref[disc.free]) <= 1e-14

    def test_per_point_buffers_within_budget(self, square8, variable_phase):
        """A space-varying phase keeps at most 6 (T, K) float arrays, X and
        Wa (three each), with no base buffer counted twice and the mesh's
        quadrature not counted."""
        disc = PhaseDiscretization(FluxParams(variable_phase, eps=1e-8),
                                   square8)
        disc.jacobian(random_fe(square8, np.random.default_rng(16)).nodal_values)
        T, K = disc.qweights.shape
        quad = square8.quadrature()

        def base(a):
            while a.base is not None:
                a = a.base
            return a

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tuple):
                for v in value:
                    yield from arrays(v)

        shared = {id(base(quad.points)), id(base(quad.weights))}
        owned = {id(b): b for v in vars(disc).values() for a in arrays(v)
                 if id(b := base(a)) not in shared}
        assert disc.p.base is not None and base(disc.p) is base(disc.r)
        per_point = sum(b.nbytes for b in owned.values() if b.size >= T * K)
        assert per_point <= 6 * T * K * 8


class TestChunkedReduction:
    """A state is reduced in chunks of whole triangles: the chunking must
    change no bit of a result, and its scratch must stay chunk-sized."""

    @pytest.mark.parametrize("rows", [3, 21])
    @pytest.mark.parametrize("n", [1, 2, 8, 9, 17, 25, 127, 128, 1033])
    def test_chunks_tile_the_triangles(self, monkeypatch, rows, n):
        monkeypatch.setattr(op, "_CHUNK_ENTRIES", 24 * rows)
        spans = list(op._chunks(rows, n))
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        assert all(lo % 8 == 0 and hi - lo <= 24 for lo, hi in spans[:-1])
        assert spans[-1][1] - spans[-1][0] >= min(n, 2)

    @pytest.mark.parametrize("phase", ["triple_phase", "variable_phase"])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    @pytest.mark.parametrize("flat", [False, True])
    def test_bit_identical_to_one_chunk(self, request, square8, monkeypatch,
                                        phase, eps, flat):
        """A budget of 24 triangles splits the 128 into five chunks and a
        ragged sixth of 8; with flat, u vanishes on the left half, whose
        triangles have zero gradient (s = 0 at eps = 0)."""
        fp = FluxParams(request.getfixturevalue(phase), eps=1e-8)
        rng = np.random.default_rng(17)
        u = random_fe(square8, rng).nodal_values
        if flat:
            u[square8.vertices[:, 0] <= 0.5] = 0.0
        load = rng.standard_normal(square8.n_vertices)
        rows = len(PhaseDiscretization(fp, square8)._Wa)
        monkeypatch.setattr(op, "_CHUNK_ENTRIES", 2 ** 40)
        assert len(list(op._chunks(rows, square8.n_triangles))) == 1
        one = TestStateMemo._all(PhaseDiscretization(fp, square8), u, load, eps)
        monkeypatch.setattr(op, "_CHUNK_ENTRIES", 24 * rows)
        spans = list(op._chunks(rows, square8.n_triangles))
        assert [hi - lo for lo, hi in spans] == [24] * 5 + [8]
        chunked = TestStateMemo._all(PhaseDiscretization(fp, square8), u, load,
                                     eps)
        TestStateMemo._assert_identical(chunked, one)

    def test_scratch_within_chunk_budget(self, square32, variable_phase,
                                         monkeypatch):
        """One reduction of a variable phase in eight chunks allocates at
        most its chunk scratch, C and 1 / X, plus 12 (T,) float vectors:
        well below the 2 * 21 (T,) vectors of one full-size C and 1 / X."""
        disc = PhaseDiscretization(FluxParams(variable_phase, eps=1e-8),
                                   square32)
        rows, T = disc._Wa.shape
        budget = 256 * rows
        monkeypatch.setattr(op, "_CHUNK_ENTRIES", budget)
        assert len(list(op._chunks(rows, T))) == 8
        u = random_fe(square32, np.random.default_rng(18)).nodal_values
        disc._gradients(u)               # forms the mesh's gradient operator
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            disc.energy(u, eps=1e-8)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= (2 * budget + 12 * T) * 8
