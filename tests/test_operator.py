import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from multiphase import (ExponentTriple, FeFunction, FluxParams, ScalarField,
                        UNIT_SQUARE, WeightPair, assemble, check_coercive,
                        check_gateaux, check_monotone, energy, flux,
                        interpolate, structured_mesh)
from multiphase.modular import PhaseFunction
from multiphase.operator import PhaseDiscretization

from conftest import random_fe


class TestFluxParams:
    def test_negative_eps_rejected(self, laplace_phase):
        with pytest.raises(ValueError):
            FluxParams(laplace_phase, eps=-1e-3)

    def test_zero_eps_needs_p2(self):
        tf = PhaseFunction(ExponentTriple.constants(1.5, 2, 3),
                           WeightPair.constants(0, 0))
        with pytest.raises(ValueError, match="p_minus"):
            FluxParams(tf, eps=0.0)
        FluxParams(tf, eps=1e-8)  # fine with regularization


class TestPointwiseFlux:
    def test_laplace_identity(self, laplace_flux):
        g = np.array([0.3, -0.4])
        assert flux(laplace_flux, (0.5, 0.5), g) == pytest.approx(g)

    def test_zero_gradient(self, triple_flux):
        assert flux(triple_flux, (0.2, 0.7), (0.0, 0.0)) == pytest.approx([0, 0])

    def test_triple_value(self, triple_flux):
        # |g| = 2: coefficient 2^0 + 2^1 + 2^2 = 7
        out = flux(triple_flux, (0.5, 0.5), (2.0, 0.0))
        assert out == pytest.approx([14.0, 0.0])

    def test_radial_alignment(self, triple_flux):
        g = np.array([1.0, 2.0])
        out = flux(triple_flux, (0.1, 0.9), g)
        assert out[0] * g[1] - out[1] * g[0] == pytest.approx(0.0, abs=1e-14)


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

    def test_assemble_bundles(self, triple_flux, square8):
        rng = np.random.default_rng(25)
        u = random_fe(square8, rng)
        sys = assemble(triple_flux, u)
        assert sys.jacobian.shape[0] == len(sys.residual)
        assert sys.energy == pytest.approx(energy(triple_flux, u), rel=1e-13)


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
    with the exponent arrays the kernel reads rebuilt from them here, so
    the copy does not share the per-triangle ones made in __init__."""
    full = PhaseDiscretization(disc.fp, disc.mesh, disc.degree)
    for name in ("p", "q", "r", "m1", "m2"):
        setattr(full, name, np.broadcast_to(getattr(disc, name),
                                            disc.qweights.shape))
    full._e2 = (full.p - 2, full.q - 2, full.r - 2)
    full._energy_w = (1 / full.p, full.m1 / full.q, full.m2 / full.r)
    assert all(a.shape == disc.qweights.shape
               for a in full._e2 + full._energy_w)
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

    def test_one_phase_evaluation_per_state(self, triple_flux, square8,
                                            monkeypatch):
        real_pow = PhaseDiscretization._pow
        exponents = []

        def counting_pow(s, e):
            exponents.append(e)
            return real_pow(s, e)

        monkeypatch.setattr(PhaseDiscretization, "_pow",
                            staticmethod(counting_pow))
        disc = PhaseDiscretization(triple_flux, square8)
        u = random_fe(square8, np.random.default_rng(14)).nodal_values
        self._all(disc, u, None, 0.0)
        assert len(exponents) == 3           # p, q and r, once for all three
        self._all(disc, u.copy(), None, 0.0)  # another array, same values
        assert len(exponents) == 3
