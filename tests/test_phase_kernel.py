"""The sampled phase kernel and the quadratures it runs on: the constant-phase
shortcut against the sampled path, the closed-form scaled modular against
the per-point one, terms of zero weight against the three-term formula,
recorded rule points against the barycentric solve, and the shared mesh
quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiphase import (Ball, Domain2D, ExponentTriple, FeFunction,
                        ScalarField, TriMesh, UNIT_SQUARE, WeightPair,
                        ball_quadrature, interpolate, luxemburg_norm, modular,
                        refine, structured_mesh)
from multiphase import fields as fields_mod, mesh as mesh_mod
from multiphase.mesh import _BallCells, _barycentric, quad_rule
from multiphase.modular import PhaseFunction, SampledPhase


def _constant_phase(p, q, r, mu1, mu2):
    return PhaseFunction(ExponentTriple.constants(p, q, r),
                         WeightPair.constants(mu1, mu2))


def _sampled_twin(p, q, r, mu1, mu2):
    """The same phase from fields that do not declare themselves constant."""
    def field(v):
        return ScalarField(lambda x1, x2: np.full(np.shape(x1), float(v)))
    return PhaseFunction(ExponentTriple.sample(field(p), field(q), field(r), n=2),
                         WeightPair.sample(field(mu1), field(mu2), n=2))


class TestConstantPhase:
    def test_constant_flag_comes_from_construction(self):
        assert ScalarField.constant(2.5).constant_value == 2.5
        assert ScalarField.from_spec({"const": 3}).constant_value == 3.0
        # equal declared bounds do not make a field constant: its values
        # must still be sampled and checked against them
        pinned = ScalarField(lambda x1, x2: 2.0 + 0.0 * x1, declared_bounds=(2.0, 2.0))
        assert pinned.constant_value is None
        assert ScalarField.affine(2, 0, 0).constant_value is None

    def test_no_point_is_sampled(self, square8, monkeypatch):
        tf = _constant_phase(2.2, 2.6, 3.0, 1.0, 0.5)

        def refuse(self, x1, x2):
            raise AssertionError("constant phase sampled a field")

        monkeypatch.setattr(fields_mod.ScalarField, "__call__", refuse)
        sp = SampledPhase(tf, square8.quadrature())
        assert sp.constant
        assert all(np.ndim(v) == 0 for v in (sp.p, sp.q, sp.r, sp.m1, sp.m2))
        assert (sp.p_minus, sp.r_plus) == (2.2, 3.0)
        SampledPhase(tf, [(0.2, 0.3), (0.5, 0.5)])

    @pytest.mark.parametrize("coeffs", [(2.0, 3.0, 3.0, 1.0, 0.0),
                                        (1.1, 2.7, 12.0, 1e3, 0.3),
                                        (2.2, 2.6, 3.0, 1.0, 1.0),
                                        (1.5, 1.5, 1.5, 0.0, 0.0)])
    def test_phi_equals_sampled_path(self, square8, coeffs):
        quad = square8.quadrature()
        const = SampledPhase(_constant_phase(*coeffs), quad)
        twin = SampledPhase(_sampled_twin(*coeffs), quad)
        assert const.constant and not twin.constant
        assert np.shape(twin.p) == quad.weights.shape
        t = 10.0 ** np.random.default_rng(0).uniform(-6, 2, len(quad.weights))
        t[::17] = 0.0
        a, b = const.phi(t), twin.phi(t)
        assert np.all(np.abs(a - b) <= np.spacing(np.maximum(a, b)))
        assert (const.p_minus, const.r_plus) == (twin.p_minus, twin.r_plus)

    def test_bare_points(self):
        coeffs = (2.0, 2.5, 4.0, 0.5, 2.0)
        xs = np.random.default_rng(1).uniform(0, 1, (40, 2))
        t = np.linspace(0, 3, 40)
        const = SampledPhase(_constant_phase(*coeffs), xs)
        twin = SampledPhase(_sampled_twin(*coeffs), xs)
        assert const.weights is None and twin.weights is None
        a, b = const.phi(t), twin.phi(t)
        assert np.all(np.abs(a - b) <= np.spacing(np.maximum(a, b)))


class TestClosedFormScaledModular:
    @settings(max_examples=80, deadline=None)
    @given(exps=st.lists(st.floats(1.1, 12.0), min_size=3, max_size=3),
           mu1=st.floats(0.0, 1e3), mu2=st.floats(0.0, 1e3),
           log_scale=st.floats(-4.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_point_modular(self, square8, exps, mu1, mu2,
                                      log_scale, seed):
        p, q, r = sorted(exps)
        tf = _constant_phase(p, q, r, mu1, mu2)
        sp = SampledPhase(tf, square8.quadrature())
        rng = np.random.default_rng(seed)
        u = FeFunction(square8, 10.0 ** log_scale
                       * rng.uniform(-1, 1, square8.n_vertices))
        vals = np.abs(u.at_quad(sp.quad))
        rho = sp.scaled_modular(vals)
        nrm = luxemburg_norm(tf, u, sp.quad, sampled=sp).luxemburg_norm
        for alpha in (1.0, nrm, *(nrm * 10.0 ** rng.uniform(-0.3, 0.3, 4))):
            ref = sp.modular(vals / alpha)
            assert abs(rho(alpha) - ref) <= 1e-12 * ref

    def test_non_finite_falls_back_to_the_per_point_error(self, square8):
        sp = SampledPhase(_constant_phase(2, 3, 4, 1, 1), square8.quadrature())
        vals = np.linspace(0, 1, len(sp.weights))
        rho = sp.scaled_modular(vals)
        with pytest.raises(ValueError, match="non-finite"), \
                np.errstate(over="ignore"):
            rho(1e-200)

    def test_variable_phase_is_per_point(self, square8, variable_phase):
        sp = SampledPhase(variable_phase, square8.quadrature())
        vals = np.linspace(0, 2, len(sp.weights))
        assert not sp.constant
        assert sp.scaled_modular(vals)(0.7) == sp.modular(vals / 0.7)


class TestZeroWeightTerm:
    """On a constant phase a term of weight 0 is not evaluated; every finite
    value keeps the bits of the three-term formula."""

    @settings(max_examples=100, deadline=None)
    @given(ts=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=40),
           exps=st.lists(st.floats(1.1, 12.0), min_size=3, max_size=3),
           weight=st.floats(0.0, 1e3), zero_mu1=st.booleans(),
           alphas=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=4))
    def test_equals_three_term_formula(self, square8, ts, exps, weight, zero_mu1,
                                       alphas):
        p, q, r = sorted(exps)
        mu1, mu2 = (0.0, weight) if zero_mu1 else (weight, 0.0)
        tf = _constant_phase(p, q, r, mu1, mu2)
        quad = square8.quadrature()
        sp = SampledPhase(tf, quad)
        assert len(sp.qr_terms) == (1 if weight else 0)
        t = np.resize(np.array(ts), quad.weights.shape)
        terms = ((1.0, p), (mu1, q), (mu2, r))
        ref = t ** p + mu1 * t ** q + mu2 * t ** r
        assert np.array_equal(sp.phi(t), ref)
        assert modular(tf, t, quad) == float(np.einsum("i,i->", quad.weights, ref))
        sums = np.array([c * np.einsum("i,i->", quad.weights, t ** x)
                         for c, x in terms])
        rho = sp.scaled_modular(t)
        for alpha in alphas:
            with np.errstate(over="ignore", invalid="ignore"):
                value = float(sums @ alpha ** -np.array([p, q, r]))
            if np.isfinite(value):
                assert rho(alpha) == value

    def test_absent_term_cannot_overflow(self):
        """|u| = 1e80 overflows t^4, the power of a term of weight 0: the
        modular is t^2 + t^3 = 1e240, not a non-finite integrand."""
        mesh = structured_mesh(UNIT_SQUARE, 2)
        u = FeFunction(mesh, np.full(mesh.n_vertices, 1e80))
        value = modular(_constant_phase(2, 3, 4, 1, 0), u, mesh.quadrature())
        assert value == pytest.approx(1e240, rel=1e-12)

    def test_variable_phase_keeps_every_term(self, square8):
        sp = SampledPhase(_sampled_twin(2, 3, 4, 1, 0), square8.quadrature())
        assert not sp.constant and len(sp.qr_terms) == 2
        with pytest.raises(ValueError, match="non-finite"), \
                np.errstate(over="ignore", invalid="ignore"):
            sp.modular(np.full(len(sp.weights), 1e80))


# -- recorded rule points -------------------------------------------------------

def _jittered(n, seed):
    mesh = structured_mesh(UNIT_SQUARE, n)
    rng = np.random.default_rng(seed)
    v = mesh.vertices.copy()
    free = ~mesh.boundary_flags
    v[free] += rng.uniform(-0.3, 0.3, (int(free.sum()), 2)) / n
    return TriMesh(v, mesh.triangles)


HEXAGON = Domain2D(tuple((np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3))
SQUARE_BALLS = [Ball((0.43, 0.57), 0.02), Ball((0.41, 0.52), 0.27),
                Ball((0.5, 0.3), 0.3), Ball((0.5, 0.5), 0.5)]
MESHES = {
    "square16": (lambda: structured_mesh(UNIT_SQUARE, 16), SQUARE_BALLS),
    "jittered12": (lambda: _jittered(12, 3), SQUARE_BALLS),
    "hexagon": (lambda: refine(structured_mesh(HEXAGON, 6)),
                [Ball((0.05, -0.02), 0.03), Ball((0.1, 0.2), 0.5),
                 Ball((0.0, 0.0), np.sqrt(3) / 2), Ball((0.4, 0.0), 0.4)]),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh_and_balls(request):
    build, balls = MESHES[request.param]
    return build(), balls


def _assert_record_matches_barycentric(mesh, quad):
    """The recorded rule point against the barycentric solve at the stored
    point: the two differ only by the rounding of the stored coordinates,
    which a P1 function turns into an error of its gradient times that."""
    assert quad.rule_index is not None
    bary = _barycentric(quad.points, mesh.vertices[mesh.triangles[quad.tri_index]])
    smooth = interpolate(lambda x, y: np.sin(x + 0.3) * np.cos(0.7 * y), mesh)
    rough = FeFunction(mesh, np.random.default_rng(4).uniform(-1, 1, mesh.n_vertices))
    for u in (smooth, rough):
        ref = u.at_quad(quad, bary)
        err = np.abs(u.at_quad(quad) - ref)
        slope = np.linalg.norm(u.gradients(), axis=1)[quad.tri_index]
        reach = np.max(np.abs(mesh.vertices))
        assert np.all(err <= 1e-14 * np.maximum(1.0, slope * reach / 10.0))
    assert np.max(np.abs(smooth.at_quad(quad) - smooth.at_quad(quad, bary))) <= 1e-14


class TestRecordedRulePoints:
    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_mesh_quadrature(self, mesh_and_balls, degree):
        mesh, _ = mesh_and_balls
        _assert_record_matches_barycentric(mesh, mesh.quadrature(degree))

    @pytest.mark.parametrize("depth, degree", [(3, 5), (1, 2), (0, 5)])
    def test_ball_quadratures(self, mesh_and_balls, depth, degree, monkeypatch):
        """(3, 5) is the kernel's own split depth and rule degree; the others
        check that nothing in it assumes them."""
        monkeypatch.setattr(mesh_mod, "_BALL_DEPTH", depth)
        monkeypatch.setattr(mesh_mod, "_BALL_DEGREE", degree)
        mesh, balls = mesh_and_balls
        K = len(quad_rule(degree)[1])
        plain = split = 0
        for ball in balls:
            q = ball_quadrature(mesh, ball)
            _assert_record_matches_barycentric(mesh, q)
            plain += np.count_nonzero(q.rule_index < K)
            split += np.count_nonzero(q.rule_index >= K)
        # points of triangles inside the ball and of triangles it crosses
        assert plain and split

    def test_points_are_the_recorded_rule_points(self, mesh_and_balls):
        """On the mesh quadrature, ball quadratures and ball cell measures,
        whose points are those of the mesh's degree-1 rule bit for bit."""
        mesh, balls = mesh_and_balls
        cells = [_BallCells(mesh, b).cell_measure() for b in balls]
        for q in cells:
            assert np.array_equal(q.points, mesh.quadrature(1).points[q.tri_index])
        quads = [mesh.quadrature(5)] + [ball_quadrature(mesh, b) for b in balls]
        for q in quads + cells:
            verts = mesh.tri_vertices[q.tri_index]
            pts = np.einsum("mj,mjd->md", q.rule[q.rule_index], verts)
            assert np.max(np.abs(pts - q.points)) <= 1e-15


class TestSharedMeshQuadrature:
    def test_built_once_per_degree(self):
        mesh = structured_mesh(UNIT_SQUARE, 4)
        assert mesh.quadrature(5) is mesh.quadrature(5)
        assert mesh.quadrature(2) is not mesh.quadrature(5)

    @pytest.mark.parametrize("name", ["points", "weights", "tri_index",
                                      "rule_index", "rule"])
    def test_arrays_are_read_only(self, name):
        """On the mesh's shared quadrature and on a ball's cell measure."""
        mesh = structured_mesh(UNIT_SQUARE, 4)
        for quad in (mesh.quadrature(5),
                     _BallCells(mesh, Ball((0.5, 0.5), 0.3)).cell_measure()):
            arr = getattr(quad, name)
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
            assert not arr.flags.writeable
