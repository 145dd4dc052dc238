"""The P1 kernels against the per-call formulas they replaced: gradients by
einsum over each triangle's nodal values, and residuals, loads and Jacobians
scattered with np.add.at.  The mesh-level gradient operator and free x free
pattern are built once per mesh, shared and read-only."""

import numpy as np
import pytest

from multiphase import (Domain2D, ExponentTriple, FeFunction, FluxParams,
                        PhaseProblem, SourceTerm, TriMesh, UNIT_SQUARE,
                        WeightPair, first_eigenvalue, refine,
                        structured_mesh, weak_residual_sup)
from multiphase import solver
from multiphase.mesh import quad_rule
from multiphase.modular import PhaseFunction
from multiphase.operator import PhaseDiscretization


def _jittered(n, seed):
    mesh = structured_mesh(UNIT_SQUARE, n)
    rng = np.random.default_rng(seed)
    v = mesh.vertices.copy()
    free = ~mesh.boundary_flags
    v[free] += rng.uniform(-0.3, 0.3, (int(free.sum()), 2)) / n
    return TriMesh(v, mesh.triangles)


def _polygon(k):
    a = 2 * np.pi * np.arange(k) / k
    return Domain2D(tuple(zip(np.cos(a), np.sin(a))))


MESHES = {
    "square": lambda: structured_mesh(UNIT_SQUARE, 8),
    "jittered": lambda: _jittered(8, 4),
    "hexagon": lambda: refine(structured_mesh(_polygon(6), 4)),
    "disk": lambda: refine(structured_mesh(_polygon(16), 4)),
}


@pytest.fixture(params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def _constant_phase():
    return PhaseFunction(ExponentTriple.constants(2.2, 2.6, 3.0),
                         WeightPair.constants(1.0, 0.5))


@pytest.fixture(params=["constant", "variable"])
def fp(request, variable_phase):
    tf = _constant_phase() if request.param == "constant" else variable_phase
    return FluxParams(tf, eps=1e-8)


def _state(mesh, seed):
    return np.random.default_rng(seed).uniform(-1, 1, mesh.n_vertices)


def _rel_err(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


# -- the replaced formulas ----------------------------------------------------

def old_gradients(mesh, u):
    return np.einsum("tj,tjd->td", u[mesh.triangles], mesh.basis_grads)


def old_quadrature(mesh, degree=5):
    """Points (T, K, 2) and weights (T, K) of the rule on every triangle."""
    bary, w = quad_rule(degree)
    verts = mesh.vertices[mesh.triangles]
    return (np.einsum("kj,tjd->tkd", bary, verts),
            mesh.areas[:, None] * w[None, :])


def old_scatter(mesh, contrib):
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.triangles.ravel(), contrib.ravel())
    return out


def old_load_vector(mesh, f_at_quad, degree=5):
    bary, _ = quad_rule(degree)
    _, w = old_quadrature(mesh, degree)
    return old_scatter(mesh, np.einsum("tk,kj->tj", w * f_at_quad, bary))


def old_sums(fp, mesh, u, eps):
    """Per-triangle sums a = sum w A and b = sum w B of the flux coefficient
    and of the rank-one coefficient, with every field at every point."""
    qp, w = old_quadrature(mesh)
    tf = fp.tf
    x1, x2 = qp[..., 0], qp[..., 1]
    p, q, r = tf.exp.p(x1, x2), tf.exp.q(x1, x2), tf.exp.r(x1, x2)
    m1, m2 = tf.w.mu1(x1, x2), tf.w.mu2(x1, x2)
    g = old_gradients(mesh, u)
    s = np.sqrt(np.sum(g * g, axis=1) + eps ** 2)[:, None]
    A = s ** (p - 2) + m1 * s ** (q - 2) + m2 * s ** (r - 2)
    B = ((p - 2) * s ** (p - 4) + m1 * (q - 2) * s ** (q - 4)
         + m2 * (r - 2) * s ** (r - 4))
    return np.sum(w * A, axis=1), np.sum(w * B, axis=1), g


def old_residual(fp, mesh, u, load, eps):
    a, _, g = old_sums(fp, mesh, u, eps)
    gdphi = np.einsum("td,tjd->tj", g, mesh.basis_grads)
    free = ~mesh.boundary_flags
    return old_scatter(mesh, a[:, None] * gdphi)[free] - load[free]


def old_jacobian(fp, mesh, u, eps):
    a, b, g = old_sums(fp, mesh, u, eps)
    G = mesh.basis_grads
    gdphi = np.einsum("td,tjd->tj", g, G)
    local = (a[:, None, None] * np.einsum("tjd,tkd->tjk", G, G)
             + b[:, None, None] * np.einsum("tj,tk->tjk", gdphi, gdphi))
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    full = np.zeros((mesh.n_vertices, mesh.n_vertices))
    np.add.at(full, (rows, cols), local.ravel())
    free = np.flatnonzero(~mesh.boundary_flags)
    return full[np.ix_(free, free)]


# -- the kernels against them ---------------------------------------------------

class TestAgainstOldFormulas:
    def test_gradients(self, mesh, fp):
        u = _state(mesh, 1)
        ref = old_gradients(mesh, u)
        assert (mesh.grad_operator @ u).shape == (2 * mesh.n_triangles,)
        for got in (FeFunction(mesh, u).gradients(),
                    PhaseDiscretization(fp, mesh)._gradients(u)):
            assert got.shape == ref.shape
            assert _rel_err(got, ref) <= 1e-14

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_residual(self, mesh, fp, eps):
        u, load = _state(mesh, 2), _state(mesh, 3)
        got = PhaseDiscretization(fp, mesh).residual(u, load, eps=eps)
        assert _rel_err(got, old_residual(fp, mesh, u, load, eps)) <= 1e-13

    def test_load_vector(self, mesh, fp):
        disc = PhaseDiscretization(fp, mesh)
        f = np.random.default_rng(4).standard_normal(disc.qweights.shape)
        assert _rel_err(disc.load_vector(f), old_load_vector(mesh, f)) <= 1e-13

    def test_source_load(self, mesh, fp):
        """f(x, u, grad u) with u interpolated at the quadrature points."""
        src = SourceTerm(lambda x1, x2, t, z1, z2: x1 * x2 + t ** 3 + z1 - 2 * z2,
                         grad_dependent=True)
        u = _state(mesh, 5)
        bary, _ = quad_rule(5)
        qp, _ = old_quadrature(mesh)
        tvals = np.einsum("tj,kj->tk", u[mesh.triangles], bary)
        g = old_gradients(mesh, u)
        f = src(qp[..., 0], qp[..., 1], tvals, g[:, 0:1], g[:, 1:2])
        got = solver._source_load(PhaseDiscretization(fp, mesh), src, u)
        assert _rel_err(got, old_load_vector(mesh, f)) <= 1e-13

    @pytest.mark.parametrize("eps", [1e-8, 1e-3])
    def test_jacobian(self, mesh, fp, eps):
        u = _state(mesh, 6)
        J = PhaseDiscretization(fp, mesh).jacobian(u, eps=eps)
        assert J.has_canonical_format
        assert _rel_err(J.toarray(), old_jacobian(fp, mesh, u, eps)) <= 1e-13

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_jacobian_exactly_symmetric(self, mesh, fp, eps):
        J = PhaseDiscretization(fp, mesh).jacobian(_state(mesh, 7), eps=eps)
        dense = J.toarray()
        assert np.array_equal(dense, dense.T)

    @pytest.mark.parametrize("m", [1.5, 3.0])
    def test_m_power_quantities(self, mesh, m):
        fpm = FluxParams(PhaseFunction(ExponentTriple.constants(m, m, m),
                                       WeightPair.constants(0, 0)), eps=1e-10)
        disc = PhaseDiscretization(fpm, mesh)
        u = np.where(mesh.boundary_flags, 0.0, _state(mesh, 8))
        N, D, gD = solver._m_power_quantities(disc, m, u)
        bary, _ = quad_rule(5)
        _, w = old_quadrature(mesh)
        s = np.linalg.norm(old_gradients(mesh, u), axis=1)
        tvals = np.einsum("tj,kj->tk", u[mesh.triangles], bary)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = m * np.abs(tvals) ** (m - 2.0) * tvals
        dens = np.where(np.isfinite(dens), dens, 0.0)
        assert N == pytest.approx(float(np.sum(w * (s ** m)[:, None])), rel=1e-13)
        assert D == pytest.approx(float(np.sum(w * np.abs(tvals) ** m)), rel=1e-13)
        assert _rel_err(gD, old_load_vector(mesh, dens)) <= 1e-13


# -- one operator and one pattern per mesh --------------------------------------

def _count_builds(monkeypatch, name):
    prop = vars(TriMesh)[name]
    real, calls = prop.func, []

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(prop, "func", counting)
    return calls


class TestSharedPerMesh:
    def test_built_lazily_once(self, monkeypatch):
        g_builds = _count_builds(monkeypatch, "grad_operator")
        p_builds = _count_builds(monkeypatch, "free_pattern")
        mesh = structured_mesh(UNIT_SQUARE, 8)
        d1 = PhaseDiscretization(FluxParams(_constant_phase(), eps=1e-8), mesh)
        assert not g_builds and not p_builds     # nothing built in __init__
        u = _state(mesh, 9)
        d1.jacobian(u)
        G, pattern = mesh.grad_operator, mesh.free_pattern
        d2 = PhaseDiscretization(FluxParams(PhaseFunction(
            ExponentTriple.constants(2, 3, 4), WeightPair.constants(1, 1)),
            eps=0.0), mesh)
        d2.residual(u)
        d2.jacobian(u)
        prob = PhaseProblem(mesh, d2.fp, SourceTerm.of_x(lambda x, y: x * y),
                            np.zeros(mesh.n_vertices))
        weak_residual_sup(prob, FeFunction(mesh, u))
        first_eigenvalue(mesh, 2.0)
        assert len(g_builds) == 1 and len(p_builds) == 1
        assert mesh.grad_operator is G and mesh.free_pattern is pattern
        quad = mesh.quadrature(5)
        for disc in (d1, d2):
            assert np.shares_memory(disc.qweights, quad.weights)
            assert np.shares_memory(disc.qpoints, quad.points)

    def test_cached_arrays_read_only(self):
        mesh = structured_mesh(UNIT_SQUARE, 4)
        G, pattern = mesh.grad_operator, mesh.free_pattern
        disc = PhaseDiscretization(FluxParams(_constant_phase(), eps=1e-8), mesh)
        for a in (G.indices, G.indptr, pattern.indptr, pattern.indices,
                  pattern.slot):
            assert a.dtype == np.int32
        for a in (G.data, G.indices, G.indptr, pattern.indptr, pattern.indices,
                  pattern.slot, pattern.dots, mesh.basis_grads, disc.qweights,
                  disc.qpoints):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_jacobian_edits_stay_private(self):
        mesh = structured_mesh(UNIT_SQUARE, 4)
        disc = PhaseDiscretization(FluxParams(_constant_phase(), eps=1e-8), mesh)
        u = _state(mesh, 10)
        J = disc.jacobian(u)
        ref = J.toarray()
        J.data[:] = 0.0
        J.eliminate_zeros()
        assert np.array_equal(disc.jacobian(u).toarray(), ref)

    def test_gradient_operator_shape(self):
        mesh = refine(structured_mesh(_polygon(6), 2))
        G = mesh.grad_operator
        assert G.shape == (2 * mesh.n_triangles, mesh.n_vertices)
        assert G.nnz == 6 * mesh.n_triangles
        # an affine function has its exact gradient on every triangle
        u = 3.0 * mesh.vertices[:, 0] - 2.0 * mesh.vertices[:, 1] + 1.0
        assert np.allclose((G @ u).reshape(-1, 2), [3.0, -2.0], atol=1e-12)
