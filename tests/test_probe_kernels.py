"""The probe kernels against the plain implementations they replaced:
ball quadrature by subdividing every crossing triangle, by forming every
subdivided point's weight before the cut and by fancy-index gathers, the
ball containment test by a box scan of every centroid, phi(|grad u|) for
every ball pair and, on a constant phase, at every point of the ball
quadrature instead of per triangle, P1 values by the same block products
formed from fancy-index gathers and, within the rounding of a three-term
dot, by gathering each point's rows, and the Luxemburg norm by bisection."""

import dataclasses
import functools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multiphase import (Ball, BallFamily, Domain2D, ExponentTriple, FeFunction,
                        FluxParams, TriMesh, UNIT_SQUARE, WeightPair,
                        ball_quadrature,
                        boundary_higher_integrability_probe,
                        caccioppoli_ratio, higher_integrability_probe,
                        interpolate, luxemburg_norm, poincare_w0_ratio, refine,
                        sobolev_poincare_ratio, sobolev_poincare_zero_set,
                        structured_mesh)
from multiphase import mesh as mesh_mod
from multiphase import regularity, solver
from multiphase.cli import _ball_family
from multiphase.mesh import (_BallCells, _ball_rule, _barycentric,
                             _check_in_mesh, _dist2, quad_rule)
from multiphase.modular import PhaseFunction, SampledPhase
from multiphase.operator import PhaseDiscretization, check_coercive
from multiphase.regularity import _BallKernel


# -- reference implementations ----------------------------------------------

def box_check_in_mesh(mesh, ball):
    """_check_in_mesh as it was: the triangles whose centroid lies within
    their radius of the centre in each coordinate, found by a scan of every
    centroid, get the barycentric test."""
    c = np.asarray(ball.center)
    a, d, length2 = mesh.boundary_segments
    t = np.clip(np.einsum("ij,ij->i", c - a, d) / length2, 0.0, 1.0)
    gap = np.hypot(*(a + t[:, None] * d - c).T)      # centre to edge
    (cx, cy), reach = mesh.centroids.T, (1.0 + 1e-9) * mesh.radii
    near = np.flatnonzero((np.abs(cx - c[0]) <= reach) & (np.abs(cy - c[1]) <= reach))
    lam = _barycentric(c[None], np.take(mesh.tri_vertices, near, axis=0))
    if (np.any(ball.radius - gap > 0.05 * np.sqrt(length2))
            or not np.any(np.all(lam >= -1e-12, axis=1))):
        raise ValueError("ball escapes the meshed domain")


def check_in_mesh(mesh, ball):
    """_check_in_mesh with the centroid distances it is given by _BallCells."""
    _check_in_mesh(mesh, ball, np.sqrt(_dist2(mesh.centroids, ball.center)))


def _split4_parents(tv, parents):
    m01 = 0.5 * (tv[:, 0] + tv[:, 1])
    m12 = 0.5 * (tv[:, 1] + tv[:, 2])
    m20 = 0.5 * (tv[:, 2] + tv[:, 0])
    out = np.concatenate([
        np.stack([tv[:, 0], m01, m20], axis=1),
        np.stack([m01, tv[:, 1], m12], axis=1),
        np.stack([m20, m12, tv[:, 2]], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])
    return out, np.concatenate([parents] * 4)


def split_ball_quadrature(mesh, ball, depth=3, degree=5):
    """All triangles classified, crossing ones split `depth` times."""
    box_check_in_mesh(mesh, ball)
    c = np.asarray(ball.center)
    R = ball.radius
    bary, w = quad_rule(degree)
    verts = mesh.vertices[mesh.triangles]
    all_in = np.all(np.sum((verts - c) ** 2, axis=2) <= R * R, axis=1)
    centroids = verts.mean(axis=1)
    circum = np.max(np.linalg.norm(verts - centroids[:, None, :], axis=2), axis=1)
    far = np.linalg.norm(centroids - c, axis=1) > R + circum
    crossing = ~all_in & ~far
    pts, wts, tris = [], [], []
    idx = np.flatnonzero(all_in)
    pts.append(np.einsum("kj,tjd->tkd", bary, verts[idx]).reshape(-1, 2))
    wts.append((mesh.areas[idx, None] * w[None, :]).ravel())
    tris.append(np.repeat(idx, len(w)))
    tv, parents = verts[crossing], np.flatnonzero(crossing)
    for _ in range(depth):
        tv, parents = _split4_parents(tv, parents)
    areas = 0.5 * np.abs(
        (tv[:, 1, 0] - tv[:, 0, 0]) * (tv[:, 2, 1] - tv[:, 0, 1])
        - (tv[:, 1, 1] - tv[:, 0, 1]) * (tv[:, 2, 0] - tv[:, 0, 0]))
    centers = np.einsum("kj,tjd->tkd", bary, tv)
    keep = (np.sum((centers - c) ** 2, axis=2) <= R * R).ravel()
    pts.append(centers.reshape(-1, 2)[keep])
    wts.append((areas[:, None] * w[None, :]).ravel()[keep])
    tris.append(np.repeat(parents, len(w))[keep])
    return np.concatenate(pts), np.concatenate(wts), np.concatenate(tris)


def dense_ball_quadrature(mesh, ball, depth=3, degree=5):
    """ball_quadrature as it was built before: the weight, triangle and
    rule index of every subdivided point of every crossing triangle, cut to
    the points in the ball afterwards."""
    box_check_in_mesh(mesh, ball)
    c = np.asarray(ball.center)
    R = ball.radius
    near = np.flatnonzero(np.linalg.norm(mesh.centroids - c, axis=1)
                          <= R + mesh.radii)
    verts = mesh.tri_vertices[near]
    all_in = np.all(np.sum((verts - c) ** 2, axis=2) <= R * R, axis=1)
    table, sub_w = _ball_rule(depth, degree)
    bary, w = quad_rule(degree)
    K = len(w)
    pts, wts, tris, rows = [], [], [], []
    if np.any(all_in):
        idx = near[all_in]
        pts.append((bary @ verts[all_in]).reshape(-1, 2))
        wts.append((mesh.areas[idx, None] * w).ravel())
        tris.append(np.repeat(idx, K))
        rows.append(np.tile(np.arange(K), len(idx)))
    if not np.all(all_in):
        idx = near[~all_in]
        centers = (table[K:] @ verts[~all_in]).reshape(-1, 2)
        keep = np.flatnonzero((centers[:, 0] - c[0]) ** 2
                              + (centers[:, 1] - c[1]) ** 2 <= R * R)
        pts.append(centers[keep])
        wts.append((mesh.areas[idx, None] * sub_w).ravel()[keep])
        tris.append(idx[keep // len(sub_w)])
        rows.append(K + keep % len(sub_w))
    return tuple(map(np.concatenate, (pts, wts, tris, rows)))


def fancy_ball_quadrature(mesh, ball, depth=3, degree=5):
    """ball_quadrature with fancy-index and boolean-mask gathers, the
    containment test forming each boundary edge per ball, and the arrays
    concatenated at the end.  Returns the points, weights, triangle and rule
    indices, and the inside triangles, the crossing ones and the kept
    entries of their sub-rule grid."""
    c = np.asarray(ball.center)
    R = ball.radius
    a, b = mesh.vertices[mesh._boundary_edges].transpose(1, 0, 2)
    d = b - a
    length2 = np.einsum("ij,ij->i", d, d)
    t = np.clip(np.einsum("ij,ij->i", c - a, d) / length2, 0.0, 1.0)
    gap = np.hypot(*(a + t[:, None] * d - c).T)
    (cx, cy), reach = mesh.centroids.T, (1.0 + 1e-9) * mesh.radii
    around = np.flatnonzero((np.abs(cx - c[0]) <= reach)
                            & (np.abs(cy - c[1]) <= reach))
    lam = _barycentric(c[None], mesh.tri_vertices[around])
    if (np.any(R - gap > 0.05 * np.sqrt(length2))
            or not np.any(np.all(lam >= -1e-12, axis=1))):
        raise ValueError("ball escapes the meshed domain")
    near = np.flatnonzero(np.linalg.norm(mesh.centroids - c, axis=1)
                          <= R + mesh.radii)
    verts = mesh.tri_vertices[near]
    all_in = np.all(np.sum((verts - c) ** 2, axis=2) <= R * R, axis=1)
    table, sub_w = _ball_rule(depth, degree)
    bary, w = quad_rule(degree)
    K = len(w)
    pts, wts, tris, rows = [], [], [], []
    keep = np.zeros(0, np.int64)
    if np.any(all_in):
        idx = near[all_in]
        pts.append((bary @ verts[all_in]).reshape(-1, 2))
        wts.append((mesh.areas[idx, None] * w).ravel())
        tris.append(np.repeat(idx, K))
        rows.append(np.tile(np.arange(K), len(idx)))
    if not np.all(all_in):
        idx = near[~all_in]
        centers = (table[K:] @ verts[~all_in]).reshape(-1, 2)
        keep = np.flatnonzero((centers[:, 0] - c[0]) ** 2
                              + (centers[:, 1] - c[1]) ** 2 <= R * R)
        parent, row = np.divmod(keep, len(sub_w))
        pts.append(centers[keep])
        tris.append(idx[parent])
        wts.append(mesh.areas[tris[-1]] * sub_w[row])
        rows.append(K + row)
    return (*map(np.concatenate, (pts, wts, tris, rows)),
            near[all_in], near[~all_in], keep)


def eager_ball_quadrature(mesh, ball):
    """ball_quadrature as it was before it formed its index arrays on
    demand: the keep test on the interleaved (C S, 2) sub-points of the
    crossing triangles, and the points, weights, triangle and rule indices
    all formed at once.  Returns the kept mask and those four arrays."""
    cells = _BallCells(mesh, ball)
    table, sub_w = _ball_rule(mesh_mod._BALL_DEPTH, mesh_mod._BALL_DEGREE)
    bary, w = quad_rule(mesh_mod._BALL_DEGREE)
    K, S = len(w), len(sub_w)
    sub_points = (table[K:] @ mesh.tri_vertices[cells.crossing]).reshape(-1, 2)
    kept = _dist2(sub_points, ball.center) <= ball.radius ** 2
    keep = np.flatnonzero(kept)
    inside, crossing = cells.inside, cells.crossing
    parent, row = keep // S, keep % S
    points = np.concatenate([(bary @ mesh.tri_vertices[inside]).reshape(-1, 2),
                             sub_points[keep]])
    tri_index = np.concatenate([np.repeat(inside, K), crossing[parent]])
    weights = np.concatenate([(mesh.areas[inside][:, None] * w).ravel(),
                              mesh.areas[crossing[parent]] * sub_w[row]])
    rule_index = np.concatenate([np.tile(np.arange(K), len(inside)), K + row])
    return kept, points, weights, tri_index, rule_index


def gathered_rows(u, quad, bary=None):
    """Each point's triangle's nodal values and its barycentric row, (M, 3)
    each, on every quadrature."""
    mesh = u.mesh
    if bary is None:
        bary = np.take(quad.rule, quad.rule_index, axis=0)
    return np.take(np.take(u.nodal_values, mesh.triangles), quad.tri_index, axis=0), bary


def gathered_at_quad(u, quad, bary=None):
    """FeFunction.at_quad with each point's barycentric row and its
    triangle's nodal values gathered as (M, 3) rows, on every quadrature."""
    return np.einsum("mj,mj->m", *gathered_rows(u, quad, bary))


# gamma_3 = 3 u / (1 - 3 u), u the unit roundoff: a three-term dot product
# is within gamma_3 sum_j |a_j b_j| of the exact one (Higham 2002, 3.1)
GAMMA3 = 1.5 * np.finfo(float).eps / (1.0 - 1.5 * np.finfo(float).eps)


def assert_near_gathered(got, u, quad):
    """got, P1 values from triangle block products, against the gathered
    rows' einsum: two roundings of the same three-term dots differ by at
    most 2 gamma_3 sum_j |u_j lambda_j| at each point."""
    vals, bary = gathered_rows(u, quad)
    bound = 2.0 * GAMMA3 * np.einsum("mj,mj->m", np.abs(vals), np.abs(bary))
    assert np.all(np.abs(got - np.einsum("mj,mj->m", vals, bary)) <= bound)


def block_at_quad(u, inside, crossing, keep):
    """P1 values on a ball quadrature's two blocks from fancy-index gathers:
    the inside and the crossing triangles' nodal values times the plain and
    the sub-rule rows transposed, the crossing product's kept entries
    taken."""
    table, K, _ = mesh_mod._ball_table()
    vals = u.nodal_values[u.mesh.triangles]
    return np.concatenate([(vals[inside] @ table[:K].T).ravel(),
                           (vals[crossing] @ table[K:].T).ravel()[keep]])


def phi_grad(k, u):
    """phi(|grad u|) on each mesh triangle on a constant phase, else at the
    ball's points."""
    if k.phase.constant:
        return k.phase.phi(u.grad_norms())
    return k.phase.phi(u.grad_norm_at(k.quad))


def grad_mean(k, vals):
    """The ball mean of phi_grad values or of a power of them: over the
    ball's cell measure, gathered from every mesh triangle, on a constant
    phase, else at its points."""
    if k.phase.constant:
        cells = k.cells.cell_measure()
        return (float(np.einsum("t,t->", cells.weights, np.take(vals, cells.tri_index)))
                / float(cells.weights.sum()))
    return float(np.einsum("i,i->", k.quad.weights, vals)) / k.quad.total_mass


def per_pair_higher_integrability(tf, u, family, m_grid):
    """higher_integrability_probe's rows with phi(|grad u|) and its powers
    formed again for every ball pair."""
    rows = []
    for i, j in family.pairing:
        ki = _BallKernel(tf, u.mesh, family.balls[i])
        ko = _BallKernel(tf, u.mesh, family.balls[j])
        gi = phi_grad(ki, u)
        avg_o = grad_mean(ko, phi_grad(ko, u))
        for m in m_grid:
            lhs = grad_mean(ki, gi ** (1.0 + m)) ** (1.0 / (1.0 + m))
            rows.append(((i, j), m, lhs / (1.0 + avg_o)))
    return rows


def per_pair_boundary_higher_integrability(tf, v, w, ball_pairs, m_grid):
    """boundary_higher_integrability_probe's rows, formed per ball pair."""
    rows = []
    for inner, outer in ball_pairs:
        ki, ko = _BallKernel(tf, v.mesh, inner), _BallKernel(tf, v.mesh, outer)
        gv_i, gv_o, gw_o = phi_grad(ki, v), phi_grad(ko, v), phi_grad(ko, w)
        for m in m_grid:
            lhs = grad_mean(ki, gv_i ** (1.0 + m))
            rhs = (grad_mean(ko, gv_o) ** (1.0 + m)
                   + grad_mean(ko, gw_o ** (1.0 + m)) + 1.0)
            rows.append(((inner.radius, outer.radius), m, lhs / rhs))
    return rows


class PointProbes:
    """The constant-phase probes as they were: every integrand, phi(|grad
    u|) included, summed at the points of the ball quadrature, and the
    gradient norms of the zero-trace Poincare ratio and the coercivity check
    at the points of the mesh's degree-5 quadrature."""

    def __init__(self, fp):
        self.fp = fp
        self.phase = SampledPhase(fp.tf, None)

    @staticmethod
    def integral(q, vals):
        return float(np.einsum("i,i->", q.weights, vals))

    def mean(self, q, vals):
        return self.integral(q, vals) / q.total_mass

    def phi_grad(self, u, q):
        return self.phase.phi(u.grad_norm_at(q))

    def caccioppoli(self, u, inner, outer):
        qi, qo = ball_quadrature(u.mesh, inner), ball_quadrature(u.mesh, outer)
        uo = u.at_quad(qo)
        osc = np.abs(uo - self.mean(qo, uo)) / (outer.radius - inner.radius)
        return (self.integral(qi, self.phi_grad(u, qi))
                / self.integral(qo, self.phase.phi(osc)))

    def higher(self, u, pairs, m_grid):
        rows = []
        for inner, outer in pairs:
            qi, qo = ball_quadrature(u.mesh, inner), ball_quadrature(u.mesh, outer)
            avg_o = self.mean(qo, self.phi_grad(u, qo))
            for m in m_grid:
                lhs = self.mean(qi, self.phi_grad(u, qi) ** (1 + m)) ** (1 / (1 + m))
                rows.append(lhs / (1.0 + avg_o))
        return rows

    def boundary(self, v, w, pairs, m_grid):
        rows = []
        for inner, outer in pairs:
            qi, qo = ball_quadrature(v.mesh, inner), ball_quadrature(v.mesh, outer)
            for m in m_grid:
                lhs = self.mean(qi, self.phi_grad(v, qi) ** (1 + m))
                rhs = (self.mean(qo, self.phi_grad(v, qo)) ** (1 + m)
                       + self.mean(qo, self.phi_grad(w, qo) ** (1 + m)) + 1.0)
                rows.append(lhs / rhs)
        return rows

    def sobolev_poincare(self, u, ball, delta):
        q = ball_quadrature(u.mesh, ball)
        uq = u.at_quad(q)
        lhs = self.mean(q, self.phase.phi(np.abs(uq - self.mean(q, uq)) / ball.radius))
        avg_pow = self.mean(q, self.phi_grad(u, q) ** delta)
        return lhs / (1.0 + avg_pow ** (1.0 / delta))

    def zero_set(self, u, ball, delta):
        q = ball_quadrature(u.mesh, ball)
        lhs = self.mean(q, self.phase.phi(np.abs(u.at_quad(q)) / ball.radius))
        return lhs / self.mean(q, self.phi_grad(u, q) ** delta) ** (1.0 / delta)

    def poincare_w0(self, u):
        quad = u.mesh.quadrature()
        sp = SampledPhase(self.fp.tf, quad)
        return (luxemburg_norm(self.fp.tf, u, quad, sampled=sp).luxemburg_norm
                / luxemburg_norm(self.fp.tf, u.grad_norm_at(quad), quad,
                                 sampled=sp).luxemburg_norm)

    def coercive_norms(self, u, scales):
        quad = u.mesh.quadrature()
        sp = SampledPhase(self.fp.tf, quad)
        return [luxemburg_norm(self.fp.tf, c * u.grad_norm_at(quad), quad,
                               sampled=sp).luxemburg_norm for c in scales]


def bisect_norm(rho_of_alpha, lo, hi, rel_tol):
    """Bisection on a bracket with rho(lo) >= 1 >= rho(hi)."""
    while True:
        alpha = 0.5 * (lo + hi)
        g = rho_of_alpha(alpha) - 1.0
        if abs(g) <= rel_tol or hi - lo <= 1e-16 * alpha:
            return alpha
        if g > 0:
            lo = alpha
        else:
            hi = alpha


# -- meshes and balls ----------------------------------------------------------

def _jittered(n, seed):
    """Criss-cross mesh with interior vertices moved by up to 0.3 h."""
    mesh = structured_mesh(UNIT_SQUARE, n)
    rng = np.random.default_rng(seed)
    v = mesh.vertices.copy()
    free = ~mesh.boundary_flags
    v[free] += rng.uniform(-0.3, 0.3, (int(free.sum()), 2)) / n
    return TriMesh(v, mesh.triangles)


MESHES = {
    "square16": lambda: structured_mesh(UNIT_SQUARE, 16),
    "jittered12": lambda: _jittered(12, 3),
    "hexagon": lambda: refine(structured_mesh(Domain2D(tuple(
        (np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3)), 6)),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def _random_balls(mesh, rng, count):
    """Off-centre interior balls, balls through a boundary vertex and balls
    centred near the boundary, which often escape."""
    g = mesh.vertices.mean(axis=0)
    size = float(np.max(np.linalg.norm(mesh.vertices - g, axis=1)))
    inner = mesh.vertices[~mesh.boundary_flags]
    outer = mesh.vertices[mesh.boundary_flags]
    balls = []
    for k in range(count):
        r = rng.uniform(0.05, 0.5) * size
        if k % 3 == 0:
            c = rng.choice(outer) + rng.uniform(-0.1, 0.1, 2) * size
        elif k % 3 == 1:
            v = rng.choice(outer)
            c = v + r * (g - v) / np.linalg.norm(g - v)
        else:
            c = rng.choice(inner) + rng.uniform(-0.05, 0.05, 2) * size
        balls.append(Ball(tuple(c), r))
    return balls


class TestBallQuadratureMatchesSplitting:
    def test_random_balls(self, mesh):
        rng = np.random.default_rng(11)
        accepted = rejected = 0
        for ball in _random_balls(mesh, rng, 45):
            try:
                ref = split_ball_quadrature(mesh, ball)
            except ValueError:
                with pytest.raises(ValueError, match="escapes"):
                    ball_quadrature(mesh, ball)
                rejected += 1
                continue
            q = ball_quadrature(mesh, ball)
            accepted += 1
            pts, wts, tris = ref
            assert len(q.weights) == len(wts)
            T = mesh.n_triangles
            np.testing.assert_array_equal(np.bincount(q.tri_index, minlength=T),
                                          np.bincount(tris, minlength=T))
            mass_ref = np.bincount(tris, wts, minlength=T)
            mass = np.bincount(q.tri_index, q.weights, minlength=T)
            assert np.all(np.abs(mass - mass_ref) <= 1e-13 * mass_ref)
            # the same points, parent by parent
            order_ref = np.lexsort((pts[:, 1].round(9), pts[:, 0].round(9), tris))
            order = np.lexsort((q.points[:, 1].round(9), q.points[:, 0].round(9),
                                q.tri_index))
            assert np.max(np.abs(q.points[order] - pts[order_ref])) <= 1e-14
        assert accepted >= 10 and rejected >= 5, (accepted, rejected)

    @pytest.mark.parametrize("depth, degree", [(0, 5), (1, 2), (2, 1)])
    def test_other_depths_and_degrees(self, depth, degree, monkeypatch):
        """Split depths and rule degrees other than the kernel's own (3, 5):
        nothing in the gathers assumes the size of the rule table."""
        monkeypatch.setattr(mesh_mod, "_BALL_DEPTH", depth)
        monkeypatch.setattr(mesh_mod, "_BALL_DEGREE", degree)
        mesh = _jittered(10, 5)
        ball = Ball((0.45, 0.55), 0.3)
        pts, wts, tris = split_ball_quadrature(mesh, ball, depth, degree)
        q = ball_quadrature(mesh, ball)
        assert len(q.weights) == len(wts)
        T = mesh.n_triangles
        mass_ref = np.bincount(tris, wts, minlength=T)
        mass = np.bincount(q.tri_index, q.weights, minlength=T)
        assert np.all(np.abs(mass - mass_ref) <= 1e-13 * mass_ref)


class TestBallQuadratureMatchesDense:
    """Weights and indices formed only at the kept points: every array
    bit-identical."""

    @staticmethod
    def assert_same(mesh, ball):
        try:
            ref = dense_ball_quadrature(mesh, ball)
        except ValueError:
            with pytest.raises(ValueError, match="escapes"):
                ball_quadrature(mesh, ball)
            return False
        q = ball_quadrature(mesh, ball)
        for got, want in zip((q.points, q.weights, q.tri_index, q.rule_index),
                             ref):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype
        return True

    def test_random_balls(self, mesh):
        balls = _random_balls(mesh, np.random.default_rng(11), 45)
        accepted = sum(self.assert_same(mesh, ball) for ball in balls)
        assert 10 <= accepted <= len(balls) - 5

    def test_probe_family(self):
        """The 40 balls of the probe commands' default family at n = 64."""
        mesh = structured_mesh(UNIT_SQUARE, 64)
        balls = _ball_family({}).balls
        assert len(balls) == 40
        assert all(self.assert_same(mesh, ball) for ball in balls)


L_SHAPE = Domain2D(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
HEXAGON = Domain2D(tuple((np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3))
# (domain, ball): centred, touching the boundary from inside, in both arms
# of an L-shape, off-centre in a hexagon, and too small to hold a point
FANCY_CASES = {
    "centred": (UNIT_SQUARE, Ball((0.5, 0.5), 0.3)),
    "touching": (UNIT_SQUARE, Ball((0.25, 0.6), 0.25)),
    "l_shape": (L_SHAPE, Ball((0.6, 0.6), 0.4)),
    "l_shape_arm": (L_SHAPE, Ball((1.55, 0.45), 0.45)),
    "hexagon": (HEXAGON, Ball((0.1, -0.15), 0.6)),
    # lies between the subdivided points of its triangle: no point at all
    "tiny": (UNIT_SQUARE, Ball((0.51, 0.52), 1e-6)),
}


class TestBallQuadratureMatchesFancy:
    """take/compress gathers and the cached boundary edges give the arrays
    of fancy indexing bit for bit."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("case", sorted(FANCY_CASES))
    def test_same_arrays(self, case, n):
        domain, ball = FANCY_CASES[case]
        mesh = structured_mesh(domain, n)
        q = ball_quadrature(mesh, ball)
        *arrays, inside, crossing, keep = fancy_ball_quadrature(mesh, ball)
        for got, want in zip((q.points, q.weights, q.tri_index, q.rule_index),
                             arrays, strict=True):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        u = FeFunction(mesh, np.sin(3 * mesh.vertices[:, 0]) * mesh.vertices[:, 1])
        got = u.at_quad(q)
        assert np.array_equal(got, block_at_quad(u, inside, crossing, keep))
        assert_near_gathered(got, u, q)
        assert np.array_equal(u.grad_norm_at(q),
                              np.linalg.norm(u.gradients(), axis=1)[q.tri_index])

    def test_rejects_as_before(self):
        mesh = structured_mesh(L_SHAPE, 16)
        for ball in (Ball((0.8, 0.8), 0.4), Ball((1.5, 1.5), 0.1)):
            with pytest.raises(ValueError, match="escapes"):
                fancy_ball_quadrature(mesh, ball)
            with pytest.raises(ValueError, match="escapes"):
                ball_quadrature(mesh, ball)


class TestPhiPerTriangle:
    @staticmethod
    def state(mesh):
        x, y = mesh.vertices.T
        return FeFunction(mesh, np.sin(np.pi * x) * y + 0.3 * x * x)

    @pytest.mark.parametrize("exps, mu", [((2, 3, 3), (1.0, 0.0)),
                                          ((1.5, 2.5, 3.7), (0.3, 2.0))])
    def test_constant_phase_per_triangle(self, exps, mu):
        """On a constant phase phi(|grad u|) and its powers are formed once
        per triangle and summed over the ball's cell measure: the kernel
        forms no sub-point for them, and its means are those of the points
        of the ball quadrature up to rounding."""
        tf = PhaseFunction(ExponentTriple.constants(*exps), WeightPair.constants(*mu))
        mesh = structured_mesh(UNIT_SQUARE, 32)
        u = self.state(mesh)
        exponents = [1.0, 1.05, 1.2]
        for ball in (Ball((0.5, 0.5), 0.2), Ball((0.3, 0.7), 0.05)):
            k = _BallKernel(tf, mesh, ball)
            assert k.phase.constant
            phi = k.phi_grad(u.grad_norms())
            got = [k.grad_quad.mean(phi ** e) for e in exponents]
            assert "quad" not in vars(k)
            # one point per triangle
            assert len(np.unique(k.grad_quad.tri_index)) == len(phi)
            q = ball_quadrature(mesh, ball)
            per_point = k.phase.phi(u.grad_norm_at(q))
            for e, mean in zip(exponents, got):
                want = np.einsum("i,i->", q.weights, per_point ** e) / q.total_mass
                assert mean == pytest.approx(want, rel=1e-12, abs=0)

    def test_variable_phase_per_point(self, variable_phase):
        """A variable phase samples phi at the ball's points and forms no
        cell measure."""
        mesh = structured_mesh(UNIT_SQUARE, 32)
        u = self.state(mesh)
        k = _BallKernel(variable_phase, mesh, Ball((0.5, 0.5), 0.2))
        assert not k.phase.constant
        assert k.grad_quad is k.quad
        g = k.phase.phi(u.grad_norm_at(k.quad))
        assert np.array_equal(k.phi_grad(u.grad_norms()), g)


class TestPhiGradOncePerCall:
    """The higher-integrability probes form |grad u| once per call and
    state on both phase kinds, not for every ball, with the rows of the
    per-pair evaluation to the last bit."""

    M_GRID = (0.02, 0.05, 0.1, 0.2, 0.4)

    @staticmethod
    def count_grad_norms(monkeypatch):
        calls = []
        original = FeFunction.grad_norms

        def counted(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(FeFunction, "grad_norms", counted)
        return calls

    @pytest.mark.parametrize("exps, mu", [((2, 3, 3), (1.0, 0.0)),
                                          ((1.5, 2.5, 3.7), (0.3, 2.0))])
    def test_constant_phase(self, square16, exps, mu, monkeypatch):
        tf = PhaseFunction(ExponentTriple.constants(*exps), WeightPair.constants(*mu))
        fam = _ball_family({})
        assert len(fam.pairing) == 20
        u = TestPhiPerTriangle.state(square16)
        ref = per_pair_higher_integrability(tf, u, fam, self.M_GRID)
        calls = self.count_grad_norms(monkeypatch)
        rep = higher_integrability_probe(FluxParams(tf, eps=1e-8), u, fam,
                                         list(self.M_GRID))
        assert len(calls) == 1
        assert rep.per_ball == ref

    def test_variable_phase(self, square16, variable_phase, monkeypatch):
        fam = _ball_family({})
        u = TestPhiPerTriangle.state(square16)
        ref = per_pair_higher_integrability(variable_phase, u, fam, self.M_GRID)
        calls = self.count_grad_norms(monkeypatch)
        rep = higher_integrability_probe(FluxParams(variable_phase, eps=1e-8), u,
                                         fam, list(self.M_GRID))
        assert len(calls) == 1
        assert rep.per_ball == ref

    @pytest.mark.parametrize("constant", [True, False])
    def test_boundary_probe(self, square16, variable_phase, constant, monkeypatch):
        tf = (PhaseFunction(ExponentTriple.constants(2, 3, 4), WeightPair.constants(1, 1))
              if constant else variable_phase)
        v = TestPhiPerTriangle.state(square16)
        w = interpolate(lambda x, y: x * x - y, square16)
        fam = _ball_family({})
        pairs = [(fam.balls[i], fam.balls[j]) for i, j in fam.pairing[:6]]
        ref = per_pair_boundary_higher_integrability(tf, v, w, pairs, self.M_GRID)
        calls = self.count_grad_norms(monkeypatch)
        rep = boundary_higher_integrability_probe(FluxParams(tf, eps=1e-8), v, w,
                                                  pairs, m_grid=self.M_GRID)
        assert len(calls) == 2
        assert rep.per_ball == ref


# -- P1 values on the mesh's own quadrature ------------------------------------

def _hexagon():
    return Domain2D(tuple((np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3))


AT_QUAD_MESHES = {
    **{f"square{n}": (lambda n=n: structured_mesh(UNIT_SQUARE, n))
       for n in (1, 3, 16, 64, 128)},
    "hexagon8": lambda: structured_mesh(_hexagon(), 8),
    "refined_hexagon4": lambda: refine(structured_mesh(_hexagon(), 4)),
}


@pytest.fixture(scope="module", params=sorted(AT_QUAD_MESHES))
def at_quad_mesh(request):
    return AT_QUAD_MESHES[request.param]()


@functools.lru_cache(maxsize=None)
def _unit_square(n):
    return structured_mesh(UNIT_SQUARE, n)


class _ContractionSpy:
    """Stands in for numpy in multiphase.mesh and records its contractions:
    an einsum by its subscripts, a matmul by its operands' shapes."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, *operands, **kwargs):
        self.calls.append(subscripts)
        return np.einsum(subscripts, *operands, **kwargs)

    def matmul(self, a, b, **kwargs):
        self.calls.append((a.shape, b.shape))
        return np.matmul(a, b, **kwargs)


class TestMeshQuadratureContraction:
    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_bit_identical_to_gathered_rows(self, at_quad_mesh, degree):
        """The (T, 3) rows of nodal values gathered by fancy indexing times
        the rule transposed, the product the solver once formed itself, bit
        for bit; and each point's gathered rows within a three-term dot's
        rounding."""
        quad = at_quad_mesh.quadrature(degree)
        rng = np.random.default_rng(degree)
        for scale in (1e-8, 1.0, 1e8):
            u = FeFunction(at_quad_mesh,
                           scale * rng.uniform(-1, 1, at_quad_mesh.n_vertices))
            got = u.at_quad(quad)
            assert got.shape == quad.weights.shape
            want = u.nodal_values[at_quad_mesh.triangles] @ quad.rule.T
            assert np.array_equal(got, want.ravel())
            assert_near_gathered(got, u, quad)

    def test_degree_one_is_the_cell_measure(self, at_quad_mesh):
        """The degree-1 rule is one point per triangle weighted by its area
        bit for bit: the cell measure that the zero-trace Poincare ratio and
        the coercivity check sum |grad u| over on a constant phase."""
        q = at_quad_mesh.quadrature(1)
        assert np.array_equal(q.weights, at_quad_mesh.areas)
        assert np.array_equal(q.tri_index, np.arange(at_quad_mesh.n_triangles))
        np.testing.assert_allclose(q.points, at_quad_mesh.centroids, rtol=0, atol=1e-15)

    def test_other_measures_gather_rows(self, square16, monkeypatch):
        """Explicit barycentric rows take the gathered path, one einsum; the
        mesh quadrature is one block product and a ball quadrature two, of
        its inside and its crossing triangles with their rule rows."""
        u = TestPhiPerTriangle.state(square16)
        own = square16.quadrature()
        ball = ball_quadrature(square16, Ball((0.4, 0.6), 0.23))
        bary = np.take(own.rule, own.rule_index, axis=0)
        K = len(own.rule)
        S = len(ball.rule) - K
        (inside, _, _), (crossing, _, _) = ball.blocks
        blocks = [((len(inside), 3), (3, K)), ((len(crossing), 3), (3, S))]
        spy = _ContractionSpy()
        monkeypatch.setattr(mesh_mod, "np", spy)
        for quad, kwargs, path in ((own, {"bary": bary}, ["mj,mj->m"]),
                                   (own, {}, [((square16.n_triangles, 3), (3, K))]),
                                   (ball, {}, blocks)):
            spy.calls.clear()
            got = u.at_quad(quad, **kwargs)
            assert spy.calls == path
            if path == ["mj,mj->m"]:
                assert np.array_equal(got, gathered_at_quad(u, quad, **kwargs))
            else:
                assert_near_gathered(got, u, quad)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 64), degree=st.sampled_from([1, 2, 5]),
           seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-8.0, 8.0),
           centre=st.tuples(st.floats(0.02, 0.98), st.floats(0.02, 0.98)),
           reach=st.floats(0.05, 1.0))
    def test_block_products_within_dot_bound(self, n, degree, seed, log_scale,
                                             centre, reach):
        """On the mesh quadrature of each degree and on a random ball's, the
        block products are within 2 gamma_3 sum_j |u_j lambda_j| of the
        gathered rows' einsum at every point, at scales from 1e-8 to 1e8."""
        mesh = _unit_square(n)
        rng = np.random.default_rng(seed)
        u = FeFunction(mesh, 10.0 ** log_scale
                       * rng.uniform(-1, 1, mesh.n_vertices))
        room = min(min(centre), 1.0 - max(centre))
        for quad in (mesh.quadrature(degree),
                     ball_quadrature(mesh, Ball(centre, reach * room))):
            assert_near_gathered(u.at_quad(quad), u, quad)

    @pytest.mark.parametrize("n", [8, 32])
    def test_solver_reads_the_same_values(self, n, monkeypatch):
        """The source load and the m-power quantities of the eigen path
        read FeFunction.at_quad on the mesh quadrature, bit for bit."""
        mesh = structured_mesh(UNIT_SQUARE, n)
        x, y = mesh.vertices.T
        u_vals = np.where(mesh.boundary_flags, 0.0, np.sin(np.pi * x) * y - 0.2)
        quad = mesh.quadrature()
        want = FeFunction(mesh, u_vals).at_quad(quad).reshape(-1, len(quad.rule))
        m = 3.0
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(m, m, m),
                                      WeightPair.constants(0, 0)), eps=1e-10)
        disc = PhaseDiscretization(fp, mesh)
        seen = []

        def source(x1, x2, t, z1, z2):
            seen.append(t)
            return t

        solver._source_load(disc, source, u_vals)
        assert np.array_equal(seen.pop(), want)
        monkeypatch.setattr(disc, "load_vector", lambda dens: seen.append(dens))
        _, D, _ = solver._m_power_quantities(disc, m, u_vals)
        assert D == float(np.sum(disc.qweights * np.abs(want) ** m))
        assert np.array_equal(seen.pop(), m * np.abs(want) ** (m - 2.0) * want)


class TestKeepTestByQuadraticForm:
    """The keep test's squared distances lam^T M lam against the coordinate
    test (x - c0)**2 + (y - c1)**2 <= R**2 on the sub-points' coordinates."""

    U = np.finfo(float).eps / 2      # the unit roundoff

    @classmethod
    def band(cls, cells, c, d2):
        """A bound on the distance between the two tests' squared distances
        of each sub-point p = sum_i lam_i v_i, (C, S) as d2, which is the
        coordinate test's.  The form's error is below 11 u A**2, A =
        sum_i lam_i |v_i - c|: the rounding of the v_i - c and of their
        dots, then of a six-term dot with coefficients lam_i lam_j >= 0.  The
        coordinates' is below 9 u d V + 6 u d**2, d = |p - c| and V =
        sum_i lam_i max(|v_i|): three-term dots, then the differences, the
        squares and their sum.  16 u (A**2 + 2 d (V + d)) covers both."""
        table, K, _ = mesh_mod._ball_table()
        lam, tv = table[K:], cells.mesh.tri_vertices[cells.crossing]
        A = np.linalg.norm(tv - np.asarray(c), axis=2) @ lam.T
        V = np.abs(tv).max(axis=2) @ lam.T
        d = np.sqrt(d2)
        return 16 * cls.U * (A * A + 2 * d * (V + d))

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(4, 64), log_scale=st.floats(-6.0, 6.0),
           depth=st.integers(0, 3), degree=st.sampled_from([1, 2, 5]),
           centre=st.tuples(st.floats(0.02, 0.98), st.floats(0.02, 0.98)),
           log_reach=st.floats(-3.0, 0.0))
    @example(n=4, log_scale=0.0, depth=0, degree=1,
             centre=(0.5, 0.3333333333333333), log_reach=0.0)
    def test_kept_as_the_coordinate_test(self, n, log_scale, depth, degree,
                                         centre, log_reach):
        """On meshes of n = 4 to 64 scaled by 1e-6 to 1e6, with every rule
        depth and degree, the quadratic form keeps the sub-points that the
        coordinate test keeps outside the rounding band around the circle.
        A sub-point in that band lies on the circle up to rounding: the
        exact squared distance of its coordinates is within twice the band
        of R**2.  The example has a crossing triangle's centroid (5/6, 1/3)
        on the circle, which both tests keep."""
        base, scale = _unit_square(n), 10.0 ** log_scale
        mesh = TriMesh(scale * base.vertices, base.triangles)
        room = min(min(centre), 1.0 - max(centre))
        ball = Ball(tuple(scale * np.asarray(centre)),
                    scale * room * 10.0 ** log_reach)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mesh_mod, "_BALL_DEPTH", depth)
            mp.setattr(mesh_mod, "_BALL_DEGREE", degree)
            cells = _BallCells(mesh, ball)
            # the sub-points' coordinates, (C, S) each
            table, K, _ = mesh_mod._ball_table()
            x, y = (mesh.tri_vertices[cells.crossing][:, :, d] @ table[K:].T
                    for d in (0, 1))
            (c0, c1), R = ball.center, ball.radius
            d2 = (x - c0) ** 2 + (y - c1) ** 2
            band = self.band(cells, ball.center, d2).ravel()
            far = np.abs(d2.ravel() - R * R) > band
        assert np.array_equal(cells.kept[far], (d2 <= R * R).ravel()[far])
        near = ~far
        for xi, yi, b in zip(x.ravel()[near], y.ravel()[near], band[near]):
            exact = ((Fraction(xi) - Fraction(c0)) ** 2
                     + (Fraction(yi) - Fraction(c1)) ** 2)
            assert abs(exact - Fraction(R) ** 2) <= 2 * Fraction(b)


class TestPairLocatedOnce:
    """A concentric pair is located once: its centroid distances are formed
    and its outer ball checked for escaping the mesh once, and the pair's
    kernels and errors are those of its balls classified one at a time."""

    @staticmethod
    def one_at_a_time(tf, mesh, inner, outer):
        """The pair's kernels as each ball builds its own, in turn."""
        return _BallKernel(tf, mesh, inner), _BallKernel(tf, mesh, outer)

    @staticmethod
    def outcome(build):
        """The kept flags of both kernels, or the error's type and text."""
        try:
            return [k.cells.kept for k in build()[:2]]
        except ValueError as exc:
            return type(exc), str(exc)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(4, 32), centre=st.tuples(st.floats(-0.2, 1.2),
                                                  st.floats(-0.2, 1.2)),
           log_r1=st.floats(-7.0, 0.0), log_grow=st.floats(1e-4, 7.0))
    @example(n=16, centre=(0.51, 0.52), log_r1=-7.0, log_grow=7.0)
    def test_as_one_at_a_time(self, triple_phase, n, centre, log_r1, log_grow):
        """Over centres in and around the square and radii from 1e-7, both
        balls inside, the outer or both escaping, or a ball holding no
        point: the same kept flags, or the same error.  The example is an
        inner ball holding no point in an outer one that escapes."""
        mesh = _unit_square(n)
        inner = Ball(centre, 10.0 ** log_r1)
        outer = Ball(centre, inner.radius * 10.0 ** log_grow)
        got = self.outcome(lambda: regularity._pair_kernels(triple_phase, mesh,
                                                            (inner, outer)))
        want = self.outcome(lambda: self.one_at_a_time(triple_phase, mesh,
                                                       inner, outer))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_one_check_and_one_distance_per_pair(self, triple_phase, monkeypatch):
        """On the probe commands' default family, each pair checks its outer
        ball and forms the centroid distances once."""
        mesh, fam = _unit_square(64), _ball_family({})
        checked, centred = [], []
        check, dist2 = mesh_mod._check_in_mesh, mesh_mod._dist2

        def counted_check(on, ball, dist=None):
            checked.append(ball)
            return check(on, ball, dist)

        def counted_dist2(pts, c):
            centred.append(pts is mesh.centroids)
            return dist2(pts, c)

        monkeypatch.setattr(mesh_mod, "_check_in_mesh", counted_check)
        monkeypatch.setattr(mesh_mod, "_dist2", counted_dist2)
        for i, j in fam.pairing:
            regularity._pair_kernels(triple_phase, mesh, (fam.balls[i], fam.balls[j]))
        assert checked == [fam.balls[j] for _, j in fam.pairing]
        assert centred.count(True) == len(fam.pairing)

    def test_centre_of_the_view(self, square16):
        """A ball classified on a view about another centre is an error."""
        site = mesh_mod._Centred(square16, (0.5, 0.5))
        with pytest.raises(ValueError, match="is not centred at"):
            _BallCells(site, Ball((0.5, 0.6), 0.1))


class TestBallContainment:
    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_same_verdict_on_every_mesh(self, n):
        """A ball crossing the boundary by 0.05 is rejected however fine the
        mesh, and an interior ball is accepted."""
        mesh = structured_mesh(UNIT_SQUARE, n)
        with pytest.raises(ValueError, match="escapes"):
            ball_quadrature(mesh, Ball((0.3, 0.5), 0.35))
        q = ball_quadrature(mesh, Ball((0.5, 0.5), 0.3))
        assert q.total_mass == pytest.approx(np.pi * 0.09, rel=1e-2)

    @pytest.mark.parametrize("n", [8, 32])
    def test_crossing_between_ring_points(self, n):
        """On a square of apothem cos(pi/4) rotated by 11.25 degrees, a
        centred ball of radius 0.72 crosses all four edges by 0.013, in
        between the points of a 16-point ring on its circle."""
        th = np.deg2rad(45 + 11.25) + np.arange(4) * np.pi / 2
        mesh = structured_mesh(Domain2D(tuple(zip(np.cos(th), np.sin(th)))), n)
        with pytest.raises(ValueError, match="escapes"):
            ball_quadrature(mesh, Ball((0.0, 0.0), 0.72))
        ball_quadrature(mesh, Ball((0.0, 0.0), 0.70))

    def test_slack_is_a_share_of_the_edge(self):
        """On the 4 x 4 square a boundary edge is 0.25 long: a ball may
        cross it by 0.05 * 0.25 = 0.0125."""
        mesh = structured_mesh(UNIT_SQUARE, 4)
        ball_quadrature(mesh, Ball((0.5, 0.5), 0.51))
        with pytest.raises(ValueError, match="escapes"):
            ball_quadrature(mesh, Ball((0.5, 0.5), 0.515))

    def test_centre_outside_rejected(self, square8):
        """A small ball beside the square crosses no edge; its centre
        rejects it."""
        with pytest.raises(ValueError, match="escapes"):
            ball_quadrature(square8, Ball((1.02, 0.5), 0.01))

    def test_reflex_corner(self):
        """A ball inside an L-shape that reaches around its reflex corner
        is rejected; one that stays clear of the corner is accepted."""
        mesh = structured_mesh(Domain2D(((0, 0), (2, 0), (2, 1), (1, 1),
                                         (1, 2), (0, 2))), 16)
        with pytest.raises(ValueError, match="escapes"):
            ball_quadrature(mesh, Ball((0.8, 0.8), 0.4))
        ball_quadrature(mesh, Ball((0.6, 0.6), 0.4))

    def test_centre_in_a_hole(self):
        """On the 8 x 8 square without the triangles whose centroid lies in
        (0.25, 0.75)^2, a ball inside the hole crosses no edge; its centre
        rejects it.  A ball in the frame is accepted."""
        square = structured_mesh(UNIT_SQUARE, 8)
        hole = np.all(np.abs(square.centroids - 0.5) < 0.25, axis=1)
        frame = TriMesh(square.vertices, square.triangles[~hole])
        with pytest.raises(ValueError, match="escapes"):
            check_in_mesh(frame, Ball((0.5, 0.5), 0.2))
        check_in_mesh(frame, Ball((0.125, 0.5), 0.1))

    @pytest.mark.parametrize("centre", [(0.0, 0.0), (0.5, 0.0)],
                             ids=["corner", "edge"])
    def test_centre_on_the_boundary(self, square8, centre):
        """A small ball centred on a boundary vertex is accepted: the centre
        lies on the triangles around it."""
        check_in_mesh(square8, Ball(centre, 0.005))


class TestCheckInMeshMatchesBox:
    """The containment test takes its centre candidates from the centroid
    distances of the classification, not from a second box scan of every
    centroid: it accepts and rejects the balls the box scan does."""

    @staticmethod
    def same_verdict(mesh, ball):
        try:
            box_check_in_mesh(mesh, ball)
        except ValueError:
            with pytest.raises(ValueError, match="escapes"):
                check_in_mesh(mesh, ball)
            return False
        check_in_mesh(mesh, ball)
        return True

    def test_fixed_balls(self, square8):
        """The balls the containment tests above accept and reject."""
        cases = [(structured_mesh(UNIT_SQUARE, n), b) for n in (4, 16, 64)
                 for b in (Ball((0.3, 0.5), 0.35), Ball((0.5, 0.5), 0.3))]
        cases += [(structured_mesh(UNIT_SQUARE, 4), Ball((0.5, 0.5), r))
                  for r in (0.51, 0.515)]
        th = np.deg2rad(45 + 11.25) + np.arange(4) * np.pi / 2
        for n in (8, 32):
            tilted = structured_mesh(Domain2D(tuple(zip(np.cos(th), np.sin(th)))), n)
            cases += [(tilted, Ball((0.0, 0.0), r)) for r in (0.72, 0.70)]
        l_shape = structured_mesh(L_SHAPE, 16)
        cases += [(l_shape, b) for b in (Ball((0.8, 0.8), 0.4), Ball((0.6, 0.6), 0.4),
                                         Ball((1.5, 1.5), 0.1))]
        square = structured_mesh(UNIT_SQUARE, 8)
        hole = np.all(np.abs(square.centroids - 0.5) < 0.25, axis=1)
        frame = TriMesh(square.vertices, square.triangles[~hole])
        cases += [(frame, Ball((0.5, 0.5), 0.2)), (frame, Ball((0.125, 0.5), 0.1))]
        cases += [(square8, b) for b in (Ball((1.02, 0.5), 0.01), Ball((0.0, 0.0), 0.005),
                                         Ball((0.5, 0.0), 0.005))]
        verdicts = [self.same_verdict(mesh, ball) for mesh, ball in cases]
        assert verdicts == [False, True] * 3 + [True, False] + [False, True] * 2 + [
            False, True, False, False, True, False, True, True]

    @pytest.mark.parametrize("name", ["square16", "square64", "hexagon8"])
    def test_random_balls(self, name):
        """Centres on vertices, on edges and near the boundary, with radii
        from below the mesh size to past the boundary."""
        mesh = WEIGHT_MESHES[name]()
        rng = np.random.default_rng(5)
        edges = mesh.triangles[:, :2]
        g = mesh.vertices.mean(axis=0)
        size = float(np.max(np.linalg.norm(mesh.vertices - g, axis=1)))
        verdicts = []
        for _ in range(60):
            a, b = mesh.vertices[edges[rng.integers(len(edges))]]
            edge_point = a + rng.uniform() * (b - a)
            boundary = mesh.vertices[rng.choice(np.flatnonzero(mesh.boundary_flags))]
            for c in (a, edge_point, boundary + rng.normal(0, 1e-3, 2) * size):
                r = size * 10.0 ** rng.uniform(-4, -0.3)
                verdicts.append(self.same_verdict(mesh, Ball(tuple(c), r)))
        assert 30 <= sum(verdicts) <= len(verdicts) - 30


WEIGHT_MESHES = {
    "square16": lambda: structured_mesh(UNIT_SQUARE, 16),
    "square64": lambda: structured_mesh(UNIT_SQUARE, 64),
    "hexagon8": lambda: structured_mesh(HEXAGON, 8),
    "refined_hexagon4": lambda: refine(structured_mesh(HEXAGON, 4)),
}


@pytest.fixture(scope="module", params=sorted(WEIGHT_MESHES))
def weight_mesh(request):
    return WEIGHT_MESHES[request.param]()


def _weight_balls(mesh, rng):
    """Random balls (off-centre, through a boundary vertex and centred near
    the boundary), balls tangent to a boundary edge at its midpoint, circles
    through mesh vertices around interior vertices, and balls centred on an
    interior vertex too small to hold any sub-point."""
    balls = _random_balls(mesh, rng, 60)
    a, d, length2 = mesh.boundary_segments
    g = mesh.vertices.mean(axis=0)
    tangent = []
    for k in rng.permutation(len(a)):
        mid = a[k] + 0.5 * d[k]
        normal = np.array([-d[k][1], d[k][0]]) / np.sqrt(length2[k])
        normal *= np.sign(normal @ (g - mid))
        r = rng.uniform(0.1, 0.3) * float(np.linalg.norm(g - mid))
        c = mid + r * normal
        t = np.clip(np.einsum("ij,ij->i", c - a, d) / length2, 0.0, 1.0)
        # no other boundary edge comes closer to the centre than r
        if np.all(np.hypot(*(a + t[:, None] * d - c).T) >= r * (1 - 1e-9)):
            tangent.append(Ball(tuple(c), r))
        if len(tangent) == 4:
            break
    assert len(tangent) == 4
    balls += tangent
    inner = mesh.vertices[~mesh.boundary_flags]
    for v in inner[rng.choice(len(inner), 4, replace=False)]:
        dist = np.sort(np.linalg.norm(mesh.vertices - v, axis=1))
        balls.append(Ball(tuple(v), float(dist[rng.integers(5, 40)])))
        balls.append(Ball(tuple(v), 1e-9 * mesh.h_max))
    return balls


class TestBallWeights:
    """The cell measure of a ball against the ball quadrature it stands in
    for, and the constant-phase probes that sum over it against the same
    probes summed at the quadrature's points."""

    def test_weights_are_the_quadrature_masses(self, weight_mesh):
        mesh = weight_mesh
        accepted = empty = 0
        balls = _weight_balls(mesh, np.random.default_rng(7))
        for k, ball in enumerate(balls):
            try:
                q = ball_quadrature(mesh, ball)
            except ValueError:
                with pytest.raises(ValueError, match="escapes"):
                    _BallCells(mesh, ball)
                # the balls tangent to the boundary stay inside it
                assert not 60 <= k < 64
                continue
            accepted += 1
            cells = _BallCells(mesh, ball).cell_measure()
            tris, w = cells.tri_index, cells.weights
            assert np.array_equal(cells.points, mesh.quadrature(1).points[tris])
            # the triangles with positive W carry the quadrature's points
            assert np.all(w > 0)
            assert np.array_equal(np.sort(tris), np.unique(q.tri_index))
            mass = np.bincount(q.tri_index, q.weights, minlength=mesh.n_triangles)
            np.testing.assert_allclose(w, mass[tris], rtol=1e-13, atol=0)
            empty += len(q.weights) == 0
        assert accepted >= 15 and empty >= 4, (accepted, empty)

    @pytest.mark.parametrize("exps, mu", [((2, 3, 3), (1.0, 0.0)),
                                          ((1.5, 2.5, 3.7), (0.3, 2.0))])
    def test_probes_match_the_points(self, weight_mesh, exps, mu):
        mesh = weight_mesh
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(*exps),
                                      WeightPair.constants(*mu)), eps=1e-8)
        ref = PointProbes(fp)
        x, y = mesh.vertices.T
        u = FeFunction(mesh, np.sin(np.pi * x) * y + 0.3 * x * x)
        w = FeFunction(mesh, x * x - y)
        pairs = []
        for ball in _weight_balls(mesh, np.random.default_rng(7)):
            if ball.radius < 1e-6 or len(pairs) == 5:
                continue
            try:
                ball_quadrature(mesh, ball)
            except ValueError:
                continue
            pairs.append((Ball(ball.center, 0.5 * ball.radius), ball))
        assert len(pairs) == 5

        def close(got, want):
            assert got == pytest.approx(want, rel=1e-12, abs=0)

        for inner, outer in pairs:
            close(caccioppoli_ratio(fp, u, (inner, outer)), ref.caccioppoli(u, inner, outer))
            close(sobolev_poincare_ratio(fp, u, outer, 0.75),
                  ref.sobolev_poincare(u, outer, 0.75))
            c0 = outer.center[0]
            z = FeFunction(mesh, np.maximum(x - c0, 0.0) * (1 + y * y))
            close(sobolev_poincare_zero_set(fp, z, outer, lambda x1, x2: x1 <= c0, 0.5, 0.3),
                  ref.zero_set(z, outer, 0.5))
        m_grid = (0.05, 0.2)
        fam = BallFamily(tuple(b for pair in pairs for b in pair),
                         tuple((2 * k, 2 * k + 1) for k in range(len(pairs))))
        close([r for _, _, r in higher_integrability_probe(fp, u, fam, list(m_grid)).per_ball],
              ref.higher(u, pairs, m_grid))
        close([r for _, _, r in boundary_higher_integrability_probe(
                  fp, u, w, pairs, m_grid=m_grid).per_ball],
              ref.boundary(u, w, pairs, m_grid))
        zero_trace = FeFunction(mesh, np.where(mesh.boundary_flags, 0.0, u.nodal_values))
        close(poincare_w0_ratio(fp, zero_trace), ref.poincare_w0(zero_trace))
        scales = (0.5, 1.0, 2.0)
        rows = check_coercive(fp, zero_trace, scales)
        norms = ref.coercive_norms(zero_trace, scales)
        disc = PhaseDiscretization(fp, mesh)
        for (c, ratio, bound), nrm in zip(rows, norms):
            cv = c * zero_trace.nodal_values
            pairing = float(disc.residual(cv, eps=fp.check_eps) @ cv[disc.free])
            close(ratio, pairing / nrm)
            close(bound, min(nrm ** (exps[0] - 1.0), nrm ** (exps[2] - 1.0)))


class TestPointQuadraturesOnlyWhereNeeded:
    """A kernel classifies its ball once and builds the point quadrature
    only for integrands that vary within a triangle."""

    @staticmethod
    def count(monkeypatch):
        cells, quads = [], []

        class Counted(_BallCells):
            def __init__(self, mesh, ball):
                cells.append(ball)
                super().__init__(mesh, ball)

        def counted_quadrature(mesh, ball):
            quads.append(ball)
            return ball_quadrature(mesh, ball)

        monkeypatch.setattr(regularity, "_BallCells", Counted)
        monkeypatch.setattr(regularity, "ball_quadrature", counted_quadrature)
        return cells, quads

    def test_constant_phase(self, square16, triple_phase, monkeypatch):
        fp = FluxParams(triple_phase, eps=0.0)
        u = TestPhiPerTriangle.state(square16)
        inner, outer = Ball((0.5, 0.5), 0.1), Ball((0.5, 0.5), 0.2)
        cells, quads = self.count(monkeypatch)
        caccioppoli_ratio(fp, u, (inner, outer))
        # only the outer ball's oscillation needs points
        assert cells == [inner, outer] and len(quads) == 1
        assert isinstance(quads[0], _BallCells)
        cells.clear(), quads.clear()
        sobolev_poincare_ratio(fp, u, outer, 0.5)
        # the points of u - its mean and the weights of phi(|grad u|)^delta
        # from one classification
        assert cells == [outer] and len(quads) == 1
        assert isinstance(quads[0], _BallCells)
        cells.clear(), quads.clear()
        fam = _ball_family({})
        higher_integrability_probe(fp, u, fam, [0.05, 0.2])
        assert len(cells) == 2 * len(fam.pairing) and quads == []

    def test_variable_phase(self, square16, variable_phase, monkeypatch):
        fp = FluxParams(variable_phase, eps=1e-8)
        u = TestPhiPerTriangle.state(square16)
        cells, quads = self.count(monkeypatch)
        fam = _ball_family({})
        higher_integrability_probe(fp, u, fam, [0.05, 0.2])
        assert len(cells) == len(quads) == 2 * len(fam.pairing)


class TestBallQuadratureOnDemand:
    """The keep test by one quadratic form, P1 values per triangle block
    and index arrays formed on first read give the eager construction bit
    for bit (the values as the block products of its kept flags), and a
    constant-phase Caccioppoli pair forms neither the sub-points nor the
    index arrays."""

    @staticmethod
    def balls():
        """The probe commands' default family and 200 seeded random balls in
        the unit square, with radii from 1e-3 of the room to the boundary
        up to all of it."""
        rng = np.random.default_rng(26)
        balls = list(_ball_family({}).balls)
        for c in rng.uniform(0.02, 0.98, (200, 2)):
            room = min(c.min(), 1.0 - c.max())
            balls.append(Ball(tuple(c), room * 10.0 ** rng.uniform(-3, 0)))
        return balls

    @pytest.mark.parametrize("n", [16, 64])
    def test_bit_identical_to_eager(self, n):
        mesh = structured_mesh(UNIT_SQUARE, n)
        x, y = mesh.vertices.T
        u = FeFunction(mesh, np.sin(np.pi * x) * y + 0.3 * x * x)
        balls = self.balls()
        split = 0
        for ball in balls:
            kept, *arrays = eager_ball_quadrature(mesh, ball)
            q = ball_quadrature(mesh, ball)
            (inside, _, _), (crossing, _, keep) = q.blocks
            assert np.array_equal(keep, np.flatnonzero(kept))
            # the values first, from the blocks alone
            got = u.at_quad(q)
            assert not {"points", "tri_index", "rule_index"} & set(vars(q))
            assert np.array_equal(got, block_at_quad(u, inside, crossing, keep))
            assert_near_gathered(got, u, q)
            for have, want in zip((q.points, q.weights, q.tri_index, q.rule_index),
                                  arrays):
                assert have.dtype == want.dtype
                assert np.array_equal(have, want)
            split += np.count_nonzero(kept)
        assert split > 0

    def test_frozen_and_checked(self, square16):
        """The mesh's shared quadrature and a ball quadrature, its on-demand
        arrays formed or not, are read-only, and a ball quadrature checks
        its weights as every other measure does."""
        ball = Ball((0.5, 0.5), 0.3)
        read = ball_quadrature(square16, ball)
        read.points, read.tri_index, read.rule_index
        for quad in (square16.quadrature(), ball_quadrature(square16, ball), read):
            for name in ("points", "weights", "tri_index", "rule_index", "rule",
                         "blocks"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(quad, name, None)
        cells = _BallCells(square16, ball)
        cells.mesh = SimpleNamespace(areas=np.zeros(square16.n_triangles),
                                     vertices=square16.vertices,
                                     triangles=square16.triangles)
        with pytest.raises(ValueError, match="weights must be positive"):
            ball_quadrature(square16, cells)

    @staticmethod
    def bench_inputs():
        """The benchmark's probe inputs without its minimiser: the n = 64
        square, the constant (2, 3, 3) phase and the 20-pair family."""
        mesh = structured_mesh(UNIT_SQUARE, 64)
        fp = FluxParams(PhaseFunction(ExponentTriple.constants(2, 3, 3),
                                      WeightPair.constants(1.0, 0.0)), eps=0.0)
        x, y = mesh.vertices.T
        u = FeFunction(mesh, np.sin(np.pi * x) * y)
        fam = _ball_family({})
        assert len(fam.pairing) == 20
        return fp, u, [(fam.balls[i], fam.balls[j]) for i, j in fam.pairing]

    def test_caccioppoli_peak_memory(self):
        """The tracemalloc peak of each Caccioppoli pair stays at most 4.5 MB
        (6.7 MB when the keep test formed the (C S, 2) sub-points and the
        values were gathered as (M, 3) rows)."""
        import tracemalloc

        fp, u, pairs = self.bench_inputs()
        for pair in pairs:           # the mesh's cached geometry, once
            caccioppoli_ratio(fp, u, pair)
        peaks = []
        for pair in pairs:
            tracemalloc.start()
            try:
                caccioppoli_ratio(fp, u, pair)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 4.5e6, max(peaks)

    @staticmethod
    def spy(monkeypatch):
        """The ball quadratures the probes build."""
        quads = []

        def counted_quadrature(mesh, ball):
            quads.append(ball_quadrature(mesh, ball))
            return quads[-1]

        monkeypatch.setattr(regularity, "ball_quadrature", counted_quadrature)
        return quads

    def test_constant_phase_forms_no_index_arrays(self, monkeypatch):
        fp, u, pairs = self.bench_inputs()
        quads = self.spy(monkeypatch)
        for pair in pairs:
            caccioppoli_ratio(fp, u, pair)
        # one outer quadrature per pair, which only sums values and weights:
        # none forms its sub-point coordinates, as its points, or its
        # index arrays
        assert len(quads) == len(pairs)
        for q in quads:
            assert not {"points", "tri_index", "rule_index"} & set(vars(q))

    def test_variable_phase_forms_them(self, variable_phase, monkeypatch):
        _, u, pairs = self.bench_inputs()
        fp = FluxParams(variable_phase, eps=1e-8)
        quads = self.spy(monkeypatch)
        for inner, outer in pairs[:4]:
            caccioppoli_ratio(fp, u, (inner, outer))
            qi, qo = quads[-2:]
            # the phase is sampled at both balls' points; phi(|grad u|) is
            # gathered by the inner ball's triangle indices
            assert {"points", "tri_index"} <= set(vars(qi))
            assert "points" in vars(qo)
            for q, ball in ((qi, inner), (qo, outer)):
                _, *arrays = eager_ball_quadrature(u.mesh, ball)
                for have, want in zip((q.points, q.weights, q.tri_index,
                                       q.rule_index), arrays):
                    assert np.array_equal(have, want)
        # one quadrature per ball; its points were formed on first read
        assert len(quads) == 8


class TestLuxemburgRegulaFalsi:
    @settings(max_examples=60, deadline=None)
    @given(exps=st.lists(st.floats(1.1, 12.0), min_size=3, max_size=3),
           mu1=st.floats(0.0, 1e3), mu2=st.floats(0.0, 1e3),
           log_scale=st.floats(-4.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_unit_sphere_bracket_and_bisection(self, square8, exps, mu1, mu2,
                                               log_scale, seed):
        p, q, r = sorted(exps)
        tf = PhaseFunction(ExponentTriple.constants(p, q, r),
                           WeightPair.constants(mu1, mu2))
        rng = np.random.default_rng(seed)
        u = FeFunction(square8, 10.0 ** log_scale
                       * rng.uniform(-1, 1, square8.n_vertices))
        quad = square8.quadrature()
        rel_tol = 1e-10
        rep = luxemburg_norm(tf, u, quad)
        sp = SampledPhase(tf, quad)
        vals = np.abs(u.at_quad(quad))
        nrm = rep.luxemburg_norm
        assert abs(sp.modular(vals / nrm) - 1.0) <= rel_tol
        lo, hi = rep.bracket
        assert lo <= nrm <= hi
        assert rep.iterations <= 15
        ref = bisect_norm(lambda a: sp.modular(vals / a), lo, hi, rel_tol)
        assert abs(nrm - ref) <= 1e-9 * ref

    def test_single_power_in_one_step(self, square8):
        tf = PhaseFunction(ExponentTriple.constants(3, 3, 3),
                           WeightPair.constants(0, 0))
        u = FeFunction(square8, np.linspace(0, 2, square8.n_vertices))
        rep = luxemburg_norm(tf, u, square8.quadrature())
        # h(s) is linear in s = log alpha, so the secant through the bracket
        # ends lands on the root
        assert rep.iterations == 1
