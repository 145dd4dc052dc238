"""Empirical probes for the interior regularity inequalities: Caccioppoli,
Sobolev-Poincare, Poincare on the zero-trace space, and reverse-Hoelder
higher integrability, all measured on computed minimizers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Ball, ball_quadrature
from .modular import SampledPhase, luxemburg_norm
from .solver import PhaseProblem, SourceTerm, solve_variational

INF_SENTINEL = float("inf")


@dataclass(frozen=True)
class BallFamily:
    balls: tuple
    pairing: tuple      # (inner_index, outer_index) pairs, concentric

    def __post_init__(self):
        for i, j in self.pairing:
            bi, bj = self.balls[i], self.balls[j]
            if bi.center != bj.center:
                raise ValueError("paired balls must be concentric")
            if not bi.radius < bj.radius:
                raise ValueError("pairing must order R1 < R2")

    @staticmethod
    def concentric_pairs(centers, radii_pairs):
        balls, pairing = [], []
        for c in centers:
            for r1, r2 in radii_pairs:
                balls.append(Ball(c, r1))
                balls.append(Ball(c, r2))
                pairing.append((len(balls) - 2, len(balls) - 1))
        return BallFamily(tuple(balls), tuple(pairing))


@dataclass
class ProbeReport:
    inequality_name: str
    per_ball: list
    empirical_constant: float
    parameters: dict = field(default_factory=dict)


def _grad_norm_at(u, quad):
    g = u.gradients()
    return np.linalg.norm(g, axis=1)[quad.tri_index]


def minimize_dirichlet(fp, mesh, boundary_data, tol=1e-10, **kwargs):
    """Global minimizer of the phase energy with the given Dirichlet trace."""
    if callable(boundary_data):
        vals = np.asarray(boundary_data(mesh.vertices[:, 0],
                                        mesh.vertices[:, 1]), dtype=float)
        vals = np.broadcast_to(vals, (mesh.n_vertices,)).copy()
    else:
        vals = np.asarray(boundary_data, dtype=float)
    prob = PhaseProblem(mesh, fp, SourceTerm.zero(), vals)
    rep = solve_variational(prob, tol=tol, **kwargs)
    if not rep.converged:
        raise RuntimeError("minimization did not converge")
    return rep.solution


def _ratio(lhs, rhs):
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else INF_SENTINEL
    return lhs / rhs


def _pair_quadratures(mesh, pair, depth, degree):
    """A concentric (inner, outer) ball pair and their quadratures."""
    inner, outer = pair
    if inner.center != outer.center or not inner.radius < outer.radius:
        raise ValueError("need concentric balls with R1 < R2")
    return (inner, outer, ball_quadrature(mesh, inner, depth=depth, degree=degree),
            ball_quadrature(mesh, outer, depth=depth, degree=degree))


def caccioppoli_ratio(fp, u, pair, depth=3, degree=5):
    """LHS/RHS of the Caccioppoli inequality on one concentric ball pair:
    gradient energy on the inner ball against the scaled oscillation
    energy on the outer ball."""
    inner, outer, qi, qo = _pair_quadratures(u.mesh, pair, depth, degree)
    tf = fp.tf
    lhs = float(qi.weights @ SampledPhase(tf, qi).phi(_grad_norm_at(u, qi)))
    # means and averages are normalized by the clipped quadrature mass so
    # constant fields are reproduced exactly despite the geometric clipping
    uo = u.at_quad(qo)
    mean = float(qo.weights @ uo) / qo.total_mass
    osc = np.abs(uo - mean) / (outer.radius - inner.radius)
    rhs = float(qo.weights @ SampledPhase(tf, qo).phi(osc))
    return _ratio(lhs, rhs)


def caccioppoli_truncation_ratio(fp, u, pair, l, sign, depth=3, degree=5):
    """Caccioppoli ratio for the one-sided truncation (u - l)_+- with the
    gradient restricted to where the truncation is active."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    inner, outer, qi, qo = _pair_quadratures(u.mesh, pair, depth, degree)
    tf = fp.tf
    active_i = sign * (u.at_quad(qi) - l) > 0
    gi = _grad_norm_at(u, qi) * active_i
    lhs = float(qi.weights @ SampledPhase(tf, qi).phi(gi))
    trunc_o = np.maximum(sign * (u.at_quad(qo) - l), 0.0)
    rhs = float(qo.weights @ SampledPhase(tf, qo).phi(
        trunc_o / (outer.radius - inner.radius)))
    return _ratio(lhs, rhs)


def sobolev_poincare_ratio(fp, u, ball, delta, depth=3, degree=5):
    """Empirical constant of the mean-value Sobolev-Poincare inequality
    with sub-unit gradient exponent delta."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    tf = fp.tf
    q = ball_quadrature(u.mesh, ball, depth=depth, degree=degree)
    area = q.total_mass
    uq = u.at_quad(q)
    mean = float(q.weights @ uq) / area
    osc = np.abs(uq - mean) / ball.radius
    sp = SampledPhase(tf, q)
    lhs = float(q.weights @ sp.phi(osc)) / area
    gmod = sp.phi(_grad_norm_at(u, q))
    avg_pow = float(q.weights @ gmod ** delta) / area
    denom = 1.0 + avg_pow ** (1.0 / delta)
    return lhs / denom


def sobolev_poincare_zero_set(fp, u, ball, E_indicator, delta, gamma,
                              depth=3, degree=5):
    """Zero-set Sobolev-Poincare constant: u must vanish on the subset E
    with |E| >= gamma |B|."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    tf = fp.tf
    q = ball_quadrature(u.mesh, ball, depth=depth, degree=degree)
    ind = np.asarray(E_indicator(q.points[:, 0], q.points[:, 1]), dtype=bool)
    measure = float(q.weights @ ind)
    if measure < gamma * q.total_mass:
        raise ValueError("zero-set measure below gamma")
    # nodal vanishing check on E
    nv = u.mesh.vertices
    node_in = np.asarray(E_indicator(nv[:, 0], nv[:, 1]), dtype=bool)
    inside = np.hypot(nv[:, 0] - ball.center[0],
                      nv[:, 1] - ball.center[1]) <= ball.radius
    if np.any(np.abs(u.nodal_values[node_in & inside]) > 1e-12):
        raise ValueError("u does not vanish on E")
    area = q.total_mass
    sp = SampledPhase(tf, q)
    lhs = float(q.weights @ sp.phi(np.abs(u.at_quad(q)) / ball.radius)) / area
    gmod = sp.phi(_grad_norm_at(u, q))
    rhs = (float(q.weights @ gmod ** delta) / area) ** (1.0 / delta)
    return _ratio(lhs, rhs)


def poincare_w0_ratio(fp, u, degree=5):
    """||u||_T / ||grad u||_T for a zero-trace P1 function."""
    if np.any(u.nodal_values[u.mesh.boundary_flags] != 0):
        raise ValueError("u must vanish on boundary nodes")
    if not np.any(u.nodal_values != 0):
        raise ValueError("u must be nonzero")
    quad = u.mesh.quadrature(degree)
    sp = SampledPhase(fp.tf, quad)
    num = luxemburg_norm(fp.tf, u, quad, sampled=sp).luxemburg_norm
    den = luxemburg_norm(fp.tf, _grad_norm_at(u, quad), quad,
                         sampled=sp).luxemburg_norm
    return num / den


def higher_integrability_probe(fp, u, family, m_grid, depth=3, degree=5,
                               stability_factor=10.0):
    """Reverse-Hoelder ratios of the gradient modular over half/full ball
    pairs, per integrability bump m."""
    tf = fp.tf
    for m in m_grid:
        if not 0 < m < 1:
            raise ValueError("m_grid entries must lie in (0, 1)")
    rows = []
    for i, j in family.pairing:
        _, _, qi, qo = _pair_quadratures(
            u.mesh, (family.balls[i], family.balls[j]), depth, degree)
        gi = SampledPhase(tf, qi).phi(_grad_norm_at(u, qi))
        go = SampledPhase(tf, qo).phi(_grad_norm_at(u, qo))
        avg_o = float(qo.weights @ go) / qo.total_mass
        for m in m_grid:
            avg_pow = float(qi.weights @ gi ** (1.0 + m)) / qi.total_mass
            lhs = avg_pow ** (1.0 / (1.0 + m))
            rows.append(((i, j), m, lhs / (1.0 + avg_o)))
    per_m = {m: max(r for _, mm, r in rows if mm == m) for m in m_grid}
    stable = [m for m in m_grid if per_m[m] < stability_factor]
    return ProbeReport("higher_integrability",
                       [(pair, m, r) for pair, m, r in rows],
                       max(per_m.values()),
                       parameters={"m_grid": list(m_grid),
                                   "per_m_max": per_m,
                                   "largest_stable_m": max(stable) if stable else None})


def boundary_higher_integrability_probe(fp, v, w, ball_pairs, m_grid=(0.05,),
                                        depth=3, degree=5):
    """Comparison-map reverse-Hoelder ratios: LHS on B_R against the
    unit-constant RHS built from v and the boundary datum w on B_2R."""
    tf = fp.tf
    rows = []
    for pair in ball_pairs:
        inner, outer, qi, qo = _pair_quadratures(v.mesh, pair, depth, degree)
        sp_o = SampledPhase(tf, qo)
        gv_i = SampledPhase(tf, qi).phi(_grad_norm_at(v, qi))
        gv_o = sp_o.phi(_grad_norm_at(v, qo))
        gw_o = sp_o.phi(_grad_norm_at(w, qo))
        for m in m_grid:
            lhs = float(qi.weights @ gv_i ** (1.0 + m)) / qi.total_mass
            term1 = (float(qo.weights @ gv_o) / qo.total_mass) ** (1.0 + m)
            term2 = float(qo.weights @ gw_o ** (1.0 + m)) / qo.total_mass
            rhs = term1 + term2 + 1.0
            rows.append(((inner.radius, outer.radius), m, _ratio(lhs, rhs)))
    const = max((r for _, _, r in rows), default=0.0)
    return ProbeReport("boundary_higher_integrability", rows, const,
                       parameters={"m_grid": list(m_grid)})
