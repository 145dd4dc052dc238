"""Empirical probes for the interior regularity inequalities: Caccioppoli,
Sobolev-Poincare, Poincare on the zero-trace space, and reverse-Hoelder
higher integrability, all measured on computed minimizers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mesh import Ball, _BallCells, _Centred, ball_quadrature, interpolate
from .modular import SampledPhase, grad_quadrature, luxemburg_norm
from .solver import PhaseProblem, SourceTerm, solve_variational


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


def minimize_dirichlet(fp, mesh, boundary_data):
    """Global minimizer of the phase energy with the given Dirichlet trace.

    The solve's discretization is not carried with it: no probe checks the
    minimizer's residual, so it is freed with the solve."""
    if callable(boundary_data):
        boundary_data = interpolate(boundary_data, mesh).nodal_values
    prob = PhaseProblem(mesh, fp, SourceTerm.zero(), boundary_data)
    rep = solve_variational(prob)
    if not rep.converged:
        raise RuntimeError("minimization did not converge")
    rep.solution.discretization = None
    return rep.solution


def _ratio(lhs, rhs):
    if rhs == 0.0:
        return 0.0 if lhs == 0.0 else np.inf
    return lhs / rhs


class _BallKernel:
    """One ball classified once (mesh._BallCells) and its two measures, each
    built on first use: `quad`, the ball's point quadrature, for integrands
    that vary within a triangle (u, its oscillation and truncations, and
    every integrand of a variable phase, whose exponents and weights vary
    within a triangle), and `grad_quad` for phi(|grad u|) and its powers: on
    a constant phase, where they are constant on each triangle as the P1
    gradient is, the ball's cell measure, which forms no sub-point and sums
    as the point quadrature does up to rounding.  mesh is a TriMesh, or the
    mesh._Centred view of one that a concentric pair shares.  A ball that
    holds no quadrature point is a ValueError."""

    def __init__(self, tf, mesh, ball):
        self.cells = _BallCells(mesh, ball)
        if len(self.cells.inside) == 0 and not self.cells.kept.any():
            raise ValueError(f"{ball} holds no quadrature point")
        # a constant phase is sampled at no point
        self.phase = SampledPhase(tf, None if tf.constant else self.quad)

    @cached_property
    def quad(self):
        return ball_quadrature(self.cells.mesh, self.cells)

    @cached_property
    def grad_quad(self):
        return self.cells.cell_measure() if self.phase.constant else self.quad

    def phi_grad(self, g):
        """phi(|grad u|) at the points of grad_quad, from g = u.grad_norms(),
        |grad u| on each mesh triangle."""
        return self.phase.phi(np.take(g, self.grad_quad.tri_index))


def _check_m_grid(m_grid):
    if len(m_grid) == 0:
        raise ValueError("m_grid is empty")
    if not all(0 < m < 1 for m in m_grid):
        raise ValueError("m_grid entries must lie in (0, 1)")


def _pair_kernels(tf, mesh, pair):
    """Kernels of an (inner, outer) ball pair, checked as a BallFamily
    checks its pairs, and R2 - R1.  The pair is concentric, so both balls
    are classified on one `_Centred` view of the mesh: the centroid
    distances are formed once, and only the outer ball is checked for
    escaping the mesh, which the inner one does only if the outer one does.
    The errors are those of each ball checked and classified in turn: when
    the outer ball escapes, the inner one's own error, if it has one, comes
    first."""
    inner, outer = BallFamily(tuple(pair), ((0, 1),)).balls
    site = _Centred(mesh, inner.center)
    try:
        site.check(outer)
    except ValueError:
        _BallKernel(tf, site, inner)
        raise
    return (_BallKernel(tf, site, inner), _BallKernel(tf, site, outer),
            outer.radius - inner.radius)


def caccioppoli_ratio(fp, u, pair):
    """LHS/RHS of the Caccioppoli inequality on one concentric ball pair:
    gradient energy on the inner ball against the scaled oscillation
    energy on the outer ball."""
    ki, ko, gap = _pair_kernels(fp.tf, u.mesh, pair)
    lhs = ki.grad_quad.integral(ki.phi_grad(u.grad_norms()))
    uo = u.at_quad(ko.quad)
    osc = np.abs(uo - ko.quad.mean(uo)) / gap
    return _ratio(lhs, ko.quad.integral(ko.phase.phi(osc)))


def caccioppoli_truncation_ratio(fp, u, pair, l, sign):
    """Caccioppoli ratio for the one-sided truncation (u - l)_+- with the
    gradient restricted to where the truncation is active."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    ki, ko, gap = _pair_kernels(fp.tf, u.mesh, pair)
    active_i = sign * (u.at_quad(ki.quad) - l) > 0
    gi = u.grad_norm_at(ki.quad) * active_i
    lhs = ki.quad.integral(ki.phase.phi(gi))
    trunc_o = np.maximum(sign * (u.at_quad(ko.quad) - l), 0.0)
    return _ratio(lhs, ko.quad.integral(ko.phase.phi(trunc_o / gap)))


def sobolev_poincare_ratio(fp, u, ball, delta):
    """Empirical constant of the mean-value Sobolev-Poincare inequality
    with sub-unit gradient exponent delta."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k = _BallKernel(fp.tf, u.mesh, ball)
    q = k.quad
    uq = u.at_quad(q)
    lhs = q.mean(k.phase.phi(np.abs(uq - q.mean(uq)) / ball.radius))
    avg_pow = k.grad_quad.mean(k.phi_grad(u.grad_norms()) ** delta)
    return lhs / (1.0 + avg_pow ** (1.0 / delta))


def sobolev_poincare_zero_set(fp, u, ball, E_indicator, delta, gamma):
    """Zero-set Sobolev-Poincare constant: u must vanish on the subset E
    with |E| >= gamma |B|."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k = _BallKernel(fp.tf, u.mesh, ball)
    q = k.quad
    ind = np.asarray(E_indicator(q.points[:, 0], q.points[:, 1]), dtype=bool)
    if q.integral(ind) < gamma * q.total_mass:
        raise ValueError("zero-set measure below gamma")
    # nodal vanishing check on E
    nv = u.mesh.vertices
    node_in = np.asarray(E_indicator(nv[:, 0], nv[:, 1]), dtype=bool)
    inside = np.hypot(nv[:, 0] - ball.center[0],
                      nv[:, 1] - ball.center[1]) <= ball.radius
    if np.any(np.abs(u.nodal_values[node_in & inside]) > 1e-12):
        raise ValueError("u does not vanish on E")
    lhs = q.mean(k.phase.phi(np.abs(u.at_quad(q)) / ball.radius))
    rhs = k.grad_quad.mean(k.phi_grad(u.grad_norms()) ** delta) ** (1.0 / delta)
    return _ratio(lhs, rhs)


def poincare_w0_ratio(fp, u):
    """||u||_T / ||grad u||_T for a zero-trace P1 function."""
    if np.any(u.nodal_values[u.mesh.boundary_flags] != 0):
        raise ValueError("u must vanish on boundary nodes")
    if not np.any(u.nodal_values != 0):
        raise ValueError("u must be nonzero")
    quad, gquad = u.mesh.quadrature(), grad_quadrature(fp.tf, u.mesh)
    sp = SampledPhase(fp.tf, quad)
    num = luxemburg_norm(fp.tf, u, quad, sampled=sp).luxemburg_norm
    gsp = sp if gquad is quad else SampledPhase(fp.tf, gquad)
    den = luxemburg_norm(fp.tf, u.grad_norm_at(gquad), gquad,
                         sampled=gsp).luxemburg_norm
    return num / den


def higher_integrability_probe(fp, u, family, m_grid, stability_factor=10.0):
    """Reverse-Hoelder ratios of the gradient modular over half/full ball
    pairs, per integrability bump m."""
    _check_m_grid(m_grid)
    if not family.pairing:
        raise ValueError("ball family has no pairs")
    rows, g = [], u.grad_norms()
    for i, j in family.pairing:
        ki, ko, _ = _pair_kernels(fp.tf, u.mesh,
                                  (family.balls[i], family.balls[j]))
        avg_o = ko.grad_quad.mean(ko.phi_grad(g))
        phi_i = ki.phi_grad(g)
        for m in m_grid:
            lhs = ki.grad_quad.mean(phi_i ** (1.0 + m)) ** (1.0 / (1.0 + m))
            rows.append(((i, j), m, lhs / (1.0 + avg_o)))
    per_m = {m: max(r for _, mm, r in rows if mm == m) for m in m_grid}
    stable = [m for m in m_grid if per_m[m] < stability_factor]
    return ProbeReport("higher_integrability", rows, max(per_m.values()),
                       parameters={"m_grid": list(m_grid),
                                   "per_m_max": per_m,
                                   "largest_stable_m": max(stable) if stable else None})


def boundary_higher_integrability_probe(fp, v, w, ball_pairs, m_grid=(0.05,)):
    """Comparison-map reverse-Hoelder ratios: LHS on B_R against the
    unit-constant RHS built from v and the boundary datum w on B_2R."""
    _check_m_grid(m_grid)
    if len(ball_pairs) == 0:
        raise ValueError("ball_pairs is empty")
    rows, gv, gw = [], v.grad_norms(), w.grad_norms()
    for inner, outer in ball_pairs:
        ki, ko, _ = _pair_kernels(fp.tf, v.mesh, (inner, outer))
        avg_v = ko.grad_quad.mean(ko.phi_grad(gv))
        phi_vi, phi_wo = ki.phi_grad(gv), ko.phi_grad(gw)
        for m in m_grid:
            lhs = ki.grad_quad.mean(phi_vi ** (1.0 + m))
            rhs = avg_v ** (1.0 + m) + ko.grad_quad.mean(phi_wo ** (1.0 + m)) + 1.0
            rows.append(((inner.radius, outer.radius), m, _ratio(lhs, rhs)))
    return ProbeReport("boundary_higher_integrability", rows,
                       max(r for _, _, r in rows),
                       parameters={"m_grid": list(m_grid)})
