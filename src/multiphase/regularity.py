"""Empirical probes for the interior regularity inequalities: Caccioppoli,
Sobolev-Poincare, Poincare on the zero-trace space, and reverse-Hoelder
higher integrability, all measured on computed minimizers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mesh import Ball, _BallCells, ball_quadrature, interpolate
from .modular import SampledPhase, grad_norm_samples, luxemburg_norm
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
    """One ball classified once (mesh._BallCells), with its two ways to
    integrate, each built on first use: the ball's point quadrature, for
    integrands that vary within a triangle (u, its oscillation and
    truncations, and every integrand of a variable phase, whose exponents
    and weights vary within a triangle), and its per-triangle weights W.

    On a constant phase phi(|grad u|) is constant on each triangle, as the
    P1 gradient is, so it and its powers are formed once per mesh triangle
    and summed against W: no point is formed for them, and the sums are
    those of the point quadrature up to rounding.  Sums are np.einsum
    contractions, independent of the BLAS thread count."""

    def __init__(self, tf, mesh, ball):
        self.mesh = mesh
        self.cells = _BallCells(mesh, ball)
        # a constant phase is sampled at no point
        self.phase = SampledPhase(tf, None if tf.constant else self.quad)

    @cached_property
    def quad(self):
        return ball_quadrature(self.mesh, self.cells)

    @cached_property
    def tri_weights(self):
        """(triangles, W): mesh._BallCells.weights."""
        return self.cells.weights()

    def integral(self, vals):
        """The integral of values at the ball's points."""
        return float(np.einsum("i,i->", self.quad.weights, vals))

    def mean(self, vals):
        # normalized by the clipped quadrature mass, not pi R^2, so constant
        # fields are reproduced exactly despite the geometric clipping
        return self.integral(vals) / self.quad.total_mass

    def phi_grad_integrals(self, u, exponents, per_tri):
        """The integrals over the ball of phi(|grad u|)^e for each e of
        exponents, e = 1 giving phi(|grad u|) itself.

        On a constant phase the per-triangle values are the same for every
        ball of the mesh: they are formed once per state and exponent and
        kept in `per_tri`, a dict the caller passes to all kernels for
        that state, and summed against W.  A variable phase forms them at
        the ball's points."""
        values = per_tri if self.phase.constant else {}
        if 1.0 not in values:
            values[1.0] = self.phase.phi(u.grad_norms() if self.phase.constant
                                         else u.grad_norm_at(self.quad))
        for e in exponents:
            if e not in values:
                values[e] = values[1.0] ** e
        if not self.phase.constant:
            return [self.integral(values[e]) for e in exponents]
        tris, w = self.tri_weights
        return [float(np.einsum("t,t->", w, np.take(values[e], tris)))
                for e in exponents]

    def phi_grad_means(self, u, exponents, per_tri):
        """phi_grad_integrals over the mass of the measure they sum over:
        the total of W on a constant phase, else the quadrature's."""
        mass = (float(np.einsum("t->", self.tri_weights[1])) if self.phase.constant
                else self.quad.total_mass)
        return [s / mass for s in self.phi_grad_integrals(u, exponents, per_tri)]


def _check_m_grid(m_grid):
    if len(m_grid) == 0:
        raise ValueError("m_grid is empty")
    if not all(0 < m < 1 for m in m_grid):
        raise ValueError("m_grid entries must lie in (0, 1)")


def _pair_kernels(tf, mesh, pair):
    """Kernels of a concentric (inner, outer) ball pair and R2 - R1."""
    inner, outer = pair
    if inner.center != outer.center or not inner.radius < outer.radius:
        raise ValueError("need concentric balls with R1 < R2")
    return (_BallKernel(tf, mesh, inner), _BallKernel(tf, mesh, outer),
            outer.radius - inner.radius)


def caccioppoli_ratio(fp, u, pair):
    """LHS/RHS of the Caccioppoli inequality on one concentric ball pair:
    gradient energy on the inner ball against the scaled oscillation
    energy on the outer ball."""
    ki, ko, gap = _pair_kernels(fp.tf, u.mesh, pair)
    lhs = ki.phi_grad_integrals(u, [1.0], {})[0]
    uo = u.at_quad(ko.quad)
    osc = np.abs(uo - ko.mean(uo)) / gap
    return _ratio(lhs, ko.integral(ko.phase.phi(osc)))


def caccioppoli_truncation_ratio(fp, u, pair, l, sign):
    """Caccioppoli ratio for the one-sided truncation (u - l)_+- with the
    gradient restricted to where the truncation is active."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    ki, ko, gap = _pair_kernels(fp.tf, u.mesh, pair)
    active_i = sign * (u.at_quad(ki.quad) - l) > 0
    gi = u.grad_norm_at(ki.quad) * active_i
    lhs = ki.integral(ki.phase.phi(gi))
    trunc_o = np.maximum(sign * (u.at_quad(ko.quad) - l), 0.0)
    return _ratio(lhs, ko.integral(ko.phase.phi(trunc_o / gap)))


def sobolev_poincare_ratio(fp, u, ball, delta):
    """Empirical constant of the mean-value Sobolev-Poincare inequality
    with sub-unit gradient exponent delta."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k = _BallKernel(fp.tf, u.mesh, ball)
    uq = u.at_quad(k.quad)
    osc = np.abs(uq - k.mean(uq)) / ball.radius
    lhs = k.mean(k.phase.phi(osc))
    avg_pow = k.phi_grad_means(u, [delta], {})[0]
    return lhs / (1.0 + avg_pow ** (1.0 / delta))


def sobolev_poincare_zero_set(fp, u, ball, E_indicator, delta, gamma):
    """Zero-set Sobolev-Poincare constant: u must vanish on the subset E
    with |E| >= gamma |B|."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    k = _BallKernel(fp.tf, u.mesh, ball)
    q = k.quad
    ind = np.asarray(E_indicator(q.points[:, 0], q.points[:, 1]), dtype=bool)
    if k.integral(ind) < gamma * q.total_mass:
        raise ValueError("zero-set measure below gamma")
    # nodal vanishing check on E
    nv = u.mesh.vertices
    node_in = np.asarray(E_indicator(nv[:, 0], nv[:, 1]), dtype=bool)
    inside = np.hypot(nv[:, 0] - ball.center[0],
                      nv[:, 1] - ball.center[1]) <= ball.radius
    if np.any(np.abs(u.nodal_values[node_in & inside]) > 1e-12):
        raise ValueError("u does not vanish on E")
    lhs = k.mean(k.phase.phi(np.abs(u.at_quad(q)) / ball.radius))
    rhs = k.phi_grad_means(u, [delta], {})[0] ** (1.0 / delta)
    return _ratio(lhs, rhs)


def poincare_w0_ratio(fp, u):
    """||u||_T / ||grad u||_T for a zero-trace P1 function."""
    if np.any(u.nodal_values[u.mesh.boundary_flags] != 0):
        raise ValueError("u must vanish on boundary nodes")
    if not np.any(u.nodal_values != 0):
        raise ValueError("u must be nonzero")
    quad = u.mesh.quadrature()
    sp = SampledPhase(fp.tf, quad)
    num = luxemburg_norm(fp.tf, u, quad, sampled=sp).luxemburg_norm
    grads, gsp = grad_norm_samples(fp.tf, u, sp)
    den = luxemburg_norm(fp.tf, grads, gsp.quad, sampled=gsp).luxemburg_norm
    return num / den


def higher_integrability_probe(fp, u, family, m_grid, stability_factor=10.0):
    """Reverse-Hoelder ratios of the gradient modular over half/full ball
    pairs, per integrability bump m."""
    _check_m_grid(m_grid)
    if not family.pairing:
        raise ValueError("ball family has no pairs")
    rows, per_tri = [], {}
    exponents = [1.0 + m for m in m_grid]
    for i, j in family.pairing:
        ki, ko, _ = _pair_kernels(fp.tf, u.mesh,
                                  (family.balls[i], family.balls[j]))
        avg_o = ko.phi_grad_means(u, [1.0], per_tri)[0]
        for m, gi in zip(m_grid, ki.phi_grad_means(u, exponents, per_tri)):
            lhs = gi ** (1.0 / (1.0 + m))
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
    rows, per_tri_v, per_tri_w = [], {}, {}
    exponents = [1.0 + m for m in m_grid]
    for inner, outer in ball_pairs:
        ki, ko, _ = _pair_kernels(fp.tf, v.mesh, (inner, outer))
        avg_v = ko.phi_grad_means(v, [1.0], per_tri_v)[0]
        for m, lhs, gw_o in zip(m_grid,
                                ki.phi_grad_means(v, exponents, per_tri_v),
                                ko.phi_grad_means(w, exponents, per_tri_w)):
            rhs = avg_v ** (1.0 + m) + gw_o + 1.0
            rows.append(((inner.radius, outer.radius), m, _ratio(lhs, rhs)))
    return ProbeReport("boundary_higher_integrability", rows,
                       max(r for _, _, r in rows),
                       parameters={"m_grid": list(m_grid)})
