"""Discrete triple-phase energy, residual, and Jacobian on P1 elements.

The flux is regularized through s = sqrt(|g|^2 + eps^2); reported energies
always use the unregularized integrand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .modular import SampledPhase, luxemburg_norm


@dataclass(frozen=True)
class FluxParams:
    tf: object                 # PhaseFunction
    eps: float = 1e-8

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.eps == 0 and self.tf.exp.p_minus < 2:
            raise ValueError("eps = 0 needs p_minus >= 2 "
                             "(flux derivative singular at zero gradient)")

    @property
    def check_eps(self):
        """The eps at which a solution is judged: 0 when p- >= 2, else eps."""
        return 0.0 if self.tf.exp.p_minus >= 2 else self.eps


@dataclass
class AssembledSystem:
    residual: np.ndarray       # over free nodes
    jacobian: sp.csr_matrix    # free x free
    energy: float


def flux(fp, x, g):
    """Pointwise flux (s^{p-2} + mu1 s^{q-2} + mu2 s^{r-2}) g."""
    g = np.asarray(g, dtype=float)
    s = np.sqrt(g @ g + fp.eps ** 2)
    if s == 0.0:
        return np.zeros(2)
    return np.asarray(SampledPhase(fp.tf, [x]).flux_coef(s)).item() * g


class PhaseDiscretization:
    """Field samples for repeated assembly through the mesh's quadrature, P1
    gradient operator G and free x free pattern, shared per mesh.

    Energy, residual and Jacobian of a state all come from one evaluation
    of the phase powers, reduced per triangle.  The reductions of the last
    state are kept, keyed by eps and by the state's values, so in a Newton
    step the accepted line-search trial's energy also serves the next
    residual and Jacobian.  Only one state is held.

    The fields p, q, r, mu1 and mu2 are sampled once, through SampledPhase,
    as (T, K) arrays.  When they are all constant fields no point is
    sampled and they are kept as (T, 1) columns: P1 gradients make s
    constant on a triangle, so each power is then taken once per triangle
    instead of once per quadrature point, and weighed by the triangle's
    weight total.
    """

    def __init__(self, fp, mesh, degree=5):
        self.fp = fp
        self.mesh = mesh
        self.degree = degree
        quad, T = mesh.quadrature(degree), mesh.n_triangles
        self.bary = quad.rule
        self.qpoints = quad.points.reshape(T, -1, 2)       # (T, K, 2)
        self.qweights = quad.weights.reshape(T, -1)        # (T, K)
        self._tri_weights = self.qweights.sum(axis=1)
        ph = SampledPhase(fp.tf, quad)
        self.p, self.q, self.r, self.m1, self.m2 = (
            np.full((T, 1), v) if ph.constant else v.reshape(self.qweights.shape)
            for v in (ph.p, ph.q, ph.r, ph.m1, ph.m2))
        self._e2 = (self.p - 2, self.q - 2, self.r - 2)
        self._energy_w = (1 / self.p, self.m1 / self.q, self.m2 / self.r)
        self.free = np.flatnonzero(~mesh.boundary_flags)
        self._memo = None        # (eps, private copy of u_vals, reductions)

    # -- low-level pieces ------------------------------------------------

    def _gradients(self, u_vals):
        return (self.mesh.grad_operator @ u_vals).reshape(-1, 2)

    def _quad_sums(self, x):
        """Per-triangle quadrature sums of x, given per point (T, K) or
        constant on each triangle (T, 1)."""
        if x.shape[1] == 1:
            return self._tri_weights * x[:, 0]
        return np.sum(self.qweights * x, axis=1)

    @staticmethod
    def _pow(s, e):
        """s**e, set at s = 0 to 1 where e = 0 and to 0 elsewhere: the limit
        of s**e for e >= 0, and for -1 < e < 0 the value that keeps the flux
        s**e g and the energy density s**(e + 2) continuous."""
        with np.errstate(divide="ignore", invalid="ignore"):
            v = s ** e
        zero = ~(s > 0)
        if zero.any():
            zero = np.broadcast_to(zero, v.shape)
            v[zero] = np.broadcast_to(e, v.shape)[zero] == 0
        return v

    def _reduced(self, u_vals, eps):
        """The energy of u_vals at eps, its gradients g and, per triangle,
        the quadrature sums a = sum w A and b = sum w B of the flux
        coefficient A = sum mu s^(e-2) and of B = sum mu (e-2) s^(e-4), the
        rank-one part of the flux derivative (e = p, q, r; mu = 1, mu1, mu2).

        Served from the memo when it holds the same values at the same eps:
        values, not array identity, are compared, because callers update
        states in place."""
        memo = self._memo
        if memo is not None and memo[0] == eps and np.array_equal(memo[1], u_vals):
            return memo[2]
        g = self._gradients(u_vals)
        s2 = np.sum(g * g, axis=1)[:, None] + eps ** 2   # (T, 1)
        s = np.sqrt(s2)
        pw = np.power if eps > 0.0 else self._pow
        ep, eq, er = self._e2
        cp, cq, cr = pw(s, ep), pw(s, eq), pw(s, er)
        wp, wq, wr = self._energy_w
        energy = float(np.sum(self._quad_sums(s2 * (wp * cp + wq * cq + wr * cr))))
        a_bar = self._quad_sums(cp + self.m1 * cq + self.m2 * cr)
        # B carries a g g^T factor that vanishes with s: its s = 0 limit is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            B = (ep * cp + self.m1 * eq * cq + self.m2 * er * cr) / s2
        if eps == 0.0:
            B = np.where(s2 > 0, B, 0.0)
        reduced = (energy, a_bar, self._quad_sums(B), g)
        self._memo = (eps, np.array(u_vals, dtype=float), reduced)
        return reduced

    def energy(self, u_vals, eps=0.0):
        """Energy integral of the P1 state; reported energies use eps = 0,
        the regularized variant only steers the solver's line search."""
        return self._reduced(u_vals, eps)[0]

    def residual(self, u_vals, load=None, eps=None):
        """Galerkin residual over free nodes: flux tested against basis
        gradients, G^T (a g), minus the load."""
        eps = self.fp.eps if eps is None else eps
        _, a_bar, _, g = self._reduced(u_vals, eps)
        res = (self.mesh.grad_operator.T @ (a_bar[:, None] * g).ravel())[self.free]
        if load is not None:
            res = res - load[self.free]
        return res

    def jacobian(self, u_vals, eps=None):
        """Exact derivative of the regularized residual, free nodes only."""
        eps = self.fp.eps if eps is None else eps
        pattern = self.mesh.free_pattern
        _, a_bar, b_bar, g = self._reduced(u_vals, eps)
        bg = self.mesh.basis_grads
        gdphi = bg[:, :, 0] * g[:, 0:1] + bg[:, :, 1] * g[:, 1:2]    # (T, 3)
        # the outer product is formed before it is scaled: exactly symmetric
        blocks = gdphi[:, :, None] * gdphi[:, None, :]
        blocks *= b_bar[:, None, None]
        blocks += a_bar[:, None, None] * pattern.dots
        return pattern.assemble(blocks)

    def load_vector(self, f_at_quad):
        """Nodal load from integrand values at quadrature points (T, K)."""
        contrib = (self.qweights * f_at_quad) @ self.bary
        return np.bincount(self.mesh.triangles.ravel(), weights=contrib.ravel(),
                           minlength=self.mesh.n_vertices)

    def assemble(self, u_vals, load=None, eps=None):
        return AssembledSystem(self.residual(u_vals, load, eps),
                               self.jacobian(u_vals, eps),
                               self.energy(u_vals))


def energy(fp, u, degree=5):
    return PhaseDiscretization(fp, u.mesh, degree).energy(u.nodal_values)


def assemble(fp, u, load=None, degree=5):
    return PhaseDiscretization(fp, u.mesh, degree).assemble(u.nodal_values, load)


def check_gateaux(fp, u, h, delta, degree=5):
    """Central-difference discrepancy between the energy derivative and the
    assembled residual, paired against the direction h."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    disc = PhaseDiscretization(fp, u.mesh, degree)
    hv = h.nodal_values
    if np.any(hv[u.mesh.boundary_flags] != 0):
        raise ValueError("direction must vanish on boundary nodes")
    e_plus = disc.energy(u.nodal_values + delta * hv)
    e_minus = disc.energy(u.nodal_values - delta * hv)
    res = disc.residual(u.nodal_values, eps=fp.check_eps)
    pairing = float(res @ hv[disc.free])
    return abs((e_plus - e_minus) / (2.0 * delta) - pairing)


def check_monotone(fp, u, v, degree=5):
    """<A(u) - A(v), u - v> over free nodes."""
    disc = PhaseDiscretization(fp, u.mesh, degree)
    bnd = u.mesh.boundary_flags
    if not np.allclose(u.nodal_values[bnd], v.nodal_values[bnd]):
        raise ValueError("u and v must share boundary values")
    du = (u.nodal_values - v.nodal_values)[disc.free]
    ru = disc.residual(u.nodal_values)
    rv = disc.residual(v.nodal_values)
    return float((ru - rv) @ du)


def check_coercive(fp, u, scales, degree=5):
    """Rayleigh-type coercivity ratios <A(cu), cu> / ||grad(cu)||_T along
    increasing scales, with the norm-power lower bound per scale."""
    disc = PhaseDiscretization(fp, u.mesh, degree)
    if np.any(u.nodal_values[u.mesh.boundary_flags] != 0):
        raise ValueError("u must vanish on the boundary")
    if not np.any(u.nodal_values != 0):
        raise ValueError("u must be nonzero")
    quad = u.mesh.quadrature(degree)
    gvals = np.linalg.norm(u.gradients(), axis=1)[quad.tri_index]
    sp_ = SampledPhase(fp.tf, quad)
    out = []
    for c in scales:
        cv = c * u.nodal_values
        res = disc.residual(cv, eps=fp.check_eps)
        pairing = float(res @ cv[disc.free])
        nrm = luxemburg_norm(fp.tf, c * gvals, quad, sampled=sp_).luxemburg_norm
        ratio = pairing / nrm
        bound = min(nrm ** (sp_.p_minus - 1.0), nrm ** (sp_.r_plus - 1.0))
        out.append((float(c), ratio, bound))
    return out
