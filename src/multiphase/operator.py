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


def _column_sums(C, Y):
    """Per-column sums of C * Y for (n, T) C and Y of shape (n, 1) or (n, T)."""
    return Y[:, 0] @ C if Y.shape[1] == 1 else np.einsum("ij,ij->j", C, Y)


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

    The fields p, q, r, mu1 and mu2 are sampled once, through SampledPhase.
    The exponents are stacked as X, next to the quadrature weights times
    (1, mu1, mu2), Wa, and to 1 / X, so a state's three powers of s are one
    exp-log pass over X with the weights folded in, reduced by contractions.
    Their last axis runs over the triangles, along which s and every
    per-triangle result vary.  On a space-varying phase X, Wa and 1 / X are
    (3 K, T), p, q and r are (T, K) views of X, and mu1 and mu2 are (T, K)
    samples.  When all five fields are constant no point is sampled: P1
    gradients make s constant on a triangle, so X is the (3, 1) column of
    exponents, Wa the triangle weight totals times (1, mu1, mu2), (3, T),
    each power is taken once per triangle, and p, q, r, mu1 and mu2 are
    (T, 1) columns.
    """

    def __init__(self, fp, mesh, degree=5):
        self.fp = fp
        self.mesh = mesh
        self.degree = degree
        quad, T = mesh.quadrature(degree), mesh.n_triangles
        self.bary = quad.rule
        self.qpoints = quad.points.reshape(T, -1, 2)       # (T, K, 2)
        self.qweights = quad.weights.reshape(T, -1)        # (T, K)
        ph = SampledPhase(fp.tf, quad)
        if ph.constant:
            self.p, self.q, self.r, self.m1, self.m2 = (
                np.full((T, 1), v) for v in (ph.p, ph.q, ph.r, ph.m1, ph.m2))
            self._X = np.array([[ph.p], [ph.q], [ph.r]], dtype=float)
            tri_weights = self.qweights @ np.ones(self.qweights.shape[1])
            self._Wa = np.multiply.outer([1.0, ph.m1, ph.m2], tri_weights)
        else:
            shape = self.qweights.shape
            X = np.empty((3,) + shape[::-1])
            for x, v in zip(X, (ph.p, ph.q, ph.r)):
                x[...] = v.reshape(shape).T
            self.m1, self.m2 = ph.m1.reshape(shape), ph.m2.reshape(shape)
            del ph          # frees the samples of p, q and r, copied into X
            Wa = np.empty_like(X)
            Wa[0] = self.qweights.T
            np.multiply(Wa[0], self.m1.T, out=Wa[1])
            np.multiply(Wa[0], self.m2.T, out=Wa[2])
            self.p, self.q, self.r = X[0].T, X[1].T, X[2].T
            self._X, self._Wa = X.reshape(-1, T), Wa.reshape(-1, T)
        self._inv_X = np.reciprocal(self._X)
        self._ones = np.ones(len(self._X))
        self.free = np.flatnonzero(~mesh.boundary_flags)
        self._memo = None        # (eps, private copy of u_vals, reductions)

    # -- low-level pieces ------------------------------------------------

    def _gradients(self, u_vals):
        return (self.mesh.grad_operator @ u_vals).reshape(-1, 2)

    def at_quad(self, u_vals):
        """Values of the P1 state u_vals at the quadrature points, (T, K)."""
        return u_vals[self.mesh.triangles] @ self.bary.T

    @staticmethod
    def _pow(s, e, out=None):
        """s**e as exp(e log s), one pass over the broadcast of s and e, into
        out when given (out may be e).  At s = 0 it is 1 where e = 0 and 0
        elsewhere: the limit of s**e for e >= 0, and for -1 < e < 0 the value
        that keeps the flux s**e g and the energy density s**(e + 2)
        continuous."""
        zero = ~(np.asarray(s) > 0)
        at = None
        if zero.any():
            shape = np.broadcast_shapes(zero.shape, np.shape(e))
            zero = zero.reshape((1,) * (len(shape) - zero.ndim) + zero.shape)
            # index only the entries over a zero of s, broadcast along the
            # axes where s has length 1
            at = tuple(i if n > 1 else slice(None)
                       for i, n in zip(np.nonzero(zero), zero.shape))
            at_zero = np.broadcast_to(e, shape)[at] == 0
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.multiply(e, np.log(s), out=out)
        np.exp(v, out=v)
        if at is not None:
            v[at] = at_zero
        return v

    def _reduced(self, u_vals, eps):
        """The energy of u_vals at eps, its gradients g and, per triangle,
        the quadrature sums a = sum w A and b = sum w B of the flux
        coefficient A = sum mu s^(e-2) and of B = sum mu (e-2) s^(e-4), the
        rank-one part of the flux derivative (e = p, q, r; mu = 1, mu1, mu2).

        With C = w mu s^(e-2) per point and exponent, a is the sum of C,
        b = (sum C e - 2 a) / s^2 and the energy density sums s^2 C / e.

        Served from the memo when it holds the same values at the same eps:
        values, not array identity, are compared, because callers update
        states in place."""
        memo = self._memo
        if memo is not None and memo[0] == eps and np.array_equal(memo[1], u_vals):
            return memo[2]
        g = self._gradients(u_vals)
        s2 = g[:, 0] ** 2 + g[:, 1] ** 2 + eps ** 2      # (T,)
        C = np.subtract(self._X, 2.0, out=np.empty(self._Wa.shape))
        self._pow(np.sqrt(s2), C, out=C)
        C *= self._Wa
        energy = float(s2 @ _column_sums(C, self._inv_X))
        a_bar = self._ones @ C
        # B carries a g g^T factor that vanishes with s: its s = 0 limit is 0.
        # At eps = 0 with p- < 2 a tiny s overflows b, which is unused there:
        # the Jacobian of such a phase needs eps > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b_bar = (_column_sums(C, self._X) - 2.0 * a_bar) / s2
        if eps == 0.0:
            b_bar[~(s2 > 0)] = 0.0
        reduced = (energy, a_bar, b_bar, g)
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
