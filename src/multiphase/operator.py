"""Discrete triple-phase energy, residual, and Jacobian on P1 elements.

The flux is regularized through s = sqrt(|g|^2 + eps^2); reported energies
always use the unregularized integrand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modular import SampledPhase, grad_quadrature, luxemburg_norm


@dataclass(frozen=True)
class FluxParams:
    tf: object                 # PhaseFunction
    eps: float = 1e-8

    def __post_init__(self):
        if not 0 <= self.eps < np.inf:
            raise ValueError("eps must be a nonnegative finite number, "
                             f"got {self.eps!r}")
        if self.eps == 0 and self.tf.exp.p_minus < 2:
            raise ValueError("eps = 0 needs p_minus >= 2 "
                             "(flux derivative singular at zero gradient)")

    @property
    def check_eps(self):
        """The eps at which a solution is judged: 0 when p- >= 2, else eps."""
        return 0.0 if self.tf.exp.p_minus >= 2 else self.eps


def _column_sums(C, Y):
    """Per-column sums of C * Y for (n, T) C and Y of shape (n, 1) or (n, T)."""
    return Y[:, 0] @ C if Y.shape[1] == 1 else np.einsum("ij,ij->j", C, Y)


_CHUNK_ENTRIES = 2 ** 17     # entries of X reduced at once


def _chunks(rows, n):
    """(lo, hi) spans of n triangles that tile them in order, each with at
    most about _CHUNK_ENTRIES / rows triangles.  Every span starts at a
    multiple of 8, so BLAS sums each column in the blocks it uses on all n
    columns at once, and the last has at least two triangles, since einsum
    sums a single column in another order: no per-triangle sum changes."""
    step = max(8, _CHUNK_ENTRIES // rows // 8 * 8)
    edges = [*range(0, max(n - 1, 1), step), n]
    return zip(edges, edges[1:])


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
    (1, mu1, mu2), Wa, so a state's three powers of s are one exp-log pass
    over X with the weights folded in, reduced by contractions.  Their last
    axis runs over the triangles, along which s and every per-triangle
    result vary.  On a space-varying phase X and Wa are (3 K, T), the only
    per-point arrays held: p, q and r are (T, K) views of X, and mu1 and
    mu2 live only in Wa.  When all five fields are constant no point is
    sampled: P1 gradients make s constant on a triangle, so X is the (3, 1)
    column of exponents, Wa the triangle weight totals times (1, mu1, mu2),
    (3, T), each power is taken once per triangle, and p, q, r, mu1 and
    mu2 are (T, 1) columns.

    A state is reduced in chunks of whole triangles, at most _CHUNK_ENTRIES
    entries of X each, so its scratch (the powers C and 1 / X) stays a
    fixed size however fine the mesh.  Every per-triangle sum keeps its
    terms and their order, so the chunking changes no bit of a result.
    """

    def __init__(self, fp, mesh):
        self.fp = fp
        self.mesh = mesh
        quad, T = mesh.quadrature(), mesh.n_triangles
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
            Wa = np.empty_like(X)
            Wa[0] = self.qweights.T
            for wa, m in zip(Wa[1:], (ph.m1, ph.m2)):
                np.multiply(Wa[0], m.reshape(shape).T, out=wa)
            del ph          # frees the samples, copied into X and Wa
            self.p, self.q, self.r = X[0].T, X[1].T, X[2].T
            self._X, self._Wa = X.reshape(-1, T), Wa.reshape(-1, T)
        self._ones = np.ones(len(self._X))
        self.free = np.flatnonzero(~mesh.boundary_flags)
        self._memo = None        # (eps, private copy of u_vals, reductions)

    # -- low-level pieces ------------------------------------------------

    def _gradients(self, u_vals):
        return (self.mesh.grad_operator @ u_vals).reshape(-1, 2)

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
        s = np.sqrt(s2)
        # per triangle: the sums of C / X, of C (a) and of C X
        inv_sums, a_bar, x_sums = (np.empty(len(s2)) for _ in range(3))
        for lo, hi in _chunks(*self._Wa.shape):
            X = self._X if self._X.shape[1] == 1 else self._X[:, lo:hi]
            C = np.subtract(X, 2.0, out=np.empty((len(X), hi - lo)))
            self._pow(s[lo:hi], C, out=C)
            C *= self._Wa[:, lo:hi]
            inv_sums[lo:hi] = _column_sums(C, np.reciprocal(X))
            a_bar[lo:hi] = self._ones @ C
            x_sums[lo:hi] = _column_sums(C, X)
        energy = float(s2 @ inv_sums)
        # B carries a g g^T factor that vanishes with s: its s = 0 limit is 0.
        # At eps = 0 with p- < 2 a tiny s overflows b, which is unused there:
        # the Jacobian of such a phase needs eps > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            b_bar = (x_sums - 2.0 * a_bar) / s2
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


def energy(fp, u):
    return PhaseDiscretization(fp, u.mesh).energy(u.nodal_values)


def check_gateaux(fp, u, h, delta):
    """Central-difference discrepancy between the energy derivative and the
    assembled residual, paired against the direction h."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    disc = PhaseDiscretization(fp, u.mesh)
    hv = h.nodal_values
    if np.any(hv[u.mesh.boundary_flags] != 0):
        raise ValueError("direction must vanish on boundary nodes")
    e_plus = disc.energy(u.nodal_values + delta * hv)
    e_minus = disc.energy(u.nodal_values - delta * hv)
    res = disc.residual(u.nodal_values, eps=fp.check_eps)
    pairing = float(res @ hv[disc.free])
    return abs((e_plus - e_minus) / (2.0 * delta) - pairing)


def check_monotone(fp, u, v):
    """<A(u) - A(v), u - v> over free nodes, A the operator at fp.check_eps."""
    disc = PhaseDiscretization(fp, u.mesh)
    bnd = u.mesh.boundary_flags
    if not np.allclose(u.nodal_values[bnd], v.nodal_values[bnd]):
        raise ValueError("u and v must share boundary values")
    du = (u.nodal_values - v.nodal_values)[disc.free]
    ru = disc.residual(u.nodal_values, eps=fp.check_eps)
    rv = disc.residual(v.nodal_values, eps=fp.check_eps)
    return float((ru - rv) @ du)


def check_coercive(fp, u, scales):
    """Rayleigh-type coercivity ratios <A(cu), cu> / ||grad(cu)||_T along
    increasing scales, with the norm-power lower bound per scale.  A scale
    may be negative but not 0, where both norm and pairing vanish."""
    disc = PhaseDiscretization(fp, u.mesh)
    if np.any(u.nodal_values[u.mesh.boundary_flags] != 0):
        raise ValueError("u must vanish on the boundary")
    if not np.any(u.nodal_values != 0):
        raise ValueError("u must be nonzero")
    if any(c == 0 for c in scales):
        raise ValueError("scales must be nonzero")
    quad = grad_quadrature(fp.tf, u.mesh)
    gvals, sp_ = u.grad_norm_at(quad), SampledPhase(fp.tf, quad)
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
