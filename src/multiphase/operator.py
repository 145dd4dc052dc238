"""Discrete triple-phase energy, residual, and Jacobian on P1 elements.

The flux is regularized through s = sqrt(|g|^2 + eps^2); reported energies
always use the unregularized integrand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import quad_rule
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
    """Caches mesh geometry, field samples and the Jacobian's sparsity
    pattern for repeated assembly.

    Energy, residual and Jacobian of a state all come from one evaluation
    of the phase powers, reduced per triangle.  The reductions of the last
    state are kept, keyed by eps and by the state's values, so in a Newton
    step the accepted line-search trial's energy also serves the next
    residual and Jacobian.  Only one state is held.

    When p, q, r, mu1 and mu2 are all constant on the quadrature points they
    are kept as (T, 1) columns: P1 gradients make s constant on a triangle,
    so each power is then taken once per triangle instead of once per
    quadrature point, and the quadrature sums broadcast as before.
    """

    def __init__(self, fp, mesh, degree=5):
        self.fp = fp
        self.mesh = mesh
        self.degree = degree
        bary, w = quad_rule(degree)
        self.bary = bary
        verts = mesh.vertices[mesh.triangles]
        qp = np.einsum("kj,tjd->tkd", bary, verts)       # (T, K, 2)
        self.qweights = mesh.areas[:, None] * w[None, :]  # (T, K)
        x1, x2 = qp[..., 0], qp[..., 1]
        tf = fp.tf
        fields = [tf.exp.p(x1, x2), tf.exp.q(x1, x2), tf.exp.r(x1, x2),
                  tf.w.mu1(x1, x2), tf.w.mu2(x1, x2)]
        if all(np.ptp(f) == 0 for f in fields):
            fields = [f[:, :1] for f in fields]
        self.p, self.q, self.r, self.m1, self.m2 = fields
        self._e2 = (self.p - 2, self.q - 2, self.r - 2)
        self._energy_w = (1 / self.p, self.m1 / self.q, self.m2 / self.r)
        self.qpoints = qp
        self.free = np.flatnonzero(~mesh.boundary_flags)
        self.free_pos = np.full(mesh.n_vertices, -1, dtype=np.int64)
        self.free_pos[self.free] = np.arange(len(self.free))
        self._pattern = None
        self._memo = None        # (eps, private copy of u_vals, reductions)

    # -- low-level pieces ------------------------------------------------

    def _gradients(self, u_vals):
        u = u_vals[self.mesh.triangles]
        return np.einsum("tj,tjd->td", u, self.mesh.basis_grads)

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
        """The energy of the state u_vals at eps and, per triangle, the
        quadrature sums a = sum w A and b = sum w B of the flux coefficient
        A = sum mu s^(e-2) and of B = sum mu (e-2) s^(e-4), the rank-one
        part of the flux derivative (e = p, q, r; mu = 1, mu1, mu2).

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
        dens = s2 * (wp * cp + wq * cq + wr * cr)
        energy = float(np.sum(self.qweights * dens))
        a_bar = np.sum(self.qweights * (cp + self.m1 * cq + self.m2 * cr), axis=1)
        # B carries a g g^T factor that vanishes with s: its s = 0 limit is 0
        with np.errstate(divide="ignore", invalid="ignore"):
            B = (ep * cp + self.m1 * eq * cq + self.m2 * er * cr) / s2
        if eps == 0.0:
            B = np.where(s2 > 0, B, 0.0)
        b_bar = np.sum(self.qweights * B, axis=1)
        reduced = (energy, a_bar, b_bar)
        self._memo = (eps, np.array(u_vals, dtype=float), reduced)
        return reduced

    def energy(self, u_vals, eps=0.0):
        """Energy integral of the P1 state; reported energies use eps = 0,
        the regularized variant only steers the solver's line search."""
        return self._reduced(u_vals, eps)[0]

    def residual(self, u_vals, load=None, eps=None):
        """Galerkin residual over free nodes: flux tested against basis
        gradients, minus the load."""
        eps = self.fp.eps if eps is None else eps
        _, c, _ = self._reduced(u_vals, eps)
        g = self._gradients(u_vals)
        # flux . grad(phi_i) with per-triangle constant gradient
        gdphi = np.einsum("td,tjd->tj", g, self.mesh.basis_grads)
        contrib = c[:, None] * gdphi
        res = np.zeros(self.mesh.n_vertices)
        np.add.at(res, self.mesh.triangles.ravel(), contrib.ravel())
        res = res[self.free]
        if load is not None:
            res = res - load[self.free]
        return res

    def _jacobian_pattern(self):
        """Free x free CSR pattern, the CSR slot of each of the 9 T local
        entries (entries on a boundary row or column share one spare slot
        past the end), and the local basis-gradient dot products."""
        if self._pattern is None:
            n = len(self.free)
            loc = self.free_pos[self.mesh.triangles]      # (T, 3), -1 on boundary
            rows = np.repeat(loc, 3, axis=1).ravel()
            cols = np.tile(loc, (1, 3)).ravel()
            keys = np.where((rows >= 0) & (cols >= 0), rows * n + cols, n * n)
            uniq, slot = np.unique(keys, return_inverse=True)
            nnz = int(np.searchsorted(uniq, n * n))
            uniq = uniq[:nnz]
            idx = np.int32 if nnz < np.iinfo(np.int32).max else np.int64
            indptr = np.searchsorted(uniq, np.arange(n + 1) * n).astype(idx)
            indices = (uniq % n).astype(idx)
            dots = np.einsum("tjd,tkd->tjk", self.mesh.basis_grads,
                             self.mesh.basis_grads)
            self._pattern = (indptr, indices, slot, nnz, dots)
        return self._pattern

    def jacobian(self, u_vals, eps=None):
        """Exact derivative of the regularized residual, free nodes only."""
        eps = self.fp.eps if eps is None else eps
        indptr, indices, slot, nnz, dots = self._jacobian_pattern()
        _, a_bar, b_bar = self._reduced(u_vals, eps)
        g = self._gradients(u_vals)
        gdphi = np.einsum("td,tjd->tj", g, self.mesh.basis_grads)
        local = (a_bar[:, None, None] * dots
                 + b_bar[:, None, None] * np.einsum("tj,tk->tjk", gdphi, gdphi))
        data = np.bincount(slot, weights=local.ravel(), minlength=nnz + 1)
        n = len(self.free)
        # fresh index arrays: in-place edits of the returned matrix (such as
        # eliminate_zeros) must not reach the cached pattern
        return sp.csr_matrix((data[:nnz], indices.copy(), indptr.copy()),
                             shape=(n, n))

    def load_vector(self, f_at_quad):
        """Nodal load from integrand values at quadrature points (T, K)."""
        contrib = np.einsum("tk,kj->tj", self.qweights * f_at_quad, self.bary)
        out = np.zeros(self.mesh.n_vertices)
        np.add.at(out, self.mesh.triangles.ravel(), contrib.ravel())
        return out

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
    eps = 0.0 if fp.tf.exp.p_minus >= 2 else fp.eps
    res = disc.residual(u.nodal_values, eps=eps)
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
    eps = 0.0 if fp.tf.exp.p_minus >= 2 else fp.eps
    g = disc._gradients(u.nodal_values)
    gnorm_tri = np.linalg.norm(g, axis=1)
    gvals = gnorm_tri[quad.tri_index]
    sp_ = SampledPhase(fp.tf, quad)
    out = []
    for c in scales:
        cv = c * u.nodal_values
        res = disc.residual(cv, eps=eps)
        pairing = float(res @ cv[disc.free])
        nrm = luxemburg_norm(fp.tf, c * gvals, quad, sampled=sp_).luxemburg_norm
        ratio = pairing / nrm
        bound = min(nrm ** (sp_.p_minus - 1.0), nrm ** (sp_.r_plus - 1.0))
        out.append((float(c), ratio, bound))
    return out
