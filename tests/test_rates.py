"""Discretisation error as a measured convergence order.

The P1 solve of a manufactured problem with u_e = sin(pi x) sin(pi y): its
load L_i = int A(x, grad u_e) . grad phi_i is formed here by the mesh's
degree-5 quadrature, with the flux A(x, xi) = (s^(p-2) + mu1 s^(q-2)
+ mu2 s^(r-2)) xi, s^2 = |xi|^2 + eps^2, written out from the phase's own
fields rather than taken from the library's residual, so an error in the
discrete flux does not cancel.  P1 elements converge at order 1 in the H1
seminorm and 2 in L2; the m = 3 eigenvalue converges at order 2.
"""

import numpy as np
import pytest

from multiphase import (UNIT_SQUARE, ExponentTriple, FluxParams, PhaseProblem,
                        SourceTerm, WeightPair, first_eigenvalue, refine,
                        structured_mesh)
from multiphase.modular import PhaseFunction
from multiphase.operator import PhaseDiscretization
from multiphase.solver import _newton

LADDER = (8, 16, 32, 64)


def exact(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def exact_grad(x, y):
    return np.stack([np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                     np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)], axis=-1)


def manufactured_load(fp, mesh):
    """L_i = sum over quadrature points of w A(x, grad u_e) . grad phi_i."""
    quad = mesh.quadrature(5)
    x, y = quad.points.T
    tf = fp.tf
    p, q, r = (f(x, y) for f in (tf.exp.p, tf.exp.q, tf.exp.r))
    mu1, mu2 = tf.w.mu1(x, y), tf.w.mu2(x, y)
    xi = exact_grad(x, y)                                   # (M, 2)
    s = np.sqrt(np.sum(xi ** 2, axis=1) + fp.eps ** 2)
    coef = s ** (p - 2) + mu1 * s ** (q - 2) + mu2 * s ** (r - 2)
    flux = (quad.weights * coef)[:, None] * xi
    tris = quad.tri_index
    contrib = np.einsum("mc,mjc->mj", flux, mesh.basis_grads[tris])
    return np.bincount(mesh.triangles[tris].ravel(), weights=contrib.ravel(),
                       minlength=mesh.n_vertices)


def errors(mesh, u):
    """H1-seminorm and L2 distances of the P1 state u from u_e."""
    quad = mesh.quadrature(5)
    x, y = quad.points.T
    tris = quad.tri_index
    local = u[mesh.triangles[tris]]                         # (M, 3)
    vals = np.sum(local * quad.rule[quad.rule_index], axis=1)
    grads = np.einsum("mj,mjc->mc", local, mesh.basis_grads[tris])
    h1 = np.sum(quad.weights * np.sum((grads - exact_grad(x, y)) ** 2, 1))
    l2 = np.sum(quad.weights * (vals - exact(x, y)) ** 2)
    return np.sqrt(h1), np.sqrt(l2)


def solve_manufactured(fp, n):
    mesh = structured_mesh(UNIT_SQUARE, n)
    prob = PhaseProblem(mesh, fp, SourceTerm.zero(),
                        exact(*mesh.vertices.T))
    rep = _newton(PhaseDiscretization(fp, mesh), prob,
                  manufactured_load(fp, mesh), 1e-10, 100)
    assert rep.converged, (n, rep.stop_reason)
    return errors(mesh, rep.solution.nodal_values)


@pytest.mark.parametrize("phase, eps", [
    ("variable_phase", 0.0),                # the bench's variable phase
    ("triple_phase", 0.0),                  # (2, 3, 4), mu = 1
    ((1.5, 1.8, 2.0), 1e-8),
])
def test_p1_orders_on_manufactured_solution(phase, eps, request):
    tf = (request.getfixturevalue(phase) if isinstance(phase, str)
          else PhaseFunction(ExponentTriple.constants(*phase),
                             WeightPair.constants(1, 1)))
    fp = FluxParams(tf, eps=eps)
    errs = np.array([solve_manufactured(fp, n) for n in LADDER])
    h1_order, l2_order = np.log2(errs[-2] / errs[-1])
    assert 0.95 <= h1_order <= 1.05, errs
    assert 1.9 <= l2_order <= 2.1, errs


def test_m3_eigenvalue_order():
    mesh = structured_mesh(UNIT_SQUARE, 16)
    lams = []
    for _ in range(3):
        lams.append(first_eigenvalue(mesh, 3.0)[0])
        mesh = refine(mesh)
    d1, d2 = lams[0] - lams[1], lams[1] - lams[2]
    assert 1.8 <= np.log2(d1 / d2) <= 2.2, lams
