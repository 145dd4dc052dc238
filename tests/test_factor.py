"""solver._factor's two paths: LAPACK banded Cholesky while the reverse
Cuthill-McKee half-bandwidth is at most BAND_MAX, symmetric-mode SuperLU
above it."""

import numpy as np
import pytest
import scipy.linalg.lapack as lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from multiphase import (Domain2D, ExponentTriple, FluxParams, UNIT_SQUARE,
                        WeightPair, refine, structured_mesh)
from multiphase import solver
from multiphase.modular import PhaseFunction
from multiphase.operator import PhaseDiscretization
from multiphase.solver import BAND_MAX, _factor

HEXAGON = Domain2D(tuple((np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3))
MESHES = {
    "square8": lambda: structured_mesh(UNIT_SQUARE, 8),
    "square16": lambda: structured_mesh(UNIT_SQUARE, 16),
    "hexagon": lambda: refine(structured_mesh(HEXAGON, 6)),
}


def _superlu_solve(J, rhs):
    """The SuperLU path written out: RCM relabelling, then symmetric-mode
    SuperLU with a minimum-degree ordering on A^T + A."""
    J = J.tocsr()
    perm = reverse_cuthill_mckee(J, symmetric_mode=True)
    lu = spla.splu(J[perm][:, perm].tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    x = np.empty(len(rhs))
    x[perm] = lu.solve(rhs[perm])
    return x


def _half_bandwidth(J):
    """Half-bandwidth of J after the RCM relabelling."""
    perm = reverse_cuthill_mckee(J, symmetric_mode=True)
    at = np.empty_like(perm)
    at[perm] = np.arange(len(perm), dtype=perm.dtype)
    rows = np.repeat(np.arange(J.shape[0]), np.diff(J.indptr))
    return int(np.max(at[rows] - at[J.indices]))


def _full_band(b, seed=0):
    """An SPD matrix whose entries within b of the diagonal are all nonzero
    (so no relabelling narrows it), with its nodes shuffled."""
    n = 3 * (b + 1)
    offsets = range(-b, b + 1)
    A = sp.diags([np.full(n - abs(k), -1.0) for k in offsets], list(offsets))
    A = (A + (2 * b + 1) * sp.identity(n)).tocsr()
    q = np.random.default_rng(seed).permutation(n)
    return A[q][:, q].tocsr()


@pytest.fixture
def spies(monkeypatch):
    """Counts of the LAPACK and SuperLU factor calls, made through the real
    functions."""
    calls = {"dpbtrf": 0, "splu": 0}

    def spy(name, module):
        real = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    spy("dpbtrf", lapack)
    spy("splu", spla)
    return calls


PHASES = {
    "constant": lambda: PhaseFunction(ExponentTriple.constants(2.2, 2.6, 3.0),
                                      WeightPair.constants(1.0, 0.5)),
    "constant_p15": lambda: PhaseFunction(ExponentTriple.constants(1.5, 1.9, 2.3),
                                          WeightPair.constants(1.0, 1.0)),
    "variable": "variable_phase",
}


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("phase_name, eps", [
    ("constant", 0.0), ("constant", 1e-8), ("constant", 1e-2),
    ("constant_p15", 1e-8), ("constant_p15", 1e-2),
    ("variable", 0.0), ("variable", 1e-8), ("variable", 1e-2)])
def test_band_matches_superlu(request, spies, mesh_name, phase_name, eps):
    """Jacobians of random states, whose narrow band goes to LAPACK, solve
    to within 1e-12 of SuperLU (eps = 0 only where p- >= 2)."""
    mesh = MESHES[mesh_name]()
    phase = PHASES[phase_name]
    phase = request.getfixturevalue(phase) if isinstance(phase, str) else phase()
    disc = PhaseDiscretization(FluxParams(phase, eps=eps), mesh)
    rng = np.random.default_rng(3)
    J = disc.jacobian(rng.uniform(-1, 1, mesh.n_vertices), eps=eps)
    rhs = rng.uniform(-1, 1, J.shape[0])
    x = _factor(J)(rhs)
    assert spies == {"dpbtrf": 1, "splu": 0}
    ref = _superlu_solve(J, rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("b, path", [(BAND_MAX, "dpbtrf"), (BAND_MAX + 1, "splu")])
def test_path_by_half_bandwidth(spies, b, path):
    """The half-bandwidth BAND_MAX is factored by LAPACK, one more by
    SuperLU, and both solve the system."""
    A = _full_band(b)
    assert _half_bandwidth(A) == b
    rhs = np.random.default_rng(1).uniform(-1, 1, A.shape[0])
    x = _factor(A)(rhs)
    assert spies == {"dpbtrf": 0, "splu": 0, path: 1}
    ref = np.linalg.solve(A.toarray(), rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_superlu_path_unchanged():
    """Above BAND_MAX the solve is bit for bit the SuperLU path's."""
    A = _full_band(BAND_MAX + 1, seed=2)
    rhs = np.random.default_rng(2).uniform(-1, 1, A.shape[0])
    assert np.array_equal(_factor(A)(rhs), _superlu_solve(A, rhs))


def test_reused_factor_solves_each_rhs():
    """One banded factor serves every right-hand side, as chord steps need."""
    K = solver._stiffness(structured_mesh(UNIT_SQUARE, 16))
    solve = _factor(K)
    rng = np.random.default_rng(4)
    for _ in range(3):
        rhs = rng.uniform(-1, 1, K.shape[0])
        assert np.linalg.norm(K @ solve(rhs) - rhs) <= 1e-12 * np.linalg.norm(rhs)


def _tridiagonal(diag, off):
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr")


@pytest.mark.parametrize("A", [
    # symmetric, nonsingular, eigenvalues of both signs
    _tridiagonal(np.array([2.0, -1.0, 2.0, 2.0]), np.full(3, 0.5)),
    # the leading 2 x 2 block [[1, 1], [1, 1]] leaves an exact zero pivot
    _tridiagonal(np.array([1.0, 1.0, 2.0, 2.0]), np.array([1.0, 0.0, 0.5])),
], ids=["indefinite", "singular"])
def test_not_positive_definite_raises(spies, A):
    with pytest.raises(np.linalg.LinAlgError):
        _factor(A)
    assert spies["dpbtrf"] == 1


def test_singular_above_band_max_raises(spies):
    """An exactly singular matrix on the SuperLU path raises the same error:
    one node's row and column are empty."""
    A = _full_band(BAND_MAX + 1).tolil()
    A[5, :] = 0.0
    A[:, 5] = 0.0
    A = A.tocsr()
    with pytest.raises(np.linalg.LinAlgError):
        _factor(A)
    assert spies["splu"] == 1
