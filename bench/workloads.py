"""The three benchmark workloads: inputs, the timed user-facing calls, and
the correctness checks that turn their results into counted operations.

Each workload has three parts:

* ``setup(seed, workdir)`` builds the inputs (fields, mesh, problem objects
  and seeded starts).  The seed feeds only generated inputs: the convection
  starts and the Poincare test functions.
* ``run(inputs, mark)`` makes the timed user-facing calls.  It catches the
  exception of each operation so that one failure does not drop the rest,
  and calls ``mark()`` between calls that take a second or more, where the
  harness times its speed probe.
* ``check(inputs, results)`` returns one ``Op`` per operation; an operation
  fails when it raised, did not converge or missed its check.

Every library call goes through the ``multiphase`` package namespace so the
tracer (and the tests) can replace it there.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from itertools import combinations

import numpy as np

import multiphase as mp
from multiphase.modular import PhaseFunction

# Problem sizes (mesh intervals per side) and counts.
SOLVE_N = 128
CONVECTION_N, CONVECTION_STARTS = 96, 4
PROBE_N, POINCARE_TESTS = 64, 10

# The library's results when this benchmark was added; a result must
# reproduce them within the stated tolerance.
SOLVE_ENERGY_REF = -0.0073664877688862235
CACCIOPPOLI_CONST_REF = 0.2209597278003362
HIGHER_INT_REF = {0.05: 0.7322696777076801, 0.1: 0.7328036524525434,
                  0.2: 0.7338718954776946, 0.4: 0.7360090845226677}
M_GRID = tuple(HIGHER_INT_REF)


@dataclass(frozen=True)
class Op:
    """One counted operation: a solve, a probe ratio or a convection start."""

    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Failure:
    """Stands in for the result of an operation that raised."""

    error: str

    @staticmethod
    def current():
        return Failure(traceback.format_exc(limit=4))


def _attempt(fn, *args, **kwargs):
    """fn's result, or a Failure when it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        return Failure.current()


def _rel_close(value, ref, rel):
    return abs(value - ref) <= rel * abs(ref)


def _sin_sin(x1, x2):
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


# -- solve-variable ----------------------------------------------------------

@dataclass
class SolveInputs:
    prob: object
    vtk_path: str


def variable_phase():
    """Affine exponents with a one-sided mu1 activation (the test-suite
    ``variable_phase`` fixture)."""
    exp = mp.ExponentTriple.sample(mp.ScalarField.affine(2.0, 0.2, 0.0),
                                   mp.ScalarField.affine(2.3, 0.2, 0.1),
                                   mp.ScalarField.affine(2.6, 0.2, 0.2),
                                   mp.UNIT_SQUARE)
    w = mp.WeightPair.sample(mp.ScalarField.expression("max(0, x1 - 0.5)"),
                             mp.ScalarField.constant(0.25), mp.UNIT_SQUARE)
    return PhaseFunction(exp, w)


def setup_solve(seed, workdir):
    mesh = mp.structured_mesh(mp.UNIT_SQUARE, SOLVE_N)
    fp = mp.FluxParams(variable_phase(), eps=1e-8)
    prob = mp.PhaseProblem(mesh, fp, mp.SourceTerm.of_x(_sin_sin),
                           np.zeros(mesh.n_vertices))
    return SolveInputs(prob, os.path.join(workdir, "solution.vtk"))


def run_solve(inp, mark):
    try:
        rep = mp.solve_variational(inp.prob, tol=1e-10)
        wres = mp.weak_residual_sup(inp.prob, rep.solution)
        mp.write_vtk(inp.vtk_path, inp.prob.mesh,
                     {"u": rep.solution.nodal_values},
                     {"grad_u": rep.solution.gradients()})
        return rep, wres
    except Exception:
        return Failure.current()


def check_solve(inp, res):
    if isinstance(res, Failure):
        return [Op("solve", False, res.error)]
    rep, wres = res
    problems = []
    if not rep.converged:
        problems.append("not converged")
    if not rep.residual_history[-1] <= 1e-10:
        problems.append(f"final residual {rep.residual_history[-1]:.3e}")
    if not wres <= 1e-8:
        problems.append(f"weak residual {wres:.3e}")
    if not _rel_close(rep.energy_history[-1], SOLVE_ENERGY_REF, 1e-8):
        problems.append(f"energy {rep.energy_history[-1]!r}")
    try:
        with open(inp.vtk_path, encoding="utf-8") as fh:
            head = fh.readline()
        os.remove(inp.vtk_path)
        if not head.startswith("# vtk DataFile"):
            problems.append("VTK header missing")
    except OSError as exc:
        problems.append(f"VTK file: {exc}")
    return [Op("solve", not problems, "; ".join(problems))]


# -- convection-multistart ---------------------------------------------------

@dataclass
class ConvectionInputs:
    prob: object
    starts: list


def convection_problem(mesh):
    """Criterion-8 convection problem: f = sin sin + 0.05 du/dx1 + 0.05 u."""
    fp = mp.FluxParams(PhaseFunction(mp.ExponentTriple.constants(2, 3, 4),
                                     mp.WeightPair.constants(1, 1)), eps=0.0)
    k3, k4 = 0.05, 0.05
    src = mp.SourceTerm(
        lambda x1, x2, t, z1, z2: _sin_sin(x1, x2) + k3 * z1 + k4 * t,
        grad_dependent=True,
        constants={"k3": k3, "k4": k4, "k5": k3, "k6": k4})
    return mp.PhaseProblem(mesh, fp, src, np.zeros(mesh.n_vertices))


def setup_convection(seed, workdir):
    mesh = mp.structured_mesh(mp.UNIT_SQUARE, CONVECTION_N)
    rng = np.random.default_rng(seed)
    free = ~mesh.boundary_flags
    starts = []
    for _ in range(CONVECTION_STARTS):
        init = np.zeros(mesh.n_vertices)
        init[free] = rng.uniform(-1, 1, size=int(free.sum())) * mesh.h_max
        starts.append(init)
    return ConvectionInputs(convection_problem(mesh), starts)


def run_convection(inp, mark):
    out = []
    for init in inp.starts:
        out.append(_attempt(mp.solve_convection, inp.prob, tol=1e-10,
                            initial=init))
        mark()
    return out


def check_convection(inp, reports):
    problems = [[] for _ in reports]
    for k, rep in enumerate(reports):
        if isinstance(rep, Failure):
            problems[k].append(rep.error)
            continue
        if not rep.converged:
            problems[k].append("not converged")
        wres = mp.weak_residual_sup(inp.prob, rep.solution)
        if not wres <= 1e-8:
            problems[k].append(f"weak residual {wres:.3e}")
    for i, j in combinations(range(len(reports)), 2):
        if isinstance(reports[i], Failure) or isinstance(reports[j], Failure):
            continue
        dist = float(np.max(np.abs(reports[i].solution.nodal_values
                                   - reports[j].solution.nodal_values)))
        if not dist <= 1e-9:
            for k in (i, j):
                problems[k].append(f"distance to start {i + j - k}: {dist:.3e}")
    return [Op(f"start[{k}]", not p, "; ".join(p)) for k, p in enumerate(problems)]


# -- probe-regularity --------------------------------------------------------

@dataclass
class ProbeInputs:
    fp: object
    mesh: object
    family: object
    tests: list


def default_family():
    """The 20 concentric ball pairs the probe commands use by default."""
    centers = [(x, y) for x in (0.3, 0.5, 0.7) for y in (0.3, 0.5, 0.7)]
    spec = [(c, (0.1, 0.2)) for c in centers]
    spec += [(c, (0.05, 0.15)) for c in centers]
    spec += [((0.5, 0.5), (0.15, 0.25)), ((0.4, 0.4), (0.12, 0.22))]
    balls, pairing = [], []
    for center, (r1, r2) in spec:
        balls += [mp.Ball(center, r1), mp.Ball(center, r2)]
        pairing.append((len(balls) - 2, len(balls) - 1))
    return mp.BallFamily(tuple(balls), tuple(pairing))


def _two_phase_trace(x, y):
    return np.sin(np.pi * x) * y


def setup_probe(seed, workdir):
    mesh = mp.structured_mesh(mp.UNIT_SQUARE, PROBE_N)
    fp = mp.FluxParams(PhaseFunction(mp.ExponentTriple.constants(2, 3, 3),
                                     mp.WeightPair.constants(1.0, 0.0)), eps=0.0)
    rng = np.random.default_rng(seed)
    tests = [mp.FeFunction(mesh, np.where(mesh.boundary_flags, 0.0,
                                          rng.uniform(-1, 1, mesh.n_vertices)))
             for _ in range(POINCARE_TESTS)]
    return ProbeInputs(fp, mesh, default_family(), tests)


def run_probe(inp, mark):
    fam = inp.family
    try:
        u = mp.minimize_dirichlet(inp.fp, inp.mesh, _two_phase_trace)
    except Exception:
        return {"minimize": Failure.current()}
    mark()
    cacc = [_attempt(mp.caccioppoli_ratio, inp.fp, u, (fam.balls[i], fam.balls[j]))
            for i, j in fam.pairing]
    mark()
    hi = _attempt(mp.higher_integrability_probe, inp.fp, u, fam, list(M_GRID))
    mark()
    pw = [_attempt(mp.poincare_w0_ratio, inp.fp, v) for v in inp.tests]
    return {"minimize": u, "caccioppoli": cacc, "higher": hi, "poincare": pw}


def _ratio_problem(r):
    if isinstance(r, Failure):
        return r.error
    return "" if np.isfinite(r) else f"ratio {r!r}"


def check_probe(inp, res):
    n_pairs, n_tests = len(inp.family.pairing), len(inp.tests)
    if isinstance(res["minimize"], Failure):
        err = res["minimize"].error
        return ([Op("minimize", False, err)]
                + [Op(f"caccioppoli[{k}]", False, err) for k in range(n_pairs)]
                + [Op(f"higher[m={m}]", False, err) for m in M_GRID]
                + [Op(f"poincare[{k}]", False, err) for k in range(n_tests)])
    ops = [Op("minimize", True)]

    cacc = [_ratio_problem(r) for r in res["caccioppoli"]]
    if not any(cacc):
        const = max(res["caccioppoli"])
        if not _rel_close(const, CACCIOPPOLI_CONST_REF, 1e-6):
            cacc = [f"constant {const!r}"] * n_pairs
    ops += [Op(f"caccioppoli[{k}]", not p, p) for k, p in enumerate(cacc)]

    hi = res["higher"]
    if isinstance(hi, Failure):
        higher = [hi.error] * len(M_GRID)
    else:
        per_m = hi.parameters["per_m_max"]
        higher = []
        for m in M_GRID:
            rows = [r for _, mm, r in hi.per_ball if mm == m]
            if not (len(rows) == n_pairs and all(np.isfinite(rows))):
                higher.append("non-finite or missing ratios")
            elif not _rel_close(per_m[m], HIGHER_INT_REF[m], 1e-6):
                higher.append(f"constant {per_m[m]!r}")
            else:
                higher.append("")
        if not any(per_m[m] < 10.0 for m in M_GRID):
            higher = [p or "no stable m" for p in higher]
    ops += [Op(f"higher[m={m}]", not p, p) for m, p in zip(M_GRID, higher)]

    pw = []
    for r in res["poincare"]:
        p = _ratio_problem(r)
        pw.append(p or ("" if r > 0 else f"ratio {r!r}"))
    ops += [Op(f"poincare[{k}]", not p, p) for k, p in enumerate(pw)]
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    run: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("solve-variable",
             "n=128 variational solve with space-varying fields: sparse LU and "
             "assembly dominate, constant-field shortcuts are bypassed",
             setup_solve, run_solve, check_solve),
    Workload("convection-multistart",
             "4 warm-started convection fixed points at n=96 with constant "
             "fields: per-call set-up and many short Newton solves",
             setup_convection, run_convection, check_convection),
    Workload("probe-regularity",
             "Caccioppoli, higher-integrability and zero-trace Poincare probes "
             "at n=64: ball quadrature, field sampling and Luxemburg bisection",
             setup_probe, run_probe, check_probe),
)}
