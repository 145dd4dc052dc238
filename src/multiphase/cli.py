"""Experiment runner: JSON configs in, CSV/VTK artifacts and a manifest out.

Exit codes: 0 success, 1 numeric/experiment failure, 2 usage/parse failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from . import __version__
from .expressions import ExpressionError
from .fields import (Domain2D, ExponentTriple, ScalarField, UNIT_SQUARE,
                     WeightPair, check_h1, check_hprime)
from .mesh import Ball, FeFunction, refine, structured_mesh, write_vtk
from .modular import (PhaseFunction, check_delta2, check_norm_modular_relations,
                      check_seminorm_domination, check_subadditivity,
                      check_uniform_convexity)
from .operator import FluxParams
from .regularity import (BallFamily, caccioppoli_ratio, higher_integrability_probe,
                         minimize_dirichlet, poincare_w0_ratio,
                         sobolev_poincare_ratio)
from .solver import (PhaseProblem, SourceTerm, check_h2, check_h3,
                     first_eigenvalue, solve_convection, solve_variational,
                     weak_residual_sup)

log = logging.getLogger("multiphase")

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2
# random zero-trace test functions of `probe poincare-w0`
POINCARE_TESTS = 20


class ConfigError(ValueError):
    pass


# -- strict config schema ----------------------------------------------------

_SOLVER_KEYS = {"tol", "max_iter", "eps"}
_PROBE_KEYS = {"delta", "m_grid", "ball_pairs", "sigma", "stability_factor"}
# growth constants: check_h2 reads k3 and k4, check_h3 reads k5 and k6
_SOURCE_CONSTANTS = ("k3", "k4", "k5", "k6")
_SOURCE_KEYS = {"expr", "const", "affine", "grad_coeff", "state_coeff",
                *_SOURCE_CONSTANTS}
_TOP_KEYS = {"domain", "p", "q", "r", "mu1", "mu2", "source", "dirichlet",
             "mesh_n", "refinements", "solver", "probe", "seed", "eigen_m",
             "quad_degree", "sample_grid"}


def _reject_unknown(d, allowed, where):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown config key(s) in {where}: {sorted(unknown)}")


def _number(value, what, kind=float):
    """kind(value) for a number read from the config; a value that is not
    one is a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {value!r}") from exc


def _field(spec, what):
    """ScalarField.from_spec for a field read from the config; a malformed
    spec is a ConfigError."""
    try:
        return ScalarField.from_spec(spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config root")
    for sub, keys in (("solver", _SOLVER_KEYS), ("probe", _PROBE_KEYS),
                      ("source", _SOURCE_KEYS)):
        if sub in raw:
            _reject_unknown(raw[sub], keys, sub)
    return raw


def build_domain(cfg):
    spec = cfg.get("domain", "unit_square")
    if spec == "unit_square":
        return UNIT_SQUARE
    if isinstance(spec, dict) and "polygon" in spec:
        return Domain2D(tuple(map(tuple, spec["polygon"])))
    raise ConfigError(f"bad domain spec {spec!r}")


def build_phase(cfg, domain):
    n = _number(cfg.get("sample_grid", 128), "sample_grid", int)
    p, q, r = (_field(cfg.get(k, {"const": 2.0}), k) for k in ("p", "q", "r"))
    exp = ExponentTriple.sample(p, q, r, domain, n=n)
    w = WeightPair.sample(_field(cfg.get("mu1", {"const": 0.0}), "mu1"),
                          _field(cfg.get("mu2", {"const": 0.0}), "mu2"),
                          domain, n=n)
    return PhaseFunction(exp, w)


def build_source(cfg):
    src = cfg.get("source")
    if src is None:
        return SourceTerm.zero()
    constants = {k: _number(src[k], f"source.{k}")
                 for k in _SOURCE_CONSTANTS if k in src}
    kinds = [k for k in ("expr", "const", "affine") if k in src]
    if len(kinds) > 1:
        raise ConfigError(f"source takes one of expr, const and affine, got {kinds}")
    base = (_field({kinds[0]: src[kinds[0]]}, "source") if kinds
            else ScalarField.constant(0.0))
    gc = src.get("grad_coeff", [0.0, 0.0])
    if not isinstance(gc, list) or len(gc) != 2:
        raise ConfigError(f"source.grad_coeff must be a pair, got {gc!r}")
    gc = [_number(c, "source.grad_coeff") for c in gc]
    sc = _number(src.get("state_coeff", 0.0), "source.state_coeff")
    grad_dependent = any(c != 0.0 for c in gc)

    def evaluate(x1, x2, t, z1, z2):
        return base(x1, x2) + sc * t + gc[0] * z1 + gc[1] * z2

    return SourceTerm(evaluate, grad_dependent=grad_dependent or sc != 0.0,
                      constants=constants)


def _mesh_n(cfg):
    return _number(cfg.get("mesh_n", 16), "mesh_n", int)


def build_problem(cfg):
    domain = build_domain(cfg)
    tf = build_phase(cfg, domain)
    solver_cfg = cfg.get("solver", {})
    eps = _number(solver_cfg.get("eps", 1e-8), "solver.eps")
    fp = FluxParams(tf, eps=eps)
    mesh = structured_mesh(domain, _mesh_n(cfg))
    source = build_source(cfg)
    dirichlet = np.zeros(mesh.n_vertices)
    if "dirichlet" in cfg:
        bc = _field(cfg["dirichlet"], "dirichlet")
        dirichlet = bc(mesh.vertices[:, 0], mesh.vertices[:, 1])
    return PhaseProblem(mesh, fp, source, dirichlet)


# -- output helpers ----------------------------------------------------------

def _fmt(v):
    return f"{float(v):.17g}"


class Manifest:
    def __init__(self, cfg_path, out_dir):
        with open(cfg_path, "rb") as fh:
            self.config_hash = hashlib.sha256(fh.read()).hexdigest()
        self.out_dir = out_dir
        self.stages = {}
        self.outputs = []
        self.hypotheses = []
        self.solve = {}
        self.error = None
        os.makedirs(out_dir, exist_ok=True)

    @contextmanager
    def stage(self, name):
        """Time the block as stage `name`, also when it raises."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = time.perf_counter() - t0

    def csv(self, name, header, rows):
        """Write the rows under the header to the CSV artifact `name`."""
        with open(os.path.join(self.out_dir, name), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(f"# config_hash={self.config_hash}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) if isinstance(v, (int, float, np.floating))
                                  else str(v) for v in row) + "\n")
        self.outputs.append(name)

    def vtk(self, name, mesh, point_data, cell_data=None):
        """Write the mesh and its data to the VTK artifact `name`."""
        write_vtk(os.path.join(self.out_dir, name), mesh, point_data, cell_data,
                  comment=f"config_hash={self.config_hash}")
        self.outputs.append(name)

    def write(self):
        path = os.path.join(self.out_dir, "manifest.json")
        data = {
            "config_hash": self.config_hash,
            "version": __version__,
            "stage_seconds": self.stages,
            "hypotheses": self.hypotheses,
            "outputs": self.outputs,
            "solve": self.solve,
            "error": self.error,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        return path


# -- subcommands -------------------------------------------------------------

def cmd_check_hypotheses(cfg, args, manifest):
    domain = build_domain(cfg)
    tf = build_phase(cfg, domain)
    samples = domain.sample_grid(64)
    reports = []
    with manifest.stage("check_hypotheses"):
        # the domain is planar: N = 2
        reports.append(check_h1(tf.exp, tf.w, 2, samples))
        sigma = _number(cfg.get("probe", {}).get("sigma", 1.0), "probe.sigma")
        reports.append(check_hprime(tf.exp, sigma, 2, samples))
        src = build_source(cfg)
        if src.constants:
            mesh = structured_mesh(domain, _mesh_n(cfg))
            lam_p, _ = first_eigenvalue(mesh, tf.exp.p_minus)
            lam_2, _ = first_eigenvalue(mesh, 2.0)
            reports.append(check_h2(src, lam_p))
            reports.append(check_h3(src, lam_2))
    print(f"{'hypothesis':<12}{'passed':<8}{'margin':<24}")
    ok = True
    for rep in reports:
        print(f"{rep.name:<12}{str(bool(rep.passed)):<8}{_fmt(rep.margin):<24}")
        manifest.hypotheses.append({"name": rep.name, "passed": bool(rep.passed),
                                    "margin": rep.margin})
        ok &= bool(rep.passed)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_solve(cfg, args, manifest):
    prob = build_problem(cfg)
    solver_cfg = cfg.get("solver", {})
    tol = _number(solver_cfg.get("tol", 1e-10), "solver.tol")
    if not (np.isfinite(tol) and tol > 0):
        raise ConfigError(f"solver.tol must be a positive finite number, got {tol}")
    max_iter = _number(solver_cfg.get("max_iter", 100), "solver.max_iter", int)
    with manifest.stage("solve"):
        if prob.source.grad_dependent:
            rep = solve_convection(prob, tol=tol, max_iter_outer=max_iter)
        else:
            rep = solve_variational(prob, tol=tol, max_iter=max_iter)
    manifest.solve = {"start": rep.start, "stop_reason": rep.stop_reason,
                      "factorizations": rep.factorizations,
                      "check_eps": rep.check_eps}
    manifest.vtk("solution.vtk", prob.mesh, {"u": rep.solution.nodal_values},
                 {"grad_u": rep.solution.gradients()})
    # a convection report's history holds its outer distances
    column = ("outer_distance_sup" if prob.source.grad_dependent
              else "residual_sup")
    manifest.csv("convergence.csv", ["iteration", column],
                 enumerate(rep.residual_history))
    wres = weak_residual_sup(prob, rep.solution)
    print(f"converged={rep.converged} iterations={rep.iterations} "
          f"weak_residual={_fmt(wres)}")
    return EXIT_OK if rep.converged else EXIT_FAIL


def cmd_eigen(cfg, args, manifest):
    m = _number(cfg.get("eigen_m", 2.0), "eigen_m")
    if m <= 1:
        raise ConfigError("eigen_m must exceed 1")
    k = _number(cfg.get("refinements", 0), "refinements", int)
    if k < 0:
        raise ConfigError(f"refinements must be >= 0, got {k}")
    domain = build_domain(cfg)
    mesh = structured_mesh(domain, _mesh_n(cfg))
    rows = []
    with manifest.stage("eigen"):
        for level in range(k + 1):
            mesh = refine(mesh) if level else mesh
            lam, ef = first_eigenvalue(mesh, m)
            rows.append((mesh.h_max, lam))
    for h, l in rows:
        print(f"h_max={_fmt(h)} lambda={_fmt(l)}")
    manifest.csv("eigenvalues.csv", ["h_max", "lambda"], rows)
    manifest.vtk("eigenfunction.vtk", mesh, {"eigenfunction": ef.nodal_values})
    return EXIT_OK


def cmd_verify_modular(cfg, args, manifest):
    domain = build_domain(cfg)
    tf = build_phase(cfg, domain)
    mesh = structured_mesh(domain, _mesh_n(cfg))
    quad = mesh.quadrature(_number(cfg.get("quad_degree", 5), "quad_degree", int))
    rng = np.random.default_rng(_number(cfg.get("seed", 0), "seed", int))
    with manifest.stage("verify_modular"):
        pts = domain.sample_grid(32)
        idx = rng.integers(0, len(pts), size=10000)
        ts = 10.0 ** rng.uniform(-6, 3, size=10000)
        ss = 10.0 ** rng.uniform(-6, 3, size=10000)
        checks = [check_delta2(tf, pts[idx], ts),
                  check_subadditivity(tf, pts[idx], ts, ss),
                  check_uniform_convexity(tf, 0.5, pts[idx], ts, ss)]
        for _ in range(20):
            u = FeFunction(mesh, rng.uniform(-2, 2, mesh.n_vertices))
            checks.append(check_norm_modular_relations(tf, u, quad))
            checks.append(check_seminorm_domination(tf, u, quad))
    rows, ok = [], True
    for c in checks:
        rows.append((c.name, str(bool(c.passed)), c.min_slack))
        ok &= bool(c.passed)
    manifest.csv("modular_checks.csv", ["check", "passed", "min_slack"], rows)
    for name, passed, slack in rows:
        print(f"{name:<24}{passed:<8}{_fmt(slack)}")
    return EXIT_OK if ok else EXIT_FAIL


def _ball_family(cfg):
    """probe.ball_pairs, [{center: [x, y], r1, r2}, ...], or 20 pairs."""
    # default: 20 concentric pairs on a grid of interior centers
    centers = [(x, y) for x in (0.3, 0.5, 0.7) for y in (0.3, 0.5, 0.7)]
    spec = [(c, (0.1, 0.2)) for c in centers]
    spec += [(c, (0.05, 0.15)) for c in centers]
    spec += [((0.5, 0.5), (0.15, 0.25)), ((0.4, 0.4), (0.12, 0.22))]
    try:
        if "ball_pairs" in cfg.get("probe", {}):
            spec = [(p["center"], [_number(p[r], r) for r in ("r1", "r2")])
                    for p in cfg["probe"]["ball_pairs"]]
        balls = tuple(Ball(center, r) for center, radii in spec for r in radii)
        return BallFamily(balls, tuple((k, k + 1) for k in range(0, len(balls), 2)))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"probe.ball_pairs: {type(exc).__name__}: {exc}") from exc


def cmd_probe(cfg, args, manifest):
    which = args.which
    prob = build_problem(cfg)
    fp, mesh = prob.fp, prob.mesh
    probe_cfg = cfg.get("probe", {})
    with manifest.stage(f"probe_{which}"):
        fam = _ball_family(cfg)
        u = minimize_dirichlet(fp, mesh, prob.dirichlet)
        rows = []
        if which == "caccioppoli":
            for i, j in fam.pairing:
                b1, b2 = fam.balls[i], fam.balls[j]
                r = caccioppoli_ratio(fp, u, (b1, b2))
                rows.append(("caccioppoli", b1.center[0], b1.center[1],
                             b1.radius, b2.radius, 0.0, r))
        elif which == "sobolev-poincare":
            delta = _number(probe_cfg.get("delta", 0.75), "probe.delta")
            for i, _j in fam.pairing:
                b = fam.balls[i]
                r = sobolev_poincare_ratio(fp, u, b, delta)
                rows.append(("sobolev_poincare", b.center[0], b.center[1],
                             b.radius, b.radius, delta, r))
        elif which == "higher-integrability":
            m_grid = [_number(v, "probe.m_grid")
                      for v in probe_cfg.get("m_grid", (0.05, 0.1, 0.2, 0.4))]
            rep = higher_integrability_probe(
                fp, u, fam, m_grid, stability_factor=_number(
                    probe_cfg.get("stability_factor", 10.0), "probe.stability_factor"))
            print(f"largest_stable_m={rep.parameters['largest_stable_m']}")
            for (i, j), m, r in rep.per_ball:
                b1, b2 = fam.balls[i], fam.balls[j]
                rows.append(("higher_integrability", b1.center[0], b1.center[1],
                             b1.radius, b2.radius, m, r))
        elif which == "poincare-w0":
            rng = np.random.default_rng(_number(cfg.get("seed", 0), "seed", int))
            for k in range(POINCARE_TESTS):
                vals = np.where(mesh.boundary_flags, 0.0,
                                rng.uniform(-1, 1, mesh.n_vertices))
                r = poincare_w0_ratio(fp, FeFunction(mesh, vals))
                rows.append(("poincare_w0", 0.0, 0.0, 0.0, 0.0, float(k), r))
        else:
            raise ConfigError(f"unknown probe {which!r}")
    manifest.csv(f"probe_{which}.csv", ["inequality", "center_x", "center_y",
                                        "R1", "R2", "param", "ratio"], rows)
    finite = [row[-1] for row in rows if np.isfinite(row[-1])]
    bad = len(rows) - len(finite)
    const = max(finite) if finite else 0.0
    print(f"probe={which} ratios={len(rows)} infinite={bad} "
          f"empirical_constant={_fmt(const)}")
    if not rows:
        print(f"probe={which} produced no ratios", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK if bad == 0 else EXIT_FAIL


def main(argv=None):
    parser = argparse.ArgumentParser(prog="multiphase")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check-hypotheses", "solve", "eigen", "verify-modular"):
        sub.add_parser(name)
    probe = sub.add_parser("probe")
    probe.add_argument("which", choices=["caccioppoli", "sobolev-poincare",
                                         "higher-integrability", "poincare-w0"])
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    level = os.environ.get("MULTIPHASE_LOG", "warn").upper()
    logging.basicConfig(level=getattr(logging, level if level != "WARN" else "WARNING",
                                      logging.WARNING))
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        manifest = Manifest(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    handlers = {
        "check-hypotheses": cmd_check_hypotheses,
        "solve": cmd_solve,
        "eigen": cmd_eigen,
        "verify-modular": cmd_verify_modular,
        "probe": cmd_probe,
    }
    # a failed command still writes its manifest, with the error and the
    # stages timed before it
    try:
        code = handlers[args.command](cfg, args, manifest)
    except (ConfigError, ExpressionError) as exc:
        manifest.error, code = f"config error: {exc}", EXIT_USAGE
        print(manifest.error, file=sys.stderr)
    except Exception as exc:
        log.exception("command failed")
        manifest.error, code = f"{type(exc).__name__}: {exc}", EXIT_FAIL
        print(f"error: {manifest.error}", file=sys.stderr)
    manifest.write()
    return code


if __name__ == "__main__":
    sys.exit(main())
