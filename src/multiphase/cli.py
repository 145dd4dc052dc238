"""Experiment runner: JSON configs in, CSV/VTK artifacts and a manifest out.

Exit codes: 0 success, 1 numeric/experiment failure, 2 usage/parse failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from types import SimpleNamespace

try:
    import resource
except ImportError:             # not on every platform
    resource = None

import numpy as np

from . import __version__
from .fields import (Domain2D, ExponentTriple, ScalarField, UNIT_SQUARE,
                     WeightPair, check_h1, check_hprime)
from .mesh import (Ball, FeFunction, _check_in_mesh, refine, structured_mesh,
                   write_vtk)
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


# -- the config schema -------------------------------------------------------

_NOUNS = {"int": "an integer", "number": "a number", "pair": "a pair",
          "numbers": "a non-empty list of numbers"}
# each range as its error message words it after "must", and its test
_RANGES = {
    "be >= 0": lambda v: v >= 0,
    "be >= 1": lambda v: v >= 1,
    "be a finite number": np.isfinite,
    "be a nonnegative finite number": lambda v: 0 <= v < np.inf,
    "be a positive finite number": lambda v: 0 < v < np.inf,
    "exceed 1 and be finite": lambda v: 1 < v < np.inf,
    "lie in (0, 1)": lambda v: 0 < v < 1,
    "lie in (0, 1]": lambda v: 0 < v <= 1,
}


def _at_most(hi):
    """The range of the numbers up to hi, its test added to _RANGES."""
    range_ = f"not exceed {hi}"
    _RANGES[range_] = lambda v: v <= hi
    return range_


# the largest side n of a grid whose n**2 entries the mesh's int32 index
# arrays can number (46,340), which bounds mesh_n, sample_grid and
# mesh_n * 2**refinements; 2**15 is the largest power of 2 within it
_MAX_SIDE = math.isqrt(np.iinfo(np.int32).max)
_MAX_LEVELS = _MAX_SIDE.bit_length() - 1
_CENTERS = [(x, y) for x in (0.3, 0.5, 0.7) for y in (0.3, 0.5, 0.7)]
# every key a config may hold, dotted below its section: (kind, default, or
# None for none, range of the numbers in it, or a tuple of ranges); a spec is
# checked by what it builds
_SCHEMA = {
    "domain": ("spec", "unit_square", None),
    **{k: ("spec", {"const": 2.0}, None) for k in ("p", "q", "r")},
    **{k: ("spec", {"const": 0.0}, None) for k in ("mu1", "mu2", "dirichlet")},
    "sample_grid": ("int", 128, ("be >= 0", _at_most(_MAX_SIDE))),
    "mesh_n": ("int", 16, ("be >= 1", _at_most(_MAX_SIDE))),
    "refinements": ("int", 0, ("be >= 0", _at_most(_MAX_LEVELS))),
    "seed": ("int", 0, "be >= 0"),
    "quad_degree": ("int", 5, "be >= 0"),
    "eigen_m": ("number", 2.0, "exceed 1 and be finite"),
    **{f"source.{k}": ("spec", None, None) for k in ("expr", "const", "affine")},
    "source.grad_coeff": ("pair", (0.0, 0.0), "be a finite number"),
    "source.state_coeff": ("number", 0.0, "be a finite number"),
    # growth constants: check_h2 reads k3 and k4, check_h3 reads k5 and k6
    **{f"source.{k}": ("number", None, "be a nonnegative finite number")
       for k in ("k3", "k4", "k5", "k6")},
    "solver.tol": ("number", 1e-10, "be a positive finite number"),
    "solver.max_iter": ("int", 100, "be >= 1"),
    "solver.eps": ("number", 1e-8, "be a nonnegative finite number"),
    "probe.sigma": ("number", 1.0, "lie in (0, 1]"),
    "probe.delta": ("number", 0.75, "lie in (0, 1)"),
    "probe.m_grid": ("numbers", (0.05, 0.1, 0.2, 0.4), "lie in (0, 1)"),
    "probe.stability_factor": ("number", 10.0, "be a positive finite number"),
    # 20 concentric pairs, 18 of them on a grid of interior centres
    "probe.ball_pairs": ("spec", [
        {"center": c, "r1": r1, "r2": r2}
        for r1, r2, centers in ((0.1, 0.2, _CENTERS), (0.05, 0.15, _CENTERS),
                                (0.15, 0.25, [(0.5, 0.5)]), (0.12, 0.22, [(0.4, 0.4)]))
        for c in centers], None),
}


def _checked(key, value, kind, range_):
    """value as the int or float that kind names, within range_ (or within
    each of a tuple of ranges, the first one it breaks named); integers
    take integral numbers, and neither kind takes a bool or a string."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or kind == "int" and not (isinstance(value, int) or value.is_integer())):
        raise ConfigError(f"{key} must be {_NOUNS[kind]}, got {value!r}")
    ranges = (range_,) if isinstance(range_, str) else range_
    try:
        value = int(value) if kind == "int" else float(value)
        broken = [r for r in ranges if not _RANGES[r](value)]
    except OverflowError:       # an integer beyond the floats
        broken = ranges
    if broken:
        digits = len(str(abs(value))) if isinstance(value, int) else 0
        raise ConfigError(f"{key} must {broken[0]}, got " + (
            f"an integer of {digits} digits" if digits > 20 else repr(value)))
    return value


def _value(cfg, key):
    """The value of the dotted config key, checked as its _SCHEMA entry
    says, or the entry's default when the key is absent."""
    kind, default, range_ = _SCHEMA[key]
    section, _, name = key.rpartition(".")
    given = cfg.get(section, {}) if section else cfg
    if name not in given or kind == "spec":
        return given.get(name, default)
    value = given[name]
    if kind in ("int", "number"):
        return _checked(key, value, kind, range_)
    if isinstance(value, list) and (len(value) == 2 if kind == "pair" else value):
        return [_checked(key, v, "number", range_) for v in value]
    raise ConfigError(f"{key} must be {_NOUNS[kind]}, got {value!r}")


@contextmanager
def _keyed(key):
    """Raise a TypeError or ValueError of the block, a violated hypothesis
    or a malformed expression among them, as a ConfigError naming key."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:   # an integer of more digits than Python reads
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    sections = {k.split(".")[0] for k in _SCHEMA if "." in k}
    for where in ("config root", *sorted(sections & raw.keys())):
        given = raw if where == "config root" else raw[where]
        if not isinstance(given, dict):
            raise ConfigError(f"{where} must be a JSON object, got {given!r}")
        prefix = "" if given is raw else f"{where}."
        unknown = set(given) - {k[len(prefix):].split(".")[0] for k in _SCHEMA
                                if k.startswith(prefix)}
        if unknown:
            raise ConfigError(f"unknown config key(s) in {where}: {sorted(unknown)}")
    return raw


def _field(cfg, key):
    """The ScalarField of the spec under key."""
    spec = _value(cfg, key)
    with _keyed(key):
        return ScalarField.from_spec(spec)


def build_domain(cfg):
    spec = _value(cfg, "domain")
    if spec == "unit_square":
        return UNIT_SQUARE
    if isinstance(spec, dict) and "polygon" in spec:
        with _keyed("domain"):
            return Domain2D(tuple(map(tuple, spec["polygon"])))
    raise ConfigError(f"bad domain spec {spec!r}")


def build_phase(cfg, domain):
    n = _value(cfg, "sample_grid")
    p, q, r, mu1, mu2 = (_field(cfg, k) for k in ("p", "q", "r", "mu1", "mu2"))
    with _keyed("p, q, r"):
        exp = ExponentTriple.sample(p, q, r, domain, n=n)
    with _keyed("mu1, mu2"):
        return PhaseFunction(exp, WeightPair.sample(mu1, mu2, domain, n=n))


def build_source(cfg):
    if "source" not in cfg:
        return SourceTerm.zero()
    src = cfg["source"]
    constants = {k: _value(cfg, f"source.{k}")
                 for k in ("k3", "k4", "k5", "k6") if k in src}
    kinds = [k for k in ("expr", "const", "affine") if k in src]
    if len(kinds) > 1:
        raise ConfigError(f"source takes one of expr, const and affine, got {kinds}")
    with _keyed("source"):
        base = (ScalarField.from_spec({kinds[0]: src[kinds[0]]}) if kinds
                else ScalarField.constant(0.0))
    gc, sc = _value(cfg, "source.grad_coeff"), _value(cfg, "source.state_coeff")

    def evaluate(x1, x2, t, z1, z2):
        return base(x1, x2) + sc * t + gc[0] * z1 + gc[1] * z2

    return SourceTerm(evaluate, grad_dependent=any(c != 0.0 for c in (*gc, sc)),
                      constants=constants)


def _ball_family(cfg):
    """The concentric pairs of probe.ball_pairs, [{center: [x, y], r1, r2}, ...]."""
    try:
        pairs = _value(cfg, "probe.ball_pairs")
        for pair in pairs:
            if not isinstance(pair, dict):
                raise TypeError(f"a ball pair must be an object, got {pair!r}")
            if unknown := set(pair) - {"center", "r1", "r2"}:
                raise ValueError(f"unknown key(s) in a ball pair: {sorted(unknown)}")
        balls = tuple(Ball(pair["center"], _checked(r, pair[r], "number",
                                                    "be a finite number"))
                      for pair in pairs for r in ("r1", "r2"))
        return BallFamily(balls, tuple((k, k + 1) for k in range(0, len(balls), 2)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"probe.ball_pairs: {type(exc).__name__}: {exc}") from exc


def _setup(cfg):
    """Check every key of cfg and build, once before its command runs, the
    domain, fp (the FluxParams of the phase), source, dirichlet field and
    ball family it implies; a value that breaks a hypothesis of the paper
    is a ConfigError naming its key."""
    for key in _SCHEMA:
        _value(cfg, key)
    n, levels = _value(cfg, "mesh_n"), _value(cfg, "refinements")
    if n << levels > _MAX_SIDE:
        raise ConfigError(f"refinements: mesh_n * 2**refinements must not exceed "
                          f"{_MAX_SIDE}, got {n} * 2**{levels}")
    domain = build_domain(cfg)
    tf = build_phase(cfg, domain)
    with _keyed("solver.eps"):
        fp = FluxParams(tf, eps=_value(cfg, "solver.eps"))
    return SimpleNamespace(domain=domain, fp=fp, source=build_source(cfg),
                           dirichlet=_field(cfg, "dirichlet"), family=_ball_family(cfg))


def build_problem(cfg, setup):
    mesh = structured_mesh(setup.domain, _value(cfg, "mesh_n"))
    with _keyed("dirichlet"):
        return PhaseProblem(mesh, setup.fp, setup.source,
                            setup.dirichlet.at(mesh.vertices))


# -- output helpers ----------------------------------------------------------

def _fmt(v):
    return f"{float(v):.17g}"


def _peak_rss_mb():
    """This process's peak resident set so far in MB, None without the
    resource module.  ru_maxrss counts KiB on Linux and bytes on macOS."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


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
            "peak_rss_mb": _peak_rss_mb(),
        }
        with open(path, "w", encoding="utf-8") as fh:   # vars: each StepRecord
            json.dump(data, fh, indent=2, sort_keys=True, default=vars)
        return path


# -- subcommands -------------------------------------------------------------

def cmd_check_hypotheses(cfg, setup, args, manifest):
    tf, src = setup.fp.tf, setup.source
    samples = setup.domain.sample_grid(64)
    reports = []
    with manifest.stage("check_hypotheses"):
        # the domain is planar: N = 2
        reports.append(check_h1(tf.exp, tf.w, 2, samples))
        reports.append(check_hprime(tf.exp, _value(cfg, "probe.sigma"), 2, samples))
        if src.constants:
            mesh = structured_mesh(setup.domain, _value(cfg, "mesh_n"))
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


def cmd_solve(cfg, setup, args, manifest):
    prob = build_problem(cfg, setup)
    tol, max_iter = _value(cfg, "solver.tol"), _value(cfg, "solver.max_iter")
    with manifest.stage("solve"):
        if prob.source.grad_dependent:
            rep = solve_convection(prob, tol=tol, max_iter_outer=max_iter)
        else:
            rep = solve_variational(prob, tol=tol, max_iter=max_iter)
    manifest.solve = {"start": rep.start, "stop_reason": rep.stop_reason,
                      "factorizations": rep.factorizations,
                      "check_eps": rep.check_eps, "trace": rep.trace}
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


def cmd_eigen(cfg, setup, args, manifest):
    m = _value(cfg, "eigen_m")
    mesh = structured_mesh(setup.domain, _value(cfg, "mesh_n"))
    rows = []
    with manifest.stage("eigen"):
        for level in range(_value(cfg, "refinements") + 1):
            mesh = refine(mesh) if level else mesh
            lam, ef = first_eigenvalue(mesh, m)
            rows.append((mesh.h_max, lam))
    for h, l in rows:
        print(f"h_max={_fmt(h)} lambda={_fmt(l)}")
    manifest.csv("eigenvalues.csv", ["h_max", "lambda"], rows)
    manifest.vtk("eigenfunction.vtk", mesh, {"eigenfunction": ef.nodal_values})
    return EXIT_OK


def cmd_verify_modular(cfg, setup, args, manifest):
    tf = setup.fp.tf
    mesh = structured_mesh(setup.domain, _value(cfg, "mesh_n"))
    with _keyed("quad_degree"):
        quad = mesh.quadrature(_value(cfg, "quad_degree"))
    rng = np.random.default_rng(_value(cfg, "seed"))
    with manifest.stage("verify_modular"):
        pts = setup.domain.sample_grid(32)
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


def cmd_probe(cfg, setup, args, manifest):
    which = args.which
    prob = build_problem(cfg, setup)
    fp, mesh, fam = prob.fp, prob.mesh, setup.family
    # a ball that escapes the mesh is a config error, found before the solve:
    # sobolev-poincare integrates over inner balls, the other ball probes over
    # outer ones too, and an outer ball escapes whenever its inner one does
    largest = 0 if which == "sobolev-poincare" else 1
    with _keyed("probe.ball_pairs"):
        for pair in fam.pairing if which != "poincare-w0" else ():
            _check_in_mesh(mesh, fam.balls[pair[largest]])
    with manifest.stage(f"probe_{which}"):
        u = minimize_dirichlet(fp, mesh, prob.dirichlet)
        rows = []
        if which == "caccioppoli":
            for i, j in fam.pairing:
                b1, b2 = fam.balls[i], fam.balls[j]
                r = caccioppoli_ratio(fp, u, (b1, b2))
                rows.append(("caccioppoli", b1.center[0], b1.center[1],
                             b1.radius, b2.radius, 0.0, r))
        elif which == "sobolev-poincare":
            delta = _value(cfg, "probe.delta")
            for i, _j in fam.pairing:
                b = fam.balls[i]
                r = sobolev_poincare_ratio(fp, u, b, delta)
                rows.append(("sobolev_poincare", b.center[0], b.center[1],
                             b.radius, b.radius, delta, r))
        elif which == "higher-integrability":
            rep = higher_integrability_probe(
                fp, u, fam, _value(cfg, "probe.m_grid"),
                stability_factor=_value(cfg, "probe.stability_factor"))
            print(f"largest_stable_m={rep.parameters['largest_stable_m']}")
            for (i, j), m, r in rep.per_ball:
                b1, b2 = fam.balls[i], fam.balls[j]
                rows.append(("higher_integrability", b1.center[0], b1.center[1],
                             b1.radius, b2.radius, m, r))
        elif which == "poincare-w0":
            rng = np.random.default_rng(_value(cfg, "seed"))
            for k in range(POINCARE_TESTS):
                vals = np.where(mesh.boundary_flags, 0.0,
                                rng.uniform(-1, 1, mesh.n_vertices))
                r = poincare_w0_ratio(fp, FeFunction(mesh, vals))
                rows.append(("poincare_w0", 0.0, 0.0, 0.0, 0.0, float(k), r))
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
        manifest = Manifest(args.config, args.out)
    except OSError as exc:
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
    # stages timed before it; every config error comes before the first stage
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        code = handlers[args.command](cfg, _setup(cfg), args, manifest)
    except ConfigError as exc:
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
