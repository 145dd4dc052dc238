"""Spans around the public entry points of each ``multiphase`` layer.

The tracer wraps library functions and methods from outside the library:
a wrapped call records one span (name, start, end, parent) in memory, plus
counts taken from its arguments or result.  ``install`` replaces every
reference to a wrapped object inside the ``multiphase`` modules and
``uninstall`` puts the originals back, so untraced runs execute the
unmodified library.  Self time of a span is its duration minus the part of
that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla


LAYERS = ("mesh", "fields", "modular", "operator", "solver", "regularity")
# Layer metrics that are ratios, not amounts that add up across phases.
RATIOS = frozenset({"solver.ls_accept_ratio"})


@dataclass(slots=True)
class Span:
    id: int
    parent: int          # -1 for a root span
    name: str
    start: float
    end: float = float("nan")
    attrs: dict | None = None
    error: bool = False


class Tracer:
    """In-memory span recorder; one tracer per benchmark run."""

    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans = []
        self._stack = []
        self._undo = []

    def _open(self, name):
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1,
                    name, self.clock())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def _run(self, name, fn, args, kwargs, attrs):
        span = self._open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, out)
        return out

    def call(self, name, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        return self._run(name, fn, args, kwargs, None)

    def wrap(self, name, fn, attrs=None):
        """fn traced: each call records a span, and attrs(args, kwargs,
        result) gives the counts stored with it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs, attrs)
        return traced

    # -- patching the library ----------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement):
        for name, mod in list(sys.modules.items()):
            if name != "multiphase" and not name.startswith("multiphase."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def install(self):
        """Wrap every target that exists in the loaded library."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, attrs in _TARGETS:
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original, attrs)
            if isinstance(owner, type):
                self._set(owner, attr, wrapped)
            else:
                self._replace_everywhere(original, wrapped)
        self._replace_everywhere(spla, _LinalgProxy(self))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _LinalgProxy:
    """scipy.sparse.linalg as the library sees it while traced: the sparse
    solves are wrapped, everything else passes through."""

    def __init__(self, tracer):
        self.spsolve = tracer.wrap("solver.linear_solve", spla.spsolve)
        self.cg = tracer.wrap("solver.linear_solve", spla.cg)

    def __getattr__(self, name):
        return getattr(spla, name)


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


# The package re-exports a function named `modular`, which hides the
# submodule attribute, so the modules are looked up by name.
_M, _F, _Mod, _O, _S, _R = (importlib.import_module(f"multiphase.{m}") for m in (
    "mesh", "fields", "modular", "operator", "solver", "regularity"))
_DISC = _O.PhaseDiscretization

# (owner, attribute, span name, attrs(args, kwargs, result) or None).
# Private solver helpers are wrapped when present; a later library without
# them reports zero for the counts they feed.
_TARGETS = (
    (_M, "structured_mesh", "mesh.structured_mesh", None),
    (_M, "ball_quadrature", "mesh.ball_quadrature",
     lambda a, k, out: {"points": len(out.weights)}),
    (_M.TriMesh, "locate", "mesh.locate",
     lambda a, k, out: {"points": len(out[0])}),
    (_M, "write_vtk", "mesh.write_vtk",
     lambda a, k, out: {"bytes": os.path.getsize(_path_arg(a, k))}),
    (_F.ScalarField, "__call__", "fields.eval",
     lambda a, k, out: {"points": int(np.size(out))}),
    (_Mod, "luxemburg_norm", "modular.luxemburg",
     lambda a, k, out: {"iterations": out.iterations}),
    (_Mod.SampledPhase, "__init__", "modular.sampled_phase", None),
    (_Mod.SampledPhase, "modular", "modular.modular_eval", None),
    (_DISC, "__init__", "operator.disc_build", None),
    (_DISC, "residual", "operator.residual", None),
    (_DISC, "jacobian", "operator.jacobian", None),
    (_DISC, "energy", "operator.energy", None),
    (_DISC, "load_vector", "operator.load_vector", None),
    (_S, "solve_variational", "solver.solve_variational", None),
    (_S, "solve_convection", "solver.solve_convection",
     lambda a, k, out: {"outer": out.iterations}),
    (_S, "weak_residual_sup", "solver.weak_residual", None),
    (_S, "_newton", "solver.newton",
     lambda a, k, out: {"iterations": out.iterations,
                        "eps_entries": len(out.eps_schedule)}),
    (_S, "_eps_schedule", "solver.eps_schedule",
     lambda a, k, out: {"stages": len(out)}),
    (_R, "minimize_dirichlet", "regularity.minimize", None),
    (_R, "caccioppoli_ratio", "regularity.caccioppoli", None),
    (_R, "higher_integrability_probe", "regularity.higher_integrability", None),
    (_R, "poincare_w0_ratio", "regularity.poincare_w0", None),
)

# Metric name -> (span name, attribute) summed over spans.
_ATTR_SUMS = {
    "mesh.ball_quadrature_points": ("mesh.ball_quadrature", "points"),
    "mesh.locate_points": ("mesh.locate", "points"),
    "mesh.write_vtk_bytes": ("mesh.write_vtk", "bytes"),
    "fields.eval_points": ("fields.eval", "points"),
    "modular.bisection_iters": ("modular.luxemburg", "iterations"),
    "solver.newton_steps": ("solver.newton", "iterations"),
    "solver.eps_stages": ("solver.eps_schedule", "stages"),
    "solver.outer_iters": ("solver.solve_convection", "outer"),
}

# Call counts reported under the name the metric table gives them.
_CALL_NAMES = {
    "modular.modular_evals": "modular.modular_eval",
    "modular.sampled_phase_builds": "modular.sampled_phase",
    "operator.disc_builds": "operator.disc_build",
    "solver.linear_solves": "solver.linear_solve",
}


def self_times(spans):
    """Self time of each span: duration minus the union of its children's
    intervals, clipped to the span.  Returns {span id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


def subtree(spans, root_id):
    """The spans below root_id (root excluded), in recording order."""
    inside, out = {root_id}, []
    for s in spans:
        if s.parent in inside:
            inside.add(s.id)
            out.append(s)
    return out


def line_search_counts(spans):
    """(accepted steps, trial evaluations) of the Newton line searches.

    Inside one solver span, a line search is the run of energy evaluations
    that directly follows a linear solve: the first evaluates the merit at
    the current state, each further one is a trial step, and the search
    ends by accepting one step.
    """
    by_parent = {}
    for s in spans:
        by_parent.setdefault(s.parent, []).append(s)
    accepted = trials = 0
    for kids in by_parent.values():
        run = None
        for s in kids:
            if s.name == "solver.linear_solve":
                run = 0
            elif s.name == "operator.energy" and run is not None:
                run += 1
            else:
                if run:
                    accepted += 1
                    trials += run - 1
                run = None
        if run:
            accepted += 1
            trials += run - 1
    return accepted, trials


def layer_metrics(spans):
    """Per-layer self times, call counts and derived counts of one traced
    phase (the spans below one root)."""
    selft = self_times(spans)
    names = ({n for _, _, n, _ in _TARGETS} | {s.name for s in spans}
             | {"solver.linear_solve"})
    m = {}
    for name in names:
        m[f"{name}_s"] = 0.0
        m[f"{name}_calls"] = 0
    for s in spans:
        m[f"{s.name}_s"] += selft[s.id]
        m[f"{s.name}_calls"] += 1
    for metric, (name, key) in _ATTR_SUMS.items():
        m[metric] = sum(s.attrs[key] for s in spans if s.name == name and s.attrs)
    for metric, name in _CALL_NAMES.items():
        m[metric] = m[f"{name}_calls"]
    eps_entries = sum(s.attrs["eps_entries"] for s in spans
                      if s.name == "solver.newton" and s.attrs)
    m["solver.eps_retries"] = max(eps_entries - m["solver.eps_stages"], 0)
    by_id = {s.id: s for s in spans}
    m["solver.merit_evals"] = sum(
        1 for s in spans if s.name == "operator.energy"
        and s.parent in by_id and by_id[s.parent].name.startswith("solver."))
    accepted, trials = line_search_counts(spans)
    m["solver.ls_accept_ratio"] = accepted / trials if trials else 0.0
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(1 for s in spans
                                   if s.error and s.name.startswith(layer + "."))
    return m


def write_spans(tracer, fh):
    """Write the recorded spans to an open text file, one JSON line each."""
    for s in tracer.spans:
        fh.write(json.dumps({"run": tracer.run_id, "id": s.id,
                             "parent": s.parent, "name": s.name,
                             "start": s.start, "end": s.end,
                             "attrs": s.attrs, "error": s.error}) + "\n")
