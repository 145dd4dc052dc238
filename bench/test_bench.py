"""Tests of the benchmark's own code.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import multiphase  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def _span(id, parent, name, start, end):
    return Span(id, parent, name, start, end)


def test_self_time_subtracts_children_once():
    spans = [_span(0, -1, "root", 0.0, 10.0),
             _span(1, 0, "a", 1.0, 4.0),
             _span(2, 1, "a.inner", 2.0, 3.0),
             _span(3, 0, "b", 5.0, 9.0)]
    st = tracing.self_times(spans)
    assert st == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})


def test_self_time_merges_overlapping_and_clips_children():
    spans = [_span(0, -1, "root", 0.0, 10.0),
             _span(1, 0, "a", 1.0, 5.0),
             _span(2, 0, "b", 3.0, 6.0),      # overlaps a
             _span(3, 0, "c", 8.0, 12.0)]     # runs past the parent
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_records_nesting_with_a_fixed_clock():
    ticks = iter(range(100))
    tr = Tracer("t", clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def middle():
        return tr.call("leaf", leaf) + tr.call("leaf", leaf)

    assert tr.call("root", tr.wrap("middle", middle)) == 2
    names = [(s.name, s.parent, s.start, s.end) for s in tr.spans]
    assert names == [("root", -1, 0.0, 7.0), ("middle", 0, 1.0, 6.0),
                     ("leaf", 1, 2.0, 3.0), ("leaf", 1, 4.0, 5.0)]
    st = tracing.self_times(tr.spans)
    assert st == {0: 2.0, 1: 3.0, 2: 1.0, 3: 1.0}
    metrics = tracing.layer_metrics(tracing.subtree(tr.spans, 0))
    assert metrics["leaf_calls"] == 2 and metrics["middle_s"] == 3.0


def test_errors_are_counted_per_layer_and_reraised():
    tr = Tracer("t")

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tr.call("root", tr.wrap("solver.thing", boom))
    metrics = tracing.layer_metrics(tracing.subtree(tr.spans, 0))
    assert metrics["solver.errors"] == 1 and metrics["mesh.errors"] == 0


def test_line_search_counts_from_span_order():
    seq = ["operator.residual", "operator.energy", "operator.jacobian",
           "solver.linear_solve", "operator.energy", "operator.energy",
           "operator.energy", "operator.residual",        # 2 trials, 1 step
           "operator.jacobian", "solver.linear_solve", "operator.energy",
           "operator.energy", "operator.residual",        # 1 trial, 1 step
           "operator.jacobian", "solver.linear_solve",    # polish: no search
           "operator.residual"]
    spans = [_span(0, -1, "solver.newton", 0.0, 100.0)]
    spans += [_span(i + 1, 0, n, i, i + 0.5) for i, n in enumerate(seq)]
    assert tracing.line_search_counts(spans) == (2, 3)
    assert tracing.layer_metrics(spans)["solver.merit_evals"] == 6


def test_install_and_uninstall_restore_the_library():
    solver = sys.modules["multiphase.solver"]
    originals = (multiphase.ScalarField.__call__, solver.spla,
                 multiphase.solve_convection, solver._newton)
    tr = Tracer("t")
    tr.install()
    try:
        assert multiphase.solve_convection is not originals[2]
        assert solver.spla is not originals[1]
    finally:
        tr.uninstall()
    assert (multiphase.ScalarField.__call__, solver.spla,
            multiphase.solve_convection, solver._newton) == originals


def test_forced_check_failure_is_counted_not_raised(monkeypatch, tmp_path):
    wl = workloads.WORKLOADS["convection-multistart"]
    inputs = wl.setup(0, str(tmp_path))
    monkeypatch.setattr(workloads.mp, "weak_residual_sup", lambda prob, u: 0.0)
    calls = []

    def second_start_stalls(prob, tol, initial):
        calls.append(None)
        return SimpleNamespace(converged=len(calls) % 4 != 2,
                               solution=SimpleNamespace(nodal_values=np.ones(3)))

    monkeypatch.setattr(workloads.mp, "solve_convection", second_start_stalls)
    tally = run.Tally()
    tally.add(wl.check(inputs, run.run_rep(wl, inputs)))
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.failures[0].name == "start[1]"

    def raises(prob, tol, initial):
        raise RuntimeError("no convergence")

    monkeypatch.setattr(workloads.mp, "solve_convection", raises)
    tally.add(wl.check(inputs, run.run_rep(wl, inputs)))
    assert (tally.attempted, tally.failed) == (8, 5)
    assert "no convergence" in tally.failures[-1].detail

    monkeypatch.setattr(workloads.mp, "solve_convection",
                        lambda prob, tol, initial: SimpleNamespace(
                            converged=True, solution=SimpleNamespace(
                                nodal_values=np.full(3, initial[0]))))
    inputs.starts[0][0] = 1.0       # start 0 ends apart from the other three
    tally.add(wl.check(inputs, run.run_rep(wl, inputs)))
    assert (tally.attempted, tally.failed) == (12, 9)
    assert tally.ok_frac == pytest.approx(3 / 12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(1, str(tmp_path))
    ops = wl.check(inputs, run.run_rep(wl, inputs))
    assert ops and all(op.ok for op in ops), [op for op in ops if not op.ok]


def test_traced_counts_repeat(tmp_path):
    wl = workloads.WORKLOADS["probe-regularity"]
    inputs = wl.setup(5, str(tmp_path))
    tr = Tracer("t")
    tally = run.Tally()
    for _ in range(2):
        tally.add(wl.check(inputs, run.run_rep(wl, inputs, tracer=tr)))
    a, b = (tracing.layer_metrics(tracing.subtree(tr.spans, s.id))
            for s in tr.spans if s.name == "bench.rep")
    counts = [k for k in a if not k.endswith("_s")]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["regularity.caccioppoli_calls"] == 20
    assert a["mesh.ball_quadrature_calls"] > 0 and tally.failed == 0


def test_command_prints_every_per_layer_metric(tmp_path):
    spec = run.metric_spec()
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe-regularity",
         "--seed", "2", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(spec["per_layer"])


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe-regularity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
