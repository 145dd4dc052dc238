"""Benchmark of the multiphase solver stack.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  One run is one fresh process with BLAS/OpenMP threads
capped at 1 before numpy loads.  It

1. times ``import multiphase`` in this process and in four fresh child
   processes, and builds the workload's inputs three times (set-up);
2. repeats the workload's timed calls while another repetition still fits
   in ``--seconds`` (at least one), checking every result;
3. scales every measured time to a reference machine speed with a fixed
   probe kernel timed between phases and between a workload's long calls
   (see ``SpeedProbe`` and ``Clock``);
4. prints a machine record, a summary, and as its last line one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the per-layer ones, taken from repetitions that alternate
untraced and traced, and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_CHILDREN = 4
SETUP_BUILDS = 3
PROBE_REF_S = 0.11

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import multiphase; "
                 "print(time.perf_counter() - t)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_spec():
    """{end_to_end or per_layer: {metric name: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {k: {m["name"]: m["unit"] for m in spec[k]}
            for k in ("end_to_end", "per_layer")}


def import_library():
    """Import multiphase from this checkout's src/ and return the seconds
    the import took; fails if the checkout has no library."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import multiphase
    seconds = time.perf_counter() - t0
    if Path(multiphase.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"multiphase imported from {multiphase.__file__}, "
                          f"not from {SRC}")
    return seconds


def child_import_seconds():
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def machine_record():
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "caches": caches,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS}}


class Tally:
    """Attempted and failed operations over every repetition of a run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, ops):
        self.attempted += len(ops)
        self.failures += [op for op in ops if not op.ok]

    @property
    def failed(self):
        return len(self.failures)

    @property
    def ok_frac(self):
        return (self.attempted - self.failed) / self.attempted


def measure_setup(workload, seed, workdir, tracer=None):
    """Time IMPORT_CHILDREN fresh-process imports and SETUP_BUILDS input
    builds (traced under "bench.setup" roots when a tracer is given).
    Returns (import seconds, last inputs, build seconds)."""
    children = [child_import_seconds() for _ in range(IMPORT_CHILDREN)]
    inputs, times = None, []
    if tracer is not None:
        tracer.install()
    try:
        for _ in range(SETUP_BUILDS):
            inputs = None
            t0 = time.perf_counter()
            if tracer is None:
                inputs = workload.setup(seed, workdir)
            else:
                inputs = tracer.call("bench.setup", workload.setup, seed, workdir)
            times.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return children, inputs, times


def run_rep(workload, inputs, mark=lambda: None, tracer=None):
    """The workload's timed calls, traced under a "bench.rep" root when a
    tracer is given; mark is called between long calls."""
    if tracer is None:
        return workload.run(inputs, mark)
    tracer.install()
    try:
        return tracer.call("bench.rep", workload.run, inputs, mark)
    finally:
        tracer.uninstall()


def repeat(seconds, step):
    """Call step() (which returns its duration) while another call still
    fits in `seconds`, at least once."""
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        longest = max(longest, step())
        if time.perf_counter() - t0 + longest > seconds:
            return


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _summary(name, values, unit):
    q1, q3 = quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}) "
            f"[{', '.join(f'{v:.4g}' for v in values)}]")


class SpeedProbe:
    """A fixed kernel that uses no multiphase code: numpy powers, a sparse
    LU solve and an interpreter loop in about equal shares, like the
    workloads' own mix.

    On a virtual machine that shares its host, speed drifts by tens of
    percent over tens of seconds.  Timing the probe next to each measured
    stretch and scaling its wall seconds by PROBE_REF_S / probe seconds
    removes most of that drift: the result is seconds at the reference
    probe speed.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        n = 100
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self._a = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsc()
        self._b = np.ones(n * n)
        self._x = np.linspace(0.1, 2.0, 100_000)
        self._np, self._splu = np, spla.splu

    def seconds(self):
        t0 = time.perf_counter()
        for _ in range(30):
            self._x ** 2.7 + self._np.sqrt(self._x) * self._x ** 1.3
        self._splu(self._a).solve(self._b)
        acc = 0
        for i in range(300_000):
            acc += i * i
        return time.perf_counter() - t0


class Clock:
    """Measures phases in probe-scaled seconds.

    The probe is timed before the first phase and at every mark.  A phase
    may call mark() between its long calls; each stretch between marks is
    scaled by the probes at its two ends, and the probe's own time is left
    out of the phase's seconds.
    """

    def __init__(self, probe):
        self.probe = probe
        self.last = probe.seconds()
        self._t0 = None
        self._wall = self._scaled = 0.0

    def mark(self):
        stretch = time.perf_counter() - self._t0
        before, self.last = self.last, self.probe.seconds()
        self._wall += stretch
        self._scaled += stretch * PROBE_REF_S / ((before + self.last) / 2)
        self._t0 = time.perf_counter()

    def measure(self, fn, *args):
        """(result, wall seconds, scaled seconds) of fn(*args)."""
        self._wall = self._scaled = 0.0
        self._t0 = time.perf_counter()
        out = fn(*args)
        self.mark()
        return out, self._wall, self._scaled


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    spec = metric_spec()
    first_import = import_library()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    machine = machine_record()
    print("machine:", json.dumps(machine))
    clock = Clock(SpeedProbe())

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tally = Tally()
    tracer = tracing.Tracer(run_id) if args.trace else None
    plain, traced = [], []      # (wall, scaled) seconds per repetition

    def rep(tr=None):
        results, wall, scaled = clock.measure(run_rep, workload, inputs,
                                              clock.mark, tr)
        tally.add(workload.check(inputs, results))
        (plain if tr is None else traced).append((wall, scaled))
        return wall

    try:
        (children, inputs, build_times), wall, scaled = clock.measure(
            measure_setup, workload, args.seed, workdir, tracer)
        setup_factor = scaled / wall
        if tracer is None:
            repeat(args.seconds, rep)
        else:
            repeat(args.seconds, lambda: rep() + rep(tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import_samples = [first_import] + children
    import_s = statistics.median(import_samples) * setup_factor
    inputs_s = statistics.median(build_times) * setup_factor
    run_s = [sc for _, sc in plain]
    print(_summary("run_s", run_s, "s"))
    print(_summary("run_s unscaled", [w for w, _ in plain], "s"))
    print(_summary("speed factor", [sc / w for w, sc in plain], ""))
    print(_summary("setup.import_s unscaled", import_samples, "s"))
    print(_summary("setup.inputs_s unscaled", build_times, "s"))
    print(f"setup speed factor: {setup_factor:.4g}")
    for op in tally.failures:
        print(f"FAILED {op.name}: {op.detail}", file=sys.stderr)

    if tracer is None:
        values = {"run_s": statistics.median(run_s),
                  "setup_s": import_s + inputs_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "ok_frac": tally.ok_frac}
        wanted = spec["end_to_end"]
    else:
        traced_s = [sc for _, sc in traced]
        print(_summary("traced run_s", traced_s, "s"))
        values = per_layer_values(tracing, tracer, setup_factor,
                                  [sc / w for w, sc in traced])
        values["setup.import_s"] = import_s
        values["setup.inputs_s"] = inputs_s
        values["trace.overhead_frac"] = (statistics.median(traced_s)
                                         / statistics.median(run_s) - 1.0)
        wanted = spec["per_layer"]
        spans_path = OUT_DIR / f"spans-{run_id}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": run_id, "workload": args.workload,
                                 "seed": args.seed, "machine": machine,
                                 "reps": plain, "traced_reps": traced,
                                 "metrics": values}) + "\n")
            tracing.write_spans(tracer, fh)
        print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in wanted.items()}}))
    return 0


def per_layer_values(tracing, tracer, setup_factor, rep_factors):
    """Layer metrics of one set-up build plus the median traced repetition,
    with self times scaled by each phase's speed factor.

    Counts must repeat exactly across the traced repetitions; a mismatch is
    reported on stderr.
    """
    def scaled(root, factor):
        m = tracing.layer_metrics(tracing.subtree(tracer.spans, root.id))
        return {k: v * factor if k.endswith("_s") else v for k, v in m.items()}

    setup = scaled([s for s in tracer.spans if s.name == "bench.setup"][-1],
                   setup_factor)
    roots = [s for s in tracer.spans if s.name == "bench.rep"]
    reps = [scaled(root, f) for root, f in zip(roots, rep_factors)]
    for key in reps[0]:
        if not key.endswith("_s") and len({r[key] for r in reps}) > 1:
            print(f"WARNING count {key} differs across repetitions: "
                  f"{[r[key] for r in reps]}", file=sys.stderr)
    values = {}
    for key in reps[0]:
        rep_value = statistics.median(r[key] for r in reps)
        values[key] = rep_value if key in tracing.RATIOS else rep_value + setup[key]
    return values


if __name__ == "__main__":
    sys.exit(main())
