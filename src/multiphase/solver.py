"""Newton and fixed-point solvers for the discrete multi-phase Dirichlet
problem, plus the first Dirichlet eigenvalue of the m-Laplacian."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .fields import ExponentTriple, HypothesisReport, WeightPair
from .mesh import BAND_MAX, BandLayout, FeFunction
from .modular import PhaseFunction
from .operator import FluxParams, PhaseDiscretization

log = logging.getLogger("multiphase")
UNIQUENESS_SEED = 0xC0FFEE
# A held factor serves the next step only while each step cuts the residual
# sup-norm by at least this factor (Kelley 2003, the chord method).
CHORD_CONTRACTION = 0.1
# An inner solve of the convection fixed point stops once its residual
# sup-norm is at most this fraction of its starting one, or tol (the forcing
# term of Eisenstat-Walker 1996): the next outer load resets it anyway.
INNER_FORCING = 1e-2
# A fresh Newton step whose Armijo search needs a step length below T_MIN
# struggles, and sends the solve up the eps ladder while a rung is left.
T_MIN = 1.0 / 128


@dataclass
class SourceTerm:
    """Right-hand side f(x, t, z) with its declared growth constants.

    eval is vectorized: (x1, x2, t, z1, z2) -> array.  The growth
    constants are trusted as declared; nothing certifies the callback.
    """

    eval: object
    grad_dependent: bool = False
    constants: dict = field(default_factory=dict)

    def __call__(self, x1, x2, t, z1, z2):
        return np.asarray(self.eval(x1, x2, t, z1, z2), dtype=float)

    @staticmethod
    def of_x(fn, **constants):
        return SourceTerm(lambda x1, x2, t, z1, z2: fn(x1, x2),
                          grad_dependent=False, constants=constants)

    @staticmethod
    def zero():
        return SourceTerm.of_x(lambda x1, x2: np.zeros(np.shape(x1)))


@dataclass
class PhaseProblem:
    mesh: object
    fp: FluxParams
    source: SourceTerm
    dirichlet: np.ndarray      # full nodal array; only boundary entries used

    def __post_init__(self):
        self.dirichlet = np.asarray(self.dirichlet, dtype=float)
        if not np.all(np.isfinite(self.dirichlet)):
            raise ValueError("dirichlet values must be finite")


@dataclass(frozen=True)
class StepRecord:
    """One step of a solve, an entry of SolveReport.trace."""

    eps: float | None
    residual: float | None
    merit: float | None = None
    t: float | None = None
    kind: str | None = None
    factored: int = 0
    inner: tuple = field(default=(), repr=False)


@dataclass
class SolveReport:
    """What a solve did: one StepRecord per step in trace, from which the
    five summaries are read.

    _newton records each residual it reads: its eps and sup-norm, the merit
    at the final eps and check_eps, the length t of the step taken, the
    kind of step tried ("fresh", "chord", or None at a converged residual)
    and the matrices factored for it.  A Poisson start comes first, as kind
    "ray", and kind "end" last, with the residual at check_eps and the
    eps = 0 merit.  solve_convection records each outer step as kind
    "outer": the outer distance sup |u_k - u_(k-1)|, the inner solve's last
    merit, t = 1, its factorisations and its trace as inner.  eps_schedule
    lists the eps of each stage and eps retry, of the last inner solve for
    solve_convection."""

    solution: FeFunction = None
    trace: list = field(default_factory=list)
    converged: bool = False
    start: str = "lift"              # Newton's start: "initial" or "lift"
    stop_reason: str | None = None   # see _newton and solve_convection
    check_eps: float = 0.0           # eps of `converged` and the last residual

    iterations = property(lambda s: sum(r.t is not None for r in s.trace))
    factorizations = property(lambda s: sum(r.factored for r in s.trace))
    residual_history = property(lambda s: [r.residual for r in s.trace
                                           if r.merit is not None])
    energy_history = property(lambda s: [r.merit for r in s.trace
                                         if r.merit is not None])

    @property
    def eps_schedule(self):
        trace = (self.trace[-1].inner or self.trace) if self.trace else []
        run = [r.eps for r in trace if r.kind not in ("ray", "end")]
        return [e for k, e in enumerate(run) if not k or e != run[k - 1]]


def _factor(J, layout=None):
    """A solve function for the symmetric positive definite matrix J, with
    a factor that every right-hand side reuses.

    J is relabelled by reverse Cuthill-McKee (RCM), which keeps its nonzeros
    near the diagonal.  While the half-bandwidth b of the relabelled matrix
    is at most BAND_MAX, J is factored by LAPACK banded Cholesky (dpbtrf),
    whose (b + 1) x N band is filled from J's CSR data by one flat put.  A
    wider band takes more memory than the fill of a sparse LU, and its time
    gain shrinks, so above BAND_MAX the relabelled matrix goes to
    symmetric-mode SuperLU with a minimum-degree ordering on A^T + A.  The
    RCM order, b and the band positions are the BandLayout of J's structure:
    a caller that assembled J by a FreePattern passes the pattern's
    band_layout, computed once per pattern; without one, J's own layout is
    computed here.  A matrix that is not positive definite (banded path) or
    exactly singular (SuperLU) raises np.linalg.LinAlgError."""
    J = J.tocsr()
    if layout is None:
        if not J.has_canonical_format:      # duplicates would overwrite
            J = J.copy()                    # each other in the band
            J.sum_duplicates()
        layout = BandLayout.of(J.indptr, J.indices)
    perm, at, n = layout.perm, layout.at, len(layout.perm)
    if layout.band <= BAND_MAX:
        # LAPACK is imported here to keep `import multiphase` light
        from scipy.linalg.lapack import dpbtrf, dpbtrs

        ab = np.zeros((layout.band + 1, n), order="F")
        ab.ravel(order="F")[layout.pos] = J.data[layout.sel]
        chol, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"banded Cholesky: leading minor {info} is not positive")
        if info < 0:
            raise ValueError(f"dpbtrf: illegal argument {-info}")

        def solve(rhs):
            return dpbtrs(chol, rhs[perm], lower=1)[0][at]
        return solve
    # diagonal pivots and a minimum-degree ordering on A^T + A fill far less
    # than COLAMD; the ordering runs on the RCM relabelling because on some
    # vertex numberings (the refined centroid fan of a disk) it takes seconds
    try:
        lu = spla.splu(J[perm][:, perm].tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:          # SuperLU: factor is exactly singular
        raise np.linalg.LinAlgError(str(exc)) from exc

    def solve(rhs):
        return lu.solve(rhs[perm])[at]
    return solve


def _sup_norm(r):
    """max |r|, 0 for an empty r (a mesh without free nodes)."""
    return float(np.max(np.abs(r))) if len(r) else 0.0


def _linear_solve(A, rhs):
    """Solve A x = rhs, where A is a matrix or a solve function of _factor."""
    solve = A if callable(A) else _factor(A)
    return solve(np.asarray(rhs, dtype=float))


def _stiffness(mesh):
    """The unit-coefficient P1 stiffness matrix over the free nodes."""
    pattern = mesh.free_pattern
    return pattern.assemble(mesh.areas[:, None, None] * pattern.dots)


class _HeldFactor:
    """At most one factored Jacobian, kept for chord steps, and its eps;
    made counts the matrices factored since a StepRecord took the count."""

    solve = eps = None
    made = 0

    def release(self):
        self.solve, self.eps = None, None

    def refactor(self, disc, u, eps):
        """Release, count and factor disc's Jacobian at u and eps."""
        self.release()              # never two factors alive
        self.made += 1
        self.solve, self.eps = _factor(disc.jacobian(u, eps=eps),
                                       disc.mesh.free_pattern.band_layout), eps


def _eps_schedule(fp):
    """The eps ladder: decades from max(eps, 1e-2) down to eps."""
    if fp.eps == 0.0:
        return [0.0]
    sched, e = [], max(fp.eps, 1e-2)
    while e > fp.eps * 1.0000001:
        sched.append(e)
        e *= 0.1
    return sched + [fp.eps]


def _source_load(disc, source, u_vals):
    """Nodal load of f(x, u, grad u) for the P1 state u_vals."""
    qp = disc.qpoints
    shape = qp.shape[:2]
    tvals = FeFunction(disc.mesh, u_vals).at_quad(disc.mesh.quadrature()).reshape(shape)
    g = disc._gradients(u_vals)
    z1 = np.broadcast_to(g[:, 0:1], shape)
    z2 = np.broadcast_to(g[:, 1:2], shape)
    fvals = np.broadcast_to(source(qp[..., 0], qp[..., 1], tvals, z1, z2), shape)
    return disc.load_vector(fvals)


def solve_variational(prob, tol=1e-10, max_iter=100, initial=None):
    """Damped Newton minimization of energy(u) - <load, u>.

    Requires a gradient-independent source; f is evaluated at (t, z) =
    (0, 0), i.e. as a pure function of x.
    """
    if prob.source.grad_dependent:
        raise ValueError("solve_variational needs a gradient-independent source")
    _check_tol(tol)
    disc = PhaseDiscretization(prob.fp, prob.mesh)
    load = _source_load(disc, prob.source, np.zeros(prob.mesh.n_vertices))
    return _newton(disc, prob, load, tol, max_iter, initial)


def _check_tol(tol):
    """Raise unless tol is a positive finite number: no residual or change
    is at most a NaN tol, so an iteration given one never stops early."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def _ray_start(mesh, free, load, lift, merit):
    """The lowest-merit state found on the ray from the Dirichlet lift g
    along its Poisson correction w = K^-1 (load - K g), K the unit
    stiffness, and its merit: one linear (Kacanov-type) solve as the first
    step of Newton (Diening-Fornasier-Tomasi-Wank 2020).  From t = 1 the
    step length doubles while the merit of g + t w falls, else halves while
    it falls, within [T_MIN, 1 / T_MIN]; g itself is kept unless beaten."""
    G = mesh.grad_operator
    kg = G.T @ (np.repeat(mesh.areas, 2) * (G @ lift))
    w = _factor(_stiffness(mesh), mesh.free_pattern.band_layout)(
        load[free] - kg[free])

    def point(t):
        v = lift.copy()
        v[free] += t * w
        return v, merit(v)

    m_lift = merit(lift)
    t, (u, m) = 1.0, point(1.0)
    factor = 2.0 if m < m_lift else 0.5
    while T_MIN <= t * factor <= 1.0 / T_MIN:
        v, m_v = point(t * factor)
        if not m_v < m:
            break
        t, u, m = t * factor, v, m_v
    return (u, m) if m < m_lift else (lift, m_lift)


def _step(disc, merit, u, res, eps, m0, held, chord, t_min):
    """One damped Newton step from u at eps: (trial, its merit, step length),
    or None when a fresh step finds no Armijo descent down to t_min.

    res is u's residual at eps and m0() its merit, evaluated after the
    linear solve; merit(vals, eps) is a trial's.  A chord step solves with
    the factor in `held` and halves down to T_MIN; if its solve fails, or it
    does not pass or not descend, a fresh factor of the Jacobian at u redoes
    it.  A failed step releases its factor; a singular fresh factor or a
    non-finite step raises np.linalg.LinAlgError."""
    for fresh in ((False, True) if chord else (True,)):
        try:
            if fresh:
                held.refactor(disc, u, eps)
            step = _linear_solve(held.solve, -res)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError("non-finite step")
        except np.linalg.LinAlgError:
            held.release()
            if fresh:
                raise
            continue
        m, slope = m0(), float(res @ step)  # slope < 0: a descent direction
        # near convergence the Armijo decrease 1e-4 t slope falls below
        # the rounding error of the merit, which then cannot reject a step
        noise = 1e-13 * abs(m)
        t, trial = 1.0, u.copy()
        while t >= (t_min if fresh else T_MIN):
            trial[disc.free] = u[disc.free] + t * step
            m_trial = merit(trial, eps)
            if m_trial <= m + 1e-4 * t * slope + noise:
                # the noise allowance can pass a tiny ascent step: a chord
                # step must descend as well
                if fresh or slope < 0:
                    return trial, m_trial, t
                break
            t *= 0.5
        held.release()
    return None


def _newton(disc, prob, load, tol, max_iter, initial=None, held=None,
            choose_start=True, forcing=0.0):
    """Damped Newton, at the final eps unless a step struggles.

    The solve starts at the last rung of _eps_schedule, the ladder.  With
    an initial state it starts from whichever of that state and the
    Dirichlet lift (boundary data, zero interior) has the lower merit at
    that eps, the initial state on a tie: the minimiser does not depend on
    the start, the work does.  Without choose_start it starts from the
    initial state.  Without an initial state it starts from the lift moved
    along its Poisson correction by _ray_start, at the merit of that eps;
    that linear solve counts as a factorisation.

    Each step is one _step.  A fresh step struggles when its factor is
    singular, its solve not finite or its search finds no descent, and then
    does what the policy of its stage says:
    - "climb" (the first stage, unless the ladder has one rung; its steps
      halve down to T_MIN): climb to the top rung of the ladder and walk
      down it again, stage by stage (Deuflhard 2004, ch. 3: on a strictly
      convex energy, eps continuation is needed for conditioning only);
    - "retry" (each rung after a climb, or the one rung): raise eps within
      the stage when singular (ten-fold, at least to 1e-6), else stop the
      solve with stop_reason "line_search" after 30 halvings;
    - "stop" (the check stage at check_eps, after a last stage that
      converges above tol at check_eps: p_minus >= 2 with a user eps > 0,
      or after an eps retry): stop the solve with stop_reason "singular"
      or "line_search".

    A step reuses the factor in `held` (a chord step: Shamanskii 1967,
    Kelley 2003) when it was made at the current eps, the previous step was
    not damped and, after the first step of a stage, cut the residual
    sup-norm by CHORD_CONTRACTION.  A caller that passes `held` gets the
    last factor back unless the last step failed or was damped.

    With forcing > 0 the solve aims at max(tol, forcing * r0) in place of
    tol, r0 its first residual sup-norm (at the start state and the final
    eps), and `converged` means that relaxed target was met.  After
    max_iter steps in all the solve stops, with stop_reason "max_iter"
    unless it has converged.

    The residual and the merit of a state at an eps are each evaluated at
    most once, on first use; each residual read adds a record to the
    report's trace (see SolveReport)."""
    mesh = prob.mesh
    free = disc.free
    held = _HeldFactor() if held is None else held
    ladder = _eps_schedule(prob.fp)
    final_eps = ladder[-1]
    check_eps = prob.fp.check_eps
    report = SolveReport(check_eps=check_eps)
    target = tol                    # max(tol, forcing * r0) once r0 is known

    def merit(vals, eps):
        return disc.energy(vals, eps=eps) - float(load[free] @ vals[free])

    def add(eps, residual, m=None, t=None, kind=None):
        """Trace and log a record of the matrices factored since the last."""
        report.trace.append(StepRecord(eps, residual, m, t, kind, held.made))
        log.info("%s", report.trace[-1])
        held.made = 0

    u = np.where(mesh.boundary_flags, prob.dirichlet, 0.0)
    memo = {}                       # ("res" | "merit", eps) -> its value at u

    def at_u(quantity, eps):
        """The residual or merit of u at eps, evaluated on first use."""
        if (quantity, eps) not in memo:
            memo[quantity, eps] = (disc.residual(u, load, eps=eps)
                                   if quantity == "res" else merit(u, eps))
        return memo[quantity, eps]

    if initial is not None:
        warm = np.where(mesh.boundary_flags, prob.dirichlet,
                        np.asarray(initial, dtype=float))
        if not choose_start:
            u, report.start = warm, "initial"
        else:
            m_lift = at_u("merit", final_eps)
            m_warm = merit(warm, final_eps)   # evaluated last: stays memoised
            if m_warm <= m_lift:
                u, report.start = warm, "initial"
                memo = {("merit", final_eps): m_warm}
    elif len(free):
        held.release()              # never two factors alive
        held.made += 1
        u, memo["merit", final_eps] = _ray_start(
            mesh, free, load, u, lambda vals: merit(vals, final_eps))
        add(final_eps, None, kind="ray")

    # the stages still to run: each eps, and what a struggling step does there
    stages = [(final_eps, "climb" if len(ladder) > 1 else "retry")]
    while (stages and report.stop_reason is None
           and report.iterations < max_iter):
        eps, policy = stages.pop(0)
        stage_tol = target if eps in (final_eps, check_eps) else max(tol, 1e-8)
        t_min = T_MIN if policy == "climb" else 0.5 ** 29
        retries = 0
        while report.iterations < max_iter:
            if held.eps != eps:
                held.release()
            res = at_u("res", eps)
            rnorm = _sup_norm(res)
            listed = eps in (final_eps, check_eps)
            if listed and not report.residual_history and np.isfinite(rnorm):
                target = stage_tol = max(tol, forcing * rnorm)
            m = at_u("merit", eps) if listed else None
            if rnorm <= stage_tol:
                add(eps, rnorm, m)
                # the eps-regularized iteration may stop above the
                # residual at check_eps; the check stage closes the gap
                if (not stages and eps != check_eps
                        and _sup_norm(at_u("res", check_eps)) > target):
                    stages = [(check_eps, "stop")]
                break
            # a chord step opens a stage or an eps retry, or follows a step
            # that cut the residual sup-norm by CHORD_CONTRACTION
            chord = held.solve is not None and all(
                rnorm <= CHORD_CONTRACTION * r.residual
                for r in report.trace[-1:] if r.t is not None)
            why = "line_search"
            try:
                stepped = _step(disc, merit, u, res, eps,
                                lambda: at_u("merit", eps), held, chord, t_min)
            except np.linalg.LinAlgError:
                stepped, why = None, "singular"
            trial, m_trial, t = stepped or (u, None, None)
            add(eps, rnorm, m, t, "fresh" if held.made else "chord")
            if stepped is None:
                if policy == "retry" and why == "singular":
                    retries += 1
                    if retries > 5:
                        raise RuntimeError("singular Jacobian after 5 eps retries")
                    eps = max(eps * 10.0, 1e-6)
                    continue
                if policy == "climb":
                    stages = [(rung, "retry") for rung in ladder]
                else:
                    report.stop_reason = why
                break
            u, memo = trial, {("merit", eps): m_trial}
            if t < 1.0:             # the step after a damped one factors
                held.release()
    rnorm = _sup_norm(at_u("res", check_eps))
    add(check_eps, rnorm, at_u("merit", 0.0), kind="end")
    report.converged = rnorm <= target and report.stop_reason is None
    if not report.converged and report.stop_reason is None:
        report.stop_reason = "max_iter"
    report.solution = FeFunction(prob.mesh, u, disc)
    return report


def solve_convection(prob, tol=1e-10, max_iter_outer=60, initial=None):
    """Outer fixed point freezing f(x, u_k, grad u_k) as a load, inner
    damped Newton on the frozen variational problem, warm-started from u_k.

    Each inner solve stops at max(tol, INNER_FORCING * r0), r0 its starting
    residual sup-norm: the next load resets the residual above that anyway.
    The fixed point has converged ("tolerance") when the outer distance is
    at most tol and the last inner solve reached tol itself, so the answer
    is as accurate as with inner solves to tol throughout.

    The report's start is that of the first inner solve ("lift" without an
    initial state); stop_reason is "tolerance", "max_iter_outer", "growth"
    (the outer distance grew five times in a row), "line_search" or
    "singular" (the stop of an inner solve)."""
    _check_tol(tol)
    disc = PhaseDiscretization(prob.fp, prob.mesh)
    u = np.where(prob.mesh.boundary_flags, prob.dirichlet,
                 0.0 if initial is None else np.asarray(initial, dtype=float))
    report = SolveReport(stop_reason="max_iter_outer",
                         check_eps=prob.fp.check_eps)
    held = _HeldFactor()        # one factor, handed from inner solve to the next
    for it in range(1, max_iter_outer + 1):
        load = _source_load(disc, prob.source, u)
        # only the first inner solve weighs its start against the lift: later
        # ones start from the last iterate, which always wins
        inner = _newton(disc, prob, load, tol, 100,
                        initial=initial if it == 1 else u, held=held,
                        choose_start=it == 1, forcing=INNER_FORCING)
        if it == 1:
            report.start = inner.start
        dist = _sup_norm(inner.solution.nodal_values[disc.free] - u[disc.free])
        u = inner.solution.nodal_values
        report.trace.append(StepRecord(None, dist, inner.energy_history[-1],
                                       1.0, "outer", inner.factorizations,
                                       tuple(inner.trace)))
        if (dist <= tol and inner.converged
                and inner.residual_history[-1] <= tol):
            report.stop_reason = "tolerance"
            break
        if inner.stop_reason in ("line_search", "singular"):
            report.stop_reason = inner.stop_reason
            break
        last = report.residual_history[-6:]
        if len(last) == 6 and all(a < b for a, b in zip(last, last[1:])):
            report.stop_reason = "growth"
            break
    report.solution = FeFunction(prob.mesh, u)
    report.converged = report.stop_reason == "tolerance"
    return report


def weak_residual_sup(prob, u):
    """A-posteriori weak-form residual of a state, eps = 0 when p- >= 2.

    The answer of solve_variational carries the discretization it was
    solved on; when that is of prob's FluxParams object (compared by
    identity) and mesh, the check reuses its field samples, and the memo of
    its last state serves the residual.  The check takes it from u, which
    then carries None, so its memory is freed once the check is done.  Any
    other state gets a discretization built here."""
    disc, u.discretization = u.discretization, None
    if disc is None or disc.fp is not prob.fp or disc.mesh is not prob.mesh:
        disc = PhaseDiscretization(prob.fp, prob.mesh)
    load = _source_load(disc, prob.source, u.nodal_values)
    return _sup_norm(disc.residual(u.nodal_values, load, eps=prob.fp.check_eps))


def first_eigenvalue(mesh, m, tol=1e-10, max_iter=2000):
    """First Dirichlet eigenvalue of the m-Laplacian and its eigenfunction.

    m = 2: inverse iteration from the indicator of the free nodes, which
    is positive like the first eigenfunction and so not orthogonal to it.
    Other m: the inverse power method (Biezuner-Ercole-Martins 2009) from
    the modulus of the m = 2 eigenfunction.  Each of its steps solves
    -Delta_m w = lambda |u|^(m-2) u by _newton and sets u = w / ||w||_m and
    lambda = N(u) / D(u); it stops when lambda changes by at most tol
    relative, and raises RuntimeError when max_iter steps do not get there
    or a step is not solved, as near m = 1 and for large m on fine meshes.
    A mesh without free nodes or a tol that is not a positive finite
    number raises ValueError."""
    _check_tol(tol)
    if not 1 < m < math.inf:
        raise ValueError(f"m must exceed 1 and be finite, got {m!r}")
    free = np.flatnonzero(~mesh.boundary_flags)
    if not len(free):
        raise ValueError("the mesh has no free nodes")
    # stiffness and consistent mass matrices over the free nodes
    K = _stiffness(mesh)
    M = mesh.free_pattern.assemble(mesh.areas[:, None, None]
                                   * (np.ones((3, 3)) + np.eye(3)) / 12.0)
    x = np.ones(len(free))
    solve = _factor(K, mesh.free_pattern.band_layout)
    lam = np.inf
    for _ in range(max_iter):
        y = solve(M @ x)
        y /= np.sqrt(float(y @ (M @ y)))
        x, lam, old = y, float(y @ (K @ y)), lam
        if abs(lam - old) <= tol * abs(lam):
            break
    vals = np.zeros(mesh.n_vertices)
    vals[free] = x
    if abs(m - 2.0) < 1e-14:
        return lam, FeFunction(mesh, vals)
    del solve, K, M         # never two factors alive: _newton factors below
    # -Delta_m is the operator of the m-phase with mu1 = mu2 = 0; below
    # m = 2 its Jacobian needs eps > 0
    fp = FluxParams(PhaseFunction(ExponentTriple.constants(m, m, m),
                                  WeightPair.constants(0.0, 0.0)),
                    eps=0.0 if m >= 2 else 1e-10)
    disc = PhaseDiscretization(fp, mesh)
    prob = PhaseProblem(mesh, fp, SourceTerm.zero(), np.zeros(mesh.n_vertices))
    held = _HeldFactor()
    u, lam = np.abs(vals), np.inf
    for _ in range(max_iter):
        N, D, gD = _m_power_quantities(disc, m, u)
        scale = D ** (1.0 / m)
        u, new_lam = u / scale, N / D
        if abs(new_lam - lam) <= tol * new_lam:
            return new_lam, FeFunction(mesh, u)
        lam = new_lam
        # |u|^(m-2) u is gD / m, of degree m - 1 in u.  With the load
        # lam |u|^(m-2) u the step's solution is w = u when u is an
        # eigenfunction, so w keeps the scale of u and u is the warm start.
        # lambda is stationary at the eigenfunction: a step solved to
        # sqrt(tol) of its load moves it by O(tol)
        load = gD * (lam / (m * scale ** (m - 1.0)))
        rep = _newton(disc, prob, load,
                      np.sqrt(tol) * np.max(np.abs(load[disc.free])), 100,
                      initial=u, held=held, choose_start=False)
        if not rep.converged:
            raise RuntimeError("inverse power step -Delta_m w = lambda "
                               "|u|^(m-2) u not solved "
                               f"({rep.stop_reason})")
        u = rep.solution.nodal_values
    raise RuntimeError(f"m = {m} eigenvalue not settled in {max_iter} steps")


def _m_power_quantities(disc, m, u_vals):
    """N(u) = int |grad u|^m, D(u) = int |u|^m and the nodal gradient of D;
    disc is of the m-phase, whose energy is N / m."""
    N = m * disc.energy(u_vals)
    tvals = FeFunction(disc.mesh, u_vals).at_quad(disc.mesh.quadrature())
    tvals = tvals.reshape(disc.qweights.shape)
    D = float(np.sum(disc.qweights * np.abs(tvals) ** m))
    with np.errstate(divide="ignore", invalid="ignore"):
        dens = m * np.abs(tvals) ** (m - 2.0) * tvals
    dens = np.where(np.isfinite(dens), dens, 0.0)
    return N, D, disc.load_vector(dens)


def check_h2(src, lambda_p_minus):
    """Existence margin 1 - k3 - k4 / lambda_{1,p-}."""
    if lambda_p_minus <= 0:
        raise ValueError("lambda must be positive")
    k3 = float(src.constants.get("k3", 0.0))
    k4 = float(src.constants.get("k4", 0.0))
    margin = 1.0 - k3 - k4 / lambda_p_minus
    return HypothesisReport("H2", margin > 0, (), margin)


def check_h3(src, lambda_2):
    """Uniqueness margin 1 - (k5/lambda + k6/sqrt(lambda))."""
    if lambda_2 <= 0:
        raise ValueError("lambda must be positive")
    k5 = float(src.constants.get("k5", 0.0))
    k6 = float(src.constants.get("k6", 0.0))
    margin = 1.0 - (k5 / lambda_2 + k6 / np.sqrt(lambda_2))
    return HypothesisReport("H3", margin > 0, (), margin)


def verify_uniqueness_empirical(prob, n_starts, tol=1e-10):
    """Max pairwise sup distance among multi-start fixed-point solutions."""
    if n_starts < 2:
        raise ValueError("need at least 2 starts")
    rng = np.random.default_rng(UNIQUENESS_SEED)
    free = np.flatnonzero(~prob.mesh.boundary_flags)
    sols = []
    for _ in range(n_starts):
        init = np.zeros(prob.mesh.n_vertices)
        init[free] = rng.uniform(-1, 1, size=len(free)) * prob.mesh.h_max
        rep = solve_convection(prob, tol=tol, initial=init)
        if rep.converged:
            sols.append(rep.solution.nodal_values[free])
    if len(sols) < 2:
        raise RuntimeError("insufficient converged solves")
    sols = np.array(sols)
    return float(np.max(np.abs(sols[:, None] - sols[None])))
