"""Newton and fixed-point solvers for the discrete multi-phase Dirichlet
problem, plus the first Dirichlet eigenvalue of the m-Laplacian."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .fields import ExponentTriple, HypothesisReport, WeightPair
from .mesh import FeFunction
from .modular import PhaseFunction
from .operator import FluxParams, PhaseDiscretization

UNIQUENESS_SEED = 0xC0FFEE
# A held factor serves the next step only while each step cuts the residual
# sup-norm by at least this factor (Kelley 2003, the chord method).
CHORD_CONTRACTION = 0.1
# A fresh Newton step whose Armijo search needs a step length below T_MIN
# struggles, and sends the solve up the eps ladder while a rung is left.
T_MIN = 1.0 / 128
# _factor takes LAPACK banded Cholesky up to this half-bandwidth of the
# RCM-relabelled matrix, and SuperLU above it
BAND_MAX = 128


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


@dataclass
class SolveReport:
    solution: FeFunction
    iterations: int
    residual_history: list
    energy_history: list             # merits at the final eps, one per
                                     # residual there; the last entry is the
                                     # eps = 0 energy of the solution
    converged: bool
    eps_schedule: list               # the eps of each stage and retry run
    start: str = "lift"              # Newton's start: "initial" or "lift"
    stop_reason: str | None = None   # "line_search" when a step found no
                                     # descent, "max_iter" when the step
                                     # budget ended an unconverged solve;
                                     # solve_convection: also "tolerance",
                                     # "max_iter_outer", "growth"
    factorizations: int = 0          # matrices factored, the start's Poisson
                                     # solve included (summed over the inner
                                     # solves of solve_convection)
    check_eps: float = 0.0           # eps of `converged` and the last residual


def _factor(J):
    """A solve function for the symmetric positive definite matrix J, with
    a factor that every right-hand side reuses.

    J is relabelled by reverse Cuthill-McKee (RCM), which keeps its nonzeros
    near the diagonal.  While the half-bandwidth b of the relabelled matrix
    is at most BAND_MAX, J is factored by LAPACK banded Cholesky (dpbtrf),
    whose (b + 1) x N band is built straight from J's CSR arrays.  A wider
    band takes more memory than the fill of a sparse LU, and its time gain
    shrinks, so above BAND_MAX the relabelled matrix goes to symmetric-mode
    SuperLU with a minimum-degree ordering on A^T + A.  A matrix that is
    not positive definite (banded path) or exactly singular (SuperLU) raises
    np.linalg.LinAlgError."""
    # SuperLU's minimum degree can take seconds on some vertex numberings
    # (the refined centroid fan of a disk), so it also runs on the RCM
    # relabelling; csgraph and LAPACK are imported here to keep
    # `import multiphase` light.
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    J = J.tocsr()
    if not J.has_canonical_format:          # duplicates would overwrite
        J = J.copy()                        # each other in the band
        J.sum_duplicates()
    perm = reverse_cuthill_mckee(J, symmetric_mode=True)
    n = len(perm)
    at = np.empty(n, dtype=perm.dtype)      # position of each node in perm
    at[perm] = np.arange(n, dtype=perm.dtype)
    pj = at[J.indices]
    below = at[np.repeat(np.arange(n, dtype=perm.dtype), np.diff(J.indptr))] - pj
    band = int(below.max(initial=0))        # the half-bandwidth b
    if band <= BAND_MAX:
        from scipy.linalg.lapack import dpbtrf, dpbtrs

        keep = below >= 0
        ab = np.zeros((band + 1, n), order="F")
        ab[below[keep], pj[keep]] = J.data[keep]
        chol, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"banded Cholesky: leading minor {info} is not positive")
        if info < 0:
            raise ValueError(f"dpbtrf: illegal argument {-info}")

        def solve(rhs):
            x = np.empty(len(rhs))
            x[perm] = dpbtrs(chol, rhs[perm], lower=1)[0]
            return x
        return solve
    # diagonal pivots and a minimum-degree ordering on A^T + A fill far less
    # than COLAMD
    try:
        lu = spla.splu(J[perm][:, perm].tocsc(), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:          # SuperLU: factor is exactly singular
        raise np.linalg.LinAlgError(str(exc)) from exc

    def solve(rhs):
        x = np.empty(len(rhs))
        x[perm] = lu.solve(rhs[perm])
        return x
    return solve


def _linear_solve(A, rhs):
    """Solve A x = rhs, where A is a matrix or a solve function of _factor."""
    solve = A if callable(A) else _factor(A)
    return solve(np.asarray(rhs, dtype=float))


def _stiffness(mesh):
    """The unit-coefficient P1 stiffness matrix over the free nodes."""
    pattern = mesh.free_pattern
    return pattern.assemble(mesh.areas[:, None, None] * pattern.dots)


class _HeldFactor:
    """At most one factored Jacobian, kept for chord steps, and its eps."""

    def __init__(self):
        self.release()

    def release(self):
        self.solve, self.eps = None, None


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
    tvals = disc.at_quad(u_vals)
    g = disc._gradients(u_vals)
    z1 = np.broadcast_to(g[:, 0:1], shape)
    z2 = np.broadcast_to(g[:, 1:2], shape)
    fvals = np.broadcast_to(source(qp[..., 0], qp[..., 1], tvals, z1, z2), shape)
    return disc.load_vector(fvals)


def solve_variational(prob, tol=1e-10, max_iter=100, degree=5, initial=None):
    """Damped Newton minimization of energy(u) - <load, u>.

    Requires a gradient-independent source; f is evaluated at (t, z) =
    (0, 0), i.e. as a pure function of x.
    """
    if prob.source.grad_dependent:
        raise ValueError("solve_variational needs a gradient-independent source")
    if tol <= 0:
        raise ValueError("tol must be positive")
    disc = PhaseDiscretization(prob.fp, prob.mesh, degree)
    load = _source_load(disc, prob.source, np.zeros(prob.mesh.n_vertices))
    return _newton(disc, prob, load, tol, max_iter, initial)


def _ray_start(mesh, free, load, lift, merit):
    """The lowest-merit state found on the ray from the Dirichlet lift g
    along its Poisson correction w = K^-1 (load - K g), K the unit
    stiffness, and its merit: one linear (Kacanov-type) solve as the first
    step of Newton (Diening-Fornasier-Tomasi-Wank 2020).  From t = 1 the
    step length doubles while the merit of g + t w falls, else halves while
    it falls, within [T_MIN, 1 / T_MIN]; g itself is kept unless beaten."""
    G = mesh.grad_operator
    kg = G.T @ (np.repeat(mesh.areas, 2) * (G @ lift))
    w = _factor(_stiffness(mesh))(load[free] - kg[free])

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


def _newton(disc, prob, load, tol, max_iter, initial=None, held=None,
            choose_start=True):
    """Damped Newton, at the final eps unless a step struggles.

    The solve starts at the last rung of _eps_schedule, the ladder.  With
    an initial state it starts from whichever of that state and the
    Dirichlet lift (boundary data, zero interior) has the lower merit at
    that eps, the initial state on a tie: the minimiser does not depend on
    the start, the work does.  Without choose_start it starts from the
    initial state.  Without an initial state it starts from the lift moved
    along its Poisson correction by _ray_start, at the merit of that eps;
    that linear solve counts as a factorisation.

    A fresh step struggles when its factorisation is singular or its solve
    not finite, or when its Armijo search needs a step length below T_MIN.
    The first such step is dropped and the solve climbs to the top rung of
    the ladder and walks down it again, stage by stage (Deuflhard 2004,
    ch. 3: on a strictly convex energy, eps continuation is needed for
    conditioning only).  After that climb, or on a one-rung ladder, a
    singular step raises eps within its stage (ten-fold, at least to 1e-6),
    a damped step is taken, and a step that finds no descent in 30 halvings
    stops the solve with stop_reason "line_search".

    A step reuses the factor in `held` (a chord step: Shamanskii 1967,
    Kelley 2003) when it was made at the current eps, the previous step was
    not damped and, after the first step of a stage, cut the residual
    sup-norm by CHORD_CONTRACTION.  Any other step assembles and factors the
    Jacobian anew, after releasing the held factor, and so does a chord step
    that finds no descent above T_MIN or whose solve fails.  A caller that
    passes `held` gets the last factor back for its next solve.

    Each residual at the final eps adds the merit at that eps to
    energy_history; its last entry is the eps = 0 energy of the solution."""
    mesh = prob.mesh
    free = disc.free
    held = _HeldFactor() if held is None else held
    ladder = _eps_schedule(prob.fp)
    final_eps = ladder[-1]
    check_eps = prob.fp.check_eps
    res_hist, energy_hist, eps_used = [], [], []

    def merit(vals, eps=0.0):
        return disc.energy(vals, eps=eps) - float(load[free] @ vals[free])

    u = np.where(mesh.boundary_flags, prob.dirichlet, 0.0)
    start, m_start = "lift", None
    iters = factorizations = 0
    if initial is not None:
        warm = np.where(mesh.boundary_flags, prob.dirichlet,
                        np.asarray(initial, dtype=float))
        if not choose_start:
            u, start = warm, "initial"
        else:
            m_lift = merit(u, final_eps)
            m_start = merit(warm, final_eps)    # evaluated last: stays memoised
            if m_start <= m_lift:
                u, start = warm, "initial"
            else:
                m_start = m_lift
    elif len(free):
        held.release()              # never two factors alive
        factorizations += 1
        u, m_start = _ray_start(mesh, free, load, u,
                                lambda vals: merit(vals, final_eps))

    stages = [final_eps]            # the stages still to run
    climbed = len(ladder) == 1      # no rung left to climb to
    stop_reason = None
    while stages and stop_reason is None:
        eps = stages.pop(0)
        eps_used.append(eps)
        retries = 0
        stage_tol = tol if eps == final_eps else max(tol, 1e-8)
        stage_iters = 0
        # merit of u at eps, carried from the start choice or the line search
        m0, m_start = m_start, None
        res = None                  # residual of u at eps, once computed
        prev_rnorm = None           # residual before the last step of the stage
        damped = False
        while stage_iters < max_iter:
            if held.eps != eps:
                held.release()
            if res is None:
                res = disc.residual(u, load, eps=eps)
                rnorm = float(np.max(np.abs(res))) if len(res) else 0.0
                if eps == final_eps:
                    if m0 is None:
                        m0 = merit(u, eps)
                    res_hist.append(rnorm)
                    energy_hist.append(m0)
                if rnorm <= stage_tol:
                    break
            contracting = (prev_rnorm is None
                           or rnorm <= CHORD_CONTRACTION * prev_rnorm)
            chord = held.solve is not None and not damped and contracting
            try:
                if not chord:
                    held.release()          # never two factors alive
                    factorizations += 1
                    held.solve = _factor(disc.jacobian(u, eps=eps))
                    held.eps = eps
                step = _linear_solve(held.solve, -res)
                if not np.all(np.isfinite(step)):
                    raise np.linalg.LinAlgError("non-finite step")
            except np.linalg.LinAlgError:
                held.release()
                if chord:
                    continue
                if not climbed:
                    climbed, stages = True, list(ladder)
                    break
                retries += 1
                if retries > 5:
                    raise RuntimeError("singular Jacobian after 5 eps retries")
                eps = max(eps * 10.0, 1e-6) if eps > 0 else 1e-6
                eps_used.append(eps)
                m0 = res = prev_rnorm = None
                damped = False
                continue
            if m0 is None:
                m0 = merit(u, eps)
            slope = float(res @ step)   # negative for a descent direction
            # near convergence the Armijo decrease 1e-4 t slope falls below
            # the rounding error of the merit, which then cannot reject a step
            noise = 1e-13 * abs(m0)
            # a step with somewhere to go on failure stops halving at T_MIN
            t_min = T_MIN if chord or not climbed else 0.5 ** 29
            t = 1.0
            trial = u.copy()
            passed = False
            while t >= t_min:
                trial[free] = u[free] + t * step
                m_trial = merit(trial, eps)
                if m_trial <= m0 + 1e-4 * t * slope + noise:
                    passed = True
                    break
                t *= 0.5
            # the noise allowance can pass a tiny ascent step: a chord step
            # must descend and pass, else it is redone from u with a fresh
            # Jacobian
            if chord and not (passed and slope < 0):
                held.release()
                continue
            if not passed:
                if climbed:
                    stop_reason = "line_search"
                else:
                    climbed, stages = True, list(ladder)
                break
            u, m0 = trial, m_trial
            prev_rnorm, res, damped = rnorm, None, t < 1.0
            iters += 1
            stage_iters += 1
    res_final = disc.residual(u, load, eps=check_eps)
    rnorm = float(np.max(np.abs(res_final))) if len(res_final) else 0.0
    # the eps-regularized iteration may stop above the eps=0 residual; a
    # last Newton polish with the Jacobian of that residual, at the check
    # eps, closes the gap for p_minus >= 2
    polish = 0
    while (stop_reason is None and rnorm > tol and polish < 10
           and iters < max_iter):
        held.release()
        factorizations += 1
        try:
            J = disc.jacobian(u, eps=check_eps)
            step = _linear_solve(_factor(J), -res_final)
        except np.linalg.LinAlgError:
            break
        u = u.copy()
        u[free] += step
        res_final = disc.residual(u, load, eps=check_eps)
        rnorm = float(np.max(np.abs(res_final)))
        polish += 1
        iters += 1
    res_hist.append(rnorm)
    # at eps = 0 without a polish the carried merit is the energy of u
    energy_hist.append(m0 if eps == 0.0 and not polish and m0 is not None
                       else merit(u))
    converged = rnorm <= tol and stop_reason is None
    if not converged and stop_reason is None:
        stop_reason = "max_iter"
    return SolveReport(FeFunction(prob.mesh, u), iters, res_hist,
                       energy_hist, converged, eps_used, start, stop_reason,
                       factorizations, check_eps)


def solve_convection(prob, tol=1e-10, max_iter_outer=60, degree=5,
                     initial=None):
    """Outer fixed point freezing f(x, u_k, grad u_k) as a load, inner
    damped Newton on the frozen variational problem, warm-started from u_k.

    The report's start is that of the first inner solve ("lift" without an
    initial state); stop_reason is "tolerance", "max_iter_outer",
    "growth" (the outer distance grew five times in a row) or "line_search"
    (an inner solve found no descent)."""
    disc = PhaseDiscretization(prob.fp, prob.mesh, degree)
    mesh = prob.mesh
    u = np.where(mesh.boundary_flags, prob.dirichlet, 0.0)
    if initial is not None:
        u = np.where(mesh.boundary_flags, prob.dirichlet,
                     np.asarray(initial, dtype=float))
    hist, eps_used, energy_hist = [], [], []
    grow = 0
    prev_dist = np.inf
    converged = False
    start = "lift"
    stop_reason = "max_iter_outer"
    held = _HeldFactor()        # one factor, handed from inner solve to the next
    factorizations = 0
    it = 0
    for it in range(1, max_iter_outer + 1):
        load = _source_load(disc, prob.source, u)
        # only the first inner solve weighs its start against the lift: later
        # ones start from the last iterate, which always wins
        inner = _newton(disc, prob, load, tol, 100,
                        initial=initial if it == 1 else u, held=held,
                        choose_start=it == 1)
        if it == 1:
            start = inner.start
        factorizations += inner.factorizations
        eps_used = inner.eps_schedule
        dist = float(np.max(np.abs(inner.solution.nodal_values[disc.free]
                                   - u[disc.free])))
        u = inner.solution.nodal_values
        hist.append(dist)
        energy_hist.append(inner.energy_history[-1])
        if dist <= tol and inner.converged:
            converged = True
            stop_reason = "tolerance"
            break
        if inner.stop_reason == "line_search":
            stop_reason = inner.stop_reason
            break
        grow = grow + 1 if dist > prev_dist else 0
        prev_dist = dist
        if grow >= 5:
            stop_reason = "growth"
            break
    return SolveReport(FeFunction(mesh, u), it, hist, energy_hist,
                       converged, eps_used, start, stop_reason,
                       factorizations, prob.fp.check_eps)


def weak_residual_sup(prob, u, degree=5):
    """A-posteriori weak-form residual of a state, eps = 0 when p- >= 2."""
    disc = PhaseDiscretization(prob.fp, prob.mesh, degree)
    load = _source_load(disc, prob.source, u.nodal_values)
    res = disc.residual(u.nodal_values, load, eps=prob.fp.check_eps)
    return float(np.max(np.abs(res))) if len(res) else 0.0


def first_eigenvalue(mesh, m, tol=1e-10, max_iter=2000, seed=7):
    """First Dirichlet eigenvalue of the m-Laplacian and its eigenfunction.

    m = 2: inverse iteration from a random start drawn with `seed`.  Other
    m: the inverse power method (Biezuner-Ercole-Martins 2009) from the
    modulus of the m = 2 eigenfunction, which settles to the same answer
    from every seed.  Each of its steps solves -Delta_m w = lambda |u|^(m-2) u
    by _newton and sets u = w / ||w||_m and lambda = N(u) / D(u); it stops
    when lambda changes by at most tol relative, and raises RuntimeError
    when max_iter steps do not get there or a step is not solved, as near
    m = 1 and for large m on fine meshes."""
    if m <= 1:
        raise ValueError("m must exceed 1")
    # stiffness and consistent mass matrices over the free nodes
    K = _stiffness(mesh)
    M = mesh.free_pattern.assemble(mesh.areas[:, None, None]
                                   * (np.ones((3, 3)) + np.eye(3)) / 12.0)
    free = np.flatnonzero(~mesh.boundary_flags)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=len(free))
    solve = _factor(K)
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
    """N(u) = int |grad u|^m, D(u) = int |u|^m and the nodal gradient of D."""
    N = float(np.sum(np.linalg.norm(disc._gradients(u_vals), axis=1) ** m
                     @ disc.qweights))
    tvals = disc.at_quad(u_vals)
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


def verify_uniqueness_empirical(prob, n_starts, tol=1e-10, **kwargs):
    """Max pairwise sup distance among multi-start fixed-point solutions."""
    if n_starts < 2:
        raise ValueError("need at least 2 starts")
    rng = np.random.default_rng(UNIQUENESS_SEED)
    free = np.flatnonzero(~prob.mesh.boundary_flags)
    sols = []
    for _ in range(n_starts):
        init = np.zeros(prob.mesh.n_vertices)
        init[free] = rng.uniform(-1, 1, size=len(free)) * prob.mesh.h_max
        rep = solve_convection(prob, tol=tol, initial=init, **kwargs)
        if rep.converged:
            sols.append(rep.solution.nodal_values[free])
    if len(sols) < 2:
        raise RuntimeError("insufficient converged solves")
    sols = np.array(sols)
    return float(np.max(np.abs(sols[:, None] - sols[None])))
