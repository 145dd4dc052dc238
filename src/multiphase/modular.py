"""The three-term generalized N-function, its modular, and Luxemburg norms."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ExponentTriple, WeightPair

# relative tolerance on rho(u / alpha) = 1 of every Luxemburg norm
REL_TOL = 1e-10


class NormBracketError(RuntimeError):
    """Raised when the power bounds do not bracket a Luxemburg norm."""


@dataclass(frozen=True)
class PhaseFunction:
    """t^p(x) + mu1(x) t^q(x) + mu2(x) t^r(x)."""

    exp: ExponentTriple
    w: WeightPair

    @property
    def fields(self):
        return (self.exp.p, self.exp.q, self.exp.r, self.w.mu1, self.w.mu2)

    @property
    def constant(self):
        """Whether p, q, r, mu1 and mu2 are all constant fields."""
        return all(f.constant_value is not None for f in self.fields)


@dataclass(frozen=True)
class ModularReport:
    modular_value: float
    luxemburg_norm: float
    bracket: tuple
    iterations: int


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of an inequality check with its measured slacks."""

    name: str
    passed: bool
    slacks: dict

    @property
    def min_slack(self):
        return min(self.slacks.values())


class SampledPhase:
    """The phase function sampled once at a point set: a quadrature measure,
    or bare (M, 2) points for the pointwise checks; `phi` of a constant
    phase needs none, and takes where = None.  Its sums are the
    quadrature's own (`QuadratureMeasure.integral`).

    The N-function is written out here and, fused with the flux
    coefficient, in PhaseDiscretization._reduced.  When p, q, r, mu1 and
    mu2 are all constant fields they are kept as scalars and no point is
    sampled; the modular of u/alpha then splits into alpha^-e times power
    sums of |u| (`scaled_modular`).  A term whose constant weight is 0 is
    left out: it adds an exact 0 to every finite value, and an overflow of
    its power can no longer make the sum non-finite.
    """

    def __init__(self, tf, where):
        self.quad = where if hasattr(where, "weights") else None
        self.weights = None if self.quad is None else self.quad.weights
        self.constant = tf.constant
        if self.constant:
            values = [f.constant_value for f in tf.fields]
        else:
            pts = (self.quad.points if self.quad is not None
                   else np.atleast_2d(np.asarray(where, dtype=float)))
            values = [f(pts[:, 0], pts[:, 1]) for f in tf.fields]
        self.p, self.q, self.r, self.m1, self.m2 = values
        # extremes over the actual points, merged with the cached sampled
        # extremes so the power bounds hold exactly for the sums
        self.p_minus = min(float(np.min(self.p)), tf.exp.p_minus)
        self.r_plus = max(float(np.max(self.r)), tf.exp.r_plus)
        # (weight, exponent) of the q and r terms that are evaluated
        self.qr_terms = [(c, e) for c, e in ((self.m1, self.q), (self.m2, self.r))
                         if not (self.constant and c == 0.0)]

    def phi(self, t):
        """Pointwise N-function values for |u| samples t (t >= 0)."""
        v = t ** self.p
        for c, e in self.qr_terms:
            v = v + c * t ** e
        return v

    def modular(self, u_abs):
        vals = self.phi(u_abs)
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite integrand in modular")
        return self.quad.integral(vals)

    def scaled_modular(self, u_abs):
        """alpha -> modular of u/alpha.  On a constant phase it is
        sum_e c_e alpha^-e S_e with the power sums S_e = sum w |u|^e of the
        terms phi evaluates, taken once; where that value is not finite the
        per-point modular decides, so its ValueError still fires."""
        if not self.constant:
            return lambda alpha: self.modular(u_abs / alpha)
        # each power over the contiguous |u| as phi takes it, several times
        # faster than one (M, 3) power or contraction
        terms = [(1.0, self.p), *self.qr_terms]
        sums = np.array([c * self.quad.integral(u_abs ** x) for c, x in terms])
        e = np.array([x for _, x in terms])

        def rho(alpha):
            with np.errstate(over="ignore", invalid="ignore"):
                value = float(sums @ alpha ** -e)
            return value if math.isfinite(value) else self.modular(u_abs / alpha)

        return rho


def _as_values(u, quad):
    if hasattr(u, "at_quad"):
        return np.asarray(u.at_quad(quad), dtype=float)
    vals = np.asarray(u, dtype=float)
    if vals.shape != quad.weights.shape:
        raise ValueError("sampled values must align with quadrature points")
    return vals


def t_value(tf, x, t):
    """The N-function at a single point: t^p + mu1 t^q + mu2 t^r."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return float(np.asarray(SampledPhase(tf, [x]).phi(np.float64(t))).item())


def modular(tf, u, quad):
    """Quadrature approximation of the modular integral of |u|."""
    sp = SampledPhase(tf, quad)
    return sp.modular(np.abs(_as_values(u, quad)))


def _log(x):
    return math.log(x) if x > 0.0 else -math.inf


def _luxemburg_bisect(rho_of_alpha, R, p_minus, r_plus):
    """The alpha with rho(u/alpha) = 1, found by Illinois regula falsi on
    h(s) = log rho(u e^-s), s = log alpha, which is convex and decreasing.

    The norm-modular power bounds min/max(R^(1/p-), R^(1/r+)) bracket alpha
    whenever p- and r+ are the extremes of the exponents at the summed
    points.  Ends at which rho does not straddle 1 (wrong extremes, or a
    non-finite rho) raise NormBracketError."""
    lo = min(R ** (1.0 / p_minus), R ** (1.0 / r_plus))
    hi = max(R ** (1.0 / p_minus), R ** (1.0 / r_plus))
    lo, hi = 0.999999 * lo, 1.000001 * hi
    rho_lo, rho_hi = rho_of_alpha(lo), rho_of_alpha(hi)
    if not rho_lo >= 1.0 >= rho_hi:
        raise NormBracketError(f"rho is {rho_lo!r} and {rho_hi!r} at the ends "
                               f"{lo!r} and {hi!r} of the power-bound bracket")
    # h(a) >= 0 >= h(b); `side` is the end that moved last, and the other
    # end's value is halved when the same end moves twice (Illinois)
    a, ha = math.log(lo), _log(rho_lo)
    b, hb = math.log(hi), _log(rho_hi)
    side = 0
    iters = 0
    while True:
        d = ha - hb
        s = a + ha * (b - a) / d if d > 0.0 else math.nan
        if not a < s < b:
            s = 0.5 * (a + b)
        alpha = math.exp(s)
        rho = rho_of_alpha(alpha)
        iters += 1
        if (abs(rho - 1.0) <= REL_TOL or b - a <= 4e-16 * max(1.0, abs(s))
                or iters > 400):
            break
        h = _log(rho)
        if h > 0.0:
            a, ha = s, h
            if side == 1:
                hb *= 0.5
            side = 1
        else:
            b, hb = s, h
            if side == -1:
                ha *= 0.5
            side = -1
    return alpha, (lo, hi), iters


def luxemburg_norm(tf, u, quad, sampled=None):
    """Luxemburg norm inf{alpha > 0 : rho(u/alpha) <= 1} with its report.

    `sampled` is a SampledPhase of tf on quad to reuse."""
    sp = SampledPhase(tf, quad) if sampled is None else sampled
    vals = np.abs(_as_values(u, quad))
    R = sp.modular(vals)
    if R == 0.0:
        return ModularReport(0.0, 0.0, (0.0, 0.0), 0)
    alpha, bracket, iters = _luxemburg_bisect(
        sp.scaled_modular(vals), R, sp.p_minus, sp.r_plus)
    return ModularReport(R, alpha, bracket, iters)


def grad_quadrature(tf, mesh):
    """The quadrature of mesh that norms of |grad u|, u P1, are summed over.
    On a constant phase phi(|grad u|) is constant on each triangle, as the
    P1 gradient is: the cell measure, the degree-1 rule weighted by the
    areas.  A variable phase varies within a triangle: the degree-5 rule."""
    return mesh.quadrature(1 if tf.constant else 5)


def weighted_seminorm(exponent, weight, u, quad):
    """Luxemburg-style seminorm for the single-term weighted modular."""
    x1, x2 = quad.points[:, 0], quad.points[:, 1]
    e, wv = exponent(x1, x2), weight(x1, x2)
    if np.any(wv < 0):
        raise ValueError("weight must be nonnegative")
    vals = np.abs(_as_values(u, quad))

    def rho(alpha):
        return quad.integral(wv * (vals / alpha) ** e)

    R = rho(1.0)
    if R == 0.0:
        return 0.0
    alpha, _, _ = _luxemburg_bisect(rho, R, float(e.min()), float(e.max()))
    return alpha


def check_norm_modular_relations(tf, u, quad):
    """Unit-ball equivalences and the two-sided power bounds between the
    Luxemburg norm and the modular."""
    sp = SampledPhase(tf, quad)
    vals = np.abs(_as_values(u, quad))
    rep = luxemburg_norm(tf, vals, quad, sampled=sp)
    rho, nrm = rep.modular_value, rep.luxemburg_norm
    pm, rp = sp.p_minus, sp.r_plus
    slacks = {}
    if rho == 0.0:
        slacks["zero_norm"] = 0.0 if nrm == 0.0 else -abs(nrm)
        return PropertyReport("norm_modular", slacks["zero_norm"] >= 0, slacks)
    # unit-sphere identity: rho(u/norm) = 1
    unit = sp.modular(vals / nrm)
    slacks["unit_sphere"] = REL_TOL - abs(unit - 1.0)
    tol = 2.0 * REL_TOL
    # unit-ball equivalences (both directions, three regimes)
    if nrm < 1.0 - tol:
        slacks["ball_lt"] = 1.0 - rho
        slacks["lower_power"] = rho - nrm ** rp
        slacks["upper_power"] = nrm ** pm - rho
    elif nrm > 1.0 + tol:
        slacks["ball_gt"] = rho - 1.0
        slacks["lower_power"] = rho - nrm ** pm
        slacks["upper_power"] = nrm ** rp - rho
    else:
        slacks["ball_eq"] = tol * max(rho, 1.0) - abs(rho - 1.0)
    passed = all(v >= -1e-8 for v in slacks.values())
    return PropertyReport("norm_modular", passed, slacks)


def _max_ratio(num, denom):
    """Largest num / denom, a sample with denom 0 (t = 0) counting as 0."""
    mask = denom > 0
    return float(np.where(mask, num / np.where(mask, denom, 1.0), 0.0).max())


def check_delta2(tf, xs, ts):
    """Doubling bound phi(x, 2t) <= 2^{r+} phi(x, t) at sampled (x, t)."""
    ts = np.asarray(ts, dtype=float)
    sp = SampledPhase(tf, xs)
    c_delta = 2.0 ** sp.r_plus
    worst = _max_ratio(sp.phi(2.0 * ts), sp.phi(ts))
    return PropertyReport("delta2", worst <= c_delta * (1 + 1e-12),
                          {"c_delta_minus_max_ratio": c_delta - worst})


def check_subadditivity(tf, xs, ts, ss):
    """phi(x, t+s) <= C_Delta (phi(x,t) + phi(x,s)) with C_Delta = 2^{r+}."""
    ts, ss = np.asarray(ts, dtype=float), np.asarray(ss, dtype=float)
    sp = SampledPhase(tf, xs)
    c_delta = 2.0 ** sp.r_plus
    worst = _max_ratio(sp.phi(ts + ss), sp.phi(ts) + sp.phi(ss))
    return PropertyReport("subadditivity", worst <= c_delta * (1 + 1e-12),
                          {"c_delta_minus_max_ratio": c_delta - worst})


def check_uniform_convexity(tf, eps, xs, ts, ss):
    """Empirical convexity modulus over samples with |t-s| > eps max(t,s)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts, ss = np.asarray(ts, dtype=float), np.asarray(ss, dtype=float)
    keep = np.abs(ts - ss) > eps * np.maximum(ts, ss)
    if not np.any(keep):
        raise ValueError("no samples survive the |t-s| > eps max(t,s) filter")
    xs, ts, ss = xs[keep], ts[keep], ss[keep]
    sp = SampledPhase(tf, xs)
    mid = sp.phi(0.5 * (ts + ss))
    avg = 0.5 * (sp.phi(ts) + sp.phi(ss))
    eta = float(np.min(1.0 - mid / avg))
    return PropertyReport("uniform_convexity", eta > 0, {"eta_hat": eta})


def check_seminorm_domination(tf, u, quad):
    """Weighted single-term seminorms never exceed the full Luxemburg norm."""
    vals = np.abs(_as_values(u, quad))
    nrm = luxemburg_norm(tf, vals, quad).luxemburg_norm
    s1 = weighted_seminorm(tf.exp.q, tf.w.mu1, vals, quad)
    s2 = weighted_seminorm(tf.exp.r, tf.w.mu2, vals, quad)
    slacks = {"mu1_term": nrm - s1 + 1e-8, "mu2_term": nrm - s2 + 1e-8}
    return PropertyReport("seminorm_domination",
                          all(v >= 0 for v in slacks.values()), slacks)
