"""Variable exponents, modulating weights, and structural hypothesis checks.

Exponent and weight fields are plain callables of the planar coordinates;
extremal values are cached from dense sampling of the domain because the
fields are black boxes to us.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import parse_expression

_STRICT_TOL = 1e-12  # strict inequalities must clear this slack


class HypothesisError(ValueError):
    """Raised when a structural precondition is violated outright."""


def _segments_intersect(a, b, c, d):
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


@dataclass(frozen=True)
class Domain2D:
    """A simple polygon holding the computational domain."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple((float(x), float(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if abs(self.area) < 1e-14:
            raise ValueError("degenerate polygon (zero area)")
        n = len(verts)
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                c, d = verts[j], verts[(j + 1) % n]
                if _segments_intersect(a, b, c, d):
                    raise ValueError("polygon is self-intersecting")

    @property
    def area(self):
        v = np.asarray(self.vertices)
        x, y = v[:, 0], v[:, 1]
        return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)

    @property
    def bbox(self):
        v = np.asarray(self.vertices)
        return v.min(axis=0), v.max(axis=0)

    def contains(self, points):
        """Even-odd point-in-polygon test, vectorized over points; points
        within 1e-12 of an edge, relative to its length, count as inside."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = np.asarray(self.vertices)
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        # kept apart: a later edge's crossing must not toggle it back out
        on_edge = np.zeros(len(pts), dtype=bool)
        n = len(v)
        for i in range(n):
            x1, y1 = v[i]
            x2, y2 = v[(i + 1) % n]
            cross = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xs = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= cross & (x < np.where(cross, xs, np.inf))
            d = np.abs((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1))
            seg2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
            t = ((x - x1) * (x2 - x1) + (y - y1) * (y2 - y1)) / seg2
            on_edge |= (d <= 1e-12 * np.sqrt(seg2)) & (t >= -1e-12) & (t <= 1 + 1e-12)
        return inside | on_edge

    def sample_grid(self, n=128):
        """Uniform n-by-n grid over the bbox restricted to the polygon,
        plus the polygon vertices."""
        lo, hi = self.bbox
        xs = np.linspace(lo[0], hi[0], n)
        ys = np.linspace(lo[1], hi[1], n)
        gx, gy = np.meshgrid(xs, ys)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        pts = pts[self.contains(pts)]
        return np.vstack([pts, np.asarray(self.vertices)])


UNIT_SQUARE = Domain2D(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))


@dataclass(frozen=True)
class ScalarField:
    """A deterministic pointwise field, vectorized over coordinate arrays."""

    eval: object
    declared_bounds: tuple | None = None
    constant_value: float | None = None     # set by `constant` only

    def __call__(self, x1, x2):
        vals = np.asarray(self.eval(np.asarray(x1, dtype=float),
                                    np.asarray(x2, dtype=float)), dtype=float)
        vals = np.broadcast_to(vals, np.broadcast_shapes(np.shape(x1), vals.shape))
        if self.declared_bounds is not None:
            lo, hi = self.declared_bounds
            if np.any(vals < lo - 1e-12) or np.any(vals > hi + 1e-12):
                raise ValueError("field value escapes declared_bounds")
        return vals

    def at(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return self(pts[:, 0], pts[:, 1])

    @staticmethod
    def constant(value):
        value = float(value)
        return ScalarField(lambda x1, x2: np.full(np.shape(x1), value),
                           declared_bounds=(value, value), constant_value=value)

    @staticmethod
    def affine(a0, a1, a2):
        a0, a1, a2 = float(a0), float(a1), float(a2)
        return ScalarField(lambda x1, x2: a0 + a1 * x1 + a2 * x2)

    @staticmethod
    def expression(text):
        return ScalarField(parse_expression(text))

    @staticmethod
    def from_spec(spec):
        """Build a field from a JSON-style spec dict."""
        if not isinstance(spec, dict) or len(spec) != 1:
            raise ValueError(f"field spec must be a one-key dict, got {spec!r}")
        kind, value = next(iter(spec.items()))
        if kind == "const":
            return ScalarField.constant(value)
        if kind == "affine":
            if len(value) != 3:
                raise ValueError("affine spec needs [a0, a1, a2]")
            return ScalarField.affine(*value)
        if kind == "expr":
            return ScalarField.expression(value)
        raise ValueError(f"unknown field spec kind {kind!r}")


@dataclass(frozen=True)
class ExponentTriple:
    """The ordered exponents p <= q <= r with cached sampled extremes."""

    p: ScalarField
    q: ScalarField
    r: ScalarField
    p_minus: float
    p_plus: float
    q_minus: float
    q_plus: float
    r_minus: float
    r_plus: float

    @staticmethod
    def sample(p, q, r, domain=UNIT_SQUARE, n=128):
        pts = domain.sample_grid(n)
        pv, qv, rv = p.at(pts), q.at(pts), r.at(pts)
        if np.any(pv <= 1.0):
            raise HypothesisError("exponent p must exceed 1 everywhere")
        if np.any(qv < pv) or np.any(rv < qv):
            raise HypothesisError("exponents must satisfy p <= q <= r")
        if not np.all(np.isfinite([pv, qv, rv])):
            raise HypothesisError("exponents must be finite")
        return ExponentTriple(p, q, r,
                              float(pv.min()), float(pv.max()),
                              float(qv.min()), float(qv.max()),
                              float(rv.min()), float(rv.max()))

    @staticmethod
    def constants(p, q, r):
        return ExponentTriple.sample(ScalarField.constant(p),
                                     ScalarField.constant(q),
                                     ScalarField.constant(r), n=2)


@dataclass(frozen=True)
class WeightPair:
    """Nonnegative modulating weights with cached sampled inf/sup."""

    mu1: ScalarField
    mu2: ScalarField
    inf_mu1: float
    inf_mu2: float
    sup_mu1: float
    sup_mu2: float

    @staticmethod
    def sample(mu1, mu2, domain=UNIT_SQUARE, n=128):
        pts = domain.sample_grid(n)
        m1, m2 = mu1.at(pts), mu2.at(pts)
        if np.any(m1 < 0) or np.any(m2 < 0):
            raise HypothesisError("weights must be nonnegative")
        if not (np.all(np.isfinite(m1)) and np.all(np.isfinite(m2))):
            raise HypothesisError("weights must be finite")
        return WeightPair(mu1, mu2, float(m1.min()), float(m2.min()),
                          float(m1.max()), float(m2.max()))

    @staticmethod
    def constants(mu1, mu2):
        return WeightPair.sample(ScalarField.constant(mu1),
                                 ScalarField.constant(mu2), n=2)


@dataclass(frozen=True)
class HypothesisReport:
    name: str
    passed: bool
    worst_point: tuple
    margin: float

    def __post_init__(self):
        if self.passed != (self.margin > 0):
            raise ValueError(f"{self.name}: passed={self.passed} contradicts "
                             f"margin={self.margin!r}")


def critical_exponent(p, N, x):
    """Sobolev critical exponent N p(x) / (N - p(x))."""
    px = float(p.at([x])[0])
    if px >= N:
        raise ValueError("critical exponent undefined: p(x) >= N")
    if px <= 1:
        raise ValueError("critical exponent needs p(x) > 1")
    return N * px / (N - px)


def check_h1(exp, w, N, samples):
    """Structural hypothesis on the exponents and weights.

    At every sample: 1 < p < N, p < q < r < p* (strictly), mu1, mu2 >= 0.
    The margin is the smallest slack among all the strict inequalities.
    """
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(pts) == 0:
        raise ValueError("samples must be nonempty")
    pv, qv, rv = exp.p.at(pts), exp.q.at(pts), exp.r.at(pts)
    m1, m2 = w.mu1.at(pts), w.mu2.at(pts)
    with np.errstate(divide="ignore", invalid="ignore"):
        pstar = np.where(pv < N, N * pv / (N - pv), np.inf)
    strict = np.column_stack([
        pv - 1.0,
        N - pv,
        qv - pv,
        rv - qv,
        pstar - rv,
    ])
    flat = np.nanmin(strict, axis=1)
    idx = int(np.argmin(flat))
    margin = float(flat[idx]) - _STRICT_TOL
    worst = tuple(pts[idx])
    # mu >= 0 is non-strict: it never shrinks a positive margin, but a
    # negative weight fails the hypothesis outright
    wmin = min(float(m1.min()), float(m2.min()))
    if wmin < 0 and wmin < margin:
        widx = int(np.argmin(np.minimum(m1, m2)))
        margin, worst = wmin, tuple(pts[widx])
    return HypothesisReport("H1", margin > 0, worst, margin)


def check_hprime(exp, sigma, N, samples):
    """Smallness of the exponent gap: sup q/p and sup r/p below 1 + sigma/N."""
    if not 0 < sigma <= 1:
        raise ValueError("sigma must lie in (0, 1]")
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    pv, qv, rv = exp.p.at(pts), exp.q.at(pts), exp.r.at(pts)
    bound = 1.0 + sigma / N
    gaps = np.minimum(bound - qv / pv, bound - rv / pv)
    idx = int(np.argmin(gaps))
    margin = float(gaps[idx])
    return HypothesisReport("Hprime", margin > 0, tuple(pts[idx]), margin)


def _pairwise(samples):
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    if len(pts) < 2:
        raise ValueError("need at least 2 distinct samples")
    i, j = np.triu_indices(len(pts), k=1)
    dist = np.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1])
    keep = dist > 0
    return pts, i[keep], j[keep], dist[keep]


def estimate_holder_constant(f, sigma, samples):
    """Sampled lower bound for sup |f(x)-f(y)| / |x-y|^sigma."""
    pts, i, j, dist = _pairwise(samples)
    if len(i) == 0:
        return 0.0
    vals = f.at(pts)
    return float(np.max(np.abs(vals[i] - vals[j]) / dist ** sigma))


def check_log_holder(f, samples):
    """Smallest d0 with |f(x)-f(y)| <= d0 / |log|x-y|| over sampled pairs
    closer than 1/2."""
    pts, i, j, dist = _pairwise(samples)
    keep = dist < 0.5
    if not np.any(keep):
        raise ValueError("no pairs with |x-y| < 1/2")
    i, j, dist = i[keep], j[keep], dist[keep]
    vals = f.at(pts)
    return float(np.max(np.abs(vals[i] - vals[j]) * np.abs(np.log(dist))))


def compute_r0(p0, sigma, N, L_r, sup_ratio_rp):
    """Largest admissible ball radius from the Hoelder continuity of r."""
    if p0 <= 1:
        raise ValueError("p0 must exceed 1")
    if L_r <= 0:
        raise ValueError("L_r must be positive")
    gap = 1.0 + sigma / N - sup_ratio_rp
    if gap <= 0:
        raise ValueError("(H') violated: sup r/p >= 1 + sigma/N")
    r0 = (p0 * gap / (2.0 ** (1.0 + sigma) * L_r)) ** (1.0 / sigma)
    return min(1.0, r0)


def tighten_r0(r0, p0, sigma, d, L_max):
    """Strict secondary radius bound driven by the sub-unit exponent d."""
    if not 0 < d < 1:
        raise ValueError("d must lie in (0, 1)")
    if L_max <= 0:
        raise ValueError("L_max must be positive")
    bound = ((1.0 - d) / d * p0 / (2.0 ** sigma * L_max)) ** (1.0 / sigma)
    return min(r0, bound * (1.0 - 1e-9))
