"""Triangle meshes, P1 finite-element functions, and quadrature on meshes and balls."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp


# Symmetric triangle rules in barycentric coordinates; weights sum to 1.
_S15 = np.sqrt(15.0)
_A1 = (6.0 + _S15) / 21.0
_A2 = (6.0 - _S15) / 21.0
_QUAD_RULES = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    2: (np.array([[2 / 3, 1 / 6, 1 / 6],
                  [1 / 6, 2 / 3, 1 / 6],
                  [1 / 6, 1 / 6, 2 / 3]]), np.full(3, 1 / 3)),
    5: (np.array([[1 / 3, 1 / 3, 1 / 3],
                  [_A1, _A1, 1 - 2 * _A1],
                  [_A1, 1 - 2 * _A1, _A1],
                  [1 - 2 * _A1, _A1, _A1],
                  [_A2, _A2, 1 - 2 * _A2],
                  [_A2, 1 - 2 * _A2, _A2],
                  [1 - 2 * _A2, _A2, _A2]]),
        np.array([9 / 40,
                  (155 + _S15) / 1200, (155 + _S15) / 1200, (155 + _S15) / 1200,
                  (155 - _S15) / 1200, (155 - _S15) / 1200, (155 - _S15) / 1200])),
}
for _rule in _QUAD_RULES.values():
    for _a in _rule:
        _a.setflags(write=False)


def quad_rule(degree):
    """Barycentric points and unit weights for the smallest rule of at
    least the requested polynomial degree."""
    for d in sorted(_QUAD_RULES):
        if d >= degree:
            return _QUAD_RULES[d]
    raise ValueError(f"no quadrature rule of degree {degree}")


@dataclass(frozen=True)
class QuadratureMeasure:
    """Weighted point set discretizing an area integral: barycentric rule
    points in triangle blocks on a mesh.

    `blocks` holds a (tris, rows, keep) for each run of points: the rule
    points rule[rows] on each triangle triangles[tris] in turn, all of them
    where keep is None, else the flat entries of that (triangles, rows)
    grid that keep lists.  `vertices` and `triangles` are the mesh's own
    arrays; a measure holds no TriMesh, which caches its measures.
    `FeFunction.at_quad` evaluates P1 data with one BLAS product per block;
    `points`, `tri_index` and `rule_index` (each point's triangle and row of
    `rule`) are formed on first read.  These and the weights are read-only.
    A cell measure, one point per triangle, integrates what is constant on
    each, as a P1 gradient is.
    """

    vertices: np.ndarray      # (N, 2) the mesh's
    triangles: np.ndarray     # (T, 3) the mesh's
    rule: np.ndarray          # (K, 3) barycentric points
    blocks: tuple             # ((tris, rows, keep), ...)
    weights: np.ndarray       # (M,) positive, sums to the region area

    def __post_init__(self):
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        self.weights.setflags(write=False)

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def integral(self, vals):
        """The weighted sum of vals: an np.einsum contraction, not a BLAS
        dot, whose split of a long sum follows the BLAS thread count, so the
        same inputs give the same bits under any number of threads."""
        return float(np.einsum("i,i->", self.weights, vals))

    def mean(self, vals):
        """integral / total_mass: a constant is its own mean also on a
        region that the mesh clips."""
        return self.integral(vals) / self.total_mass

    @cached_property
    def points(self):
        """rule[rows] @ each block's triangle vertices; a kept block forms
        one coordinate's (t, k) product at a time and takes its entries."""
        points, at = np.empty((len(self.weights), 2)), 0
        for tris, rows, keep in self.blocks:
            verts, rule = self.vertices[self.triangles[tris]], self.rule[rows]
            if keep is None:
                n = len(verts) * len(rule)
                np.matmul(rule, verts, out=points[at:at + n].reshape(-1, len(rule), 2))
            else:
                n = len(keep)
                # mode="clip" on indices in range skips the buffer of `out`
                for d in (0, 1):
                    np.take(verts[:, :, d] @ rule.T, keep, out=points[at:at + n, d],
                            mode="clip")
            at += n
        points.setflags(write=False)
        return points

    def _per_point(self, axis):
        """Each point's triangle (axis 0) or rule row (axis 1), np.intp."""
        parts = []
        for tris, rows, keep in self.blocks:
            tris = np.arange(len(self.triangles))[tris]
            rows = np.arange(len(self.rule))[rows]
            entries = np.arange(len(tris) * len(rows)) if keep is None else keep
            parts.append(np.take(tris, entries // len(rows)) if axis == 0
                         else np.take(rows, entries % len(rows)))
        index = np.concatenate(parts, dtype=np.intp)
        index.setflags(write=False)
        return index

    @cached_property
    def tri_index(self):
        return self._per_point(0)

    @cached_property
    def rule_index(self):
        return self._per_point(1)


@dataclass(frozen=True)
class FreePattern:
    """int32 CSR pattern of the free x free (off-boundary) matrices summed
    from per-triangle 3 x 3 blocks, the int32 CSR slot of each of the 9 T
    block entries (boundary rows and columns share one spare slot past the
    end), and the basis-gradient dots: the stiffness blocks per unit area.
    Its band layout is computed on first use and kept with it."""

    indptr: np.ndarray
    indices: np.ndarray
    slot: np.ndarray
    dots: np.ndarray

    def assemble(self, blocks):
        """The free x free CSR matrix of the (T, 3, 3) blocks."""
        nnz, n = len(self.indices), len(self.indptr) - 1
        data = np.bincount(self.slot, weights=blocks.ravel(), minlength=nnz + 1)
        # fresh index arrays: edits of the matrix must not reach the pattern
        return sp.csr_matrix((data[:nnz], self.indices.copy(), self.indptr.copy()),
                             shape=(n, n))

    @cached_property
    def band_layout(self):
        """The BandLayout of this pattern, computed on first use and kept."""
        return BandLayout.of(self.indptr, self.indices)


# solver._factor takes LAPACK banded Cholesky up to this half-bandwidth of
# the RCM-relabelled matrix, and SuperLU above it
BAND_MAX = 128


@dataclass(frozen=True)
class BandLayout:
    """Where the entries of a symmetric CSR structure go in a banded factor;
    it depends on the structure only, not on the stored values.

    perm is the reverse Cuthill-McKee (RCM) order, which keeps the nonzeros
    near the diagonal; at is its inverse, the position of each node in
    perm, and band the half-bandwidth b of the relabelled matrix.  While b
    is at most BAND_MAX, sel lists the stored entries on or below the
    relabelled diagonal and pos their flat positions in the Fortran-order
    (b + 1) x N lower band; above BAND_MAX both are None.  All arrays are
    int32 and read-only."""

    perm: np.ndarray
    at: np.ndarray
    band: int
    sel: np.ndarray | None
    pos: np.ndarray | None

    @staticmethod
    def of(indptr, indices):
        """The layout of the n x n CSR structure (indptr, indices), which
        must hold no duplicate entries."""
        # csgraph is imported here to keep `import multiphase` light
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        n = len(indptr) - 1
        graph = sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                              shape=(n, n))
        perm = reverse_cuthill_mckee(graph, symmetric_mode=True).astype(
            np.int32, copy=False)
        at = np.empty(n, dtype=np.int32)
        at[perm] = np.arange(n, dtype=np.int32)
        pj = at[indices]
        below = at[np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))] - pj
        band = int(below.max(initial=0))
        sel = pos = None
        if band <= BAND_MAX:
            sel = np.flatnonzero(below >= 0).astype(np.int32)
            pos = below[sel] + pj[sel] * np.int32(band + 1)
        for a in (perm, at, sel, pos):
            if a is not None:
                a.setflags(write=False)
        return BandLayout(perm, at, band, sel, pos)


_EDGE_SLACK = 0.05     # share of a boundary edge's length a ball may cross
# ball_quadrature: 4-splits of a triangle crossing the circle, rule degree
_BALL_DEPTH, _BALL_DEGREE = 3, 5


class TriMesh:
    """Conforming triangle mesh with cached P1 geometry.

    Immutable after construction; refinement returns a new mesh.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        v = self.vertices[self.triangles]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if np.any(self.areas <= 0):
            raise ValueError("all triangles must have positive signed area")
        # constant basis gradients (T, 3, 2), stored (T, 2, 3) as G's data
        grads = np.empty((len(self.triangles), 2, 3))
        inv2a = 1.0 / (2.0 * self.areas)
        for k in range(3):
            a, b = v[:, (k + 1) % 3], v[:, (k + 2) % 3]
            grads[:, 0, k] = (a[:, 1] - b[:, 1]) * inv2a
            grads[:, 1, k] = (b[:, 0] - a[:, 0]) * inv2a
        grads.setflags(write=False)
        self.basis_grads = grads.transpose(0, 2, 1)
        keys, counts = np.unique(_edge_keys(self.triangles, len(self.vertices)),
                                 return_counts=True)
        if np.any(counts > 2):
            raise ValueError("non-conforming mesh: edge shared by >2 triangles")
        uniq = np.column_stack(np.divmod(keys, len(self.vertices)))
        self._boundary_edges = uniq[counts == 1]
        flags = np.zeros(len(self.vertices), dtype=bool)
        flags[self._boundary_edges.ravel()] = True
        self.boundary_flags = flags
        lengths = np.hypot(*(self.vertices[uniq[:, 0]] - self.vertices[uniq[:, 1]]).T)
        self.h_max = float(lengths.max())
        self._quadratures = {}

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def area(self):
        return float(self.areas.sum())

    def quadrature(self, degree=5):
        """The degree rule on every triangle, one block, built once per mesh
        and degree and shared, so its arrays are read-only."""
        if degree not in self._quadratures:
            bary, w = quad_rule(degree)
            self._quadratures[degree] = QuadratureMeasure(
                self.vertices, self.triangles, bary,
                ((slice(None), slice(None), None),), (self.areas[:, None] * w).ravel())
        return self._quadratures[degree]

    @cached_property
    def grad_operator(self):
        """The P1 gradient operator, a read-only (2 T, N) CSR matrix G:
        (G @ u).reshape(T, 2) is the gradient of u on each triangle, and
        G.T @ f.ravel() sums f . grad(phi_i) at each node i for (T, 2) f."""
        T = self.n_triangles
        G = sp.csr_matrix((self.basis_grads.transpose(0, 2, 1).ravel(),
                           np.repeat(self.triangles, 2, axis=0).ravel().astype(np.int32),
                           np.arange(0, 6 * T + 1, 3, dtype=np.int32)),
                          shape=(2 * T, self.n_vertices))
        G.indices.setflags(write=False)
        G.indptr.setflags(write=False)
        return G

    @cached_property
    def free_pattern(self):
        """The FreePattern of this mesh, read-only."""
        free = ~self.boundary_flags
        n = int(np.count_nonzero(free))
        loc = np.where(free, np.cumsum(free) - 1, -1)[self.triangles]
        off = loc < 0                              # (T, 3) on the boundary
        keys = np.where(off[:, :, None] | off[:, None, :], n * n,
                        loc[:, :, None] * n + loc[:, None, :]).ravel()
        # sort and an adjacent-difference mask: np.unique is many times slower
        uniq = np.sort(keys)
        uniq = uniq[np.concatenate(([True], uniq[1:] != uniq[:-1]))]
        slot = np.searchsorted(uniq, keys).astype(np.int32)
        uniq = uniq[:np.searchsorted(uniq, n * n)]
        bg = self.basis_grads
        arrays = (np.searchsorted(uniq, np.arange(n + 1) * n).astype(np.int32),
                  (uniq % n).astype(np.int32), slot, bg @ bg.transpose(0, 2, 1))
        for a in arrays:
            a.setflags(write=False)
        return FreePattern(*arrays)

    @cached_property
    def tri_vertices(self):
        """Vertex coordinates of every triangle, shape (T, 3, 2)."""
        return self.vertices[self.triangles]

    @cached_property
    def centroids(self):
        return self.tri_vertices.mean(axis=1)

    @cached_property
    def radii(self):
        """Largest centroid-to-vertex distance of each triangle."""
        return np.max(np.linalg.norm(
            self.tri_vertices - self.centroids[:, None, :], axis=2), axis=1)

    @cached_property
    def boundary_segments(self):
        """Start point a, direction d and squared length |d|^2 of every
        boundary edge, for the containment test of balls."""
        a, b = self.vertices[self._boundary_edges].transpose(1, 0, 2)
        d = b - a
        return a, d, np.einsum("ij,ij->i", d, d)


def structured_mesh(domain, n):
    """Triangulate a polygon.

    Axis-aligned rectangles get the regular n-by-n criss-cross grid
    ((n+1)^2 vertices, 2 n^2 triangles).  Other simple polygons are
    fan/ear-clip triangulated and uniformly refined until the longest
    edge drops below diameter/n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    verts = np.asarray(domain.vertices)
    if len(verts) == 4 and _is_axis_rectangle(verts):
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        xs = np.linspace(lo[0], hi[0], n + 1)
        ys = np.linspace(lo[1], hi[1], n + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vertices = np.column_stack([gx.ravel(), gy.ravel()])
        # cell (i, j) in row-major order gives (a, b, a+1) and (b, b+1, a+1)
        a = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
        b = a + n + 1
        tris = np.stack([a, b, a + 1, b, b + 1, a + 1], axis=1).reshape(-1, 3)
        return TriMesh(vertices, tris)
    mesh = _triangulate_polygon(verts)
    diam = np.max(np.hypot(*(verts[:, None, :] - verts[None, :, :]).reshape(-1, 2).T))
    while mesh.h_max > diam / n:
        mesh = refine(mesh)
    return mesh


def _is_axis_rectangle(verts):
    xs, ys = set(np.round(verts[:, 0], 14)), set(np.round(verts[:, 1], 14))
    return len(xs) == 2 and len(ys) == 2


def _triangulate_polygon(verts):
    poly = list(range(len(verts)))
    pts = np.asarray(verts, dtype=float)

    def cross(i, j, k):
        a, b, c = pts[i], pts[j], pts[k]
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    convex = all(cross(poly[i - 1], poly[i], poly[(i + 1) % len(poly)]) > 0
                 for i in range(len(poly)))
    if convex:
        # fan from the centroid: better-shaped triangles than an ear fan
        centroid = pts.mean(axis=0)
        vertices = np.vstack([pts, centroid])
        c = len(pts)
        tris = [(i, (i + 1) % len(pts), c) for i in range(len(pts))]
        return TriMesh(vertices, np.asarray(tris))
    # ear clipping for non-convex simple polygons
    tris = []
    guard = 0
    while len(poly) > 3:
        guard += 1
        if guard > 10000:
            raise ValueError("ear clipping failed (degenerate polygon?)")
        n = len(poly)
        for idx in range(n):
            i0, i1, i2 = poly[idx - 1], poly[idx], poly[(idx + 1) % n]
            if cross(i0, i1, i2) <= 0:
                continue
            ear = True
            for j in poly:
                if j in (i0, i1, i2):
                    continue
                l0 = cross(i0, i1, j)
                l1 = cross(i1, i2, j)
                l2 = cross(i2, i0, j)
                if l0 >= 0 and l1 >= 0 and l2 >= 0:
                    ear = False
                    break
            if ear:
                tris.append((i0, i1, i2))
                poly.pop(idx)
                break
        else:
            raise ValueError("ear clipping failed")
    tris.append(tuple(poly))
    return TriMesh(pts, np.asarray(tris))


def _edge_keys(triangles, n):
    """Edges (k, k+1) of every triangle, column k of a (T, 3) array, each
    keyed as the one int64 lo * n + hi."""
    ends = np.stack([triangles, np.roll(triangles, -1, axis=1)])
    return ends.min(axis=0) * n + ends.max(axis=0)


def refine(mesh):
    """Regular 4-split of every triangle; parent vertices keep their index
    and edge midpoints follow in the order the triangles first reach them."""
    n = mesh.n_vertices
    keys = _edge_keys(mesh.triangles, n).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)       # the unique edges by first encounter
    lo, hi = np.divmod(keys[first[order]], n)
    vertices = np.vstack([mesh.vertices,
                          0.5 * (mesh.vertices[lo] + mesh.vertices[hi])])
    a, b, c = mesh.triangles.T
    ab, bc, ca = (n + np.argsort(order)[inverse]).reshape(-1, 3).T
    tris = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return TriMesh(vertices, tris.reshape(-1, 3))


@dataclass
class FeFunction:
    """Continuous piecewise-linear scalar field given by nodal values.

    The answer of solver.solve_variational carries the PhaseDiscretization
    it was solved on until the residual check of that answer
    (solver.weak_residual_sup) takes it and reuses its field samples; any
    other FeFunction carries None."""

    mesh: TriMesh
    nodal_values: np.ndarray
    discretization: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.nodal_values = np.asarray(self.nodal_values, dtype=float)
        if len(self.nodal_values) != self.mesh.n_vertices:
            raise ValueError("nodal value count must match vertex count")

    def gradients(self):
        """Constant gradient per triangle, shape (n_triangles, 2)."""
        return (self.mesh.grad_operator @ self.nodal_values).reshape(-1, 2)

    def at_quad(self, quad, bary=None):
        """Values at the points of a quadrature of this mesh: each triangle
        block's (t, 3) nodal values times its (k, 3) rule rows transposed is
        one BLAS product, written into the output or its kept entries taken,
        with no (M, 3) row gathers and no index arrays.  Each value is a
        three-term dot that no BLAS thread split divides, within 2 gamma_3
        sum_j |u_j lambda_j| of the gathered rows' einsum.  Given barycentric
        rows `bary`, (M, 3), each point's nodal values are gathered as rows
        and dotted with them.  A measure of another mesh, even one of as many
        triangles, is a ValueError."""
        self._check_own(quad)
        if bary is not None:
            vals = np.take(np.take(self.nodal_values, self.mesh.triangles),
                           quad.tri_index, axis=0)
            return np.einsum("mj,mj->m", vals, bary)
        out, at = np.empty(len(quad.weights)), 0
        for tris, rows, keep in quad.blocks:
            tri_vals = np.take(self.nodal_values, self.mesh.triangles[tris])
            rule = quad.rule[rows]
            if keep is None:
                n = len(tri_vals) * len(rule)
                np.matmul(tri_vals, rule.T, out=out[at:at + n].reshape(-1, len(rule)))
            else:
                n = len(keep)
                np.take(np.matmul(tri_vals, rule.T), keep,
                        out=out[at:at + n], mode="clip")
            at += n
        return out

    def _check_own(self, quad):
        if not (quad.triangles is self.mesh.triangles
                and quad.vertices is self.mesh.vertices):
            raise ValueError("the quadrature is not on this function's mesh")

    def grad_norms(self):
        """|grad u| on each triangle, shape (n_triangles,): the values of
        np.linalg.norm(axis=1), formed one component at a time."""
        gx, gy = self.gradients().T
        return np.sqrt(gx * gx + gy * gy)

    def grad_norm_at(self, quad):
        """|grad u| at the quadrature points, from their triangles."""
        self._check_own(quad)
        return np.take(self.grad_norms(), quad.tri_index)


def _barycentric(points, tri_verts):
    v0 = tri_verts[:, 0]
    d1 = tri_verts[:, 1] - v0
    d2 = tri_verts[:, 2] - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    r = points - v0
    l1 = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / det
    l2 = (d1[:, 0] * r[:, 1] - d1[:, 1] * r[:, 0]) / det
    return np.column_stack([1.0 - l1 - l2, l1, l2])


def interpolate(fn, mesh):
    """Nodal interpolation of a callable (x1, x2) -> value."""
    vals = np.asarray(fn(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float)
    vals = np.broadcast_to(vals, (mesh.n_vertices,)).copy()
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite vertex value in interpolation")
    return FeFunction(mesh, vals)


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")
        center = tuple(map(float, self.center))
        if len(center) != 2 or not np.all(np.isfinite(center)):
            raise ValueError(f"center must be two finite numbers, got {self.center!r}")
        object.__setattr__(self, "center", center)


class _Centred:
    """A mesh seen from one centre, shared by the concentric balls
    classified on it: each centroid's distance to the centre, formed once,
    and the largest radius that has passed `_check_in_mesh` there.  A ball
    passes whenever a concentric larger one has: the test of the centre is
    the same, and the smaller ball reaches less far across every boundary
    edge, so one check of the largest ball covers them all."""

    def __init__(self, mesh, center):
        self.mesh, self.center, self.checked = mesh, center, 0.0
        self.dist = np.sqrt(_dist2(mesh.centroids, center))

    def check(self, ball):
        """Raise as `_check_in_mesh` does for a ball about this centre,
        unless one at least as large has passed."""
        if ball.center != self.center:
            raise ValueError(f"{ball} is not centred at {self.center}")
        if ball.radius > self.checked:
            _check_in_mesh(self.mesh, ball, self.dist)
            self.checked = ball.radius


class _BallCells:
    """The triangles of a mesh that meet a ball, classified once for both
    of its measures: `ball_quadrature`, for integrands that vary within a
    triangle, and `cell_measure`, for integrands constant on each.

    A triangle is inside the ball when its three vertices are, and crosses
    the circle when only its bounding circle meets the ball.  The points of
    the _BALL_DEGREE rule on each piece of a crossing triangle's
    _BALL_DEPTH regular 4-splits are its sub-points; `kept` flags those in
    the ball, triangle by triangle.  The keep test forms no sub-point: the
    sub-point x = sum_i lam_i v_i of the vertices v_i has |x - c|^2 =
    lam^T M lam with M_ij = (v_i - c).(v_j - c), so the six distinct
    entries of each crossing triangle's M times the cached (6, S) table of
    the lam_i lam_j (`_ball_form`) give the squared distances of its S
    sub-points, all in one (C, 6) @ (6, S) product.  Its error is a few
    units of rounding of (sum_i lam_i |v_i - c|)^2: it keeps the points that
    their coordinates keep, but within that rounding of the circle the two
    may differ.  Only a ball quadrature's `points` form the coordinates.
    `mesh` is a TriMesh or a `_Centred` view of one about the ball's
    centre, which concentric balls share.  A ball that escapes the mesh by
    more than a slack below the P1 resolution is rejected (`_check_in_mesh`)."""

    def __init__(self, mesh, ball):
        site = mesh if isinstance(mesh, _Centred) else _Centred(mesh, ball.center)
        site.check(ball)
        mesh, (c0, c1), R = site.mesh, ball.center, ball.radius
        # only triangles whose bounding circle meets the ball can contribute
        near = np.flatnonzero(site.dist <= R + mesh.radii)
        if len(near) == 0:
            raise ValueError("ball does not intersect the mesh")
        verts = np.take(mesh.tri_vertices, near, axis=0)
        # each vertex less the centre, and its squared length
        ax, ay = verts[:, :, 0] - c0, verts[:, :, 1] - c1
        vd2 = ax * ax + ay * ay
        all_in = np.all(vd2 <= R * R, axis=1)
        cross = ~all_in
        self.mesh = mesh
        self.inside, self.crossing = np.compress(all_in, near), np.compress(cross, near)
        ax, ay = np.compress(cross, ax, axis=0), np.compress(cross, ay, axis=0)
        M = np.empty((len(ax), 6))
        M[:, :3] = np.compress(cross, vd2, axis=0)
        i, j = _FORM_PAIRS
        M[:, 3:] = ax[:, i] * ax[:, j] + ay[:, i] * ay[:, j]
        self.kept = (M @ _ball_form(_BALL_DEPTH, _BALL_DEGREE) <= R * R).ravel()

    def cell_measure(self):
        """The degree-1 rule on each triangle that carries points in the
        ball's quadrature, inside ones first, weighted by W: the area of a
        triangle inside the ball, and for a crossing one its area times the
        summed unit weights of its kept sub-points.  W_t is the sum of the
        quadrature's weights on triangle t up to rounding.  A crossing
        triangle that keeps no sub-point carries no point, and is left out."""
        _, _, sub_w = _ball_table()
        # einsum, not a BLAS gemv: the sums do not follow the thread count
        share = np.einsum("ts,s->t", self.kept.reshape(-1, len(sub_w)), sub_w)
        held = np.flatnonzero(share > 0.0)
        crossing, mesh = np.take(self.crossing, held), self.mesh
        blocks = ((np.concatenate([self.inside, crossing]), slice(None), None),)
        return QuadratureMeasure(
            mesh.vertices, mesh.triangles, quad_rule(1)[0], blocks,
            np.concatenate([np.take(mesh.areas, self.inside),
                            np.take(mesh.areas, crossing) * np.take(share, held)]))


def _ball_table():
    """The ball quadratures' rule table (`_ball_rule`), the number K of its
    leading plain-rule rows, and the unit weights of the sub-rule rows."""
    table, sub_w = _ball_rule(_BALL_DEPTH, _BALL_DEGREE)
    return table, len(table) - len(sub_w), sub_w


def ball_quadrature(mesh, ball):
    """Quadrature over the intersection of the mesh with a ball, in two
    triangle blocks: the _BALL_DEGREE rule on the triangles inside the
    ball, then the kept sub-points of the triangles crossing the circle
    (`_BallCells`), so P1 data are still evaluated per parent triangle.
    `ball` may also be the _BallCells of a ball on this mesh, classified
    already by a caller that takes its cell measure too.  The weights are
    formed here, gathered with np.take, several times faster than fancy
    indexing, straight into the output."""
    cells = ball if isinstance(ball, _BallCells) else _BallCells(mesh, ball)
    table, K, sub_w = _ball_table()
    keep = np.flatnonzero(cells.kept)
    n_in, areas = K * len(cells.inside), cells.mesh.areas
    weights = np.empty(n_in + len(keep))
    np.multiply(np.take(areas, cells.inside)[:, None], quad_rule(_BALL_DEGREE)[1],
                out=weights[:n_in].reshape(-1, K))
    parent = keep // len(sub_w)       # faster than np.divmod
    np.multiply(np.take(np.take(areas, cells.crossing), parent),
                np.take(sub_w, keep - parent * len(sub_w)), out=weights[n_in:])
    return QuadratureMeasure(cells.mesh.vertices, cells.mesh.triangles, table,
                             ((cells.inside, slice(0, K), None),
                              (cells.crossing, slice(K, None), keep)), weights)


def _dist2(pts, c):
    """(x - c0)**2 + (y - c1)**2 for (..., 2) points, formed one coordinate
    at a time: numpy broadcasts and reduces over rows of two several times
    slower, with the same values."""
    x = pts[..., 0] - c[0]
    x *= x
    y = pts[..., 1] - c[1]
    y *= y
    x += y
    return x


def _check_in_mesh(mesh, ball, dist=None):
    """Raise unless the ball's centre lies in a triangle of the mesh and the
    ball reaches across no boundary edge by more than _EDGE_SLACK of that
    edge's length (on criss-cross grids, 5 % of a boundary triangle's
    height).  dist holds each centroid's distance to the centre, formed
    here when not given.  A triangle lies within its radius of its
    centroid, so only triangles whose centroid is that close to the centre
    can hold it, and only those get the barycentric test; the slacks cover
    rounding."""
    if dist is None:
        dist = np.sqrt(_dist2(mesh.centroids, ball.center))
    c = np.asarray(ball.center)
    a, d, length2 = mesh.boundary_segments
    t = np.clip(np.einsum("ij,ij->i", c - a, d) / length2, 0.0, 1.0)
    gap = np.hypot(*(a + t[:, None] * d - c).T)      # centre to edge
    near = np.flatnonzero(dist <= (1.0 + 1e-9) * mesh.radii)
    lam = _barycentric(c[None], np.take(mesh.tri_vertices, near, axis=0))
    if (np.any(ball.radius - gap > _EDGE_SLACK * np.sqrt(length2))
            or not np.any(np.all(lam >= -1e-12, axis=1))):
        raise ValueError("ball escapes the meshed domain")


@lru_cache(maxsize=None)
def _ball_rule(depth, degree):
    """The degree rule's barycentric points followed by the same rule on
    each of the 4**depth triangles of `depth` regular 4-splits, with the
    unit weights of the latter."""
    bary, w = quad_rule(degree)
    sub = np.eye(3)[None]
    for _ in range(depth):
        sub = _split4(sub)
    points = np.concatenate([bary, (bary @ sub).reshape(-1, 3)])
    weights = np.tile(w / len(sub), len(sub))
    points.setflags(write=False)
    weights.setflags(write=False)
    return points, weights


# the entries (i, j) of M = [(v_i - c).(v_j - c)] off its diagonal
_FORM_PAIRS = (np.array([0, 0, 1]), np.array([1, 2, 2]))


@lru_cache(maxsize=None)
def _ball_form(depth, degree):
    """The (6, S) coefficients of the squared distances to the centre of the
    S sub-rule points of `_ball_rule`(depth, degree): lam_i**2 against the
    diagonal entries M_00, M_11 and M_22, then 2 lam_i lam_j against M_01,
    M_02 and M_12, for the barycentric row lam of each sub-rule point."""
    table, sub_w = _ball_rule(depth, degree)
    lam = table[len(table) - len(sub_w):]
    i, j = _FORM_PAIRS
    form = np.concatenate([lam * lam, 2.0 * lam[:, i] * lam[:, j]], axis=1).T.copy()
    form.setflags(write=False)
    return form


def _split4(tv):
    """Regular 4-split of each triangle of a (N, 3, d) vertex array."""
    m01 = 0.5 * (tv[:, 0] + tv[:, 1])
    m12 = 0.5 * (tv[:, 1] + tv[:, 2])
    m20 = 0.5 * (tv[:, 2] + tv[:, 0])
    return np.concatenate([
        np.stack([tv[:, 0], m01, m20], axis=1),
        np.stack([m01, tv[:, 1], m12], axis=1),
        np.stack([m20, m12, tv[:, 2]], axis=1),
        np.stack([m01, m12, m20], axis=1),
    ])


_VTK_ROWS = 8192      # rows formatted per write


def _write_rows(fh, fmt, rows):
    """Write fmt % tuple(row) for each row of a 2-D array, fmt % value for
    each value of a 1-D one.  Each block of rows is one %-formatting of the
    repeated fmt over its values as Python numbers: formatting those is
    several times faster than formatting numpy scalars, "%.17g" and "%d"
    give the text of "{:.17g}" and "{}" a quarter faster than str.format,
    and no copy of the whole file is held."""
    rows = np.asarray(rows)
    for i in range(0, len(rows), _VTK_ROWS):
        block = rows[i:i + _VTK_ROWS]
        fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def write_vtk(path, mesh, point_data=None, cell_data=None, comment="multiphase"):
    """Legacy ASCII VTK export of the mesh with named scalar/vector data.

    point_data: {name: (n_vertices,) array}; cell_data: {name: (n_tri, 2)
    vector arrays or (n_tri,) scalars}.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# vtk DataFile Version 3.0\n{comment}\nASCII\n"
                 f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_vertices} double\n")
        _write_rows(fh, "%.17g %.17g 0\n", mesh.vertices)
        fh.write(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}\n")
        _write_rows(fh, "3 %d %d %d\n", mesh.triangles)
        fh.write(f"CELL_TYPES {mesh.n_triangles}\n" + "5\n" * mesh.n_triangles)
        if point_data:
            fh.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, vals in point_data.items():
                fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                _write_rows(fh, "%.17g\n", vals)
        if cell_data:
            fh.write(f"CELL_DATA {mesh.n_triangles}\n")
            for name, vals in cell_data.items():
                vals = np.asarray(vals)
                if vals.ndim == 2:
                    fh.write(f"VECTORS {name} double\n")
                    _write_rows(fh, "%.17g %.17g 0\n", vals)
                else:
                    fh.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    _write_rows(fh, "%.17g\n", vals)
