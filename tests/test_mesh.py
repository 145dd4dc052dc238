import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multiphase import mesh as mesh_mod

from multiphase import (Ball, Domain2D, ExponentTriple, PhaseFunction,
                        UNIT_SQUARE, WeightPair, ball_quadrature, interpolate,
                        luxemburg_norm, refine, structured_mesh, write_vtk)


class TestStructuredMesh:
    def test_unit_square_counts(self):
        m = structured_mesh(UNIT_SQUARE, 1)
        assert m.n_vertices == 4 and m.n_triangles == 2

    def test_counts_n4(self):
        m = structured_mesh(UNIT_SQUARE, 4)
        assert m.n_vertices == 25 and m.n_triangles == 32

    def test_h_max(self):
        m = structured_mesh(UNIT_SQUARE, 64)
        assert m.h_max == pytest.approx(np.sqrt(2) / 64)

    def test_area_sums(self):
        m = structured_mesh(UNIT_SQUARE, 7)
        assert m.area == pytest.approx(1.0, rel=1e-13)

    def test_boundary_flags(self):
        m = structured_mesh(UNIT_SQUARE, 4)
        v = m.vertices
        on_bnd = ((np.abs(v[:, 0]) < 1e-14) | (np.abs(v[:, 0] - 1) < 1e-14)
                  | (np.abs(v[:, 1]) < 1e-14) | (np.abs(v[:, 1] - 1) < 1e-14))
        assert np.array_equal(m.boundary_flags, on_bnd)

    def test_polygon_path(self):
        th = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        dom = Domain2D(tuple(zip(np.cos(th), np.sin(th))))
        m = structured_mesh(dom, 8)
        assert m.h_max <= 2.0 / 8
        assert m.area == pytest.approx(dom.area, rel=1e-12)

    def test_nonconvex_polygon(self):
        dom = Domain2D(((0, 0), (2, 0), (2, 2), (1, 1), (0, 2)))
        m = structured_mesh(dom, 4)
        assert m.area == pytest.approx(dom.area, rel=1e-12)


class TestRefine:
    def test_quadruples_triangles(self):
        m = structured_mesh(UNIT_SQUARE, 1)
        assert refine(m).n_triangles == 8

    def test_halves_h(self):
        m = structured_mesh(UNIT_SQUARE, 5)
        assert refine(m).h_max == pytest.approx(m.h_max / 2)

    def test_preserves_area(self):
        m = structured_mesh(UNIT_SQUARE, 3)
        assert refine(m).area == pytest.approx(m.area, rel=1e-14)

    def test_parent_vertices_kept(self):
        m = structured_mesh(UNIT_SQUARE, 3)
        m2 = refine(m)
        assert np.allclose(m2.vertices[:m.n_vertices], m.vertices)


_DOMAINS = {
    "square": UNIT_SQUARE,
    "rectangle": Domain2D(((-1, 0.5), (2, 0.5), (2, 1.5), (-1, 1.5))),
    "hexagon": Domain2D(tuple((np.cos(a), np.sin(a))
                              for a in np.arange(6) * np.pi / 3)),
    "nonconvex": Domain2D(((0, 0), (2, 0), (2, 2), (1, 1), (0, 2))),
}


class TestRefineProperties:
    """Area and boundary survive refinement, on any domain and any
    interior vertex placement."""

    @staticmethod
    def _mesh(domain, n, seed, jitter):
        mesh = structured_mesh(_DOMAINS[domain], n)
        v = mesh.vertices.copy()
        free = ~mesh.boundary_flags
        # every height is at least 2 min(area) / h_max; moving each vertex by
        # under a third of that keeps every triangle positively oriented
        step = jitter * 2 * mesh.areas.min() / mesh.h_max
        rng = np.random.default_rng(seed)
        v[free] += step * rng.uniform(-1, 1, (int(free.sum()), 2))
        return mesh_mod.TriMesh(v, mesh.triangles)

    _given = given(domain=st.sampled_from(sorted(_DOMAINS)),
                   n=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1),
                   jitter=st.floats(0.0, 0.3), times=st.integers(1, 2))

    @settings(max_examples=40, deadline=None)
    @_given
    def test_area_preserved(self, domain, n, seed, jitter, times):
        mesh = fine = self._mesh(domain, n, seed, jitter)
        for _ in range(times):
            fine = refine(fine)
        assert abs(fine.area - mesh.area) <= 1e-14 * mesh.area

    @settings(max_examples=40, deadline=None)
    @_given
    def test_boundary_kept(self, domain, n, seed, jitter, times):
        mesh = fine = self._mesh(domain, n, seed, jitter)
        for _ in range(times):
            fine = refine(fine)
        assert np.all(fine.boundary_flags[:mesh.n_vertices][mesh.boundary_flags])


class TestGradient:
    def test_coordinate_function(self, square8):
        u = interpolate(lambda x, y: x, square8)
        assert np.allclose(u.gradients(), [1.0, 0.0], rtol=0, atol=1e-13)

    def test_constant(self, square8):
        u = interpolate(lambda x, y: 5 * np.ones(np.shape(x)), square8)
        assert np.allclose(u.gradients(), 0.0, rtol=0, atol=1e-13)

    def test_affine_exact(self, square8):
        u = interpolate(lambda x, y: 3 * x + 4 * y - 1, square8)
        grads = u.gradients()
        assert np.allclose(grads, [3.0, 4.0], atol=1e-12)


class TestIntegrate:
    """Integrals over the mesh by its degree-5 quadrature."""

    def test_constant(self, square8):
        q = square8.quadrature()
        assert q.weights @ np.ones(len(q.weights)) == pytest.approx(1.0)

    def test_linear(self, square8):
        q = square8.quadrature()
        assert q.weights @ q.points[:, 0] == pytest.approx(0.5)

    def test_degree5_polynomial(self, square8):
        q = square8.quadrature()
        x, y = q.points.T
        assert q.weights @ (x ** 2 * y ** 2) == pytest.approx(1 / 9, abs=1e-12)


class TestInterpolate:
    def test_constant(self, square8):
        u = interpolate(lambda x, y: 3.0 * np.ones(np.shape(x)), square8)
        assert np.all(u.nodal_values == 3.0)

    def test_vertex_values(self):
        m = structured_mesh(UNIT_SQUARE, 1)
        u = interpolate(lambda x, y: x, m)
        assert np.allclose(np.sort(u.nodal_values), [0, 0, 1, 1])

    def test_midpoint_sine(self, square8):
        u = interpolate(lambda x, y: np.sin(np.pi * x), square8)
        mid = np.flatnonzero(np.abs(square8.vertices[:, 0] - 0.5) < 1e-14)
        assert np.allclose(u.nodal_values[mid], 1.0)

    def test_nonfinite_rejected(self, square8):
        with pytest.raises(ValueError):
            interpolate(lambda x, y: np.where(x > 0.5, np.inf, 1.0), square8)


def ball_integral(u, ball):
    """Integral of a P1 function over a ball by its ball quadrature."""
    q = ball_quadrature(u.mesh, ball)
    return q.weights @ u.at_quad(q)


class TestBallAverage:
    """Ball-quadrature integrals of P1 functions against exact disk
    integrals, the numerators of the probes' ball means, and a ball that
    escapes across a corner of the square."""

    def test_linear_symmetry(self, square32):
        u = interpolate(lambda x, y: x, square32)
        exact = 0.5 * np.pi * 0.25 ** 2
        assert ball_integral(u, Ball((0.5, 0.5), 0.25)) == pytest.approx(exact, rel=2e-3)

    def test_quadratic_polar_value(self):
        dom = Domain2D(((-1.2, -1.2), (1.2, -1.2), (1.2, 1.2), (-1.2, 1.2)))
        m = structured_mesh(dom, 48)
        u = interpolate(lambda x, y: x * x + y * y, m)
        # oracle: int_0^R rho^2 2 pi rho drho = pi R^4 / 2
        assert ball_integral(u, Ball((0.0, 0.0), 1.0)) == pytest.approx(np.pi / 2, rel=3e-3)

    def test_affine_center_value_converges(self):
        b = Ball((0.47, 0.53), 0.2)
        errs = []
        for n in (16, 32, 64):
            m = structured_mesh(UNIT_SQUARE, n)
            u = interpolate(lambda x, y: 1 + 2 * x - y, m)
            # an affine function integrates to its centre value times pi R^2
            errs.append(abs(ball_integral(u, b) - (1 + 2 * 0.47 - 0.53) * np.pi * 0.04))
        assert errs[2] < errs[0]

    def test_escaping_ball_rejected(self, square16):
        with pytest.raises(ValueError, match="escapes"):
            ball_quadrature(square16, Ball((0.1, 0.1), 0.5))


class TestBallQuadrature:
    def test_mass_close_to_area(self, square32):
        b = Ball((0.5, 0.5), 0.3)
        q = ball_quadrature(square32, b)
        assert q.total_mass == pytest.approx(np.pi * b.radius ** 2, rel=5e-3)

    def test_additivity_over_parents(self, square32):
        b = Ball((0.5, 0.5), 0.3)
        q = ball_quadrature(square32, b)
        assert np.all(q.weights > 0)
        assert np.all(q.tri_index >= 0)
        assert np.all(q.tri_index < square32.n_triangles)

    def test_integral_and_mean(self, square32):
        """integral is the einsum contraction of weights and values, and
        mean divides it by total_mass, so a constant is its own mean on
        the clipped ball."""
        q = ball_quadrature(square32, Ball((0.5, 0.5), 0.3))
        vals = np.sin(q.points[:, 0]) + q.points[:, 1]
        assert q.integral(vals) == float(np.einsum("i,i->", q.weights, vals))
        assert q.mean(vals) == q.integral(vals) / q.total_mass
        assert q.mean(np.full(len(q.weights), 2.5)) == pytest.approx(2.5, rel=1e-15)


def _reference_vtk(mesh, point_data, cell_data, comment):
    """Legacy VTK text formatted one numpy element at a time."""
    lines = ["# vtk DataFile Version 3.0", comment, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {mesh.n_vertices} double"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    lines.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.n_triangles}")
    lines.extend(["5"] * mesh.n_triangles)
    lines.append(f"POINT_DATA {mesh.n_vertices}")
    for name, vals in point_data.items():
        lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
        lines.extend(f"{v:.17g}" for v in np.asarray(vals))
    lines.append(f"CELL_DATA {mesh.n_triangles}")
    for name, vals in cell_data.items():
        vals = np.asarray(vals)
        if vals.ndim == 2:
            lines.append(f"VECTORS {name} double")
            lines.extend(f"{v[0]:.17g} {v[1]:.17g} 0" for v in vals)
        else:
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            lines.extend(f"{v:.17g}" for v in vals)
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestVtk:
    @pytest.mark.parametrize("block_rows", [7, None])
    def test_bytes_match_per_element_reference(self, tmp_path, monkeypatch,
                                               block_rows):
        if block_rows:                     # many blocks, ragged last block
            monkeypatch.setattr(mesh_mod, "_VTK_ROWS", block_rows)
        mesh = refine(structured_mesh(UNIT_SQUARE, 3))   # sixths: 17 digits
        rng = np.random.default_rng(9)
        u = rng.standard_normal(mesh.n_vertices) * 1e-7
        u[:6] = [np.nan, np.inf, -0.0, 5e-324, 1e300, 3.0]
        point = {"u": u}
        cell = {"grad_u": rng.standard_normal((mesh.n_triangles, 2)) * 1e5,
                "area": mesh.areas}
        path = tmp_path / "out.vtk"
        write_vtk(path, mesh, point, cell, comment="config_hash=abc")
        assert path.read_bytes() == _reference_vtk(mesh, point, cell,
                                                   "config_hash=abc")

    def test_roundtrip_header(self, tmp_path, square8):
        u = interpolate(lambda x, y: x + y, square8)
        path = tmp_path / "out.vtk"
        write_vtk(path, square8, {"u": u.nodal_values},
                  {"grad": u.gradients()})
        text = path.read_text()
        assert text.startswith("# vtk DataFile Version 3.0")
        assert "DATASET UNSTRUCTURED_GRID" in text
        assert f"POINTS {square8.n_vertices} double" in text
        assert "SCALARS u double 1" in text
        assert "VECTORS grad double" in text


class TestBall:
    """A ball is two finite centre coordinates and 0 < radius < inf."""

    @pytest.mark.parametrize("center, radius, error", [
        ((0.5, 0.5), np.nan, "radius"),
        ((0.5, 0.5), np.inf, "radius"),
        ((np.nan, 0.5), 0.1, "center"),
        ((0.5, -np.inf), 0.1, "center"),
        ((0.5, 0.5, 7.0), 0.1, "center"),
        ((0.5,), 0.1, "center"),
    ], ids=["nan-radius", "infinite-radius", "nan-center",
            "infinite-center", "three-entries", "one-entry"])
    def test_rejects(self, center, radius, error):
        with pytest.raises(ValueError, match=f"{error} must be"):
            Ball(center, radius)


class TestMeasureOfAnotherMesh:
    """A P1 function read on the quadrature of another mesh, even one of as
    many triangles, is a ValueError, not values off by the mismatch."""

    def test_same_triangle_count_rejected(self):
        coarse = refine(structured_mesh(UNIT_SQUARE, 8))
        fine = structured_mesh(UNIT_SQUARE, 16)
        assert coarse.n_triangles == fine.n_triangles == 512
        u = interpolate(lambda x, y: x + 2 * y, coarse)
        tf = PhaseFunction(ExponentTriple.constants(2, 3, 4),
                           WeightPair.constants(1, 1))
        for quad in (fine.quadrature(), fine.quadrature(1),
                     ball_quadrature(fine, Ball((0.5, 0.5), 0.2))):
            with pytest.raises(ValueError, match="not on this function's mesh"):
                u.at_quad(quad)
            with pytest.raises(ValueError, match="not on this function's mesh"):
                u.grad_norm_at(quad)
            with pytest.raises(ValueError, match="not on this function's mesh"):
                luxemburg_norm(tf, u, quad)
        # its own mesh's quadrature reads the affine function exactly
        quad = coarse.quadrature()
        x, y = quad.points.T
        np.testing.assert_allclose(u.at_quad(quad), x + 2 * y, rtol=0, atol=1e-15)
