import numpy as np
import pytest

from multiphase import mesh as mesh_mod

from multiphase import (Ball, Domain2D, FeFunction, UNIT_SQUARE, ball_average,
                        ball_quadrature, gradient_on, integrate, interpolate,
                        refine, structured_mesh, write_vtk)


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


class TestGradient:
    def test_coordinate_function(self, square8):
        u = interpolate(lambda x, y: x, square8)
        for t in range(square8.n_triangles):
            assert gradient_on(t, u) == pytest.approx([1.0, 0.0], abs=1e-13)

    def test_constant(self, square8):
        u = interpolate(lambda x, y: 5 * np.ones(np.shape(x)), square8)
        assert gradient_on(0, u) == pytest.approx([0.0, 0.0], abs=1e-13)

    def test_affine_exact(self, square8):
        u = interpolate(lambda x, y: 3 * x + 4 * y - 1, square8)
        grads = u.gradients()
        assert np.allclose(grads, [3.0, 4.0], atol=1e-12)


class TestIntegrate:
    def test_constant(self, square8):
        assert integrate(lambda x, y: np.ones(np.shape(x)), square8) == pytest.approx(1.0)

    def test_linear(self, square8):
        assert integrate(lambda x, y: x, square8) == pytest.approx(0.5)

    def test_degree5_polynomial(self, square8):
        val = integrate(lambda x, y: x ** 2 * y ** 2, square8, rule_degree=5)
        assert val == pytest.approx(1 / 9, abs=1e-12)

    def test_linearity(self, square8):
        f = lambda x, y: np.sin(x) * y
        g = lambda x, y: np.cos(y) + x
        lhs = integrate(lambda x, y: 2 * f(x, y) + 3 * g(x, y), square8)
        rhs = 2 * integrate(f, square8) + 3 * integrate(g, square8)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_nonfinite_rejected(self, square8):
        with pytest.raises(ValueError, match="non-finite"):
            integrate(lambda x, y: np.full(np.shape(x), np.inf), square8)


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


class TestBallAverage:
    def test_constant(self, square32):
        u = FeFunction(square32, np.full(square32.n_vertices, 2.5))
        b = Ball((0.5, 0.5), 0.25)
        # pi R^2 normalization leaves a small clipping bias
        assert ball_average(u, b) == pytest.approx(2.5, rel=1e-2)

    def test_linear_symmetry(self, square32):
        u = interpolate(lambda x, y: x, square32)
        assert ball_average(u, Ball((0.5, 0.5), 0.25)) == pytest.approx(0.5, abs=1e-3)

    def test_quadratic_polar_value(self):
        dom = Domain2D(((-1.2, -1.2), (1.2, -1.2), (1.2, 1.2), (-1.2, 1.2)))
        m = structured_mesh(dom, 48)
        u = interpolate(lambda x, y: x * x + y * y, m)
        # oracle: (1/(pi R^2)) int_0^R rho^2 2 pi rho drho = R^2/2
        assert ball_average(u, Ball((0.0, 0.0), 1.0)) == pytest.approx(0.5, rel=3e-3)

    def test_affine_center_value_converges(self):
        b = Ball((0.47, 0.53), 0.2)
        errs = []
        for n in (16, 32, 64):
            m = structured_mesh(UNIT_SQUARE, n)
            u = interpolate(lambda x, y: 1 + 2 * x - y, m)
            errs.append(abs(ball_average(u, b) - (1 + 2 * 0.47 - 0.53)))
        assert errs[2] < errs[0]

    def test_escaping_ball_rejected(self, square16):
        u = interpolate(lambda x, y: x, square16)
        with pytest.raises(ValueError, match="escapes"):
            ball_average(u, Ball((0.1, 0.1), 0.5))


class TestBallQuadrature:
    def test_mass_close_to_area(self, square32):
        b = Ball((0.5, 0.5), 0.3)
        q = ball_quadrature(square32, b)
        assert q.total_mass == pytest.approx(b.area, rel=5e-3)

    def test_additivity_over_parents(self, square32):
        b = Ball((0.5, 0.5), 0.3)
        q = ball_quadrature(square32, b)
        assert np.all(q.weights > 0)
        assert np.all(q.tri_index >= 0)
        assert np.all(q.tri_index < square32.n_triangles)


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
