"""Mesh set-up against the implementations it replaced: the rectangle's
triangles built cell by cell, edges found by np.unique over rows,
refinement numbering midpoints through a dict, and the free pattern's keys
made unique by np.unique.  Everything the mesh stores must come out
bit-identical."""

import numpy as np
import pytest

from multiphase import Domain2D, TriMesh, UNIT_SQUARE, refine, structured_mesh
from multiphase import mesh as mesh_mod


# -- reference implementations ----------------------------------------------

def loop_rectangle_triangles(n):
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            b = (i + 1) * (n + 1) + j
            tris.append((a, b, a + 1))
            tris.append((b, b + 1, a + 1))
    return np.asarray(tris)


def row_unique_edges(vertices, triangles):
    """Edges, boundary flags and h_max from np.unique(axis=0)."""
    edges = np.sort(np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                                    triangles[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    flags = np.zeros(len(vertices), dtype=bool)
    flags[uniq[counts == 1].ravel()] = True
    lengths = np.hypot(*(vertices[uniq[:, 0]] - vertices[uniq[:, 1]]).T)
    return uniq, flags, float(lengths.max())


def dict_refine(mesh):
    """Vertices and triangles of the 4-split, midpoints numbered in the
    order the triangle loop first meets their edges."""
    edge_mid, mid_coords = {}, []
    next_id = mesh.n_vertices
    mids = np.empty((mesh.n_triangles, 3), dtype=np.int64)
    for t, tri in enumerate(mesh.triangles):
        for k in range(3):
            e = (min(tri[k], tri[(k + 1) % 3]), max(tri[k], tri[(k + 1) % 3]))
            if e not in edge_mid:
                edge_mid[e] = next_id
                mid_coords.append(0.5 * (mesh.vertices[e[0]] + mesh.vertices[e[1]]))
                next_id += 1
            mids[t, k] = edge_mid[e]
    vertices = np.vstack([mesh.vertices, np.asarray(mid_coords)])
    tris = np.empty((4 * mesh.n_triangles, 3), dtype=np.int64)
    a, b, c = mesh.triangles.T
    ab, bc, ca = mids.T
    tris[0::4] = np.column_stack([a, ab, ca])
    tris[1::4] = np.column_stack([ab, b, bc])
    tris[2::4] = np.column_stack([ca, bc, c])
    tris[3::4] = np.column_stack([ab, bc, ca])
    return vertices, tris


def unique_free_pattern(mesh):
    """indptr, indices and slot of the free pattern through np.unique."""
    free = ~mesh.boundary_flags
    n = int(np.count_nonzero(free))
    loc = np.where(free, np.cumsum(free) - 1, -1)[mesh.triangles]
    off = loc < 0
    keys = np.where(off[:, :, None] | off[:, None, :], n * n,
                    loc[:, :, None] * n + loc[:, None, :]).ravel()
    uniq = np.unique(keys)
    slot = np.searchsorted(uniq, keys).astype(np.int32)
    uniq = uniq[:np.searchsorted(uniq, n * n)]
    return (np.searchsorted(uniq, np.arange(n + 1) * n).astype(np.int32),
            (uniq % n).astype(np.int32), slot)


# -- meshes -------------------------------------------------------------------

def _jittered(n, seed):
    mesh = structured_mesh(UNIT_SQUARE, n)
    rng = np.random.default_rng(seed)
    v = mesh.vertices.copy()
    free = ~mesh.boundary_flags
    v[free] += rng.uniform(-0.3, 0.3, (int(free.sum()), 2)) / n
    return TriMesh(v, mesh.triangles)


HEXAGON = Domain2D(tuple((np.cos(a), np.sin(a)) for a in np.arange(6) * np.pi / 3))
DISK = Domain2D(tuple(zip(np.cos(np.linspace(0, 2 * np.pi, 24, endpoint=False)),
                          np.sin(np.linspace(0, 2 * np.pi, 24, endpoint=False)))))
NONCONVEX = Domain2D(((0, 0), (2, 0), (2, 2), (1, 1), (0, 2)))

MESHES = {
    "square1": lambda: structured_mesh(UNIT_SQUARE, 1),
    "square16": lambda: structured_mesh(UNIT_SQUARE, 16),
    "rectangle": lambda: structured_mesh(
        Domain2D(((-1, 0.5), (2, 0.5), (2, 1.5), (-1, 1.5))), 7),
    "jittered12": lambda: _jittered(12, 3),
    "hexagon": lambda: refine(structured_mesh(HEXAGON, 6)),
    "disk_fan": lambda: mesh_mod._triangulate_polygon(np.asarray(DISK.vertices)),
    "disk": lambda: structured_mesh(DISK, 8),
    "nonconvex": lambda: structured_mesh(NONCONVEX, 4),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def _assert_mesh_equal(mesh, vertices, triangles):
    np.testing.assert_array_equal(mesh.vertices, vertices)
    np.testing.assert_array_equal(mesh.triangles, triangles)
    edges, flags, h_max = row_unique_edges(mesh.vertices, mesh.triangles)
    np.testing.assert_array_equal(mesh.boundary_flags, flags)
    assert mesh.h_max == h_max


class TestMeshMatchesLoops:
    def test_edges_flags_and_h_max(self, mesh):
        _assert_mesh_equal(mesh, mesh.vertices, mesh.triangles)

    def test_refine(self, mesh):
        _assert_mesh_equal(refine(mesh), *dict_refine(mesh))

    def test_refine_twice(self, mesh):
        once = TriMesh(*dict_refine(mesh))
        _assert_mesh_equal(refine(refine(mesh)), *dict_refine(once))

    def test_free_pattern(self, mesh):
        pattern = mesh.free_pattern
        for got, want in zip((pattern.indptr, pattern.indices, pattern.slot),
                             unique_free_pattern(mesh)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_rectangle_triangles(self, n):
        m = structured_mesh(UNIT_SQUARE, n)
        np.testing.assert_array_equal(m.triangles, loop_rectangle_triangles(n))
        assert m.triangles.dtype == np.int64

    @pytest.mark.parametrize("domain, n", [(HEXAGON, 6), (DISK, 8), (NONCONVEX, 4)])
    def test_polygon_refinement_chain(self, domain, n):
        verts = np.asarray(domain.vertices)
        ref = mesh_mod._triangulate_polygon(verts)
        diam = np.max(np.hypot(*(verts[:, None, :] - verts[None, :, :])
                               .reshape(-1, 2).T))
        while row_unique_edges(ref.vertices, ref.triangles)[2] > diam / n:
            ref = TriMesh(*dict_refine(ref))
        _assert_mesh_equal(structured_mesh(domain, n), ref.vertices, ref.triangles)


def test_edge_shared_by_three_triangles_rejected():
    verts = np.array([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, -2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [1, 0, 4]])
    with pytest.raises(ValueError, match="non-conforming"):
        TriMesh(verts, tris)
