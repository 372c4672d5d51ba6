import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlim.errors import (
    DegenerateFace,
    InconsistentOrientation,
    NonManifoldEdge,
    OddGenusResidue,
    QlimError,
)
from qlim.mesh import SurfacePoint, TriMesh, build_halfedge, topology_info
from qlim.synth import FIXTURES, PERTURB_KINDS, OverlapWarning, fixture, perturb

from meshes import (
    completion_mesh, grid_disk, octahedron, surface_mesh, torus_mesh, two_octahedra,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def test_single_triangle():
    m = build_halfedge(
        np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], float), [(0, 1, 2)]
    )
    assert len(m.faces) == 1
    assert m.n_edges == 3
    assert all(m.twin[h] == -1 for h in range(3))
    assert len(m.boundary_loops) == 1
    assert len(m.boundary_loops[0]) == 3


def test_two_triangles_shared_edge():
    m = build_halfedge(
        np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], float),
        [(0, 1, 2), (0, 2, 3)],
    )
    interior = [e for e in range(m.n_edges) if m.twin[m.edge_halfedge[e]] != -1]
    assert len(interior) == 1
    assert m.n_edges - len(interior) == 4


def test_flipped_triangle_rejected():
    # edge 2-0 traversed in the same direction by both faces
    with pytest.raises(InconsistentOrientation):
        build_halfedge(
            np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], float),
            [(0, 1, 2), (3, 2, 0)],
        )


def test_nonmanifold_edge_rejected():
    with pytest.raises((NonManifoldEdge, InconsistentOrientation)):
        build_halfedge(
            np.array(
                [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0)], float
            ),
            [(0, 1, 2), (1, 0, 3), (0, 1, 4)],
        )


def test_degenerate_face_rejected():
    with pytest.raises(DegenerateFace):
        build_halfedge(
            np.array([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 5, 0)], float),
            [(0, 1, 2), (0, 2, 3)],
        )


@pytest.mark.parametrize(
    "make, error, message",
    [
        pytest.param(lambda: TriMesh(np.zeros((3, 2)), [(0, 1, 2)]),
                     ValueError, r"^vertices must be \(n, 3\)$", id="vertex-shape"),
        pytest.param(lambda: TriMesh(np.eye(3), [(0, 1)]),
                     ValueError, r"^faces must be \(m, 3\)$", id="face-shape"),
        pytest.param(lambda: TriMesh(np.eye(3), [(0, 1, 3)]),
                     ValueError, "^face index out of range$", id="face-index"),
        # every vertex at one point: the bbox diagonal and so the area
        # threshold are 0, and a zero area is not above it
        pytest.param(lambda: TriMesh(np.ones((3, 3)), [(0, 1, 2)]), DegenerateFace,
                     r"^face 0 has area 0\.000e\+00, not above threshold 0\.000e\+00$",
                     id="coincident-vertices"),
        pytest.param(lambda: topology_info(two_octahedra()), OddGenusResidue,
                     "^2 - chi - k = -2 is not an even nonnegative number$", id="two-components"),
    ],
)
def test_input_refusals(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_topology_torus():
    t = topology_info(torus_mesh())
    assert (t.genus, t.boundary_count, t.euler) == (1, 0, 0)


def test_topology_torus_two_holes():
    m = surface_mesh(1, 2)
    t = topology_info(m)
    assert (t.genus, t.boundary_count, t.euler) == (1, 2, -2)


def test_topology_disk():
    t = topology_info(grid_disk())
    assert (t.genus, t.boundary_count, t.euler) == (0, 1, 1)


def test_topology_genus2():
    t = topology_info(surface_mesh(2, 0))
    assert (t.genus, t.boundary_count, t.euler) == (2, 0, -2)


@pytest.mark.parametrize("mesh_fn", [octahedron, torus_mesh, lambda: surface_mesh(2, 0)])
def test_gauss_bonnet_closed(mesh_fn):
    """The 3D angle defects (2*pi minus each vertex's corner angles) of a
    closed mesh sum to 2*pi times its Euler characteristic."""
    m = mesh_fn()
    chi = topology_info(m).euler
    p = m.vertices[m.faces]
    a, b = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
    cos = (a * b).sum(-1) / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))
    total = 2 * np.pi * len(m.vertices) - np.arccos(np.clip(cos, -1.0, 1.0)).sum()
    assert abs(total - 2 * np.pi * chi) < 1e-9 * len(m.vertices)


def test_topology_invariant_under_reindexing():
    m = torus_mesh()
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(m.vertices))
    inv = np.argsort(perm)
    verts = m.vertices[inv]
    faces = perm[m.faces]
    m2 = build_halfedge(verts, faces)
    assert topology_info(m2) == topology_info(m)


def test_surface_point_validation():
    SurfacePoint(0, (0.2, 0.3, 0.5))
    for bary in [(0.5, 0.6, 0.5), (-0.1, 0.6, 0.5), (2.0, -0.5, -0.5),
                 (np.nan, 0.5, 0.5), (np.inf, 0.0, 0.0), (-np.inf, 1.0, 1.0)]:
        with pytest.raises(ValueError, match="bad barycentric coordinates"):
            SurfacePoint(0, bary)


# ---------------------------------------------------------------------------
# the sort-based halfedge build against a per-halfedge reference


def _reference_build(vertices, faces):
    """The halfedge build as one loop over halfedges with dicts, kept as
    the reference for TriMesh._build: the same attributes as a dict, or
    the same exception."""
    F = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    nf, nv = len(F), len(vertices)
    for f in range(nf):
        a, b, c = F[f]
        if a == b or b == c or a == c:
            raise DegenerateFace(f"face {f} repeats a vertex")

    nh = 3 * nf
    src = [int(F[h // 3, h % 3]) for h in range(nh)]
    dst = [int(F[h // 3, (h % 3 + 1) % 3]) for h in range(nh)]
    twin = np.full(nh, -1, dtype=np.int64)
    directed = {}
    undirected = {}
    for h in range(nh):
        u, v = src[h], dst[h]
        key = (u, v) if u < v else (v, u)
        undirected.setdefault(key, []).append(h)
        if (u, v) in directed:
            if len(undirected[key]) > 2:
                raise NonManifoldEdge(f"edge {key} has >2 incident faces")
            raise InconsistentOrientation(
                f"edge {u}->{v} appears twice (faces "
                f"{directed[(u, v)] // 3} and {h // 3})"
            )
        directed[(u, v)] = h
    for key, hs in undirected.items():
        if len(hs) > 2:
            raise NonManifoldEdge(f"edge {key} has {len(hs)} incident faces")
        if len(hs) == 2:
            twin[hs[0]] = hs[1]
            twin[hs[1]] = hs[0]

    keys = sorted(undirected)
    edges = np.array(keys, dtype=np.int64).reshape(-1, 2)
    eid = {k: i for i, k in enumerate(keys)}
    edge_id = np.empty(nh, dtype=np.int64)
    edge_halfedge = np.full(len(keys), -1, dtype=np.int64)
    for h in range(nh):
        u, v = src[h], dst[h]
        e = eid[(u, v) if u < v else (v, u)]
        edge_id[h] = e
        if edge_halfedge[e] < 0 or h < edge_halfedge[e]:
            edge_halfedge[e] = h

    vertex_out = np.full(nv, -1, dtype=np.int64)
    for h in range(nh):
        if vertex_out[src[h]] < 0:
            vertex_out[src[h]] = h
    for h in range(nh):
        if twin[h] == -1:
            vertex_out[src[h]] = h
    is_boundary_vertex = np.zeros(nv, dtype=bool)
    for h in range(nh):
        if twin[h] == -1:
            is_boundary_vertex[src[h]] = True
            is_boundary_vertex[dst[h]] = True

    def prev(h):
        return 3 * (h // 3) + (h % 3 + 2) % 3

    def vertex_fan(v):
        h0 = int(vertex_out[v])
        if h0 < 0:
            return []
        out = []
        h = h0
        while True:
            out.append(h)
            g = twin[prev(h)]
            if g == -1 or g == h0:
                break
            h = int(g)
            if len(out) > nh:
                raise NonManifoldEdge(f"vertex {v} fan does not close")
        return out

    counts = np.zeros(nv, dtype=np.int64)
    for h in range(nh):
        counts[src[h]] += 1
    fans = [vertex_fan(v) for v in range(nv)]
    for v in range(nv):
        if counts[v] and len(fans[v]) != counts[v]:
            raise NonManifoldEdge(f"vertex {v} star is not a single fan")

    loops = []
    seen = set()
    for h0 in range(nh):
        if twin[h0] != -1 or h0 in seen:
            continue
        loop = []
        h = h0
        while True:
            loop.append(h)
            seen.add(h)
            g = TriMesh.next(h)
            while twin[g] != -1:
                g = TriMesh.next(twin[g])
            h = g
            if h == h0:
                break
        loops.append(loop)

    return {
        "twin": twin,
        "edges": edges,
        "edge_id": edge_id,
        "edge_halfedge": edge_halfedge,
        "vertex_out": vertex_out,
        "is_boundary_vertex": is_boundary_vertex,
        "boundary_loops": loops,
        "fans": fans,
        "fan_table": (
            [h for fan in fans for h in fan],
            np.cumsum([0] + [len(fan) for fan in fans]).tolist(),
        ),
    }


def _built(vertices, faces):
    """TriMesh._build alone (no range or area check), as the same dict."""
    m = TriMesh.__new__(TriMesh)
    m.vertices = np.asarray(vertices, dtype=float)
    m.faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    m._build()
    assert len(m._fans[1]) == len(m.vertices) + 1  # the build walks every star
    d = {name: getattr(m, name) for name in (
        "twin", "edges", "edge_id", "edge_halfedge", "vertex_out",
        "is_boundary_vertex", "boundary_loops",
    )}
    d["fans"] = [m.vertex_fan(v) for v in range(len(m.vertices))]
    d["fan_table"] = m.vertex_fans()
    assert m.n_halfedges == 3 * len(m.faces)
    assert m.n_edges == len(m.edges)
    for h in range(m.n_halfedges):
        assert (m.src(h), m.dst(h)) == (
            m.faces[h // 3, h % 3], m.faces[h // 3, (h % 3 + 1) % 3]
        )
    return d


def _assert_same_build(vertices, faces):
    """The build equals the reference, or raises as the reference does."""
    try:
        want = _reference_build(vertices, faces)
    except QlimError as exc:
        with pytest.raises(type(exc)) as got:
            _built(vertices, faces)
        assert str(got.value) == str(exc)
        return
    got = _built(vertices, faces)
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype, name
            assert got[name].shape == value.shape, name
            assert np.array_equal(got[name], value), name
        else:
            assert got[name] == value, name


def _fixture_params():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        for name in sorted(FIXTURES):
            yield fixture(name)
            for kind in PERTURB_KINDS:
                try:
                    yield perturb(fixture(name), kind)
                except QlimError:
                    continue  # kind not applicable to this fixture


def test_build_matches_reference_on_fixtures_and_completions():
    checked = 0
    for p in _fixture_params():
        for mesh in (p.mesh, completion_mesh(p.mesh, p.completion)):
            _assert_same_build(mesh.vertices, mesh.faces)
            checked += 1
    assert checked == 2 * 18


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_build_matches_reference_on_workload_meshes(name):
    from qlim.qlimio import read_qlim

    p = read_qlim(WORKLOADS[name]().text(0))
    for mesh in (p.mesh, completion_mesh(p.mesh, p.completion)):
        _assert_same_build(mesh.vertices, mesh.faces)


def _grid_triangles(n=3):
    """Every triangle of each cell of an n x n vertex grid: both diagonal
    splits, so overlapping picks give edges with three or four sides."""
    vid = lambda i, j: j * n + i  # noqa: E731
    tris = []
    for j in range(n - 1):
        for i in range(n - 1):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris += [(a, b, c), (a, c, d), (a, b, d), (b, c, d)]
    return tris


GRID_VERTICES = np.array([(i, j, 0.0) for j in range(3) for i in range(3)])
GRID_TRIANGLES = _grid_triangles(3)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, len(GRID_TRIANGLES) - 1),  # which triangle
            st.booleans(),  # flipped
            st.integers(0, 2),  # first corner
        ),
        max_size=12,
    )
)
def test_build_matches_reference_on_grid_subsets(picks):
    faces = []
    for k, flip, shift in picks:
        tri = GRID_TRIANGLES[k]
        if flip:
            tri = tri[::-1]
        faces.append(tri[shift:] + tri[:shift])
    _assert_same_build(GRID_VERTICES, faces)


def test_build_errors_name_the_first_offender():
    # a winding flip: the doubled direction 0->2 is found at face 1
    with pytest.raises(InconsistentOrientation, match=r"edge 2->0 appears twice \(faces 0 and 1\)"):
        _built(GRID_VERTICES, [(0, 1, 2), (3, 2, 0)])
    # a third side on edge (0, 4)
    with pytest.raises(NonManifoldEdge, match=r"edge \(0, 4\) has >2 incident faces"):
        _built(GRID_VERTICES, [(0, 1, 4), (0, 4, 3), (4, 0, 6), (0, 4, 5)])
    with pytest.raises(DegenerateFace, match="face 1 repeats a vertex"):
        _built(GRID_VERTICES, [(0, 1, 4), (0, 4, 4), (1, 1, 2)])
    # two squares touching at vertex 4 only
    with pytest.raises(NonManifoldEdge, match="vertex 4 star is not a single fan"):
        _built(GRID_VERTICES, [(0, 1, 4), (0, 4, 3), (4, 5, 8), (4, 8, 7)])


def _tet(a, b, c, d):
    """The four faces of a closed, consistently oriented tetrahedron."""
    return [(a, b, c), (a, c, d), (a, d, b), (b, d, c)]


@pytest.mark.parametrize(
    "faces, v",
    [
        (_tet(3, 0, 1, 2) + _tet(3, 4, 5, 6), 3),  # interior: two closed fans
        ([(0, 1, 2), (2, 3, 4)], 2),  # on the boundary: two open fans
        (_tet(5, 0, 1, 2) + [(5, 6, 7)], 5),  # a closed fan and an open fan
        ([(6, 7, 8), (8, 9, 10)] + _tet(4, 0, 1, 2) + _tet(4, 3, 5, 11), 4),
    ],
    ids=["interior", "boundary", "closed_and_open", "lowest_of_two"],
)
def test_star_of_two_fans_is_named_like_the_per_vertex_walk(faces, v):
    vertices = np.zeros((12, 3))
    with pytest.raises(NonManifoldEdge, match=f"^vertex {v} star is not a single fan$"):
        _built(vertices, faces)
    _assert_same_build(vertices, faces)
