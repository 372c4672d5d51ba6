import collections
import os
import re
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import qlim.cutgraph
from qlim.cutgraph import (
    build_cutting_graph,
    cut_mesh,
    make_cut_graph,
    validate_cutting_graph,
)
from qlim.errors import DisconnectedMesh, QlimError, SingularityOnBoundary
from qlim.mesh import build_halfedge, topology_info
from qlim.qlimio import read_qlim
from qlim.synth import FIXTURES, PERTURB_KINDS, OverlapWarning, fixture, perturb

from meshes import (
    completion_mesh, grid_disk, octahedron, surface_mesh, torus_mesh, two_octahedra, walk_vertex_fan,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def cylinder_mesh(nu=8, nv=4):
    """Open grid cylinder (annulus), wrapped in u only."""
    verts = []
    for j in range(nv + 1):
        for i in range(nu):
            a = 2 * np.pi * i / nu
            verts.append((np.cos(a), np.sin(a), float(j)))
    faces = []
    vid = lambda i, j: j * nu + (i % nu)
    for j in range(nv):
        for i in range(nu):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append((a, b, c))
            faces.append((a, c, d))
    return build_halfedge(np.array(verts, float), faces)


def assert_simple(mesh, graph, sing=()):
    rep = validate_cutting_graph(mesh, graph, sing)
    assert rep["all"], rep
    comp = cut_mesh(mesh, graph)
    info = topology_info(completion_mesh(mesh, comp))
    assert info.euler == 1 and info.boundary_count == 1


def test_disk_no_singularities_empty_graph():
    m = grid_disk()
    g = build_cutting_graph(m, [])
    assert not g.cut_edges
    assert_simple(m, g)


def test_torus_generators():
    m = torus_mesh()
    g = build_cutting_graph(m, [])
    assert g.cut_edges
    assert_simple(m, g)


def test_annulus_with_singularities():
    m = cylinder_mesh()
    interior = [v for v in range(len(m.vertices)) if not m.is_boundary_vertex[v]]
    sing = [interior[0], interior[7]]
    g = build_cutting_graph(m, sing)
    assert_simple(m, g, sing)
    # both singularities are degree-1 endpoints and in the node set
    for s in sing:
        assert s in g.nodes


def test_boundary_singularity_rejected():
    m = grid_disk()
    assert m.is_boundary_vertex[0]
    with pytest.raises(SingularityOnBoundary):
        build_cutting_graph(m, [0])


def test_torus_empty_graph_not_simply_connected():
    m = torus_mesh()
    g = make_cut_graph(m, frozenset())
    rep = validate_cutting_graph(m, g, [])
    assert not rep["complement_simply_connected"]


def test_construction_names_the_failed_checks(monkeypatch):
    # a construction that left the torus uncut must be refused
    monkeypatch.setattr(
        qlim.cutgraph, "make_cut_graph",
        lambda mesh, cut, sing: make_cut_graph(mesh, frozenset(), sing),
    )
    with pytest.raises(
        QlimError, match="^cut graph is not simple: failed complement_simply_connected$"
    ):
        build_cutting_graph(torus_mesh(), [])


@pytest.mark.parametrize(
    "mesh, sing, error, message",
    [
        (fixture("flat_torus").mesh, [0, 4, 8], QlimError,
         "could not free singular vertex 8 from the cut graph"),
        (fixture("flat_torus").mesh, [0, 1, 2, 3, 6, 7, 9, 10], QlimError,
         "no attachment path found for singularity 2"),
        (octahedron(), [0, 1, 2], QlimError, "no seed slit found"),
        (two_octahedra(), [], DisconnectedMesh, "mesh has more than one face component"),
    ],
    ids=["singularity-on-the-graph", "walled-in-singularity", "no-seed-slit", "two-components"],
)
def test_construction_refusals(mesh, sing, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build_cutting_graph(mesh, sing)


REFUSAL = re.compile(
    r"no seed slit found|could not free singular vertex \d+ from the cut graph"
    r"|no attachment path found for singularity \d+"
)


def _shares_a_face(mesh, sing):
    return bool((np.isin(mesh.faces, sing).sum(axis=1) > 1).any())


def test_cut_contract_or_a_named_refusal():
    """Random isolated and clustered singularity sets: every construction
    either meets the cut-graph contract or is one of its named refusals,
    and a refusal needs two singularities that share a face."""
    rng = np.random.default_rng(15)
    meshes = [grid_disk(6, 6), torus_mesh(8, 8), surface_mesh(0, 1), surface_mesh(1, 1),
              surface_mesh(2, 0), fixture("flat_torus").mesh, octahedron()]
    outcomes = collections.Counter()
    for mesh in meshes:
        interior = np.flatnonzero(~mesh.is_boundary_vertex)
        for i in range(50):
            kind = ("isolated", "clustered")[i % 2]
            pool = interior
            if kind == "clustered":  # the interior 2-ring of one vertex
                c = int(rng.choice(interior))
                ring = {mesh.dst(h) for h in mesh.vertex_fan(c)}
                ring |= {mesh.dst(h) for v in ring for h in mesh.vertex_fan(v)}
                pool = [v for v in sorted(ring) if not mesh.is_boundary_vertex[v]]
            k = min(int(rng.integers(1, 9)), len(pool))
            sing = sorted(rng.choice(pool, size=k, replace=False).tolist())
            try:
                graph = build_cutting_graph(mesh, sing)
            except QlimError as exc:
                assert type(exc) is QlimError and REFUSAL.fullmatch(str(exc)), exc
                assert _shares_a_face(mesh, sing), sing
                outcomes[kind, re.sub(r" \d+", " S", str(exc))] += 1
                continue
            report = validate_cutting_graph(mesh, graph, sing)
            assert all(report.values()), (sing, report)
            ends = np.bincount(mesh.edges[sorted(graph.cut_edges)].ravel(),
                               minlength=len(mesh.vertices))
            assert all(s in graph.nodes and ends[s] == 1 for s in sing), sing
            comp = cut_mesh(mesh, graph)
            assert np.array_equal(comp.vertex_map[completion_mesh(mesh, comp).faces], mesh.faces)
            outcomes[kind, "cut"] += 1
    # both kinds of set are cut, and the sample reaches every refusal
    assert outcomes["isolated", "cut"] > 100 and outcomes["clustered", "cut"] > 100
    refusals = {outcome for _, outcome in outcomes} - {"cut"}
    assert len(refusals) == 3, outcomes


def test_missing_singularity_path_detected():
    m = cylinder_mesh()
    interior = [v for v in range(len(m.vertices)) if not m.is_boundary_vertex[v]]
    sing = [interior[0]]
    g = build_cutting_graph(m, sing)
    # drop the dead-end arc that reaches the singularity
    dead_end = None
    for arc in g.arcs:
        ends = {m.src(arc.halfedges[0]), m.dst(arc.halfedges[-1])}
        if sing[0] in ends:
            dead_end = arc
    assert dead_end is not None
    pruned = frozenset(g.cut_edges) - set(dead_end.edge_ids(m))
    g2 = make_cut_graph(m, pruned)
    rep = validate_cutting_graph(m, g2, sing)
    assert not rep["interior_singularities_are_endpoints"]


def test_cut_mesh_identity_on_empty_graph():
    m = grid_disk()
    comp = cut_mesh(m, frozenset())
    assert np.array_equal(completion_mesh(m, comp).faces, m.faces)
    assert np.array_equal(comp.vertex_map, np.arange(len(m.vertices)))


def _edge_between(m, u, v):
    """Id of the mesh edge joining vertices u and v."""
    return int(np.flatnonzero((m.edges == sorted((u, v))).all(axis=1))[0])


def test_cut_mesh_arc_duplicates_middle_vertex():
    m = grid_disk(4, 4)
    # horizontal interior arc of 2 edges through vertex (2,2)
    vid = lambda i, j: j * 5 + i
    e1 = _edge_between(m, vid(1, 2), vid(2, 2))
    e2 = _edge_between(m, vid(2, 2), vid(3, 2))
    comp = cut_mesh(m, frozenset({e1, e2}))
    assert np.count_nonzero(comp.vertex_map == vid(2, 2)) == 2
    assert np.count_nonzero(comp.vertex_map == vid(1, 2)) == 1


def test_cut_mesh_junction_three_copies():
    m = grid_disk(4, 4)
    vid = lambda i, j: j * 5 + i
    c = vid(2, 2)
    es = [
        _edge_between(m, c, vid(1, 2)),
        _edge_between(m, c, vid(3, 2)),
        _edge_between(m, c, vid(2, 3)),
    ]
    comp = cut_mesh(m, frozenset(es))
    assert np.count_nonzero(comp.vertex_map == c) == 3


def test_reglue_recovers_connectivity():
    m = torus_mesh()
    g = build_cutting_graph(m, [])
    comp = cut_mesh(m, g)
    glued = comp.vertex_map[completion_mesh(m, comp).faces]
    assert np.array_equal(glued, m.faces)
    m2 = build_halfedge(m.vertices, glued)
    assert np.array_equal(m2.twin, m.twin)


def test_euler_bookkeeping_tree_graph():
    m = grid_disk(6, 6)
    interior = [v for v in range(len(m.vertices)) if not m.is_boundary_vertex[v]]
    sing = [interior[0], interior[10]]
    g = build_cutting_graph(m, sing)
    comp = cut_mesh(m, g)
    extra = len(comp.vertex_map) - len(m.vertices)
    # tree-like graph: copies added = cut edges - components + boundary
    # touches (a graph vertex on the surface boundary gains one extra split)
    n_components = _graph_components(m, g.cut_edges)
    graph_vertices = {int(v) for e in g.cut_edges for v in m.edges[e]}
    touches = sum(1 for v in graph_vertices if m.is_boundary_vertex[v])
    assert extra == len(g.cut_edges) - n_components + touches


def _graph_components(mesh, cut_edges):
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in cut_edges:
        u, v = (int(x) for x in mesh.edges[e])
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        parent[find(u)] = find(v)
    return len({find(x) for x in parent})


@pytest.mark.parametrize("genus,k", [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)])
def test_build_on_various_topologies(genus, k):
    m = surface_mesh(genus, k)
    g = build_cutting_graph(m, [])
    assert_simple(m, g)


def _cut_mesh_ref(mesh, cut_edges):
    """Reference: the vertex-by-vertex cut that the one pass over the fan
    table replaced, grouping each walked fan's corners into copies.
    Returns the completion and each vertex's list of copies."""
    nv = len(mesh.vertices)
    corners = mesh.faces.reshape(-1).tolist()
    vertex_map = list(range(nv))
    vertex_copies = {}
    is_cut = [e in cut_edges for e in mesh.edge_id.tolist()]
    boundary = mesh.is_boundary_vertex.tolist()
    for v in range(nv):
        fan = walk_vertex_fan(mesh, v)
        if not fan:
            vertex_copies[v] = [v]
            continue
        k = len(fan)
        starts = [i for i in range(1, k) if is_cut[fan[i]]]
        if boundary[v] or is_cut[fan[0]]:
            starts = [0] + starts
        if not starts:
            groups = [list(range(k))]
        else:
            ends = starts[1:] + [k if boundary[v] else starts[0] + k]
            groups = [[i % k for i in range(st, en)] for st, en in zip(starts, ends)]
        copies = []
        for gi, grp in enumerate(groups):
            if gi == 0:
                nvid = v
            else:
                nvid = len(vertex_map)
                vertex_map.append(v)
            copies.append(nvid)
            for idx in grp:
                corners[fan[idx]] = nvid
        vertex_copies[v] = copies
    vertex_map = np.array(vertex_map, dtype=np.int64)
    comp = build_halfedge(
        mesh.vertices[vertex_map], np.array(corners, dtype=np.int64).reshape(-1, 3)
    )
    return SimpleNamespace(mesh=comp, vertex_map=vertex_map), vertex_copies


def _assert_same_cut(mesh, cut_edges):
    """cut_mesh equals the reference, or raises as the reference does."""
    try:
        want, want_copies = _cut_mesh_ref(mesh, cut_edges)
    except QlimError as exc:
        with pytest.raises(type(exc)) as got:
            cut_mesh(mesh, cut_edges)
        assert str(got.value) == str(exc)
        return
    got = cut_mesh(mesh, cut_edges)
    # the copy tables
    fan, offsets = got.fans
    assert fan.dtype == offsets.dtype == got.twin.dtype == got.corners.dtype == np.int64
    assert (fan.tolist(), offsets.tolist()) == want.mesh.vertex_fans()
    assert np.array_equal(got.twin, want.mesh.twin)
    assert np.array_equal(got.corners, want.mesh.faces.reshape(-1))
    # the facts read from them, which a `TriMesh` of the completion holds
    for name in ("vertex_out", "is_boundary_vertex"):
        a, b = getattr(got, name), getattr(want.mesh, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.boundary_loops == want.mesh.boundary_loops
    cm = want.mesh
    assert got.euler == len(cm.vertices) - cm.n_edges + len(cm.faces)
    assert got.vertex_map.dtype == want.vertex_map.dtype
    assert np.array_equal(got.vertex_map, want.vertex_map)
    # each vertex's copies, in increasing order, are the reference's list
    copies = {v: [] for v in range(len(mesh.vertices))}
    for cv, v in enumerate(got.vertex_map.tolist()):
        copies[v].append(cv)
    assert copies == want_copies


def _params_to_cut():
    """The fixtures, their perturbations and the benchmark workloads."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OverlapWarning)
        for name in sorted(FIXTURES):
            yield fixture(name)
            for kind in PERTURB_KINDS:
                try:
                    yield perturb(fixture(name), kind)
                except QlimError:
                    continue  # kind not applicable to this fixture
    for name in sorted(WORKLOADS):
        yield read_qlim(WORKLOADS[name]().text(0))


def test_cut_mesh_matches_the_per_vertex_reference_on_params():
    params = list(_params_to_cut())
    for p in params:
        _assert_same_cut(p.mesh, p.cut_edges)
    assert len(params) == 18 + 3


def test_cut_mesh_matches_the_per_vertex_reference_on_random_cuts():
    meshes = [p.mesh for p in _params_to_cut()]
    meshes = list({(m.vertices.tobytes(), m.faces.tobytes()): m for m in meshes}.values())
    rng = np.random.default_rng(14)
    on_boundary = 0
    for _ in range(200):
        mesh = meshes[rng.integers(len(meshes))]
        k = int(rng.integers(0, min(40, mesh.n_edges) + 1))
        cut = frozenset(rng.choice(mesh.n_edges, size=k, replace=False).tolist())
        on_boundary += any(mesh.twin[mesh.edge_halfedge[e]] == -1 for e in cut)
        _assert_same_cut(mesh, cut)
    assert on_boundary > 50


@pytest.mark.parametrize("mesh", [torus_mesh(8, 8), grid_disk(6, 6)], ids=["torus", "disk"])
def test_a_one_edge_slit_stays_joined(mesh):
    """A cut edge whose two ends each keep one copy is not opened: its
    halfedges stay twins and neither end becomes a boundary vertex."""
    e = next(
        e for e in range(mesh.n_edges)
        if not mesh.is_boundary_vertex[mesh.edges[e]].any()
    )
    cmesh = completion_mesh(mesh, cut_mesh(mesh, frozenset({e})))
    h = int(mesh.edge_halfedge[e])
    assert cmesh.twin[h] == mesh.twin[h] != -1
    assert not cmesh.is_boundary_vertex[mesh.edges[e]].any()
    assert len(cmesh.vertices) == len(mesh.vertices)
    _assert_same_cut(mesh, frozenset({e}))


def test_a_vertex_with_no_face_keeps_one_copy_off_the_boundary():
    """A mesh may hold a vertex that no face uses (the readers refuse one,
    `TriMesh` does not): its one copy has no corner, so no first halfedge
    (-1), and is not on the boundary, though the last halfedge, which a -1
    would index, is twinless."""
    mesh = build_halfedge(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]]), [[0, 1, 2]])
    comp = cut_mesh(mesh, frozenset())
    assert comp.twin[-1] == -1 and comp.vertex_out[3] == -1
    assert comp.is_boundary_vertex.tolist() == [True, True, True, False]
    _assert_same_cut(mesh, frozenset())


def test_bulk_edge_lengths_match_the_per_edge_norm():
    """`TriMesh.edge_lengths_3d()`, which prices the attach paths, gives every
    edge the bits of `np.linalg.norm` on that one edge."""
    meshes = [p.mesh for p in _params_to_cut()]
    meshes += [grid_disk(6, 6), torus_mesh(8, 8), surface_mesh(2, 0), octahedron()]
    for mesh in meshes:
        want = [float(np.linalg.norm(mesh.vertices[u] - mesh.vertices[v]))
                for u, v in mesh.edges.tolist()]
        assert [x.hex() for x in mesh.edge_lengths_3d()] == [x.hex() for x in want]
