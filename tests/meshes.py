"""Shared 3D test meshes."""

import numpy as np

from qlim.mesh import build_halfedge


def walk_vertex_fan(mesh, v):
    """Reference: v's outgoing halfedges by one walk of the fan step
    twin(prev(h)) from vertex_out[v], without the mesh's fan table."""
    h0 = int(mesh.vertex_out[v])
    if h0 < 0:
        return []
    out = [h0]
    h = int(mesh.twin[3 * (h0 // 3) + (h0 + 2) % 3])
    while h != -1 and h != h0:
        out.append(h)
        h = int(mesh.twin[3 * (h // 3) + (h + 2) % 3])
    return out


def completion_mesh(mesh, comp):
    """Reference: the completion `comp` of `mesh` as a `TriMesh` of its own,
    by the full build from the copies' positions and each face's copies,
    so nothing of it is read from `comp`'s twins, fans or derived facts."""
    return build_halfedge(mesh.vertices[comp.vertex_map], comp.corners.reshape(-1, 3))


def grid_disk(nx=4, ny=3):
    """Planar (nx+1)x(ny+1) grid, z=0, boundary = outer rectangle."""
    verts = []
    for j in range(ny + 1):
        for i in range(nx + 1):
            verts.append((i, j, 0.0))
    faces = []
    vid = lambda i, j: j * (nx + 1) + i
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append((a, b, c))
            faces.append((a, c, d))
    return build_halfedge(np.array(verts, float), faces)


def torus_mesh(nu=6, nv=6, R=2.0, r=1.0):
    """Closed grid torus embedded as a donut."""
    verts = np.empty((nu * nv, 3))
    for i in range(nu):
        for j in range(nv):
            a = 2 * np.pi * i / nu
            b = 2 * np.pi * j / nv
            verts[i * nv + j] = (
                (R + r * np.cos(b)) * np.cos(a),
                (R + r * np.cos(b)) * np.sin(a),
                r * np.sin(b),
            )
    faces = []
    vid = lambda i, j: (i % nu) * nv + (j % nv)
    for i in range(nu):
        for j in range(nv):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append((a, b, c))
            faces.append((a, c, d))
    return build_halfedge(verts, faces)


def octahedron():
    verts = np.array(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        float,
    )
    faces = [
        (0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4),
        (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5),
    ]
    return build_halfedge(verts, faces)



def two_octahedra():
    """Two disjoint copies of `octahedron()` as one mesh."""
    m = octahedron()
    return build_halfedge(
        np.vstack([m.vertices, m.vertices + 3.0]), np.vstack([m.faces, m.faces + 6])
    )


def _remove_vertex_star(verts, faces, v):
    """Drop faces incident to v and v itself; return (verts, faces, link).

    link is the boundary cycle left behind, in boundary orientation
    (surface on the left), expressed in the new vertex numbering.
    """
    faces = [tuple(f) for f in faces]
    star = [f for f in faces if v in f]
    kept = [f for f in faces if v not in f]
    # boundary halfedges of the hole run opposite to the removed faces'
    # halfedges out of the star: in each star face (v, a, b) the edge a->b
    # survives on the far side, and the hole boundary traverses b->a ... no:
    # the kept surface lies left of a->b in the kept face, so the hole loop
    # (surface left) uses the direction b->a reversed; chain via dict a->b.
    succ = {}
    for f in star:
        i = f.index(v)
        a, b = f[(i + 1) % 3], f[(i + 2) % 3]
        succ[b] = a
    start = min(succ)
    link = [start]
    while True:
        nxt = succ[link[-1]]
        if nxt == start:
            break
        link.append(nxt)
    # drop v, remap indices
    remap = {}
    new_verts = []
    for i in range(len(verts)):
        if i == v:
            continue
        remap[i] = len(new_verts)
        new_verts.append(verts[i])
    new_faces = [tuple(remap[x] for x in f) for f in kept]
    new_link = [remap[x] for x in link]
    return np.array(new_verts), new_faces, new_link


def _torus_arrays(nu, nv, R=2.0, r=1.0, offset=np.zeros(3)):
    m = torus_mesh(nu, nv, R, r)
    return m.vertices + offset, [tuple(f) for f in m.faces]


def surface_mesh(genus, n_boundaries, rng=None):
    """Connected oriented mesh of the requested genus with n boundary loops."""
    if genus == 0:
        m = octahedron()
        verts, faces = m.vertices.copy(), [tuple(f) for f in m.faces]
        # refine once so there is room to punch holes
        verts, faces = _subdivide(verts, faces)
        verts, faces = _subdivide(verts, faces)
    elif genus == 1:
        verts, faces = _torus_arrays(8, 8)
    else:
        verts, faces = _build_genus2()
    hole_at = 0
    for _ in range(n_boundaries):
        # pick an interior vertex with full valence, deterministic scan
        m = build_halfedge(verts, faces)
        v = None
        for cand in range(hole_at, len(verts)):
            if m.is_boundary_vertex[cand]:
                continue
            fan = m.vertex_fan(cand)
            if any(m.is_boundary_vertex[m.dst(h)] for h in fan):
                continue
            v = cand
            break
        assert v is not None
        verts, faces, _ = _remove_vertex_star(verts, faces, v)
        hole_at = v + 3
    return build_halfedge(verts, faces)


def _subdivide(verts, faces):
    verts = [tuple(p) for p in verts]
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            p = (np.array(verts[a]) + np.array(verts[b])) / 2
            midpoint[key] = len(verts)
            verts.append(tuple(p))
        return midpoint[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        out += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
    return np.array(verts, float), out


def _build_genus2():
    """Glue two punctured tori along their hexagonal links."""
    va, fa = _torus_arrays(6, 6)
    vb, fb = _torus_arrays(6, 6, offset=np.array([7.0, 0, 0]))
    va, fa, la = _remove_vertex_star(va, fa, 0)
    vb, fb, lb = _remove_vertex_star(vb, fb, 0)
    assert len(la) == len(lb) == 6
    nb_offset = len(va)
    # identify lb (reversed) with la so orientations oppose
    ident = {}
    for i in range(6):
        ident[lb[(len(lb) - i) % len(lb)]] = la[i]
    remap = {}
    verts = [tuple(p) for p in va]
    for i in range(len(vb)):
        if i in ident:
            remap[i] = ident[i]
        else:
            remap[i] = len(verts)
            verts.append(tuple(vb[i]))
    faces = list(fa) + [tuple(remap[x] + 0 for x in f) for f in fb]
    return np.array(verts, float), faces
