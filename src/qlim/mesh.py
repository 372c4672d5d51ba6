"""Halfedge triangle mesh, surface topology, and discrete curvature.

Halfedge convention: halfedge ``3*f + i`` runs from ``faces[f][i]`` to
``faces[f][(i+1) % 3]`` with face ``f`` on its left.  Boundary edges have a
single halfedge whose twin is -1.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateFace,
    InconsistentOrientation,
    NonManifoldEdge,
    OddGenusResidue,
)

DEGENERACY_FACTOR = 1e-12  # area threshold = factor * (bbox diagonal)^2


@dataclass(frozen=True)
class TopologyInfo:
    genus: int
    boundary_count: int
    euler: int


@dataclass(frozen=True)
class SurfacePoint:
    face: int
    bary: tuple

    def __post_init__(self):
        b = np.asarray(self.bary, dtype=float)
        if b.shape != (3,) or np.any(b < -1e-12) or abs(b.sum() - 1.0) > 1e-9:
            raise ValueError(f"bad barycentric coordinates {self.bary!r}")
        object.__setattr__(self, "bary", tuple(float(x) for x in b))


class TriMesh:
    """Immutable manifold oriented triangle mesh.

    Built through :func:`build_halfedge`; do not mutate after construction.
    """

    def __init__(self, vertices, faces, *, _skip_area_check=False):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must be (n, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise ValueError("faces must be (m, 3)")
        if self.faces.size and (
            self.faces.min() < 0 or self.faces.max() >= len(self.vertices)
        ):
            raise ValueError("face index out of range")
        self._build()

        if not _skip_area_check:
            diag = self.bbox_diagonal()
            threshold = DEGENERACY_FACTOR * diag * diag
            areas = self.face_areas()
            bad = np.nonzero(areas < threshold)[0]
            if bad.size:
                raise DegenerateFace(
                    f"face {bad[0]} has area {areas[bad[0]]:.3e} "
                    f"below threshold {threshold:.3e}"
                )

    # -- construction ----------------------------------------------------

    def _build(self):
        F = self.faces
        nf = len(F)
        for f in range(nf):
            a, b, c = F[f]
            if a == b or b == c or a == c:
                raise DegenerateFace(f"face {f} repeats a vertex")

        nh = 3 * nf
        twin = np.full(nh, -1, dtype=np.int64)
        directed = {}
        undirected = {}
        for h in range(nh):
            u = int(F[h // 3, h % 3])
            v = int(F[h // 3, (h % 3 + 1) % 3])
            key = (u, v) if u < v else (v, u)
            undirected.setdefault(key, []).append(h)
            if (u, v) in directed:
                # decide which error: 3+ sides is non-manifold, a doubled
                # direction with only 2 sides is a winding flip
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

        self.twin = twin
        self.n_halfedges = nh

        # undirected edge ids, ordered by (min vertex, max vertex)
        keys = sorted(undirected)
        self.edges = np.array(keys, dtype=np.int64).reshape(-1, 2)
        self.n_edges = len(keys)
        eid = {k: i for i, k in enumerate(keys)}
        self.edge_id = np.empty(nh, dtype=np.int64)
        self.edge_halfedge = np.full(self.n_edges, -1, dtype=np.int64)
        for h in range(nh):
            u = int(F[h // 3, h % 3])
            v = int(F[h // 3, (h % 3 + 1) % 3])
            e = eid[(u, v) if u < v else (v, u)]
            self.edge_id[h] = e
            if self.edge_halfedge[e] < 0 or h < self.edge_halfedge[e]:
                self.edge_halfedge[e] = h

        # one outgoing halfedge per vertex, preferring the halfedge that
        # starts a boundary fan so ccw sweeps cover the whole star
        nv = len(self.vertices)
        vertex_out = np.full(nv, -1, dtype=np.int64)
        for h in range(nh):
            v = int(F[h // 3, h % 3])
            if vertex_out[v] < 0:
                vertex_out[v] = h
        for h in range(nh):
            if twin[h] == -1:
                vertex_out[int(F[h // 3, h % 3])] = h
        self.vertex_out = vertex_out

        self.is_boundary_vertex = np.zeros(nv, dtype=bool)
        for h in range(nh):
            if twin[h] == -1:
                self.is_boundary_vertex[int(F[h // 3, h % 3])] = True
                self.is_boundary_vertex[int(F[h // 3, (h % 3 + 1) % 3])] = True

        self._check_vertex_fans()
        self.boundary_loops = self._trace_boundary_loops()

    def _check_vertex_fans(self):
        # every vertex star must be a single fan of faces
        counts = np.zeros(len(self.vertices), dtype=np.int64)
        for h in range(self.n_halfedges):
            counts[self.src(h)] += 1
        for v in range(len(self.vertices)):
            if counts[v] == 0:
                continue
            if len(self.vertex_fan(v)) != counts[v]:
                raise NonManifoldEdge(f"vertex {v} star is not a single fan")

    def _trace_boundary_loops(self):
        loops = []
        seen = set()
        for h0 in range(self.n_halfedges):
            if self.twin[h0] != -1 or h0 in seen:
                continue
            loop = []
            h = h0
            while True:
                loop.append(h)
                seen.add(h)
                # rotate around dst(h) to the next twinless halfedge
                g = self.next(h)
                while self.twin[g] != -1:
                    g = self.next(self.twin[g])
                h = g
                if h == h0:
                    break
            loops.append(loop)
        return loops

    # -- basic queries ----------------------------------------------------

    def src(self, h):
        return int(self.faces[h // 3, h % 3])

    def dst(self, h):
        return int(self.faces[h // 3, (h % 3 + 1) % 3])

    @staticmethod
    def next(h):
        return 3 * (h // 3) + (h % 3 + 1) % 3

    @staticmethod
    def prev(h):
        return 3 * (h // 3) + (h % 3 + 2) % 3

    def halfedge_between(self, u, v):
        """Halfedge from u to v, or -1."""
        h0 = self.vertex_out[u]
        if h0 < 0:
            return -1
        for h in self.vertex_fan(u):
            if self.dst(h) == v:
                return h
        return -1

    def vertex_fan(self, v):
        """Outgoing halfedges around v in counterclockwise order.

        For boundary vertices the sweep starts at the outgoing boundary
        halfedge and ends before leaving the surface.
        """
        h0 = int(self.vertex_out[v])
        if h0 < 0:
            return []
        out = []
        h = h0
        while True:
            out.append(h)
            g = self.twin[self.prev(h)]
            if g == -1 or g == h0:
                break
            h = int(g)
            if len(out) > self.n_halfedges:
                raise NonManifoldEdge(f"vertex {v} fan does not close")
        return out

    def bbox_diagonal(self):
        if not len(self.vertices):
            return 0.0
        span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(np.linalg.norm(span))

    def face_areas(self):
        p = self.vertices[self.faces]
        return 0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1
        )

    def corner_angle(self, f, i):
        """3D angle at corner i of face f."""
        p = self.vertices[self.faces[f]]
        a = p[(i + 1) % 3] - p[i]
        b = p[(i + 2) % 3] - p[i]
        cosv = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        return float(np.arccos(np.clip(cosv, -1.0, 1.0)))

    def edge_length(self, e):
        u, v = self.edges[e]
        return float(np.linalg.norm(self.vertices[u] - self.vertices[v]))


def build_halfedge(vertices, faces) -> TriMesh:
    """Build a TriMesh with full halfedge connectivity and boundary loops."""
    return TriMesh(vertices, faces)


def topology_info(mesh: TriMesh) -> TopologyInfo:
    V = len(mesh.vertices)
    E = mesh.n_edges
    F = len(mesh.faces)
    chi = V - E + F
    k = len(mesh.boundary_loops)
    residue = 2 - chi - k
    if residue % 2 != 0 or residue < 0:
        raise OddGenusResidue(f"2 - chi - k = {residue} is not an even nonnegative number")
    return TopologyInfo(genus=residue // 2, boundary_count=k, euler=chi)


def angle_defect(mesh: TriMesh, vertex: int) -> float:
    """2*pi (interior) or pi (boundary) minus the incident 3D corner angles."""
    total = 0.0
    for h in mesh.vertex_fan(vertex):
        total += mesh.corner_angle(h // 3, h % 3)
    flat = np.pi if mesh.is_boundary_vertex[vertex] else 2.0 * np.pi
    return float(flat - total)
