"""Halfedge triangle mesh, surface topology, and discrete curvature.

Halfedge convention: halfedge ``3*f + i`` runs from ``faces[f][i]`` to
``faces[f][(i+1) % 3]`` with face ``f`` on its left.  Boundary edges have a
single halfedge whose twin is -1.

The build runs in whole-array passes.  Each halfedge gets the key
``min * V + max`` of its end vertices (exact in int64 for V < 2**31);
``np.unique`` over the keys gives the
edge ids, ordered by (min vertex, max vertex), and each edge's lowest
halfedge.  A stable argsort by edge id puts an edge's two halfedges next to
each other, and they become twins.  A stable argsort of the directed keys
``src * V + dst`` finds a direction used twice, which is a winding flip or
a non-manifold edge.  Fan walks and ``src``/``dst`` read plain-int lists,
not numpy scalars.  The build itself checks that every vertex star is one
fan without walking one: the fan step ``twin(prev(h))`` is one-to-one, so a
vertex's outgoing halfedges form chains (each starting at a twinless
halfedge) and cycles, and pointer doubling over the step finds each cycle's
lowest halfedge.  A star with other than one chain or cycle is refused at
its lowest vertex.
"""

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import (
    DegenerateFace,
    InconsistentOrientation,
    NonManifoldEdge,
    OddGenusResidue,
)


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
        # a NaN passes every comparison, so finiteness is its own test
        b = np.asarray(self.bary, dtype=float)
        if (
            b.shape != (3,)
            or not np.isfinite(b).all()
            or (b < -tolerances.PARAM_TOL).any()
            or abs(b.sum() - 1.0) > tolerances.BARY_SUM_TOL
        ):
            raise ValueError(f"bad barycentric coordinates {self.bary!r}")
        object.__setattr__(self, "bary", tuple(float(x) for x in b))


class TriMesh:
    """Immutable manifold oriented triangle mesh.

    Built through :func:`build_halfedge`; do not mutate after construction.
    """

    def __init__(self, vertices, faces):
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

        diag = self.bbox_diagonal()
        threshold = tolerances.DEGENERACY_FACTOR * diag * diag
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
        nv = len(self.vertices)
        nh = 3 * nf
        repeats = (F[:, 0] == F[:, 1]) | (F[:, 1] == F[:, 2]) | (F[:, 0] == F[:, 2])
        if repeats.any():
            raise DegenerateFace(f"face {int(np.argmax(repeats))} repeats a vertex")

        src = F.reshape(-1)
        dst = F[:, [1, 2, 0]].reshape(-1)
        directed = src * nv + dst
        undirected = np.minimum(src, dst) * nv + np.maximum(src, dst)

        # the first halfedge repeating a direction decides the error: 3+
        # sides so far is non-manifold, a doubled direction with only 2
        # sides is a winding flip.  Without a doubled direction no edge
        # can have more than 2 sides.
        order = np.argsort(directed, kind="stable")
        ds = directed[order]
        repeat = ds[1:] == ds[:-1]
        if repeat.any():
            later = order[1:][repeat]
            h = int(later.min())
            first = int(order[:-1][repeat][np.argmin(later)])
            u, v = int(src[h]), int(dst[h])
            key = (u, v) if u < v else (v, u)
            if np.count_nonzero(undirected[: h + 1] == undirected[h]) > 2:
                raise NonManifoldEdge(f"edge {key} has >2 incident faces")
            raise InconsistentOrientation(
                f"edge {u}->{v} appears twice (faces {first // 3} and {h // 3})"
            )

        # undirected edge ids, ordered by (min vertex, max vertex); each
        # edge's lowest halfedge is its first occurrence
        keys, edge_halfedge, edge_id = np.unique(
            undirected, return_index=True, return_inverse=True
        )
        self.n_halfedges = nh
        self.edges = np.stack(np.divmod(keys, nv), axis=1)
        self.n_edges = len(keys)
        self.edge_id = np.asarray(edge_id, dtype=np.int64)
        self.edge_halfedge = np.asarray(edge_halfedge, dtype=np.int64)

        # twins: the two halfedges of an edge, found as neighbours in the
        # edge-sorted order
        twin = np.full(nh, -1, dtype=np.int64)
        by_edge = np.argsort(self.edge_id, kind="stable")
        pair = self.edge_id[by_edge[1:]] == self.edge_id[by_edge[:-1]]
        a, b = by_edge[:-1][pair], by_edge[1:][pair]
        twin[a] = b
        twin[b] = a
        self.twin = twin

        # one outgoing halfedge per vertex, preferring the halfedge that
        # starts a boundary fan (the last one, should there be several) so
        # ccw sweeps cover the whole star
        vertex_out = np.full(nv, -1, dtype=np.int64)
        vs, firsts = np.unique(src, return_index=True)
        vertex_out[vs] = firsts
        border = np.flatnonzero(twin == -1)[::-1]
        vs, lasts = np.unique(src[border], return_index=True)
        vertex_out[vs] = border[lasts]
        self.vertex_out = vertex_out

        self.is_boundary_vertex = np.zeros(nv, dtype=bool)
        self.is_boundary_vertex[src[border]] = True
        self.is_boundary_vertex[dst[border]] = True

        # plain-int copies for the scalar walks: the corners at each
        # halfedge's ends (sharing one int object per corner), and the ccw
        # fan step h -> twin(prev(h))
        self._src = src.tolist()
        self._dst = self._src[:]
        self._dst[0::3] = self._src[1::3]
        self._dst[1::3] = self._src[2::3]
        self._dst[2::3] = self._src[0::3]
        prev = np.arange(nh)
        prev += (prev + 2) % 3 - prev % 3
        step = twin[prev]
        self._fan_step = step.tolist()

        self._check_vertex_fans(src, step)
        self.boundary_loops = self._trace_boundary_loops()

    def _check_vertex_fans(self, src, step):
        # every vertex star must be a single fan.  The fan step is one-to-one,
        # so a vertex's outgoing halfedges split into chains, each starting
        # at a twinless halfedge, and cycles.  Pointer doubling gives each
        # halfedge the lowest halfedge of its cycle, once 2**k steps exceed
        # the largest star; a chain's halfedges have then all reached its end.
        nv = len(self.vertices)
        corners = np.bincount(src, minlength=nv)
        h = np.arange(len(step))
        jump = np.where(step < 0, h, step)
        low = h
        for _ in range(int(corners.max(initial=0)).bit_length()):
            low = np.minimum(low, low[jump])
            jump = jump[jump]
        starts = (self.twin == -1) | ((step[jump] != -1) & (low == h))
        fans = np.bincount(src[starts], minlength=nv)
        bad = (corners > 0) & (fans != 1)
        if bad.any():
            raise NonManifoldEdge(f"vertex {int(np.argmax(bad))} star is not a single fan")

    def _trace_boundary_loops(self):
        loops = []
        seen = set()
        twin = self.twin.tolist()
        for h0 in np.flatnonzero(self.twin == -1).tolist():
            if h0 in seen:
                continue
            loop = []
            h = h0
            while True:
                loop.append(h)
                seen.add(h)
                # rotate around dst(h) to the next twinless halfedge
                g = self.next(h)
                while twin[g] != -1:
                    g = self.next(twin[g])
                h = g
                if h == h0:
                    break
            loops.append(loop)
        return loops

    # -- basic queries ----------------------------------------------------

    def src(self, h):
        return self._src[h]

    def dst(self, h):
        return self._dst[h]

    @staticmethod
    def next(h):
        return 3 * (h // 3) + (h % 3 + 1) % 3

    def halfedge_between(self, u, v):
        """Halfedge from u to v, or -1."""
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
        # the step is one-to-one, so the walk ends at -1 or back at h0
        step = self._fan_step
        out = [h0]
        h = step[h0]
        while h != -1 and h != h0:
            out.append(h)
            h = step[h]
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
