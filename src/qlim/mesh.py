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
a non-manifold edge.  ``src``/``dst`` read plain-int lists, not numpy
scalars.

Every vertex star is then read by one walk: from ``vertex_out[v]`` by the
ccw fan step ``twin(prev(h))``.  The step is one-to-one, so a walk ends at
-1 or back at its start, and a star of one fan is walked whole; a walk
shorter than the vertex's corner count is refused at the lowest such
vertex.  The walks are stored as the vertex-fan table (``vertex_fans()``).
A single open fan starts at the vertex's only twinless outgoing halfedge,
its ``vertex_out``, so each boundary halfedge h is followed on its loop by
``vertex_out[dst(h)]``.

A completion has the mesh's faces and halfedges, so `_cut_open` relabels
the mesh's twins and fans instead of sorting and walking; it shares the
edge table (`_set_edges`) and the boundary loops (`_set_boundary`).
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

    Built through :func:`build_halfedge` (or `_cut_open`); do not mutate
    after construction.
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
        bad = np.nonzero(areas <= threshold)[0]
        if bad.size:
            raise DegenerateFace(
                f"face {bad[0]} has area {areas[bad[0]]:.3e}, "
                f"not above threshold {threshold:.3e}"
            )

    # -- construction ----------------------------------------------------

    def _build(self):
        F = self.faces
        nv = len(self.vertices)
        nh = 3 * len(F)
        repeats = (F[:, 0] == F[:, 1]) | (F[:, 1] == F[:, 2]) | (F[:, 0] == F[:, 2])
        if repeats.any():
            raise DegenerateFace(f"face {int(np.argmax(repeats))} repeats a vertex")

        src, dst, undirected = self._set_edges()

        # the first halfedge repeating a direction decides the error: 3+
        # sides so far is non-manifold, a doubled direction with only 2
        # sides is a winding flip.  Without a doubled direction no edge
        # can have more than 2 sides.
        directed = src * nv + dst
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

        # every vertex star walked once by the ccw fan step twin(prev(h))
        prev = np.arange(nh)
        prev += (prev + 2) % 3 - prev % 3
        step = twin[prev].tolist()
        corners = np.bincount(src, minlength=nv).tolist()
        halfedges, offsets = [], [0]
        for v, h0 in enumerate(vertex_out.tolist()):
            if h0 >= 0:
                halfedges.append(h0)
                h = step[h0]
                while h != -1 and h != h0:
                    halfedges.append(h)
                    h = step[h]
            offsets.append(len(halfedges))
            if offsets[v + 1] - offsets[v] != corners[v]:
                raise NonManifoldEdge(f"vertex {v} star is not a single fan")
        self._fans = (halfedges, offsets)
        self._set_boundary(src, dst)

    @classmethod
    def _cut_open(cls, mesh, vertex_map, corners, fan):
        """`mesh` cut open, halfedge h leaving copy ``corners[h]``; `fan` is
        ``mesh.vertex_fans()[0]`` as an array.  Each copy is one run of a
        mesh fan, so no check of `_build` can fail, and none runs."""
        self = cls.__new__(cls)
        self.vertices = mesh.vertices[vertex_map]
        self.faces = corners.reshape(-1, 3)
        src, dst, _ = self._set_edges()
        # mesh twins stay twins unless the cut opened their edge, giving its
        # two sides different copies at one end or both
        twin = self.twin = mesh.twin.copy()
        h = np.flatnonzero(twin >= 0)
        twin[h[(src[h] != dst[twin[h]]) | (dst[h] != src[twin[h]])]] = -1
        # a copy's fan is its run of the mesh fan, from its twinless outgoing
        # halfedge if it has one, else from the mesh fan's start
        copy, pos = src[fan], np.arange(len(fan))
        lone = pos[twin[fan] == -1]
        start = np.zeros(len(vertex_map), dtype=np.int64)
        start[copy[lone]] = lone
        self.vertex_out = mesh.vertex_out[vertex_map]
        self.vertex_out[copy[lone]] = fan[lone]
        order = np.lexsort((pos < start[copy], copy))
        sizes = np.bincount(copy, minlength=len(vertex_map))
        self._fans = (fan[order].tolist(), [0, *np.cumsum(sizes).tolist()])
        self._set_boundary(src, dst)
        return self

    def _set_edges(self):
        """Set the edge table and plain-int `src`/`dst` (one int object per
        corner) from `faces`; returns src, dst and the undirected keys."""
        nv = len(self.vertices)
        src = self.faces.reshape(-1)
        dst = self.faces[:, [1, 2, 0]].reshape(-1)
        undirected = np.minimum(src, dst) * nv + np.maximum(src, dst)
        keys, edge_halfedge, edge_id = np.unique(
            undirected, return_index=True, return_inverse=True
        )
        self.n_halfedges = len(src)
        self.edges = np.stack(np.divmod(keys, nv), axis=1)
        self.n_edges = len(keys)
        self.edge_id = np.asarray(edge_id, dtype=np.int64)
        self.edge_halfedge = np.asarray(edge_halfedge, dtype=np.int64)
        self._src = src.tolist()
        self._dst = self._src[:]
        self._dst[0::3] = self._src[1::3]
        self._dst[1::3] = self._src[2::3]
        self._dst[2::3] = self._src[0::3]
        return src, dst, undirected

    def _set_boundary(self, src, dst):
        """Set the boundary vertices and loops from `twin` and `vertex_out`:
        a boundary halfedge h is followed by ``vertex_out[dst(h)]``."""
        ends = np.flatnonzero(self.twin == -1)
        self.is_boundary_vertex = np.zeros(len(self.vertices), dtype=bool)
        self.is_boundary_vertex[src[ends]] = True
        self.is_boundary_vertex[dst[ends]] = True
        link = dict(zip(ends.tolist(), self.vertex_out[dst[ends]].tolist()))
        loops, seen = [], set()
        for h0 in link:
            if h0 not in seen:
                loop = [h0]
                while (h := link[loop[-1]]) != h0:
                    loop.append(h)
                seen.update(loop)
                loops.append(loop)
        self.boundary_loops = loops

    # -- basic queries ----------------------------------------------------

    def src(self, h):
        return self._src[h]

    def dst(self, h):
        return self._dst[h]

    @staticmethod
    def next(h):
        return 3 * (h // 3) + (h % 3 + 1) % 3

    def vertex_fans(self):
        """(halfedges, offsets): the outgoing halfedges of every vertex in
        `vertex_fan` order, as one flat list of ints, vertex v's at
        ``halfedges[offsets[v]:offsets[v + 1]]``."""
        return self._fans

    def vertex_fan(self, v):
        """Outgoing halfedges around v in counterclockwise order, as a new
        list.

        For boundary vertices the sweep starts at the outgoing boundary
        halfedge and ends before leaving the surface.
        """
        halfedges, offsets = self.vertex_fans()
        return halfedges[offsets[v]:offsets[v + 1]]

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

    def edge_lengths_3d(self):
        """The 3D length of each edge, as a list of floats.
        `np.sqrt(np.vecdot(...))` runs the BLAS dot `np.linalg.norm` runs on
        one 3-vector, so every length has the bits of the per-edge norm."""
        d = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
        return np.sqrt(np.vecdot(d, d)).tolist()


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
