"""Halfedge triangle mesh and surface topology.

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

The fan table is kept as lists and, converted once on first use, as arrays
(`fan_arrays()`).  The boundary loops come from `boundary_loops`, which
`cutgraph.CompletionMesh` calls on its copy tables too, so both surfaces
order their loops alike.
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

        src = F.reshape(-1)
        dst = F[:, [1, 2, 0]].reshape(-1)
        undirected = np.minimum(src, dst) * nv + np.maximum(src, dst)
        keys, edge_halfedge, edge_id = np.unique(
            undirected, return_index=True, return_inverse=True
        )
        self.n_halfedges = nh
        self.edges = np.stack(np.divmod(keys, nv), axis=1)
        self.n_edges = len(keys)
        self.edge_id = np.asarray(edge_id, dtype=np.int64)
        self.edge_halfedge = np.asarray(edge_halfedge, dtype=np.int64)
        # plain-int src/dst lists: one int object per corner
        self._src = src.tolist()
        self._dst = self._src[:]
        self._dst[0::3] = self._src[1::3]
        self._dst[1::3] = self._src[2::3]
        self._dst[2::3] = self._src[0::3]

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
        self._fan_arrays = None
        # every star is one fan, so a twinless halfedge into v means a
        # twinless one out of v: v is on the boundary
        self.is_boundary_vertex = np.zeros(nv, dtype=bool)
        self.is_boundary_vertex[src[border]] = True
        self.boundary_loops = boundary_loops(src, twin, vertex_out)

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

    def fan_arrays(self):
        """`vertex_fans()` as two int64 arrays, converted once."""
        if self._fan_arrays is None:
            self._fan_arrays = tuple(np.array(x, dtype=np.int64) for x in self._fans)
        return self._fan_arrays

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

    def edge_lengths_3d(self):
        """The 3D length of each edge, as a list of floats.
        `np.sqrt(np.vecdot(...))` runs the BLAS dot `np.linalg.norm` runs on
        one 3-vector, so every length has the bits of the per-edge norm."""
        d = self.vertices[self.edges[:, 0]] - self.vertices[self.edges[:, 1]]
        return np.sqrt(np.vecdot(d, d)).tolist()


def boundary_loops(corners, twin, vertex_out):
    """The boundary loops of the surface whose halfedge h leaves vertex
    ``corners[h]`` and has twin ``twin[h]``: each loop lists its twinless
    halfedges in order, from its lowest, and the loops are ordered by their
    first halfedges.  A twinless h is followed by ``vertex_out[dst(h)]``,
    the twinless halfedge that starts dst(h)'s one open fan."""
    ends = np.flatnonzero(twin == -1)
    dst = corners[ends - ends % 3 + (ends + 1) % 3]
    link = dict(zip(ends.tolist(), vertex_out[dst].tolist()))
    loops, seen = [], set()
    for h0 in link:
        if h0 not in seen:
            loop = [h0]
            while (h := link[loop[-1]]) != h0:
                loop.append(h)
            seen.update(loop)
            loops.append(loop)
    return loops


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

