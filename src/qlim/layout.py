"""Quad layout extraction from a validated parameterization.

The layout graph is assembled from traced curves (cone separatrices, the
surface boundary, and on singularity-free closed surfaces two transverse
closed curves).  Curves are chopped into straight sub-segments per face,
endpoints are keyed by chart-free quotient coordinates so pieces drawn in
different charts weld exactly, crossings and T-junctions become nodes, and
the patches are read off the rotation system around each node.  A key is
a row (kind, id, a, b) of one float array, its kind coded in the order of
the letters of the tuple `_key` names a node by.  Past the keys, a point
is its rank in the sorted table of distinct rows, so rank order is tuple
order; micro edges and arc chains are arrays of ranks.  Rows equal as
values can differ in the sign of a zero: a node is named by its key where
it first ends a micro edge, in micro-edge order.

A `Layout` holds the complex as columns, not one object per node, arc or
patch: node key rows and flags, arc node pairs and segment offsets, patch
darts in walk order.  A node's degree is the count of arc ends at it.

Segments travel as a segment set: stacked arrays of chart faces (N,) and
end points P, Q (N, 2).  The quotient keys, the same-face pair
intersections, the oracle's isoline clipping and the coarsening check's
edge intervals are each computed in batches: whole-array passes whose
every value has the bits of the same arithmetic done point by point (see
the whole-array helpers below).  So is the rotation system: every arc
end's fan key, the ends' order around each node, the next dart and the
corner test of each dart.  An arc is a piece of a coordinate line and
seam transitions are quarter turns, so an end leaves its node along a
chart axis and is placed by counting quarter turns, with no angle: ends
coincide, a node is regular and a pass is straight by integer tests.

An independent brute-force oracle rebuilds the same kind of complex from
all integer isolines (valid for integer-grid-aligned maps), which a
separatrix layout must coarsen: every layout node is an oracle vertex and
every layout arc is a union of oracle edges.
"""

from collections import defaultdict
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import tolerances
from .errors import (
    ArrangementDegeneracy,
    NonQuadPatch,
    NotGridAligned,
    PropertyViolation,
)
from .immersion import SeamlessParam, charts_agree, detect_cones, grid_misalignment
from .mesh import SurfacePoint, topology_info
from .tracer import (
    AXES,
    BUDGET_EXCEEDED,
    PERIODIC,
    chart_barycentrics,
    default_budget,
    keyed_cone_rays,
    trace_cone_separatrix,
    trace_quotient_curve,
    wedge_flags,
    wedge_sides,
)

EDGE, FACE, VERTEX = 0, 1, 2  # kinds of key rows, in the order of "e" < "f" < "v"


@dataclass
class Layout:
    """The layout complex as columns.  Node i has the key row node_keys[i]
    (N, 4), a chart face node_faces[i] whose chart holds it at node_uv[i]
    (N, 2), and the flags node_cone[i] and node_boundary[i].  Arc k joins
    the nodes arc_nodes[k] (A, 2) and is drawn by the rows
    arc_offsets[k]:arc_offsets[k + 1] of the segment set `segments`.  Patch
    i is the boundary walk patch_darts[patch_offsets[i]:patch_offsets[i + 1]]
    with patch_corners[i] corners; dart 2 * arc + end leaves along the arc
    from that end (0 the arc's first node, 1 its last)."""

    node_keys: np.ndarray
    node_faces: np.ndarray
    node_uv: np.ndarray
    node_cone: np.ndarray
    node_boundary: np.ndarray
    arc_nodes: np.ndarray
    arc_offsets: np.ndarray
    segments: tuple  # segment set (faces, P, Q) of every arc's pieces, in arc order
    patch_darts: np.ndarray
    patch_offsets: np.ndarray
    patch_corners: np.ndarray
    euler: int

    @property
    def counts(self):
        return (len(self.node_keys), len(self.arc_nodes), len(self.patch_corners))

    @property
    def node_degree(self):
        """Each node's count of arc ends."""
        return np.bincount(self.arc_nodes.ravel(), minlength=len(self.node_keys))

    @property
    def arcs(self):
        """Each arc's segment rows as `.segments`, a range; the benchmark
        harness counts them."""
        o = self.arc_offsets.tolist()
        return [SimpleNamespace(segments=range(i, j)) for i, j in zip(o, o[1:])]

    def node_degrees(self):
        return sorted(self.node_degree.tolist())

    def to_dict(self):
        faces, P, Q = (x.tolist() for x in self.segments)
        arcs, walks = self.arc_offsets.tolist(), self.patch_offsets.tolist()
        darts = self.patch_darts.tolist()
        nodes = zip(self.node_faces.tolist(), self.node_uv.tolist(), self.node_degree.tolist(),
                    self.node_cone.tolist(), self.node_boundary.tolist())
        return {
            "schema": "qlim-layout/1",
            "counts": dict(zip(("nodes", "arcs", "patches"), self.counts)),
            "euler": self.euler,
            "nodes": [
                {"face": f, "uv": uv, "degree": d, "cone": c, "boundary": b}
                for f, uv, d, c, b in nodes
            ],
            "arcs": [
                {
                    "nodes": ab,
                    "segments": [{"face": faces[s], "from": P[s], "to": Q[s]} for s in range(i, j)],
                }
                for ab, i, j in zip(self.arc_nodes.tolist(), arcs, arcs[1:])
            ],
            "patches": [
                {"arcs": [[d >> 1, 1 - 2 * (d & 1)] for d in darts[i:j]], "corners": c}
                for i, j, c in zip(walks, walks[1:], self.patch_corners.tolist())
            ],
        }


# ---------------------------------------------------------------------------
# whole-array helpers
#
# Every length here is `np.sqrt(np.vecdot(X, X))` and every dot product
# `np.vecdot(X, Y)` over stacked arrays whose last axis is contiguous: that
# runs the BLAS dot `np.linalg.norm` and `@` run on one 2-vector, so each
# value has the bits of the point-by-point computation.  Elementwise
# arithmetic keeps the scalar code's operation order, and `np.where`
# picks stand in for Python's `min` and `max` with their tie and NaN rules.


def _lengths(X):
    return np.sqrt(np.vecdot(X, X))


def _concat(*sets):
    """Segment sets (or any equal-length tuples of arrays) joined part by
    part."""
    return tuple(np.concatenate(parts) for parts in zip(*sets))


def _same_face_pairs(fa, fb):
    """Every index pair (i, j) with fa[i] == fb[j], by one sort of `fb`:
    grouped by i in order, with j ascending in each group."""
    order = np.argsort(fb, kind="stable")
    sb = fb[order]
    lo = np.searchsorted(sb, fa, "left")
    count = np.searchsorted(sb, fa, "right") - lo
    first = np.cumsum(count) - count
    i = np.repeat(np.arange(len(fa)), count)
    j = order[np.repeat(lo - first, count) + np.arange(count.sum())]
    return i, j


def _chart_points(param, chart_segments):
    """Traced `(face, p_uv, q_uv)` chart segments as a segment set of
    snapped points: each end's row of `chart_barycentrics` mapped back as
    `bary @ uv[face]`, by one stacked matmul per end."""
    faces = np.array([f for f, _, _ in chart_segments], dtype=np.intp)
    n = len(faces)
    points = [p for _, p, _ in chart_segments] + [q for _, _, q in chart_segments]
    B = chart_barycentrics(param, np.concatenate([faces, faces]), points)[:, None, :]
    uvf = param.uv[faces]
    return faces, np.matmul(B[:n], uvf)[:, 0], np.matmul(B[n:], uvf)[:, 0]


def _against_edges(param, faces, X):
    """Points X (N, 2), each in the chart of its face, against the face's
    edges k = 0, 1, 2 (edge k runs from corner k to k + 1): the halfedges
    (N, 3), the vectors from corner k to the point (N, 3, 2), the point's
    distance from each edge's line and its parameter along the edge."""
    U = param.uv[faces]
    H = 3 * faces[:, None] + np.arange(3)
    AB = U[:, [1, 2, 0]] - U
    L = param.edge_lengths()[H]
    D = X[:, None, :] - U
    with np.errstate(divide="ignore", invalid="ignore"):
        off = np.abs(D[..., 0] * AB[..., 1] - D[..., 1] * AB[..., 0]) / L
        t = np.vecdot(D, AB) / (L * L)
    return H, D, off, t


# ---------------------------------------------------------------------------
# quotient keys


def _quotient_keys(param, faces, P):
    """Chart-free keys of chart points, P[i] in the chart of face faces[i],
    as an (N, 4) array of rows (kind, id, a, b): a mesh vertex
    (VERTEX, vertex, 0, 0), else a point on a mesh edge (EDGE, edge, t, 0)
    with t measured from the lower vertex id, else a face-interior point
    (FACE, face, x, y).

    An edge parameter is rounded by `np.round`, which is what `round` does
    to a numpy float; face-interior coordinates are Python floats rounded
    by Python's `round`."""
    mesh = param.mesh
    faces = np.asarray(faces, dtype=np.intp)
    P = np.asarray(P, dtype=float).reshape(-1, 2)
    scale = param.uv_scale()
    tol = tolerances.WELD_TOL * scale
    ptol = tolerances.PARAM_TOL
    H, D, off, t = _against_edges(param, faces, P)
    at_vertex = _lengths(D) <= tol
    on_edge = (off <= tol) & (-ptol <= t) & (t <= 1.0 + ptol)

    rows = np.arange(len(faces))
    kv = at_vertex.argmax(1)
    ke = on_edge.argmax(1)
    tt = t[rows, ke]
    va = mesh.faces[faces, ke]
    vb = mesh.faces[faces, (ke + 1) % 3]
    tt = np.round(np.where(va < vb, tt, 1.0 - tt), tolerances.KEY_DECIMALS)
    kind = np.where(at_vertex.any(1), VERTEX, np.where(on_edge.any(1), EDGE, FACE))
    ident = np.where(kind == VERTEX, mesh.faces[faces, kv],
                     np.where(kind == EDGE, mesh.edge_id[H[rows, ke]], faces))
    keys = np.stack([kind, ident, np.where(kind == EDGE, tt, 0.0), np.zeros(len(faces))], axis=1)
    inside = kind == FACE
    xy = [round(x, tolerances.KEY_DECIMALS) for x in (P[inside] / scale).ravel().tolist()]
    keys[inside, 2:] = np.reshape(xy, (-1, 2))
    return keys


def _key(row):
    """The tuple that names the point keyed by `row`: ("e", edge, t),
    ("f", face, x, y) or ("v", vertex)."""
    kind, ident, a, b = row.tolist()
    if kind == EDGE:
        return ("e", int(ident), a)
    if kind == FACE:
        return ("f", int(ident), a, b)
    return ("v", int(ident))


# ---------------------------------------------------------------------------
# curve gathering


def emit_separatrices(param: SeamlessParam, budget=None):
    """Quotient curves that carve the layout: one separatrix per cone ray
    (a separatrix that joins two cone rays traced once, from the first), or,
    on a singularity-free closed torus, two transverse closed curves."""
    return _separatrices(param, budget)[0]


def _separatrices(param, budget):
    """`emit_separatrices`' curves, and their segments longer than
    SEGMENT_MIN in order, as the chart points `(faces, P, Q)` that
    `extract_layout` arranges.

    The cone rays are traced in cone and ray order, except a ray along
    which an earlier separatrix arrives at its cone (`_arrival`): that
    separatrix, read backwards, is the ray's.  One `_chart_points` and one
    `_quotient_keys` pass over all traced segments then give each curve's
    key path, which the dedupe compares, and the kept curves' points.  The
    dedupe stays as the check that no traced curve is the reverse of
    another; on every input it drops none.

    A transverse curve is traced forward only.  With no cone and no
    boundary to end at, it either closes, and the forward ray is the whole
    curve, or it runs out of budget, which raises here whatever a
    backward ray would find; so each costs at most one budget.  A forward
    ray that ends any other way is refused, not returned as half a curve."""
    records = detect_cones(param)
    curves = []
    if records:
        fans = {rec.vertex: keyed_cone_rays(param, rec.vertex) for rec in records}
        traced, arrived = [], set()
        for rec in records:  # cone_scan lists them by vertex
            rays, keys, _ = fans[rec.vertex]
            for ray, key in zip(rays, keys):
                if (rec.vertex, key) in arrived:
                    continue
                curve = trace_cone_separatrix(param, rec.vertex, ray, budget)
                if curve.status == BUDGET_EXCEEDED:
                    raise PropertyViolation(
                        f"separatrix from cone {rec.vertex} exhausted the "
                        f"tracing budget ({curve.budget} segments)"
                    )
                traced.append(curve)
                arrived.add(_arrival(param, fans, curve))
        segs = [_segments(curve) for curve in traced]
        bounds = np.cumsum([0] + [len(cs) for cs in segs])
        faces, P, Q = _chart_points(param, [s for cs in segs for s in cs])
        seen, kept = set(), []
        for path in _key_paths(param, faces, P, Q, bounds):
            kept.append(path.tobytes() not in seen)
            seen.update((path.tobytes(), path[::-1].tobytes()))
        curves = [curve for curve, k in zip(traced, kept) if k]
        keep = np.repeat(np.array(kept, dtype=bool), np.diff(bounds))
    else:
        info = topology_info(param.mesh)
        if (info.genus, info.boundary_count) == (1, 0):
            # anchor both transverse curves at vertex 0 so they share a node;
            # on grid-aligned fixtures they then run along integer isolines
            h = param.mesh.vertex_fan(0)[0]
            bary = [0.0, 0.0, 0.0]
            bary[h % 3] = 1.0
            anchor = SurfacePoint(h // 3, tuple(bary))
            for axis in (0, 1):
                curve = trace_quotient_curve(param, anchor, axis, budget, direction=1)
                if curve.status == BUDGET_EXCEEDED:
                    raise PropertyViolation(
                        "transverse curve exhausted the tracing budget; the "
                        "layout complex is not finite at this resolution"
                    )
                if curve.status != PERIODIC:
                    raise PropertyViolation(
                        f"transverse curve on axis {axis} ended {curve.status} on "
                        "a closed cone-free torus instead of closing"
                    )
                curves.append(curve)
        faces, P, Q = _chart_points(param, [s for curve in curves for s in _segments(curve)])
        keep = np.ones(len(faces), dtype=bool)
    keep &= _lengths(Q - P) > tolerances.SEGMENT_MIN * param.uv_scale()
    return curves, (faces[keep], P[keep], Q[keep])


def _arrival(param, fans, curve):
    """The ray a separatrix arrives along, as (cone, fan key) by the cone's
    `keyed_cone_rays` in `fans`; None when it ends elsewhere, or crosses a
    face with an edge whose charts disagree (Q2), where the ray's own trace
    need not retrace it.  Its last segment ends at the cone, in the wedge
    of the segment's face, and read backwards runs along the axis nearest
    it."""
    end = curve.terminal_events
    if not end or end[0].kind != "HitSingularity" or not charts_agree(param, curve.faces()):
        return None
    w = end[0].vertex
    g, P, X = curve.pieces[-1].chart_segments[-1]
    d0, d1 = P[0] - X[0], P[1] - X[1]
    q = (0 if d0 > 0 else 2) if abs(d0) > abs(d1) else (1 if d1 > 0 else 3)
    h = 3 * g + param.mesh.faces[g].tolist().index(w)
    return w, fans[w][2][h][q]


def _segments(curve):
    return [s for piece in curve.pieces for s in piece.chart_segments]


def _key_paths(param, faces, P, Q, bounds):
    """The key path of each curve whose segments are rows bounds[k] to
    bounds[k + 1] of the chart points: the key rows of its segment ends in
    order, an end equal to the one before it dropped where a segment
    starts, except at the curve's first.  Zeros are made +0.0, so paths are
    equal as bytes where they are equal as values."""
    keys = _quotient_keys(param, np.repeat(faces, 2), np.stack([P, Q], axis=1)) + 0.0
    keep = np.ones(len(keys), dtype=bool)
    keep[2::2] = (keys[2::2] != keys[1:-1:2]).any(axis=1)
    first = bounds[:-1][bounds[:-1] < bounds[1:]]
    keep[2 * first] = True
    return [keys[2 * a:2 * b][keep[2 * a:2 * b]] for a, b in zip(bounds, bounds[1:])]


def _boundary_segments_uv(param):
    h = np.flatnonzero(param.mesh.twin == -1)
    corners = param.uv.reshape(-1, 2)
    return h // 3, corners[h], corners[h - h % 3 + (h + 1) % 3]


# ---------------------------------------------------------------------------
# planar arrangement per chart


def _crossing_cuts(param, segments):
    """(segment, t) for every point where a segment meets another in its
    face: a proper crossing, a T-junction within WELD_TOL, or an end of a
    collinear overlap.  All same-face pairs are tested in one pass."""
    tol = tolerances.WELD_TOL * param.uv_scale()
    ptol = tolerances.PARAM_TOL
    faces, P, Q = segments
    i, j = _same_face_pairs(faces, faces)
    i, j = i[i < j], j[i < j]
    R = Q - P
    RR = np.vecdot(R, R)
    p1, q1, r, rr = P[i], Q[i], R[i], RR[i]
    p2, q2, s, ss = P[j], Q[j], R[j], RR[j]
    w = p2 - p1
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    wxr = w[:, 0] * r[:, 1] - w[:, 1] * r[:, 0]
    wxs = w[:, 0] * s[:, 1] - w[:, 1] * s[:, 0]
    cut_seg, cut_t = [], []

    def add(seg, t, keep):
        cut_seg.append(seg[keep])
        cut_t.append(t[keep])

    with np.errstate(divide="ignore", invalid="ignore"):
        parallel = np.abs(denom) <= tolerances.COLLINEAR_TOL * np.sqrt(rr * ss)
        # parallel pairs interact only when collinear: cut at the other's ends
        c = parallel & ~(np.abs(wxr) / np.sqrt(rr) > tol)
        for seg, base, d, dd, ends in ((i, p1, r, rr, (p2, q2)), (j, p2, s, ss, (p1, q1))):
            for e in ends:
                t = np.vecdot(e[c] - base[c], d[c]) / dd[c]
                add(seg[c], t, (ptol < t) & (t < 1.0 - ptol))
        # proper crossings and T-junctions
        x = ~parallel
        t = wxs[x] / denom[x]
        u = wxr[x] / denom[x]
        eps_t = tol / np.sqrt(rr[x])
        eps_u = tol / np.sqrt(ss[x])
        hit = (-eps_t <= t) & (t <= 1 + eps_t) & (-eps_u <= u) & (u <= 1 + eps_u)
        add(i[x], t, hit & (eps_t < t) & (t < 1 - eps_t))
        add(j[x], u, hit & (eps_u < u) & (u < 1 - eps_u))
    return np.concatenate(cut_seg), np.concatenate(cut_t)


def _split_and_key(param, segments):
    """Split raw segments at mutual crossings and endpoints, key the points
    by quotient coordinates, and deduplicate.  Returns the distinct key rows
    in row order and the micro edges as arrays (a, b, face, P, Q): end ranks
    in that table, chart face and end points, one per unordered rank pair
    (the first met), sorted by (a, b)."""
    tol = tolerances.WELD_TOL * param.uv_scale()
    faces, P, Q = segments
    n = len(faces)
    cut_seg, cut_t = _crossing_cuts(param, segments)
    # each segment's cut parameters, 0 and 1 included, sorted and distinct
    seg = np.concatenate([np.arange(n), np.arange(n), cut_seg])
    t = np.concatenate([np.zeros(n), np.ones(n), cut_t])
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    first = np.ones(len(seg), dtype=bool)
    first[1:] = (seg[1:] != seg[:-1]) | (t[1:] != t[:-1])
    seg, t = seg[first], t[first]
    X = P[seg] + t[:, None] * (Q[seg] - P[seg])
    keys = _quotient_keys(param, faces[seg], X)
    # each point's rank among the distinct keys (`lexsort` is stable, so
    # `rep` starts as each rank's first point)
    order = np.lexsort(keys.T[::-1])
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[order[1:]] != keys[order[:-1]]).any(axis=1)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    rep = order[new]
    # consecutive points of one segment bound a micro edge unless welded or
    # keyed alike
    k = np.flatnonzero((seg[1:] == seg[:-1]) & ~(_lengths(X[1:] - X[:-1]) <= tol))
    k = k[rank[k] != rank[k + 1]]
    a, b = rank[k], rank[k + 1]
    _, kept = np.unique(np.minimum(a, b) * len(rep) + np.maximum(a, b), return_index=True)
    k = k[kept][np.lexsort((b[kept], a[kept]))]
    # keys equal as values may differ in the sign of a zero: each rank is
    # named by its first micro-edge end, in micro-edge order, a before b
    ends = np.stack([k, k + 1], axis=1).ravel()
    _, i = np.unique(rank[ends], return_index=True)
    rep[rank[ends[i]]] = ends[i]
    return keys[rep], (rank[k], rank[k + 1], faces[seg[k]], X[k], X[k + 1])


def _assemble(param, keys, micro):
    """Nodes (crossings, T-junctions, cones) and arcs (maximal chains of
    micro edges through straight pass-through points) of the micro graph, as
    the `Layout` node and arc columns keyed by field name, with the segment
    set of the arcs' micro edges, each oriented along its arc, in arc order;
    and the arc-end table.  The arc-end table has, per end
    2 * arc + (0 at the arc's first node, 1 at its last), the node, the
    chart face, the node's point and the next point on the arc."""
    a, b, mf, MP, MQ = micro
    nm = len(a)
    mids = np.concatenate([np.arange(nm), np.arange(nm)])
    ranks = np.concatenate([a, b])
    degree = np.bincount(ranks, minlength=len(keys))
    incident = mids[np.lexsort((mids, ranks))]  # each rank's micro edges in order
    start = np.cumsum(degree) - degree
    mesh = param.mesh
    kind, ident = keys[:, 0], keys[:, 1].astype(np.intp)
    v, e = kind == VERTEX, kind == EDGE
    is_cone, is_boundary = np.zeros((2, len(keys)), dtype=bool)
    # a table lookup: `isin`'s sorting method imports numpy.ma (~1 MB) on first use
    is_cone[v] = np.isin(ident[v], np.fromiter(param.cone_vertices(), np.intp), kind="table")
    is_boundary[v] = mesh.is_boundary_vertex[ident[v]]
    is_boundary[e] = mesh.twin[mesh.edge_halfedge[ident[e]]] == -1
    is_node = (degree > 0) & ((degree != 2) | is_cone)
    node_ranks = np.flatnonzero(is_node)
    if nm and not node_ranks.size:
        raise ArrangementDegeneracy(
            "the layout graph has no distinguished points (closed curves "
            "without crossings)"
        )

    # chains from each node's micro edges, nodes and edges in order; a
    # pass-through point has degree 2 and no self-loop, so one other edge
    a_, b_, inc, at = a.tolist(), b.tolist(), incident.tolist(), start.tolist()
    node = is_node.tolist()
    visited = [False] * nm
    chain, forward, arcs_raw = [], [], []
    for s, d in zip(node_ranks.tolist(), degree[node_ranks].tolist()):
        for mid in inc[at[s]:at[s] + d]:
            if visited[mid]:
                continue
            begin, here, cur = len(chain), s, mid
            while True:
                visited[cur] = True
                fwd = a_[cur] == here
                chain.append(cur)
                forward.append(fwd)
                here = b_[cur] if fwd else a_[cur]
                if node[here]:
                    break
                i = at[here]
                cur = inc[i] if inc[i] != cur else inc[i + 1]
            arcs_raw += (s, here, begin, len(chain))
    if not all(visited):
        raise ArrangementDegeneracy("closed layout curves with no node on them")

    m = np.array(chain, dtype=np.intp)
    fwd = np.array(forward, dtype=bool)[:, None]
    faces, P, Q = mf[m], np.where(fwd, MP[m], MQ[m]), np.where(fwd, MQ[m], MP[m])
    node_of = np.full(len(keys), -1, dtype=np.intp)
    node_of[node_ranks] = np.arange(len(node_ranks))
    ra, rb, begin, stop = np.array(arcs_raw, dtype=np.intp).reshape(-1, 4).T
    arc_nodes = np.stack([node_of[ra], node_of[rb]], axis=1)
    # each node sits where its first micro edge meets it
    m0 = incident[start[node_ranks]]
    columns = dict(
        node_keys=keys[node_ranks], node_faces=mf[m0],
        node_uv=np.where((a[m0] == node_ranks)[:, None], MP[m0], MQ[m0]),
        node_cone=is_cone[node_ranks], node_boundary=is_boundary[node_ranks],
        arc_nodes=arc_nodes, arc_offsets=np.append(begin, len(chain)),
        segments=(faces, P, Q),
    )
    last = stop - 1
    end_nodes = arc_nodes.ravel()
    ends = (
        end_nodes,
        np.stack([faces[begin], faces[last]], axis=1).ravel(),
        np.stack([P[begin], Q[last]], axis=1).reshape(-1, 2),
        np.stack([Q[begin], P[last]], axis=1).reshape(-1, 2),
    )
    return columns, ends


# ---------------------------------------------------------------------------
# rotation system and patch tracing


def _end_keys(param, keys, faces, D):
    """The fan key of each away-pointing arc-end direction D[i] at the node
    keyed keys[i], read in the chart of faces[i], and the node fan's key
    span: twice the axis directions (`AXES`) the fan passes before the end,
    plus one if it lies on one (D's nearest axis, or a wedge side it runs
    along), and twice the fan's quarter turns.  A face node's fan starts at
    +u.  An edge node's is the half-plane left of the edge in each face,
    from 0 (a boundary edge, or the edge from the lower vertex id) or 4,
    modulo 8.  A vertex node's is its wedges in fan order, each holding the
    axes `wedge_flags` finds inside it or along its first side."""
    mesh = param.mesh
    faces = np.asarray(faces, dtype=np.intp)
    D = np.asarray(D, dtype=float).reshape(-1, 2)
    kind, ident = keys[:, 0], keys[:, 1].astype(np.int64)
    on_face, on_edge = kind == FACE, kind == EDGE
    # the corner that starts the edge, or the vertex's corner
    H = 3 * faces[:, None] + np.arange(3)
    hit = np.where(on_edge[:, None], mesh.edge_id[H], mesh.faces[faces]) == ident[:, None]
    missing = np.flatnonzero(~on_face & ~hit.any(axis=1))
    if missing.size:
        f, k = int(faces[missing[0]]), _key(keys[missing[0]])
        raise ArrangementDegeneracy(
            f"arc-end chart face {f} does not hold edge {k[1]} of node {k}" if k[0] == "e"
            else f"arc-end chart face {f} is not in the fan of vertex {k[1]}")
    h = H[np.arange(len(faces)), hit.argmax(axis=1)]
    # the axis nearest D, elementwise: every AXES entry is 0 or +-1, so each
    # product and sum is exact, and no matmul hands a long stack of ends to
    # the BLAS thread pool
    A = np.array(AXES)
    q = (D[:, :1] * A[:, 0] + D[:, 1:] * A[:, 1]).argmax(axis=1)
    # the quarter turns of each node vertex's fan before each of its wedges
    halfedges, offsets = mesh.fan_arrays()
    on_vertex = kind == VERTEX
    verts = np.flatnonzero(np.bincount(ident[on_vertex], minlength=1))
    size = offsets[verts + 1] - offsets[verts]
    fan = halfedges[np.repeat(offsets[verts] - np.cumsum(size) + size, size) + np.arange(size.sum())]
    # one wedge per fan corner, then one per other end: the half-plane left
    # of an edge end's edge, or any wedge at a face end, whose key needs none
    other = np.flatnonzero(~on_vertex)
    half = np.concatenate([np.zeros(len(fan), dtype=bool), on_edge[other]])
    sides = wedge_sides(param, np.concatenate([fan, h[other]]), half_planes=half)
    inside, along_a, along_b = wedge_flags(sides, AXES)
    held = inside | along_a
    turns = np.cumsum(np.append(0, held[:len(fan)].sum(axis=1)))
    start = turns[np.cumsum(size) - size]
    before, span, row = np.zeros((3, mesh.n_halfedges), dtype=np.intp)  # per fan corner
    before[fan] = turns[:-1] - np.repeat(start, size)
    span[fan] = np.repeat(np.append(start[1:], turns[-1]) - start, size)
    row[fan] = np.arange(len(fan))
    # each end's wedge: the axes it holds from its first side a, then the end
    w = row[h]
    w[other] = len(fan) + np.arange(len(other))
    _, end_a, end_b = wedge_flags([x[..., w] for x in sides], D[:, None])
    held, along_a, along_b = held[w], along_a[w], along_b[w]
    first = (held & ~np.roll(held, 1, axis=1)).argmax(axis=1)
    key = np.where(end_a[:, 0], along_a.any(axis=1), 2 * ((q - first) % 4) + 1)
    key = np.where(end_b[:, 0], 2 * held.sum(axis=1) + along_b.any(axis=1), key)

    outer = mesh.twin[h] == -1
    lower = mesh.faces.ravel()[h] < mesh.faces.ravel()[h - h % 3 + (h + 1) % 3]
    key = np.where(on_face, 2 * q + 1, np.where(
        on_edge, (np.where(outer | lower, 0, 4) + key) % 8, 2 * before[h] + key))
    total = np.where(on_face, 8, np.where(on_edge, np.where(outer, 4, 8), 2 * span[h]))
    return key, total


def _trace_patches(param, columns, ends):
    """The boundary walks of the arrangement's faces, from the node columns
    and the arc-end table `ends` of `_assemble`: the darts of every walk in
    walk order, the walks' offsets into them, and per walk whether it is
    wrapped and its corner count.  Dart d = 2 * arc + end leaves from arc
    end d; arriving at end d ^ 1, a walk leaves along the clockwise-next
    end of that node by `_end_keys`, and two ends with one key coincide.  A
    walk is wrapped when it passes a boundary node's first end (the outer
    face).  A turn is straight at a regular node (no cone, 4 quarter turns,
    2 on the boundary) between keys 4 apart; any other is a corner."""
    node, faces, P, Q = ends
    D = (Q - P) / _lengths(Q - P)[:, None]
    keys = columns["node_keys"][node]
    key, total = _end_keys(param, keys, faces, D)
    order = np.lexsort((key, node))
    sn, sk = node[order], key[order]
    same = sn[1:] == sn[:-1]
    close = same & (sk[1:] == sk[:-1])
    if close.any():
        first_bad = np.isin(node, sn[1:][close], kind="table").argmax()
        raise ArrangementDegeneracy(f"coincident arc directions at node {_key(keys[first_bad])}")
    first = np.append(True, ~same)
    last = np.append(~same, True)
    prev = np.arange(len(order)) - 1
    prev[first] = np.flatnonzero(last)
    cw = np.empty_like(order)
    cw[order] = order[prev]
    rank0 = np.empty_like(first)
    rank0[order] = first

    arrive = np.arange(len(order)) ^ 1
    nxt = cw[arrive]
    at = node[arrive]
    boundary, cone = columns["node_boundary"][at], columns["node_cone"][at]
    wrap = rank0[arrive] & boundary
    regular = ~cone & (total[arrive] == np.where(boundary, 4, 8))
    straight = regular & (np.abs(key[arrive] - key[nxt]) == 4)

    nxt = nxt.tolist()
    used = [False] * len(nxt)
    darts, offsets = [], [0]
    for d in range(len(nxt)):
        while not used[d]:  # a new walk: around until it closes
            used[d] = True
            darts.append(d)
            d = nxt[d]
        if len(darts) > offsets[-1]:
            offsets.append(len(darts))
    darts, n = np.array(darts, dtype=np.intp), len(offsets) - 1
    walk = np.repeat(np.arange(n), np.diff(offsets))
    wrapped = np.bincount(walk, wrap[darts], minlength=n) > 0
    corners = np.bincount(walk, ~straight[darts], minlength=n).astype(np.intp)
    return darts, np.array(offsets), wrapped, corners


def _build_layout(param, segments):
    columns, ends = _assemble(param, *_split_and_key(param, segments))
    darts, offsets, wrapped, corners = _trace_patches(param, columns, ends)
    topo = topology_info(param.mesh)
    if wrapped.sum() != topo.boundary_count:
        raise ArrangementDegeneracy(
            f"{wrapped.sum()} outer walks for {topo.boundary_count} boundary loops"
        )
    length = np.diff(offsets)
    layout = Layout(**columns, patch_darts=darts[np.repeat(~wrapped, length)],
                    patch_offsets=np.append(0, np.cumsum(length[~wrapped])),
                    patch_corners=corners[~wrapped], euler=topo.euler)
    v, e, f = layout.counts
    if v - e + f != topo.euler:
        raise ArrangementDegeneracy(
            f"layout Euler count {v}-{e}+{f} does not match the surface "
            f"characteristic {topo.euler}"
        )
    return layout


def extract_layout(param: SeamlessParam, budget=None):
    """The quad layout induced by the parameterization: nodes, arcs, and
    patches with V - E + F equal to the surface Euler characteristic."""
    segments = _concat(_separatrices(param, budget)[1], _boundary_segments_uv(param))
    layout = _build_layout(param, segments)
    bad = np.flatnonzero(layout.patch_corners != 4)
    if bad.size:
        raise NonQuadPatch(f"patch {bad[0]} has {layout.patch_corners[bad[0]]} corners")
    return layout


# ---------------------------------------------------------------------------
# brute-force oracle


def _isoline_segments(param, step):
    """Each face's piece of each isoline u = n*step or v = n*step that cuts
    it, in (face, axis, n) order.  A corner within WELD_TOL of the line
    counts as a crossing, as does a point inside an edge whose ends lie on
    either side; the piece runs between the crossings that are first and
    last by the other coordinate, with ties kept in corner order.  More
    (face, isoline) candidates than the tracing budget are refused first."""
    uv = param.uv
    tol = tolerances.WELD_TOL * param.uv_scale()
    slack = tolerances.ISOLINE_SLACK
    bounds, total, budget = [], 0.0, default_budget(param)
    for axis in (0, 1):
        x = uv[:, :, axis]
        lo = np.ceil(x.min(axis=1) / step - slack)
        count = np.maximum(np.floor(x.max(axis=1) / step + slack) - lo + 1, 0)
        bounds.append((lo, count))
        total += count.sum()  # in floats: a huge map's count does not wrap
    if total > budget:
        raise PropertyViolation(
            f"the oracle has {total:.0f} (face, isoline) candidates at step {step}, over "
            f"the tracing budget of {budget}; a larger step (--step) has fewer")
    pieces = []
    for axis, (lo, count) in enumerate(bounds):
        lo, count = lo.astype(np.int64), count.astype(np.int64)
        first = np.cumsum(count) - count
        face = np.repeat(np.arange(len(uv)), count)
        n = np.repeat(lo - first, count) + np.arange(count.sum())
        A = uv[face]
        B = A[:, [1, 2, 0]]
        val = (n * step)[:, None]
        da = A[:, :, axis] - val
        db = B[:, :, axis] - val
        at_corner = np.abs(da) <= tol
        crossing = ~at_corner & (da * db < 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = da / (da - db)
            X = np.where(crossing[..., None], A + t[..., None] * (B - A), A)
        valid = at_corner | crossing
        c = X[:, :, 1 - axis]
        ip = np.where(valid, c, np.inf).argmin(axis=1)
        iq = 2 - np.where(valid, c, -np.inf)[:, ::-1].argmax(axis=1)
        rows = np.arange(len(face))
        P, Q = X[rows, ip], X[rows, iq]
        keep = (valid.sum(axis=1) >= 2) & (_lengths(Q - P) > tol)
        pieces.append((face[keep], np.full(keep.sum(), axis), n[keep], P[keep], Q[keep]))
    face, axis, n, P, Q = _concat(*pieces)
    order = np.lexsort((n, axis, face))
    return face[order], P[order], Q[order]


def layout_oracle_bruteforce(param: SeamlessParam, step=1):
    """The full integer-isoline complex (motorcycle-free ground truth).
    Requires an integer-grid map, with integral seam translations and cones
    on the integer grid; every grid crossing is a vertex."""
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    why = grid_misalignment(param)
    if why:
        raise NotGridAligned(why)
    detect_cones(param)  # raises on non-quantized angles
    segments = _concat(_boundary_segments_uv(param), _isoline_segments(param, step))
    return _build_layout(param, segments)


def _edge_intervals(param, segments, eps):
    """For each segment that lies along one of its face's mesh edges (the
    first such edge of the face): the chart-free interval (edge id, lo, hi)
    in the lower-vertex-first edge parameterization, times the edge length.
    Returns (on an edge, edge id, lo, hi) arrays."""
    mesh = param.mesh
    faces, P, Q = segments
    H, _, op, tp = _against_edges(param, faces, P)
    _, _, oq, tq = _against_edges(param, faces, Q)
    along = ~(np.where(oq > op, oq, op) > eps)
    rows = np.arange(len(faces))
    k = along.argmax(axis=1)
    h = H[rows, k]
    L, tp, tq = param.edge_lengths()[h], tp[rows, k], tq[rows, k]
    flip = mesh.faces[faces, k] > mesh.faces[faces, (k + 1) % 3]
    tp = np.where(flip, 1.0 - tp, tp)
    tq = np.where(flip, 1.0 - tq, tq)
    lo = np.where(tq < tp, tq, tp) * L
    hi = np.where(tq > tp, tq, tp) * L
    return along.any(axis=1), mesh.edge_id[h], lo, hi


def _covers(intervals, lo_goal, hi_goal, eps):
    covered = lo_goal
    for lo, hi in sorted(intervals):
        if lo > covered + eps:
            return False
        covered = max(covered, hi)
    return covered >= hi_goal - eps


def verify_coarsening(param, layout: Layout, oracle: Layout) -> bool:
    """True when the separatrix layout coarsens the oracle complex: every
    layout node is an oracle vertex and every layout arc is covered by
    collinear oracle arc pieces (segments along mesh edges are compared in
    chart-free edge coordinates, since the two constructions may draw them
    in different charts)."""
    oracle_keys = set(map(tuple, oracle.node_keys.tolist()))
    if not oracle_keys.issuperset(map(tuple, layout.node_keys.tolist())):
        return False
    eps = tolerances.WELD_TOL * param.uv_scale()
    o_along, eid, lo, hi = _edge_intervals(param, oracle.segments, eps)
    by_edge = defaultdict(list)
    for e, a, b in zip(*(x[o_along].tolist() for x in (eid, lo, hi))):
        by_edge[e].append((a, b))
    l_along, eid, lo, hi = _edge_intervals(param, layout.segments, eps)
    for e, a, b in zip(*(x[l_along].tolist() for x in (eid, lo, hi))):
        if not _covers(by_edge.get(e, ()), a, b, eps):
            return False

    # segments inside faces: the collinear oracle pieces of the same face,
    # projected onto the segment's own line
    faces, P, Q = (x[~l_along] for x in layout.segments)
    o_faces, A, B = (x[~o_along] for x in oracle.segments)
    i, j = _same_face_pairs(faces, o_faces)
    R = Q - P
    L = _lengths(R)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = R / L[:, None]
    p, u, A, B = P[i], u[i], A[j], B[j]
    offs = [np.abs((X[:, 0] - p[:, 0]) * u[:, 1] - (X[:, 1] - p[:, 1]) * u[:, 0])
            for X in (A, B)]
    near = ~(np.where(offs[1] > offs[0], offs[1], offs[0]) > eps)
    ta = np.vecdot(A - p, u)
    tb = np.vecdot(B - p, u)
    t_lo = np.where(tb < ta, tb, ta)
    t_hi = np.where(tb > ta, tb, ta)
    Li = L[i]
    keep = near & ~((t_hi < -eps) | (t_lo > Li + eps))
    intervals = defaultdict(list)
    for s, a, b in zip(i[keep].tolist(),
                       np.where(0.0 > t_lo, 0.0, t_lo)[keep].tolist(),
                       np.where(Li < t_hi, Li, t_hi)[keep].tolist()):
        intervals[s].append((a, b))
    return all(
        _covers(intervals[s], 0.0, length, eps)
        for s, length in enumerate(L.tolist())
    )
