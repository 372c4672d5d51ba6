"""Quad layout extraction from a validated parameterization.

The layout graph is assembled from traced curves (cone separatrices, the
surface boundary, and on singularity-free closed surfaces two transverse
closed curves).  Curves are chopped into straight sub-segments per face,
endpoints are keyed by chart-free quotient coordinates so pieces drawn in
different charts weld exactly, crossings and T-junctions become nodes, and
the patches are read off the rotation system around each node.

An independent brute-force oracle rebuilds the same kind of complex from
all integer isolines (valid for integer-grid-aligned maps), which a
separatrix layout must coarsen: every layout node is an oracle vertex and
every layout arc is a union of oracle edges.
"""

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import (
    ArrangementDegeneracy,
    NonQuadPatch,
    NotGridAligned,
    PropertyViolation,
)
from .immersion import SeamlessParam, detect_cones, grid_misalignment
from .mesh import SurfacePoint, topology_info
from .tracer import (
    BUDGET_EXCEEDED,
    cone_rays,
    trace_cone_separatrix,
    trace_quotient_curve,
)

TWO_PI = 2.0 * math.pi


@dataclass
class LayoutNode:
    key: tuple
    face: int  # a face whose chart contains the node
    uv: tuple  # position in that chart
    degree: int = 0
    is_cone: bool = False
    is_boundary: bool = False


@dataclass
class LayoutArc:
    nodes: tuple  # (node index, node index)
    segments: list  # (face, p_uv, q_uv) straight pieces in face charts


@dataclass
class LayoutPatch:
    darts: list  # (arc index, +1 forward / -1 reversed) boundary walk
    corners: int


@dataclass
class Layout:
    nodes: list
    arcs: list
    patches: list
    euler: int

    @property
    def counts(self):
        return (len(self.nodes), len(self.arcs), len(self.patches))

    def node_degrees(self):
        return sorted(n.degree for n in self.nodes)

    def to_dict(self):
        return {
            "schema": "qlim-layout/1",
            "counts": {
                "nodes": len(self.nodes),
                "arcs": len(self.arcs),
                "patches": len(self.patches),
            },
            "euler": self.euler,
            "nodes": [
                {
                    "face": n.face,
                    "uv": [float(x) for x in n.uv],
                    "degree": n.degree,
                    "cone": n.is_cone,
                    "boundary": n.is_boundary,
                }
                for n in self.nodes
            ],
            "arcs": [
                {
                    "nodes": list(a.nodes),
                    "segments": [
                        {
                            "face": int(f),
                            "from": [float(x) for x in p],
                            "to": [float(x) for x in q],
                        }
                        for (f, p, q) in a.segments
                    ],
                }
                for a in self.arcs
            ],
            "patches": [
                {"arcs": [[a, s] for (a, s) in p.darts], "corners": p.corners}
                for p in self.patches
            ],
        }


# ---------------------------------------------------------------------------
# quotient keys


def _quotient_key(param, face, p):
    """Chart-free key for a chart point: mesh vertex, point on a mesh edge
    (parameter measured from the lower vertex id), or face-interior point."""
    mesh = param.mesh
    uvf = param.uv[face]
    scale = param.uv_scale()
    tol = tolerances.WELD_TOL * scale
    for i in range(3):
        if np.linalg.norm(p - uvf[i]) <= tol:
            return ("v", int(mesh.faces[face][i]))
    for k in range(3):
        a, b = uvf[k], uvf[(k + 1) % 3]
        ab = b - a
        L = np.linalg.norm(ab)
        off = abs((p[0] - a[0]) * ab[1] - (p[1] - a[1]) * ab[0]) / L
        t = float((p - a) @ ab) / (L * L)
        if off <= tol and -tolerances.PARAM_TOL <= t <= 1.0 + tolerances.PARAM_TOL:
            va, vb = int(mesh.src(3 * face + k)), int(mesh.dst(3 * face + k))
            tt = t if va < vb else 1.0 - t
            eid = int(mesh.edge_id[3 * face + k])
            return ("e", eid, round(tt, tolerances.KEY_DECIMALS))
    return ("f", int(face), round(float(p[0] / scale), tolerances.KEY_DECIMALS),
            round(float(p[1] / scale), tolerances.KEY_DECIMALS))


# ---------------------------------------------------------------------------
# curve gathering


def emit_separatrices(param: SeamlessParam, budget=None):
    """Quotient curves that carve the layout: one separatrix per cone ray
    (traced twice from opposite cones collapse to one), or, on a
    singularity-free closed surface, two transverse closed curves."""
    records = detect_cones(param)
    curves = []
    if records:
        seen = set()
        for rec in sorted(records, key=lambda r: r.vertex):
            for ray in cone_rays(param, rec.vertex):
                curve = trace_cone_separatrix(param, rec.vertex, ray, budget)
                if curve.status == BUDGET_EXCEEDED:
                    raise PropertyViolation(
                        f"separatrix from cone {rec.vertex} exhausted the "
                        f"tracing budget ({curve.budget} segments)"
                    )
                path = _curve_key_path(param, curve)
                canon = min(path, path[::-1])
                if canon in seen:
                    continue
                seen.add(canon)
                curves.append(curve)
        return curves
    info = topology_info(param.mesh)
    if (info.genus, info.boundary_count) == (1, 0):
        # anchor both transverse curves at vertex 0 so they share a node;
        # on grid-aligned fixtures they then run along integer isolines
        h = param.mesh.vertex_fan(0)[0]
        bary = [0.0, 0.0, 0.0]
        bary[h % 3] = 1.0
        anchor = SurfacePoint(h // 3, tuple(bary))
        for axis in (0, 1):
            curve = trace_quotient_curve(param, anchor, axis, budget)
            if curve.status == BUDGET_EXCEEDED:
                raise PropertyViolation(
                    "transverse curve exhausted the tracing budget; the "
                    "layout complex is not finite at this resolution"
                )
            curves.append(curve)
    return curves


def _curve_key_path(param, curve):
    keys = []
    for piece in curve.pieces:
        for (f, a, b) in piece.segments:
            uvf = param.uv[f]
            pa = np.asarray(a.bary) @ uvf
            pb = np.asarray(b.bary) @ uvf
            ka = _quotient_key(param, f, pa)
            kb = _quotient_key(param, f, pb)
            if not keys or keys[-1] != ka:
                keys.append(ka)
            keys.append(kb)
    return tuple(keys)


def _curve_segments_uv(param, curves):
    min_len = tolerances.SEGMENT_MIN * param.uv_scale()
    segs = []
    for curve in curves:
        for piece in curve.pieces:
            for (f, a, b) in piece.segments:
                uvf = param.uv[f]
                p = np.asarray(a.bary) @ uvf
                q = np.asarray(b.bary) @ uvf
                if np.linalg.norm(q - p) > min_len:
                    segs.append((int(f), p, q))
    return segs


def _boundary_segments_uv(param):
    mesh = param.mesh
    segs = []
    for h in range(mesh.n_halfedges):
        if mesh.twin[h] == -1:
            f, i = h // 3, h % 3
            segs.append((f, param.uv[f, i].copy(), param.uv[f, (i + 1) % 3].copy()))
    return segs


# ---------------------------------------------------------------------------
# planar arrangement per chart


def _split_and_key(param, segments):
    """Split raw segments at mutual crossings and endpoints, key endpoints
    by quotient coordinates, and deduplicate.  Returns micro edges
    [(key_a, key_b, face, p, q)]."""
    tol = tolerances.WELD_TOL * param.uv_scale()
    by_face = defaultdict(list)
    for idx, (f, p, q) in enumerate(segments):
        by_face[f].append(idx)
    cuts = [set([0.0, 1.0]) for _ in segments]

    for f, idxs in by_face.items():
        for ii in range(len(idxs)):
            i = idxs[ii]
            p1, q1 = segments[i][1], segments[i][2]
            r = q1 - p1
            rr = float(r @ r)
            for jj in range(ii + 1, len(idxs)):
                j = idxs[jj]
                p2, q2 = segments[j][1], segments[j][2]
                s = q2 - p2
                ss = float(s @ s)
                denom = r[0] * s[1] - r[1] * s[0]
                w = p2 - p1
                if abs(denom) <= tolerances.COLLINEAR_TOL * math.sqrt(rr * ss):
                    # parallel; interact only when collinear
                    off = abs(w[0] * r[1] - w[1] * r[0]) / math.sqrt(rr)
                    if off > tol:
                        continue
                    for e in (p2, q2):
                        t = float((e - p1) @ r) / rr
                        if tolerances.PARAM_TOL < t < 1.0 - tolerances.PARAM_TOL:
                            cuts[i].add(t)
                    for e in (p1, q1):
                        t = float((e - p2) @ s) / ss
                        if tolerances.PARAM_TOL < t < 1.0 - tolerances.PARAM_TOL:
                            cuts[j].add(t)
                    continue
                t = (w[0] * s[1] - w[1] * s[0]) / denom
                u = (w[0] * r[1] - w[1] * r[0]) / denom
                eps_t = tol / math.sqrt(rr)
                eps_u = tol / math.sqrt(ss)
                if -eps_t <= t <= 1 + eps_t and -eps_u <= u <= 1 + eps_u:
                    if eps_t < t < 1 - eps_t:
                        cuts[i].add(t)
                    if eps_u < u < 1 - eps_u:
                        cuts[j].add(u)

    micro = {}
    for idx, (f, p, q) in enumerate(segments):
        ts = sorted(cuts[idx])
        pts = [p + t * (q - p) for t in ts]
        for a, b in zip(pts, pts[1:]):
            if np.linalg.norm(b - a) <= tol:
                continue
            ka = _quotient_key(param, f, a)
            kb = _quotient_key(param, f, b)
            if ka == kb:
                continue
            canon = (ka, kb) if ka <= kb else (kb, ka)
            if canon not in micro:
                micro[canon] = (ka, kb, f, a.copy(), b.copy())
    return sorted(micro.values(), key=lambda m: (m[0], m[1]))


def _assemble(param, micro):
    """Nodes (crossings, T-junctions, cones) and arcs (maximal chains of
    micro edges through straight pass-through points) of the micro graph."""
    incident = defaultdict(list)
    for mid, m in enumerate(micro):
        incident[m[0]].append(mid)
        incident[m[1]].append(mid)
    cone_keys = {("v", int(v)) for v in param.cone_vertices()}
    node_keys = {
        k for k, ms in incident.items() if len(ms) != 2 or k in cone_keys
    }
    if not node_keys and micro:
        raise ArrangementDegeneracy(
            "the layout graph has no distinguished points (closed curves "
            "without crossings)"
        )

    def other_end(mid, key):
        m = micro[mid]
        return m[1] if m[0] == key else m[0]

    def oriented_seg(mid, from_key):
        m = micro[mid]
        if m[0] == from_key:
            return (m[2], m[3], m[4])
        return (m[2], m[4], m[3])

    visited = set()
    arcs_raw = []
    for start in sorted(node_keys):
        for mid in sorted(incident[start]):
            if mid in visited:
                continue
            segs = []
            key = start
            cur = mid
            while True:
                visited.add(cur)
                segs.append(oriented_seg(cur, key))
                key = other_end(cur, key)
                if key in node_keys:
                    break
                nxts = [m for m in incident[key] if m != cur]
                if len(nxts) != 1:
                    raise ArrangementDegeneracy(
                        f"inconsistent valence at pass-through point {key}"
                    )
                cur = nxts[0]
            arcs_raw.append((start, key, segs))
    if len(visited) != len(micro):
        raise ArrangementDegeneracy(
            "closed layout curves with no node on them"
        )

    node_list = sorted(node_keys)
    node_index = {k: i for i, k in enumerate(node_list)}
    mesh = param.mesh
    nodes = []
    for k in node_list:
        mids = incident[k]
        m = micro[mids[0]]
        f = m[2]
        pos = m[3] if m[0] == k else m[4]
        if k[0] == "v":
            is_boundary = bool(mesh.is_boundary_vertex[k[1]])
        elif k[0] == "e":
            h = int(mesh.edge_halfedge[k[1]])
            is_boundary = mesh.twin[h] == -1
        else:
            is_boundary = False
        nodes.append(
            LayoutNode(
                key=k,
                face=int(f),
                uv=(float(pos[0]), float(pos[1])),
                degree=len(mids),
                is_cone=k in cone_keys,
                is_boundary=is_boundary,
            )
        )
    arcs = [
        LayoutArc(
            nodes=(node_index[a], node_index[b]),
            segments=segs,
        )
        for a, b, segs in arcs_raw
    ]
    return nodes, arcs


# ---------------------------------------------------------------------------
# rotation system and patch tracing


def _ccw_angle(u, v):
    return math.atan2(u[0] * v[1] - u[1] * v[0], u[0] * v[0] + u[1] * v[1]) % TWO_PI


def _end_angle(param, node: LayoutNode, face, d):
    """Fan-angle coordinate of an away-pointing arc-end direction around a
    node, and the total angle of the node's fan.  Around a vertex node the
    coordinate starts at the first fan wedge: the UV wedge angles of
    `corner_angles()`, summed in fan order."""
    mesh = param.mesh
    k = node.key
    if k[0] == "f":
        return math.atan2(d[1], d[0]) % TWO_PI, TWO_PI
    if k[0] == "e":
        eid = k[1]
        kk = next(
            j for j in range(3) if int(mesh.edge_id[3 * face + j]) == eid
        )
        h = 3 * face + kk
        vec = param.uv[face, (kk + 1) % 3] - param.uv[face, kk]
        ang = _ccw_angle(vec, d)
        if ang > math.pi:  # clamp tiny negative-side noise
            ang = 0.0 if TWO_PI - ang < math.pi / 2 else math.pi
        base = 0.0 if mesh.src(h) < mesh.dst(h) else math.pi
        total = math.pi if mesh.twin[h] == -1 else TWO_PI
        return (base + ang) % TWO_PI, total
    angle = param.corner_angles()[0]
    start = None  # (corner, angle before its wedge) of the arc-end face
    total = 0.0
    for h in mesh.vertex_fan(k[1]):
        if start is None and h // 3 == face:
            start = (h % 3, total)
        total += angle[h]
    if start is None:
        raise ArrangementDegeneracy(
            f"arc-end chart face {face} is not in the fan of vertex {k[1]}"
        )
    i, cum = start
    a = param.uv[face, (i + 1) % 3] - param.uv[face, i]
    return cum + _ccw_angle(a, d), total


def _trace_patches(param, nodes, arcs):
    # collect arc-ends per node with fan angles
    ends = defaultdict(list)  # node index -> [(angle, arc index, end 0|1)]
    for aidx, arc in enumerate(arcs):
        for end in (0, 1):
            seg = arc.segments[0] if end == 0 else arc.segments[-1]
            f, p, q = seg
            if end == 0:
                d = np.asarray(q) - np.asarray(p)
            else:
                d = np.asarray(p) - np.asarray(q)
            d = d / np.linalg.norm(d)
            n = arc.nodes[end]
            ang, total = _end_angle(param, nodes[n], f, d)
            ends[n].append([float(ang), aidx, end, float(total)])
    for n, lst in ends.items():
        lst.sort(key=lambda e: e[0])
        for e1, e2 in zip(lst, lst[1:]):
            if e2[0] - e1[0] < tolerances.DIRECTION_TOL:
                raise ArrangementDegeneracy(
                    f"coincident arc directions at node {nodes[n].key}"
                )

    pos = {}  # (arc, end) -> (node, rank in its sorted end list, angle, total)
    for n, lst in ends.items():
        for rank, (ang, aidx, end, total) in enumerate(lst):
            pos[(aidx, end)] = (n, rank, ang, total)

    def next_dart(aidx, end_reached):
        """Arriving at the node via arc end `end_reached`: leave along the
        clockwise-next end.  Returns (arc, departure end, wrapped)."""
        n, rank, _, _ = pos[(aidx, end_reached)]
        lst = ends[n]
        wrapped = rank == 0 and nodes[n].is_boundary
        _, a2, e2, _ = lst[(rank - 1) % len(lst)]
        return a2, e2, wrapped

    used = set()
    walks = []
    for aidx in range(len(arcs)):
        for end in (0, 1):
            # dart = traversal of arc `aidx` starting from its `end`
            if (aidx, end) in used:
                continue
            walk = []
            wrapped = False
            a, e = aidx, end
            while (a, e) not in used:
                used.add((a, e))
                walk.append((a, e))
                a, e, w = next_dart(a, 1 - e)
                wrapped = wrapped or w
            walks.append((walk, wrapped))
    return walks, pos


def _count_corners(nodes, walk, pos):
    """Corners of a patch walk, read from `_trace_patches`' `pos` map."""
    corners = 0
    for (a1, e1), (a2, e2) in zip(walk, walk[1:] + walk[:1]):
        n, _, ang_in, total = pos[(a1, 1 - e1)]
        _, _, ang_out, _ = pos[(a2, e2)]
        node = nodes[n]
        regular_total = math.pi if node.is_boundary else TWO_PI
        eps = tolerances.ANGLE_EPS
        regular = (not node.is_cone) and abs(total - regular_total) < eps
        if regular and abs(abs(ang_in - ang_out) - math.pi) < eps:
            continue  # straight pass-through on a patch side
        corners += 1
    return corners


def _build_layout(param, segments):
    micro = _split_and_key(param, segments)
    nodes, arcs = _assemble(param, micro)
    walks, pos = _trace_patches(param, nodes, arcs)
    patches = []
    n_outer = 0
    for walk, wrapped in walks:
        if wrapped:
            n_outer += 1
            continue
        corners = _count_corners(nodes, walk, pos)
        darts = [(a, 1 if e == 0 else -1) for (a, e) in walk]
        patches.append(LayoutPatch(darts=darts, corners=corners))
    topo = topology_info(param.mesh)
    if n_outer != topo.boundary_count:
        raise ArrangementDegeneracy(
            f"{n_outer} outer walks for {topo.boundary_count} boundary loops"
        )
    layout = Layout(nodes=nodes, arcs=arcs, patches=patches, euler=topo.euler)
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
    curves = emit_separatrices(param, budget)
    segments = _curve_segments_uv(param, curves) + _boundary_segments_uv(param)
    layout = _build_layout(param, segments)
    for pidx, patch in enumerate(layout.patches):
        if patch.corners != 4:
            raise NonQuadPatch(f"patch {pidx} has {patch.corners} corners")
    return layout


# ---------------------------------------------------------------------------
# brute-force oracle


def layout_oracle_bruteforce(param: SeamlessParam, step=1):
    """The full integer-isoline complex (motorcycle-free ground truth).
    Requires an integer-grid map, with integral seam translations and cones
    on the integer grid; every grid crossing is a vertex."""
    why = grid_misalignment(param)
    if why:
        raise NotGridAligned(why)
    detect_cones(param)  # raises on non-quantized angles
    segments = _boundary_segments_uv(param)
    tol = tolerances.WELD_TOL * param.uv_scale()
    slack = tolerances.ISOLINE_SLACK
    for f in range(len(param.mesh.faces)):
        uvf = param.uv[f]
        for axis in (0, 1):
            lo = math.ceil(float(uvf[:, axis].min()) / step - slack)
            hi = math.floor(float(uvf[:, axis].max()) / step + slack)
            for n in range(lo, hi + 1):
                val = n * step
                pts = []
                for kk in range(3):
                    a, b = uvf[kk], uvf[(kk + 1) % 3]
                    da, db = a[axis] - val, b[axis] - val
                    if abs(da) <= tol:
                        pts.append(a)
                    elif da * db < 0:
                        t = da / (da - db)
                        pts.append(a + t * (b - a))
                if len(pts) < 2:
                    continue
                c = 1 - axis
                pts.sort(key=lambda p: p[c])
                p, q = pts[0], pts[-1]
                if np.linalg.norm(q - p) > tol:
                    segments.append((f, np.asarray(p), np.asarray(q)))
    return _build_layout(param, segments)


def _edge_interval(param, f, p, q, eps):
    """If the segment lies along one of face f's mesh edges, return the
    chart-free interval (edge id, lo, hi) in the lower-vertex-first edge
    parameterization; otherwise None."""
    mesh = param.mesh
    uvf = param.uv[f]
    for kk in range(3):
        a, b = uvf[kk], uvf[(kk + 1) % 3]
        ab = b - a
        L = float(np.linalg.norm(ab))
        offs = [
            abs((x[0] - a[0]) * ab[1] - (x[1] - a[1]) * ab[0]) / L
            for x in (p, q)
        ]
        if max(offs) > eps:
            continue
        tp = float((p - a) @ ab) / (L * L)
        tq = float((q - a) @ ab) / (L * L)
        if int(mesh.src(3 * f + kk)) > int(mesh.dst(3 * f + kk)):
            tp, tq = 1.0 - tp, 1.0 - tq
        eid = int(mesh.edge_id[3 * f + kk])
        return eid, min(tp, tq) * L, max(tp, tq) * L
    return None


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
    oracle_keys = {n.key for n in oracle.nodes}
    if any(n.key not in oracle_keys for n in layout.nodes):
        return False
    eps = tolerances.WELD_TOL * param.uv_scale()
    by_face = defaultdict(list)
    by_edge = defaultdict(list)
    for arc in oracle.arcs:
        for (f, p, q) in arc.segments:
            p, q = np.asarray(p), np.asarray(q)
            on_edge = _edge_interval(param, f, p, q, eps)
            if on_edge is not None:
                eid, lo, hi = on_edge
                by_edge[eid].append((lo, hi))
            else:
                by_face[f].append((p, q))
    for arc in layout.arcs:
        for (f, p, q) in arc.segments:
            p, q = np.asarray(p), np.asarray(q)
            on_edge = _edge_interval(param, f, p, q, eps)
            if on_edge is not None:
                eid, lo, hi = on_edge
                if not _covers(by_edge.get(eid, ()), lo, hi, eps):
                    return False
                continue
            r = q - p
            L = float(np.linalg.norm(r))
            u = r / L
            intervals = []
            for (a, b) in by_face.get(f, ()):
                offs = [
                    abs((x[0] - p[0]) * u[1] - (x[1] - p[1]) * u[0])
                    for x in (a, b)
                ]
                if max(offs) > eps:
                    continue
                ta = float((a - p) @ u)
                tb = float((b - p) @ u)
                lo, hi = min(ta, tb), max(ta, tb)
                if hi < -eps or lo > L + eps:
                    continue
                intervals.append((max(lo, 0.0), min(hi, L)))
            if not _covers(intervals, 0.0, L, eps):
                return False
    return True
