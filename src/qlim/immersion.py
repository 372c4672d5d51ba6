"""Discrete quad layout immersion data and the Q1-Q4 validators.

A SeamlessParam stores one UV coordinate per face corner plus a rigid
quarter-turn transition per cut halfedge.  The transition stored on a
halfedge h maps UV coordinates from the chart of twin(h)'s face onto the
chart of h's face.

Q1 and Q2 are conditions on vertex copies, the vertices of the completion
(the mesh cut open along the seams): a copy's UV wedge angles sum to 2*pi
(less than 2*pi on the boundary), and a vertex's copies sum to a multiple
of pi/2.  `SeamlessParam.copy_angles()` computes each copy's sum once, as
an array, from the UV wedge angle of every corner, added left to right in
the copy's fan order from 0.0 (one column pass over the completion's fan
table, `CompletionMesh.fans`), so a sum has the bits of the corner-by-corner
loop.  The cone scan and Q1 read it, and a copy with a (near) zero-area
wedge names the face of its first such corner.  The cone scan, Q1's copy
check and Q4's boundary runs read the completion's tables only; no
`TriMesh` is built after the parse.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .cutgraph import CompletionMesh, CutGraph, cut_mesh, make_cut_graph
from .errors import NonQuantizedCone, ZeroAreaFace
from .mesh import TopologyInfo, TriMesh, topology_info

# quarter-turn rotation matrices, ROTS[j] = counterclockwise by j*pi/2
ROTS = [
    np.array([[1.0, 0.0], [0.0, 1.0]]),
    np.array([[0.0, -1.0], [1.0, 0.0]]),
    np.array([[-1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
]


@dataclass(frozen=True)
class SeamTransition:
    rotation: int  # j in {0,1,2,3}, counterclockwise multiples of pi/2
    translation: tuple  # (tu, tv)

    def __post_init__(self):
        object.__setattr__(self, "rotation", int(self.rotation) % 4)
        t = tuple(float(x) for x in self.translation)
        if len(t) != 2:
            raise ValueError("translation must be a 2-vector")
        object.__setattr__(self, "translation", t)

    def inverse(self):
        j = (4 - self.rotation) % 4
        t = -(ROTS[j] @ np.asarray(self.translation))
        return SeamTransition(j, tuple(t))

    def compose(self, other):
        """self after other: x -> self(other(x))."""
        j = (self.rotation + other.rotation) % 4
        t = ROTS[self.rotation] @ np.asarray(other.translation) + np.asarray(
            self.translation
        )
        return SeamTransition(j, tuple(t))

    def is_identity(self):
        return self.rotation == 0 and self.translation == (0.0, 0.0)


@dataclass(frozen=True)
class ConeRecord:
    vertex: int
    location: str  # "interior" | "boundary"
    m: int

    @property
    def angle(self):
        """theta = m*pi/2, the total parametric angle."""
        return self.m * math.pi / 2.0

    @property
    def defect(self):
        """2*pi - theta (interior) or pi - theta (boundary)."""
        regular = 2.0 * math.pi if self.location == "interior" else math.pi
        return regular - self.angle


@dataclass
class PropertyResult:
    passed: bool = True
    violations: list = field(default_factory=list)

    def fail(self, **kw):
        self.passed = False
        self.violations.append(kw)


@dataclass
class ValidationReport:
    q1: PropertyResult
    q2: PropertyResult
    q3: PropertyResult
    q4: PropertyResult
    gauss_bonnet: PropertyResult
    holonomy: PropertyResult
    jacobian_min: float
    jacobian_max: float
    cones: list

    @property
    def passed(self):
        return not self.failed_properties()

    def failed_properties(self):
        names = ("q1", "q2", "q3", "q4", "gauss_bonnet", "holonomy")
        return [n for n in names if not getattr(self, n).passed]


class SeamlessParam:
    """Per-corner UV coordinates with seam transitions (the map on the
    completion of the cut surface).

    `uv` is a read-only copy of the array given, immutable after
    construction, so the cached completion, cut graph, cone scan,
    `uv_scale()`, `copy_angles()` and `edge_lengths()` can never go stale,
    nor can the tracer's tables (`tracer._tracer`).  Build a new param to
    change the map."""

    def __init__(self, mesh: TriMesh, uv, seams, declared_cones=None):
        self.mesh = mesh
        self.uv = np.array(uv, dtype=float, order="C")
        self.uv.setflags(write=False)
        if self.uv.shape != (len(mesh.faces), 3, 2):
            raise ValueError(f"uv must have shape ({len(mesh.faces)}, 3, 2)")
        self.seams = dict(seams)
        for h, t in self.seams.items():
            if not isinstance(t, SeamTransition):
                raise ValueError("seam values must be SeamTransition")
            if h < 0 or h >= mesh.n_halfedges or mesh.twin[h] == -1:
                raise ValueError(f"seam halfedge {h} is not an interior halfedge")
            if int(mesh.twin[h]) not in self.seams:
                raise ValueError(f"seam halfedge {h} lacks its opposite record")
        self.declared_cones = list(declared_cones) if declared_cones else None
        self.cut_edges = frozenset(int(mesh.edge_id[h]) for h in self.seams)
        self._completion = None
        self._cut_graph = None
        self._cone_scan = None
        self._uv_scale = None
        self._copy_angles = None
        self._edge_lengths = None

    @property
    def completion(self) -> CompletionMesh:
        if self._completion is None:
            self._completion = cut_mesh(self.mesh, self.cut_edges)
        return self._completion

    @property
    def cut_graph(self) -> CutGraph:
        if self._cut_graph is None:
            cones = {c.vertex for c in self.cone_scan()[0]}
            self._cut_graph = make_cut_graph(self.mesh, self.cut_edges, cones)
        return self._cut_graph

    def uv_scale(self):
        """UV bounding-box diagonal (0 for an empty mesh), computed once."""
        if self._uv_scale is None:
            flat = self.uv.reshape(-1, 2)
            span = flat.max(axis=0) - flat.min(axis=0) if len(flat) else (0.0, 0.0)
            self._uv_scale = float(np.hypot(*span))
        return self._uv_scale

    def copy_angles(self):
        """(total, tiny_face), computed once, as arrays over the completion
        vertices (vertex copies) cv: the sum of the unsigned UV wedge
        angles at cv's corners, added left to right in fan order from 0.0,
        and the face of its first corner in fan order whose wedge has
        (near) zero area, or -1.

        The cross product is elementwise and the dot product is `vecdot`,
        which runs the BLAS dot `np.dot` runs on one 2-vector, and each
        angle is `math.atan2`, so every angle has the bits of the
        per-corner computation."""
        if self._copy_angles is None:
            uv = self.uv
            a = (uv[:, [1, 2, 0]] - uv).reshape(-1, 2)
            b = (uv[:, [2, 0, 1]] - uv).reshape(-1, 2)
            cross = np.abs(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
            scale = self.uv_scale()
            small = cross <= tolerances.ZERO_AREA * scale * scale
            angle = np.fromiter(
                map(math.atan2, cross.tolist(), np.vecdot(a, b).tolist()), float, len(cross)
            )
            fan, offsets = self.completion.fans
            total = _sums_in_order(angle[fan], offsets)
            tiny_face = np.full(len(total), -1, dtype=np.int64)
            at = np.flatnonzero(small[fan])
            if at.size:  # the first such corner of each copy
                cv = np.searchsorted(offsets, at, side="right") - 1
                first = np.append(True, cv[1:] != cv[:-1])
                tiny_face[cv[first]] = fan[at[first]] // 3
            self._copy_angles = (total, tiny_face)
        return self._copy_angles

    def edge_lengths(self):
        """The UV length of each halfedge h = 3*f + i, from corner i to
        corner i + 1 of face f, as a read-only array computed once.

        `np.sqrt(np.vecdot(...))` runs the BLAS dot `np.linalg.norm` runs on
        one 2-vector, so every length has the bits of the per-edge norm;
        a side read the other way round (corner i + 1 to i) has them too."""
        if self._edge_lengths is None:
            ab = (self.uv[:, [1, 2, 0]] - self.uv).reshape(-1, 2)
            self._edge_lengths = np.sqrt(np.vecdot(ab, ab))
            self._edge_lengths.setflags(write=False)
        return self._edge_lengths

    # -- cone scan ---------------------------------------------------------

    def cone_scan(self, masked=frozenset()):
        """(records, violations): cone records for all non-regular vertices
        plus Q2 quantization violations.  Vertices whose fan touches a face
        in `masked` (orientation-reversed faces already reported under Q1)
        are skipped so one bad face does not cascade into Q2.  A vertex's
        angle is the sum of its copies' `copy_angles()`, in copy order."""
        if not masked and self._cone_scan is not None:
            return self._cone_scan
        mesh = self.mesh
        nv = len(mesh.vertices)
        total, tiny_face = self.copy_angles()
        # a vertex's fan holds every corner of it, so it touches a masked
        # face exactly when the vertex is a corner of one
        live = np.ones(nv, dtype=bool)
        live[mesh.faces[sorted(masked)]] = False
        copy_of = self.completion.vertex_map
        bad = np.flatnonzero((tiny_face >= 0) & live[copy_of])
        if bad.size:  # at the lowest such vertex's first such copy
            cv = bad[np.argmin(copy_of[bad])]
            raise ZeroAreaFace(f"face {tiny_face[cv]} has (near) zero UV area")
        # a vertex's copies in `vertex_map` are increasing, its own id
        # first, so a stable sort by vertex lists each vertex's copies in
        # copy order
        by_vertex = np.argsort(copy_of, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(copy_of, minlength=nv))))
        phi = _sums_in_order(total[by_vertex], offsets)
        on_boundary = mesh.is_boundary_vertex
        regular = np.where(on_boundary, math.pi, 2.0 * math.pi)
        odd = live & ~(np.abs(phi - regular) <= tolerances.CONE_DETECT_TOL)
        records = []
        violations = []
        phi = phi.tolist()
        for v in np.flatnonzero(odd).tolist():
            m = int(round(phi[v] / (math.pi / 2.0)))
            err = abs(phi[v] - m * math.pi / 2.0)
            if err > tolerances.CONE_DETECT_TOL or m < 1:
                violations.append(
                    {
                        "vertex": v,
                        "measured": phi[v],
                        "expected": m * math.pi / 2.0,
                        "reason": "non-quantized cone angle" if m >= 1 else "polar cone",
                    }
                )
                continue
            location = "boundary" if on_boundary[v] else "interior"
            records.append(ConeRecord(v, location, m))
        if not masked:
            self._cone_scan = (records, violations)
        return records, violations

    def cone_vertices(self):
        return {c.vertex for c in self.cone_scan()[0]}


def _sums_in_order(values, offsets):
    """The sum of each run ``values[offsets[i]:offsets[i + 1]]``, added left
    to right from 0.0, so each has the bits of a per-run loop.  One column
    pass over the runs sorted longest first: position j of every run
    longer than j is added in one numpy call, with no padding."""
    size = np.diff(offsets)
    order = np.argsort(-size, kind="stable")
    start = offsets[:-1][order]
    longer = np.cumsum(np.bincount(size)[::-1])[::-1].tolist()  # runs of size >= j
    total = np.zeros(len(size))
    for j, n in enumerate(longer[1:]):
        total[:n] += values[start[:n] + j]
    sums = np.empty_like(total)
    sums[order] = total
    return sums


def detect_cones(param: SeamlessParam):
    """Cone records for every non-regular vertex; raises on non-quantized
    angles (a Q2 violation)."""
    records, violations = param.cone_scan()
    if violations:
        v = violations[0]
        raise NonQuantizedCone(
            f"vertex {v['vertex']}: angle {v['measured']:.9f} is not a "
            f"multiple of pi/2"
        )
    return list(records)


def check_gauss_bonnet(cones, topo: TopologyInfo) -> float:
    """Residual of sum of cone defects minus 2*pi*chi."""
    total = sum(c.defect for c in cones)
    return float(total - 2.0 * math.pi * topo.euler)


def validate_immersion(param: SeamlessParam) -> ValidationReport:
    mesh = param.mesh
    uv = param.uv
    uv_tol = tolerances.REL_TOL * param.uv_scale()

    # ---- Q1: orientation and local injectivity --------------------------
    q1 = PropertyResult()
    e1 = uv[:, 1] - uv[:, 0]
    e2 = uv[:, 2] - uv[:, 0]
    dets = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    masked = set()
    for f in np.nonzero(dets <= 0)[0]:
        q1.fail(face=int(f), measured=float(dets[f]), expected="positive UV area")
        masked.add(int(f))

    jmin, jmax = _jacobian_bounds(param, masked)

    comp = param.completion
    total, tiny_face = param.copy_angles()
    # copies of cones and of cut-graph nodes (where the cut branches, ends
    # or meets the boundary) are not checked, nor copies with no corner, a
    # corner in a masked face or a (near) zero-area wedge, which Q1's
    # determinant test reports
    check = (np.diff(comp.fans[1]) > 0) & (tiny_face < 0)
    check &= ~np.isin(comp.vertex_map, list(param.cone_vertices() | param.cut_graph.nodes))
    check[comp.corners.reshape(-1, 3)[sorted(masked)]] = False
    copy_boundary = comp.is_boundary_vertex
    wrong = np.where(
        copy_boundary,
        total >= 2.0 * math.pi - tolerances.ANGLE_TOL,
        np.abs(total - 2.0 * math.pi) > tolerances.ANGLE_TOL,
    )
    for cv in np.flatnonzero(check & wrong).tolist():
        q1.fail(
            completion_vertex=cv,
            measured=float(total[cv]),
            expected="copy angle < 2*pi (locally injective)" if copy_boundary[cv] else 2.0 * math.pi,
        )

    # ---- Q2: quantized cones and chart consistency ----------------------
    q2 = PropertyResult()
    records, cone_violations = param.cone_scan(masked=frozenset(masked))
    for v in cone_violations:
        q2.fail(**v)
    edges, worst = _chart_mismatches(param, masked)
    bad = worst > uv_tol
    for e, measured in zip(edges[bad].tolist(), worst[bad].tolist()):
        q2.fail(
            edge=e,
            measured=measured,
            expected="matching corner UVs across a non-seam edge",
        )
    if param.declared_cones is not None:
        declared = {(c.vertex, c.location, c.m) for c in param.declared_cones}
        detected = {(c.vertex, c.location, c.m) for c in records}
        for item in sorted(declared ^ detected):
            q2.fail(
                vertex=item[0],
                measured="declared" if item in declared else "detected",
                expected="declared and detected cones to agree",
            )

    # ---- Q4: boundary segments on constant u or v ------------------------
    q4 = PropertyResult()
    for seg in _boundary_segments(param):
        pts = np.array(seg["uvs"])
        spread = pts.max(axis=0) - pts.min(axis=0)
        if min(spread) > uv_tol:
            q4.fail(
                start_vertex=seg["start_vertex"],
                measured=(float(spread[0]), float(spread[1])),
                expected="constant u or constant v along the boundary segment",
            )

    # ---- Gauss-Bonnet ----------------------------------------------------
    gb = PropertyResult()
    topo = topology_info(mesh)
    residual = check_gauss_bonnet(records, topo)
    if abs(residual) > tolerances.GB_TOL:
        gb.fail(measured=residual, expected=0.0)

    # ---- Q3 and holonomy: quarter-turn seams --------------------------
    q3, hol = _seam_checks(param, records, uv_tol)

    return ValidationReport(
        q1=q1,
        q2=q2,
        q3=q3,
        q4=q4,
        gauss_bonnet=gb,
        holonomy=hol,
        jacobian_min=jmin,
        jacobian_max=jmax,
        cones=records,
    )


def charts_agree(param, faces):
    """Whether no non-cut interior edge of `faces` fails Q2's chart check,
    each checked from the side of its face there."""
    mesh = param.mesh
    h = (3 * np.asarray(faces, dtype=np.intp)[:, None] + np.arange(3)).ravel()
    th = mesh.twin[h]
    cut = np.zeros(mesh.n_edges, dtype=bool)
    cut[list(param.cut_edges)] = True
    keep = (th != -1) & ~cut[mesh.edge_id[h]]
    worst = _chart_distances(param, h[keep], th[keep])
    return not (worst > tolerances.REL_TOL * param.uv_scale()).any()


def _chart_mismatches(param, masked):
    """(edges, distances) as arrays over the non-cut interior edges with
    no face in `masked`, in edge order: `_chart_distances` of each edge's
    halfedge."""
    mesh = param.mesh
    h = mesh.edge_halfedge
    th = mesh.twin[h]
    keep = th != -1
    keep[list(param.cut_edges)] = False
    dead = np.zeros(len(mesh.faces), dtype=bool)
    dead[list(masked)] = True
    keep &= ~dead[h // 3] & ~dead[th // 3]
    edges = np.flatnonzero(keep)
    return edges, _chart_distances(param, h[edges], th[edges])


def _chart_distances(param, h, th):
    """For interior halfedges h with twins th, the larger of the UV
    distances d1 and d2 between the two charts' images of h's source and
    of its target, picked as `max(d1, d2)` picks it: d2 only when d2 > d1.

    One stacked pass; each distance is `sqrt(vecdot(d, d))`, the BLAS dot
    `np.linalg.norm` runs on one 2-vector, so the bits are those of a
    per-edge norm."""
    corner = param.uv.reshape(-1, 2)  # corner of halfedge h = 3*f + i
    d1 = corner[h] - corner[TriMesh.next(th)]
    d2 = corner[TriMesh.next(h)] - corner[th]
    d1, d2 = np.sqrt(np.vecdot(d1, d1)), np.sqrt(np.vecdot(d2, d2))
    return np.where(d2 > d1, d2, d1)


def _seam_checks(param, records, tol):
    """(q3, holonomy) in one stacked pass over the seam records.

    Q3 fits each cut-graph arc's transition at its first halfedge: the
    quarter turn carrying the twin side's UV edge nearest onto the face
    side's (the first on ties), and the translation carrying the twin
    side's source corner onto the face side's.  An arc fails whole when no
    turn fits or the fit misses a corner further on; otherwise each stored
    record is checked against the fit.  Last, each record is checked
    against the inverse of its opposite, in `param.seams` order.

    A vertex's holonomy is the mod-4 sum of the rotations on its outgoing
    seam halfedges: an interior vertex's fan holds all of them, and both
    halfedges of a cut edge have a record.  Only interior vertices on the
    cut are checked; any other lies in one chart.

    Every rotation is a stacked matmul, the gemv of the per-vector product,
    and every distance `sqrt(vecdot(d, d))`, the BLAS dot `np.linalg.norm`
    runs on one 2-vector, so each figure has the bits of a per-halfedge
    loop."""
    q3, hol = PropertyResult(), PropertyResult()
    seams = param.seams
    if not seams:
        return q3, hol
    mesh = param.mesh
    keys = np.array(list(seams))
    rot = np.zeros(mesh.n_halfedges, dtype=int)
    rot[keys] = [s.rotation for s in seams.values()]
    tr = np.zeros((mesh.n_halfedges, 2))
    tr[keys] = [s.translation for s in seams.values()]
    R = np.stack(ROTS)

    def norm(d):
        return np.sqrt(np.vecdot(d, d))

    arcs = param.cut_graph.arcs
    h = np.array([g for arc in arcs for g in arc.halfedges])
    offsets = np.cumsum([0] + [len(arc.halfedges) for arc in arcs]).tolist()
    corner = param.uv.reshape(-1, 2)  # corner of halfedge h = 3*f + i
    p_a, p_b = corner[h], corner[TriMesh.next(h)]
    q_a, q_b = corner[TriMesh.next(mesh.twin[h])], corner[mesh.twin[h]]
    first = offsets[:-1]
    # per arc and turn j, |ROTS[j] (q_b - q_a) - (p_b - p_a)| at its first halfedge
    residual = norm((R @ (q_b - q_a)[first, None, :, None])[..., 0] - (p_b - p_a)[first, None])
    j = residual.argmin(axis=1)
    t = p_a[first] - (R[j] @ q_a[first, :, None])[:, :, 0]
    arc_of = np.repeat(np.arange(len(arcs)), np.diff(offsets))
    jh, th = R[j[arc_of]], t[arc_of]
    kink = np.maximum(
        norm((jh @ q_a[:, :, None])[:, :, 0] + th - p_a),
        norm((jh @ q_b[:, :, None])[:, :, 0] + th - p_b),
    )
    stored_off = np.where(rot[h] == j[arc_of], norm(tr[h] - th), np.inf)
    best = residual.min(axis=1).tolist()
    for a, arc in enumerate(arcs):
        span = slice(offsets[a], offsets[a + 1])
        kinks = np.flatnonzero(kink[span] > tol).tolist()
        if best[a] > tol:
            why = f"no quarter-turn rotation matches halfedge {arc.halfedges[0]} "
            why += f"(best residual {best[a]:.3e})"
        elif kinks:
            why = f"transition varies along arc at halfedge {arc.halfedges[kinks[0]]} "
            why += f"(deviation {kink[span][kinks[0]]:.3e})"
        else:
            fit = SeamTransition(j[a], t[a])
            for k in np.flatnonzero(stored_off[span] > tol).tolist():
                stored = seams[arc.halfedges[k]]
                q3.fail(
                    arc=a,
                    halfedge=int(arc.halfedges[k]),
                    measured=(stored.rotation, stored.translation),
                    expected=(fit.rotation, fit.translation),
                )
            continue
        q3.fail(arc=a, measured=why, expected="constant rigid quarter-turn map")
    back = mesh.twin[keys]
    j_inv = (4 - rot[keys]) % 4
    t_inv = -(R[j_inv] @ tr[keys][:, :, None])[:, :, 0]
    back_off = np.where(rot[back] == j_inv, norm(tr[back] - t_inv), np.inf) > tol
    for g, b in zip(keys[back_off].tolist(), back[back_off].tolist()):
        q3.fail(
            halfedge=g,
            measured=(seams[b].rotation, seams[b].translation),
            expected="inverse of the opposite transition",
        )

    nv = len(mesh.vertices)
    src = mesh.faces.ravel()[keys]
    turn = np.bincount(src, weights=rot[keys], minlength=nv).astype(int) % 4
    want = np.zeros(nv, dtype=int)
    for c in records:
        want[c.vertex] = (4 - c.m) % 4
    check = ~mesh.is_boundary_vertex & (np.bincount(src, minlength=nv) > 0)
    for v in np.flatnonzero(check & (turn != want)).tolist():
        hol.fail(vertex=v, measured=int(turn[v]), expected=int(want[v]))
    return q3, hol


def _jacobian_bounds(param, masked):
    """Min/max singular value of the tangent-plane-to-UV map (diagnostics),
    over the unmasked faces.

    `_jacobian_screen` keeps the few faces that can hold either extreme,
    and only they take the exact pass: the per-face arithmetic, stacked.
    Each 3-vector dot product is a stacked (1, 3) @ (3, 1) matmul, and inv
    and svd run per matrix of the stack.  Every one of these operations
    works row by row, so each kept face gets the same BLAS and LAPACK
    calls, and the same bits, as when it is computed on its own or in a
    pass over all faces; and as the extremes lie among the kept faces, so
    do their bits."""
    mesh = param.mesh
    faces = _jacobian_screen(param, masked)
    p = mesh.vertices[mesh.faces[faces]]
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    n = np.cross(a, b)
    nn = np.sqrt(_dots(n, n))
    uv = param.uv[faces]
    # orthonormal basis in each face plane
    u1 = a / np.sqrt(_dots(a, a))[:, None]
    u2 = np.cross(n / nn[:, None], u1)
    E = np.stack(
        [_dots(a, u1), _dots(b, u1), _dots(a, u2), _dots(b, u2)], axis=-1
    ).reshape(-1, 2, 2)
    U = np.stack([uv[:, 1] - uv[:, 0], uv[:, 2] - uv[:, 0]], axis=-1)
    # nn is never 0 and E never singular: TriMesh rejects faces whose area
    # is not above 1e-12 of the squared bbox diagonal, which keeps E's
    # second pivot (about twice the area over |a|) far above rounding noise
    s = np.linalg.svd(U @ np.linalg.inv(E), compute_uv=False)
    if not len(s):
        return 0.0, 0.0
    return float(s[:, -1].min()), float(s[:, 0].max())


def _jacobian_screen(param, masked):
    """The unmasked faces whose exact singular values could be the least
    sigma_min or the greatest sigma_max, as sorted face ids.

    With U the two UV edges of a face as columns and E its two 3D edges
    a, b in an orthonormal basis of the face plane, the map is J = U E^-1,
    so the squared singular values are the eigenvalues of M G^-1, where
    M = U^T U and G = E^T E = [[a.a, a.b], [a.b, b.b]]: the roots of
    x^2 - T x + D, with D = det(U)^2 / det G.  They are estimated for every
    face at once, in elementwise arithmetic.  Each estimate gets a relative
    slack: JACOBIAN_SLACK, which covers the square root of T^2 - 4D on
    nearly conformal faces, plus JACOBIAN_SLACK_COND times
    tr(G)^2 / det G + tr(M)^2 / det M, bounds on the condition numbers of G
    and M (the squared ones of E and U), which cover the cancellation in
    the determinants here and the rounding of the exact pass.  A face whose
    estimate is not finite or whose slack is not at most JACOBIAN_SLACK_CAP
    is always kept: a determinant that is not positive gives one or the
    other.  Of the others, a face is kept when its lower bound on sigma_min
    reaches the least upper bound, or its upper bound on sigma_max the
    greatest lower bound."""
    keep = np.ones(len(param.mesh.faces), dtype=bool)
    keep[list(masked)] = False
    faces = np.flatnonzero(keep)
    # coordinate-major (coordinate, corner, face) arrays, so every step
    # below works on whole rows of faces
    tri = param.mesh.faces.take(faces, axis=0).T
    p = np.take(np.ascontiguousarray(param.mesh.vertices.T), tri, axis=1)
    a, b = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    u = param.uv.take(faces, axis=0).reshape(-1, 6).T
    e1, e2 = u[2:4] - u[:2], u[4:] - u[:2]
    g11, g12, g22 = (a * a).sum(axis=0), (a * b).sum(axis=0), (b * b).sum(axis=0)
    m11, m12, m22 = (e1 * e1).sum(axis=0), (e1 * e2).sum(axis=0), (e2 * e2).sum(axis=0)
    det_g = g11 * g22 - g12 * g12
    det_u = e1[0] * e2[1] - e1[1] * e2[0]
    det_m = det_u * det_u
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        trace = (m11 * g22 - 2.0 * m12 * g12 + m22 * g11) / det_g
        det = det_m / det_g
        big = 0.5 * (trace + np.sqrt(np.maximum(trace * trace - 4.0 * det, 0.0)))
        s = np.sqrt([det / big, big])
        slack = tolerances.JACOBIAN_SLACK + tolerances.JACOBIAN_SLACK_COND * (
            (g11 + g22) ** 2 / det_g + (m11 + m22) ** 2 / det_m
        )
        sure = np.isfinite(s).all(axis=0) & (slack <= tolerances.JACOBIAN_SLACK_CAP)
        lo = np.where(sure, s * (1.0 - slack), -np.inf)
        hi = np.where(sure, s * (1.0 + slack), np.inf)
    kept = (lo[0] <= hi[0].min(initial=np.inf)) | (hi[1] >= lo[1].max(initial=-np.inf))
    return faces[kept]


def _dots(x, y):
    """Row-wise dot products of two (k, 3) stacks."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _boundary_segments(param):
    """Maximal runs of original-boundary halfedges in one completion chart,
    broken at boundary cones."""
    mesh = param.mesh
    comp = param.completion
    cones = param.cone_vertices()
    segments = []
    for loop in comp.boundary_loops:
        orig = list(loop)
        n = len(orig)
        # cut-side halfedges (not boundary in the original mesh) interrupt
        # any run; a cone vertex starts a new one
        keep = [mesh.twin[h] == -1 for h in orig]
        at_cone = [int(comp.vertex_map[comp.corners[h]]) in cones for h in orig]
        if not all(keep):
            start = keep.index(False)
        else:  # a whole loop of original boundary starts at its first cone
            start = at_cone.index(True) - 1 if any(at_cone) else -1
        runs = []
        cur = []
        for step in range(1, n + 1):
            idx = (start + step) % n
            if cur and (not keep[idx] or at_cone[idx]):
                runs.append(cur)
                cur = []
            if keep[idx]:
                cur.append(idx)
        if cur:
            runs.append(cur)
        for run in runs:
            uvs = []
            for idx in run:
                h = orig[idx]
                f, i = h // 3, h % 3
                uvs.append(tuple(param.uv[f, i]))
                uvs.append(tuple(param.uv[f, (i + 1) % 3]))
            segments.append(
                {
                    "start_vertex": int(comp.vertex_map[comp.corners[orig[run[0]]]]),
                    "uvs": uvs,
                }
            )
    return segments


def grid_misalignment(param: SeamlessParam):
    """Why `param` is not an integer-grid map, or None.  Such a map puts
    every cone copy's UV in Z^2 and, since it sends Z^2 to itself across
    every seam, has integral seam translations (Bommes et al. 2013).  The
    cones are checked first, so a param refused for its cones keeps that
    reason."""
    cones = param.cone_vertices()
    if cones:
        # the copies' fans partition the corners of the cone vertices
        at_cone = np.isin(param.mesh.faces.ravel(), list(cones))
        p = param.uv.reshape(-1, 2)[at_cone]
        if (np.abs(p - np.round(p)).max(axis=1) > tolerances.GRID_TOL).any():
            return "cone images do not lie on the integer grid"
    for h in sorted(param.seams):
        t = param.seams[h].translation
        if max(abs(x - round(x)) for x in t) > tolerances.GRID_TOL:
            return f"seam translation ({t[0]!r}, {t[1]!r}) on halfedge {h} is not integral"
    return None


def apply_global_motion(param: SeamlessParam, j: int, t=(0.0, 0.0)) -> SeamlessParam:
    """Re-root the chart: rotate all UVs by j*pi/2 and translate by t,
    conjugating every seam transition."""
    g = SeamTransition(j, tuple(t))
    ginv = g.inverse()
    uv = param.uv @ ROTS[g.rotation].T + np.asarray(g.translation)
    seams = {h: g.compose(s.compose(ginv)) for h, s in param.seams.items()}
    return SeamlessParam(param.mesh, uv, seams, declared_cones=param.declared_cones)
