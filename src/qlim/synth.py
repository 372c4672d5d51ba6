"""Ground-truth fixtures realized from abstract quad complexes.

realize() lays a spanning tree of unit squares out rigidly in the plane
(integer arithmetic, so fixtures are exact); the non-tree quad adjacencies
become seams carrying the induced quarter-turn transitions.
"""

import math
import warnings

import numpy as np

from .errors import QlimError
from .immersion import ConeRecord, SeamTransition, SeamlessParam
from .mesh import build_halfedge


class OverlapWarning(UserWarning):
    pass


# integer quarter-turn rotations
_IROT = [
    ((1, 0), (0, 1)),
    ((0, -1), (1, 0)),
    ((-1, 0), (0, -1)),
    ((0, 1), (-1, 0)),
]


def _irot(j, p):
    m = _IROT[j % 4]
    return (m[0][0] * p[0] + m[0][1] * p[1], m[1][0] * p[0] + m[1][1] * p[1])


_LOCAL = [(0, 0), (1, 0), (1, 1), (0, 1)]


class AbstractQuadComplex:
    """Manifold oriented quad complex; irregular valences are the cones."""

    def __init__(self, n_vertices, quads):
        self.n_vertices = int(n_vertices)
        self.quads = [tuple(int(x) for x in q) for q in quads]
        self._validate()

    def _validate(self):
        directed = {}
        undirected = {}
        for q, quad in enumerate(self.quads):
            if len(quad) != 4 or len(set(quad)) != 4:
                raise QlimError(f"quad {q} must have 4 distinct vertices")
            if min(quad) < 0 or max(quad) >= self.n_vertices:
                raise QlimError(f"quad {q} vertex index out of range")
            for s in range(4):
                a, b = quad[s], quad[(s + 1) % 4]
                if (a, b) in directed:
                    raise QlimError(
                        f"directed edge {a}->{b} repeated: inconsistent "
                        f"orientation or non-manifold complex"
                    )
                directed[(a, b)] = (q, s)
                key = (a, b) if a < b else (b, a)
                undirected.setdefault(key, []).append((q, s))
        for key, sides in undirected.items():
            if len(sides) > 2:
                raise QlimError(f"edge {key} borders {len(sides)} quads")
        self.side_of = directed
        self.edge_sides = undirected
        self.n_edges = len(undirected)

        self.is_boundary_vertex = [False] * self.n_vertices
        for key, sides in undirected.items():
            if len(sides) == 1:
                for v in key:
                    self.is_boundary_vertex[v] = True

        self.valence = [0] * self.n_vertices
        for quad in self.quads:
            for v in quad:
                self.valence[v] += 1
        for v in range(self.n_vertices):
            if self.valence[v] == 0:
                raise QlimError(f"vertex {v} belongs to no quad")

        # connectivity over quad adjacency
        seen = {0}
        stack = [0]
        while stack:
            q = stack.pop()
            for s in range(4):
                other = self.adjacent(q, s)
                if other is not None and other[0] not in seen:
                    seen.add(other[0])
                    stack.append(other[0])
        if len(seen) != len(self.quads):
            raise QlimError("quad complex is not connected")

    def adjacent(self, q, s):
        """(quad, side) across side s of quad q, or None at the boundary."""
        a, b = self.quads[q][s], self.quads[q][(s + 1) % 4]
        return self.side_of.get((b, a))

    @property
    def counts(self):
        return (self.n_vertices, self.n_edges, len(self.quads))

    def cone_records(self):
        out = []
        for v in range(self.n_vertices):
            m = self.valence[v]
            if self.is_boundary_vertex[v]:
                if m != 2:
                    out.append(ConeRecord(v, "boundary", m))
            else:
                if m != 4:
                    out.append(ConeRecord(v, "interior", m))
        return out


def realize(complex: AbstractQuadComplex) -> SeamlessParam:
    """Seamless parameterization of the complex as rigid unit squares."""
    nq = len(complex.quads)
    placement = [None] * nq  # (j, t) with integer t
    placement[0] = (0, (0, 0))
    order = [0]
    tree_adjacency = set()
    qi = 0
    while qi < len(order):
        q = order[qi]
        qi += 1
        for s in range(4):
            other = complex.adjacent(q, s)
            if other is None:
                continue
            r, sr = other
            if placement[r] is not None:
                continue
            # r placed: the transition from its own chart onto q's placed one
            placement[r] = _side_transition(placement[q], s, (0, (0, 0)), sr)
            tree_adjacency.add(_adj_key(q, s, r, sr))
            order.append(r)
    assert all(p is not None for p in placement)
    if len({p[1] for p in placement}) < nq:
        warnings.warn(
            "planar layout self-overlaps (immersion, not an embedding)",
            OverlapWarning,
        )

    # triangulate: quad q -> faces 2q = (a,b,c), 2q+1 = (a,c,d)
    faces = []
    uv = np.empty((2 * nq, 3, 2), dtype=float)
    corner_uv = {}
    for q, quad in enumerate(complex.quads):
        pts = [_quad_corner(placement[q], k) for k in range(4)]
        for k in range(4):
            corner_uv.setdefault(quad[k], []).append(pts[k])
        a, b, c, d = quad
        faces.append((a, b, c))
        faces.append((a, c, d))
        uv[2 * q] = [pts[0], pts[1], pts[2]]
        uv[2 * q + 1] = [pts[0], pts[2], pts[3]]

    # seams: non-tree adjacencies with a non-identity induced transition
    seams = {}
    done = set()
    for q in range(nq):
        for s in range(4):
            other = complex.adjacent(q, s)
            if other is None:
                continue
            r, sr = other
            key = _adj_key(q, s, r, sr)
            if key in done or key in tree_adjacency:
                continue
            done.add(key)
            j, t = _side_transition(placement[q], s, placement[r], sr)
            trans = SeamTransition(j, (float(t[0]), float(t[1])))
            if trans.is_identity():
                continue
            hq = _side_halfedge(q, s)
            hr = _side_halfedge(r, sr)
            seams[hq] = trans
            seams[hr] = trans.inverse()

    positions = _embed_positions(complex, corner_uv)
    mesh = build_halfedge(positions, faces)
    return SeamlessParam(mesh, uv, seams, declared_cones=complex.cone_records())


def _adj_key(q, s, r, sr):
    return ((q, s), (r, sr)) if (q, s) < (r, sr) else ((r, sr), (q, s))


def _quad_corner(place, k):
    j, t = place
    return tuple(a + b for a, b in zip(_irot(j, _LOCAL[k % 4]), t))


def _side_transition(place_q, s, place_r, sr):
    """(j, t), t integer: the transition mapping r's chart onto q's chart
    across side s of quad q, which is side sr of quad r, solved from the
    shared side's endpoints (integer exact)."""
    a_q = _quad_corner(place_q, s)
    b_q = _quad_corner(place_q, s + 1)
    a_r = _quad_corner(place_r, sr + 1)  # same vertex as a_q
    b_r = _quad_corner(place_r, sr)  # same vertex as b_q
    d_q = tuple(x - y for x, y in zip(b_q, a_q))
    d_r = tuple(x - y for x, y in zip(b_r, a_r))
    j = [_irot(k, d_r) for k in range(4)].index(d_q)
    return j, tuple(x - y for x, y in zip(a_q, _irot(j, a_r)))


def _side_halfedge(q, s):
    """Mesh halfedge of quad side s under the (a,b,c)/(a,c,d) split."""
    return {0: 6 * q, 1: 6 * q + 1, 2: 6 * q + 4, 3: 6 * q + 5}[s]


def _embed_positions(complex, corner_uv):
    """Deterministic 3D embedding; validators only use UV, so any
    non-degenerate embedding works."""
    rng = np.random.default_rng(20240817)
    pos = np.empty((complex.n_vertices, 3))
    for v in range(complex.n_vertices):
        pts = np.array(corner_uv[v], dtype=float)
        pos[v, :2] = pts.mean(axis=0)
    pos[:, 2] = 0.0
    pos += rng.normal(scale=1e-3, size=pos.shape)
    return pos


# ---------------------------------------------------------------------------
# named fixtures


def _grid_complex(w, h, wrap_u=False, wrap_v=False):
    nu = w if wrap_u else w + 1
    nv = h if wrap_v else h + 1
    vid = lambda i, j: (j % nv) * nu + (i % nu)
    quads = []
    for j in range(h):
        for i in range(w):
            quads.append((vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)))
    return AbstractQuadComplex(nu * nv, quads)


def flat_torus(w=4, h=3) -> SeamlessParam:
    if w < 3 or h < 3:
        raise ValueError("flat_torus needs w, h >= 3")
    return realize(_grid_complex(w, h, wrap_u=True, wrap_v=True))


def sheared_torus(w=4, h=3, s=math.sqrt(2.0)) -> SeamlessParam:
    """Flat torus with gluing translations (w, 0) and (s, h)."""
    param = flat_torus(w, h)
    shear = np.array([[1.0, s / h], [0.0, 1.0]])
    uv = param.uv @ shear.T
    seams = {}
    for hh, t in param.seams.items():
        assert t.rotation == 0
        seams[hh] = SeamTransition(0, tuple(shear @ np.asarray(t.translation)))
    return SeamlessParam(param.mesh, uv, seams, declared_cones=param.declared_cones)


def rectangle(a=math.sqrt(2.0), b=math.sqrt(3.0)) -> SeamlessParam:
    """Axis-aligned rectangle [0,a] x [0,b] with four m=1 corners."""
    if not (a > 0 and b > 0):
        raise ValueError(f"rectangle needs a, b > 0, got a={a}, b={b}")

    def grid_n(x):
        r = round(x)
        return int(r) if abs(x - r) < 1e-9 and r >= 1 else max(2, int(math.ceil(x)))

    na, nb = grid_n(a), grid_n(b)
    param = realize(_grid_complex(na, nb))
    assert not param.seams
    uv = param.uv * np.array([a / na, b / nb])
    return SeamlessParam(param.mesh, uv, {}, declared_cones=param.declared_cones)


def _l_complex() -> AbstractQuadComplex:
    cells = [(0, 0), (1, 0), (0, 1)]
    pts = sorted({(x + dx, y + dy) for x, y in cells for dx in (0, 1) for dy in (0, 1)})
    vid = {p: i for i, p in enumerate(pts)}
    quads = [
        (vid[(x, y)], vid[(x + 1, y)], vid[(x + 1, y + 1)], vid[(x, y + 1)])
        for x, y in cells
    ]
    return AbstractQuadComplex(len(pts), quads)


def _annulus_complex() -> AbstractQuadComplex:
    from importlib import resources

    from .qlimio import parse_qlay

    data = resources.files("qlim").joinpath("data/annulus_35.qlay").read_text()
    return parse_qlay(data)


def l_domain() -> SeamlessParam:
    """L-shaped polyomino of 3 unit quads: five m=1 corners, one m=3."""
    return realize(_l_complex())


def annulus_35() -> SeamlessParam:
    """Annulus with one m=3 and one m=5 interior cone (checked-in complex)."""
    return realize(_annulus_complex())


def fixture_complex(name, **params) -> AbstractQuadComplex:
    """The abstract quad complex that a named fixture realizes at unit
    scale.  Only defined for fixtures whose realization is grid-aligned."""
    if name == "flat_torus":
        return _grid_complex(
            params.get("w", 4), params.get("h", 3), wrap_u=True, wrap_v=True
        )
    if name == "rectangle":
        a = params.get("a", math.sqrt(2.0))
        b = params.get("b", math.sqrt(3.0))
        if abs(a - round(a)) > 1e-9 or abs(b - round(b)) > 1e-9:
            raise QlimError("rectangle complex requires integer side lengths")
        return _grid_complex(int(round(a)), int(round(b)))
    if name == "l_domain":
        return _l_complex()
    if name == "annulus_35":
        return _annulus_complex()
    raise KeyError(f"fixture {name!r} has no grid-aligned source complex")


FIXTURES = {
    "flat_torus": flat_torus,
    "sheared_torus": sheared_torus,
    "rectangle": rectangle,
    "l_domain": l_domain,
    "annulus_35": annulus_35,
}


def fixture(name, **params) -> SeamlessParam:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; choices: {sorted(FIXTURES)}")
    return FIXTURES[name](**params)


# ---------------------------------------------------------------------------
# targeted mutations


PERTURB_KINDS = ("FlipFace", "ScaleWedge", "BumpRotation", "NudgeBoundary")


def perturb(param: SeamlessParam, kind: str) -> SeamlessParam:
    """One targeted defect: FlipFace (Q1), ScaleWedge (Q2), BumpRotation
    (Q3 and holonomy), NudgeBoundary (Q4)."""
    uv = np.array(param.uv, copy=True)
    seams = dict(param.seams)
    mesh = param.mesh

    if kind == "FlipFace":
        f = _clean_face(param, avoid_cones=True)
        uv[f, [1, 2]] = uv[f, [2, 1]]
    elif kind == "ScaleWedge":
        # similarity-scale one face of a cone fan about the cone corner:
        # wedge angles and boundary lines through the corner are preserved,
        # so only chart consistency across the face's edges (Q2) breaks
        cone, f, i = _wedge_corner_at_cone(param)
        center = uv[f, i].copy()
        uv[f] = center + 1.05 * (uv[f] - center)
    elif kind == "BumpRotation":
        if not seams:
            raise QlimError("BumpRotation needs a fixture with seams")
        h = min(seams)
        t = seams[h]
        bumped = SeamTransition(t.rotation + 1, t.translation)
        seams[h] = bumped
        seams[int(mesh.twin[h])] = bumped.inverse()
    elif kind == "NudgeBoundary":
        v = _regular_boundary_vertex(param)
        fan = mesh.vertex_fan(v)
        # off-axis direction: perpendicular to the boundary run through v
        h0 = fan[0]
        d = uv[h0 // 3, (h0 % 3 + 1) % 3] - uv[h0 // 3, h0 % 3]
        axis = 0 if abs(d[0]) >= abs(d[1]) else 1
        for h in fan:
            uv[h // 3, h % 3, 1 - axis] += 1e-3
    else:
        raise QlimError(f"unknown perturb kind {kind!r}; choices: {PERTURB_KINDS}")

    return SeamlessParam(mesh, uv, seams, declared_cones=param.declared_cones)


def _clean_face(param, avoid_cones):
    mesh = param.mesh
    cones = param.cone_vertices() if avoid_cones else set()
    for f in range(len(mesh.faces)):
        hs = [3 * f, 3 * f + 1, 3 * f + 2]
        if any(mesh.twin[h] == -1 for h in hs):
            continue
        if any(int(mesh.edge_id[h]) in param.cut_edges for h in hs):
            continue
        if cones and any(int(v) in cones for v in mesh.faces[f]):
            continue
        return f
    raise QlimError("no interior face away from seams and boundary")


def _wedge_corner_at_cone(param):
    mesh = param.mesh
    cones = sorted(param.cone_vertices())
    if not cones:
        raise QlimError("ScaleWedge needs a fixture with a cone")
    ordered = sorted(cones, key=lambda v: (bool(mesh.is_boundary_vertex[v]), v))
    for cone in ordered:
        for h in mesh.vertex_fan(cone):
            f = h // 3
            hs = [3 * f, 3 * f + 1, 3 * f + 2]
            if any(int(mesh.edge_id[g]) in param.cut_edges for g in hs):
                continue
            # boundary edges of the face must pass through the cone corner,
            # otherwise scaling would move them off their axis line (Q4)
            if any(
                mesh.twin[g] == -1 and cone not in (mesh.src(g), mesh.dst(g))
                for g in hs
            ):
                continue
            return cone, f, h % 3
    raise QlimError("no scalable wedge face at any cone")


def _regular_boundary_vertex(param):
    mesh = param.mesh
    cones = param.cone_vertices()
    cut_vs = {int(v) for e in param.cut_edges for v in mesh.edges[e]}
    for loop in mesh.boundary_loops:
        for h in loop:
            v = mesh.src(h)
            if v not in cones and v not in cut_vs:
                return v
    raise QlimError("NudgeBoundary needs a regular boundary vertex")
