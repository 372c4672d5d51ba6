"""Cutting graphs and the cut-open completion mesh.

A simple cutting graph cuts the surface into a single topological disk,
contains every interior singularity as a degree-1 endpoint, and meets the
surface boundary only at discrete vertices.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedMesh, QlimError, SingularityOnBoundary
from .mesh import TriMesh, build_halfedge


@dataclass(frozen=True)
class Arc:
    """Maximal open chain of cut edges, stored as directed halfedges.

    ``halfedges[i]`` runs head-to-tail: dst(halfedges[i]) == src(halfedges[i+1]).
    A closed arc has dst(last) == src(first) and no endpoints in the node set.
    """

    halfedges: tuple

    def edge_ids(self, mesh: TriMesh):
        return tuple(int(mesh.edge_id[h]) for h in self.halfedges)


@dataclass(frozen=True)
class CutGraph:
    cut_edges: frozenset  # mesh edge ids
    nodes: frozenset  # vertex ids
    arcs: tuple  # of Arc


@dataclass
class CompletionMesh:
    mesh: TriMesh  # cut-open mesh; faces/halfedges indexed as the original
    vertex_map: np.ndarray  # completion vertex -> original vertex
    vertex_copies: dict  # original vertex -> its completion vertices, increasing


def _cut_valences(mesh, cut_edges):
    val = {}
    for e in cut_edges:
        for v in mesh.edges[e]:
            val[int(v)] = val.get(int(v), 0) + 1
    return val


def _decompose_arcs(mesh, cut_edges, singularities=()):
    """Nodes and maximal arcs of a cut edge set."""
    val = _cut_valences(mesh, cut_edges)
    nodes = set()
    for v, k in val.items():
        if k != 2 or mesh.is_boundary_vertex[v] or v in singularities:
            nodes.add(v)

    # adjacency: vertex -> sorted list of cut edges
    adj = {}
    for e in sorted(cut_edges):
        for v in mesh.edges[e]:
            adj.setdefault(int(v), []).append(e)

    used = set()
    arcs = []

    def walk(v, e):
        chain = []
        while True:
            used.add(e)
            u, w = (int(x) for x in mesh.edges[e])
            nxt = w if u == v else u
            h = mesh.halfedge_between(v, nxt)
            chain.append(h)
            v = nxt
            if v in nodes:
                break
            cont = [x for x in adj[v] if x != e and x not in used]
            if not cont:
                break  # closed arc returning to start
            e = cont[0]
        return chain

    for n in sorted(nodes):
        for e in adj.get(n, []):
            if e not in used:
                arcs.append(Arc(tuple(walk(n, e))))
    # leftover pure cycles with no node
    for e in sorted(cut_edges):
        if e not in used:
            v = int(min(mesh.edges[e]))
            arcs.append(Arc(tuple(walk(v, e))))
    return frozenset(nodes), tuple(arcs)


def make_cut_graph(mesh, cut_edges, singularities=()):
    nodes, arcs = _decompose_arcs(mesh, frozenset(cut_edges), singularities)
    return CutGraph(cut_edges=frozenset(cut_edges), nodes=nodes, arcs=arcs)


def _dual_spanning_cotree(mesh, singularities):
    """Dual spanning tree; returns the set of crossed (tree) edges.

    Built greedily with edges touching a singular vertex first, so as many
    singular-star edges as possible are crossed and stay out of the cut
    set; around each singularity at most one star edge can remain uncrossed
    (the dual star is a cycle, and a tree omits at least one cycle edge).
    """
    nf = len(mesh.faces)
    if nf == 0:
        return set()
    sing = set(singularities)
    parent = list(range(nf))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ranked = []
    for e in range(mesh.n_edges):
        h = int(mesh.edge_halfedge[e])
        if mesh.twin[h] == -1:
            continue
        u, v = (int(x) for x in mesh.edges[e])
        w = 0 if (u in sing or v in sing) else 1
        ranked.append((w, e, h))

    crossed = set()
    joins = 0
    for w, e, h in sorted(ranked):
        a, b = find(h // 3), find(int(mesh.twin[h]) // 3)
        if a != b:
            parent[a] = b
            crossed.add(e)
            joins += 1
    if joins != nf - 1:
        raise DisconnectedMesh("mesh has more than one face component")
    return crossed


def _prune(mesh, cut):
    """Iteratively drop cut edges hanging off a non-boundary leaf vertex."""
    cut = set(cut)
    val = _cut_valences(mesh, cut)
    heap = sorted(cut)
    while heap:
        nxt = []
        changed = False
        for e in heap:
            if e not in cut:
                continue
            u, w = (int(x) for x in mesh.edges[e])
            leaf = (
                (val.get(u, 0) == 1 and not mesh.is_boundary_vertex[u])
                or (val.get(w, 0) == 1 and not mesh.is_boundary_vertex[w])
            )
            if leaf:
                cut.remove(e)
                val[u] -= 1
                val[w] -= 1
                changed = True
            else:
                nxt.append(e)
        if not changed:
            break
        heap = nxt
    return cut


def _shortest_path_to(mesh, source, targets, forbidden_vertices, cut_vertices):
    """Dijkstra over interior edges from `source` to any vertex in `targets`.

    Path interiors avoid `forbidden_vertices` and existing `cut_vertices`
    (a path may only touch the graph at its final vertex).  Ties break on
    the lowest vertex index.  Returns a list of edge ids or None.
    """
    dist = {source: (0.0, ())}
    heap = [(0.0, (), source)]
    done = set()
    backptr = {}
    while heap:
        d, tiebreak, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        if v in targets:
            # reconstruct
            path = []
            cur = v
            while cur != source:
                e, prv = backptr[cur]
                path.append(e)
                cur = prv
            return list(reversed(path))
        for h in mesh.vertex_fan(v):
            e = int(mesh.edge_id[h])
            if mesh.twin[h] == -1:
                continue  # never cut along the surface boundary
            w = mesh.dst(h)
            if w in done:
                continue
            if w not in targets and (w in forbidden_vertices or w in cut_vertices):
                continue
            if w not in targets and mesh.is_boundary_vertex[w]:
                # touching the surface boundary mid-path would pinch the
                # cut complement apart; only a path endpoint may lie there
                continue
            nd = d + mesh.edge_length(e)
            nt = tiebreak + (w,)
            if w not in dist or (nd, nt) < dist[w]:
                dist[w] = (nd, nt)
                backptr[w] = (e, v)
                heapq.heappush(heap, (nd, nt, w))
    return None


def build_cutting_graph(mesh: TriMesh, interior_singularities) -> CutGraph:
    """Simple cutting graph whose complement is one disk.

    Construction: dual spanning tree from face 0; cut set = interior edges
    the tree does not cross, pruned of chains hanging off non-singular
    interior leaves; then a shortest edge path from the graph (or the
    surface boundary when the graph is empty) to each interior singularity.
    """
    return _build_and_check(mesh, interior_singularities)[0]


def _build_and_check(mesh, interior_singularities):
    """(graph, checks, completion): `build_cutting_graph`'s graph, its
    `validate_cutting_graph` report and the mesh cut open along it."""
    sing = sorted(set(int(v) for v in interior_singularities))
    for v in sing:
        if v < 0 or v >= len(mesh.vertices):
            raise ValueError(f"singularity {v} out of range")
        if mesh.is_boundary_vertex[v]:
            raise SingularityOnBoundary(f"vertex {v} lies on the surface boundary")

    crossed = _dual_spanning_cotree(mesh, sing)
    cut = {
        e
        for e in range(mesh.n_edges)
        if e not in crossed and mesh.twin[mesh.edge_halfedge[e]] != -1
    }
    closed = len(mesh.boundary_loops) == 0
    cut = _prune(mesh, cut)
    if closed and not cut:
        # closed sphere: seed with a 2-edge slit (a 1-edge slit cannot be
        # opened by vertex duplication, both endpoints keep a single fan)
        cut = _sphere_seed_slit(mesh, sing)
    cut = _reroute_singular_interiors(mesh, cut, sing)

    # attach singularities
    for s in sing:
        val = _cut_valences(mesh, cut)
        if val.get(s, 0) == 1:
            continue  # already a graph endpoint
        if val.get(s, 0) > 1:
            raise QlimError(f"could not free singular vertex {s} from the cut graph")
        cut_vertices = set(val)
        # a slit may attach to the existing graph or directly to the
        # surface boundary; either keeps the complement a disk
        targets = set(v for v in cut_vertices if v not in sing)
        targets |= {
            v for v in range(len(mesh.vertices)) if mesh.is_boundary_vertex[v]
        }
        if not targets:
            # closed surface with an empty graph: path to another singularity
            targets = set(x for x in sing if x != s)
            if not targets:
                targets = {v for v in range(len(mesh.vertices)) if v != s}
        path = _shortest_path_to(
            mesh, s, targets, forbidden_vertices=set(sing) - {s}, cut_vertices=cut_vertices
        )
        if path is None:
            raise QlimError(f"no attachment path found for singularity {s}")
        cut.update(path)

    graph = make_cut_graph(mesh, cut, sing)
    comp = cut_mesh(mesh, graph)
    checks = _cut_report(mesh, graph, sing, comp)
    if not checks["all"]:
        failed = [name for name, ok in checks.items() if not ok and name != "all"]
        raise QlimError(f"cut graph is not simple: failed {', '.join(failed)}")
    return graph, checks, comp


def _sphere_seed_slit(mesh, sing):
    """Two adjacent interior edges avoiding singular vertices."""
    forbidden = set(sing)
    for e in range(mesh.n_edges):
        u, v = (int(x) for x in mesh.edges[e])
        if u in forbidden or v in forbidden:
            continue
        for h in mesh.vertex_fan(v):
            w = mesh.dst(h)
            if w != u and w not in forbidden:
                return {e, int(mesh.edge_id[h])}
    raise QlimError("no seed slit found")


def _reroute_singular_interiors(mesh, cut, sing):
    """Detour the cut set around singular vertices of cut valence >= 2.

    Rerouting one vertex can raise the cut valence of another singular
    vertex, so sweep until every singularity has valence at most 1.
    """
    cut = set(cut)
    for _ in range(len(sing) + 2):
        changed = False
        for s in sing:
            val = _cut_valences(mesh, cut)
            if val.get(s, 0) < 2:
                continue
            cut = _detour_one(mesh, cut, sing, s)
            changed = True
        if not changed:
            return cut
    raise QlimError("cut graph reroute did not stabilize")


def _detour_one(mesh, cut, sing, s):
    """Replace the cut edges at s with a path around s through its ring."""
    fan = mesh.vertex_fan(s)
    ring = [mesh.dst(h) for h in fan]
    star_edges = {int(mesh.edge_id[h]) for h in fan}
    incident = sorted(star_edges & cut)
    # positions of cut neighbors around the ring
    marks = [i for i, h in enumerate(fan) if int(mesh.edge_id[h]) in cut]
    # connect consecutive marked neighbors along the ring in every
    # cyclic sector but one, then drop the star edges; any sector may
    # be the open one, so try each until a detour avoids boundary
    # edges and other singular vertices
    n = len(ring)
    m = len(marks)
    base = cut - set(incident)
    val = _cut_valences(mesh, base)

    def sector_edges(a, b):
        pos = [a]
        i = a
        while i != b:
            i = (i + 1) % n
            pos.append(i)
        vs = [ring[i] for i in pos]
        if any(v in sing for v in vs):
            return None
        # a detour may touch the rest of the cut or the surface boundary
        # only at its endpoints; a mid-path contact pinches the complement
        for v in vs[1:-1]:
            if val.get(v, 0) > 0 or mesh.is_boundary_vertex[v]:
                return None
        edges = set()
        for u, w in zip(vs, vs[1:]):
            h = mesh.halfedge_between(u, w)
            if h == -1 or mesh.twin[h] == -1:
                return None
            edges.add(int(mesh.edge_id[h]))
        return edges

    for skip in range(m):
        candidate = set()
        for idx in range(m - 1):
            a = marks[(skip + 1 + idx) % m]
            b = marks[(skip + 2 + idx) % m]
            part = sector_edges(a, b)
            if part is None:
                candidate = None
                break
            candidate |= part
        if candidate is not None:
            return (cut - set(incident)) | candidate

    # every ring route is blocked (boundary edge, missing ring edge, or a
    # singular ring vertex); fall back to short edge paths between
    # consecutive cut neighbors that stay off the rest of the cut
    mark_vs = [ring[i] for i in marks]
    trial = cut - set(incident)
    for a, b in zip(mark_vs, mark_vs[1:]):
        blocked = (set(_cut_valences(mesh, trial)) | set(sing) | {s}) - {a, b}
        path = _shortest_path_to(
            mesh, a, {b}, forbidden_vertices=blocked, cut_vertices=set()
        )
        if path is None:
            raise QlimError(f"cannot reroute cut graph around singularity {s}")
        trial.update(path)
    return trial


def validate_cutting_graph(mesh: TriMesh, graph: CutGraph, singularities) -> dict:
    """Diagnostic report; all conditions True for a simple cutting graph."""
    return _cut_report(mesh, graph, singularities, cut_mesh(mesh, graph))


def _cut_report(mesh, graph, singularities, comp):
    """`validate_cutting_graph`'s report, on `comp`, the mesh cut open along
    `graph`."""
    sing = set(int(v) for v in singularities)
    interior_sing = {v for v in sing if not mesh.is_boundary_vertex[v]}
    boundary_sing = sing - interior_sing
    # the complement is a disk when connected with chi = 1 and one boundary
    # loop; `topology_info` would refuse a disconnected complement's genus
    cm = comp.mesh
    chi = len(cm.vertices) - cm.n_edges + len(cm.faces)
    val = _cut_valences(mesh, graph.cut_edges)

    report = {
        "complement_connected": _face_connected(cm),
        "complement_simply_connected": chi == 1 and len(cm.boundary_loops) == 1,
        "interior_singularities_are_endpoints": all(
            val.get(v, 0) == 1 for v in interior_sing
        ),
        "boundary_singularities_not_in_graph": all(
            val.get(v, 0) == 0 for v in boundary_sing
        ),
        "boundary_intersection_discrete": all(
            mesh.twin[mesh.edge_halfedge[e]] != -1 for e in graph.cut_edges
        ),
    }
    report["all"] = all(report.values())
    return report


def _face_connected(mesh):
    nf = len(mesh.faces)
    if nf == 0:
        return True
    seen = np.zeros(nf, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        f = stack.pop()
        for i in range(3):
            t = mesh.twin[3 * f + i]
            if t != -1 and not seen[t // 3]:
                seen[t // 3] = True
                stack.append(t // 3)
    return bool(seen.all())


def cut_mesh(mesh: TriMesh, graph) -> CompletionMesh:
    """Cut the mesh open along the graph, duplicating vertices per local fan
    component; face and halfedge indexing is unchanged.

    One pass over the mesh's vertex-fan table.  A vertex keeps its own id
    for the copy that starts at its first split and numbers its other
    copies after the original vertices, in vertex order, so every
    `vertex_copies` list is increasing."""
    cut_edges = graph.cut_edges if isinstance(graph, CutGraph) else frozenset(graph)
    nv = len(mesh.vertices)
    halfedges, offsets = mesh.vertex_fans()
    fan = np.array(halfedges, dtype=np.int64)
    offsets = np.array(offsets, dtype=np.int64)
    size = np.diff(offsets)
    owner = np.repeat(np.arange(nv), size)  # the vertex of each fan position
    is_cut = np.zeros(mesh.n_edges, dtype=bool)
    is_cut[list(cut_edges)] = True
    # a copy's corners start at fan[i] when the edge between corners
    # fan[i-1] and fan[i] is cut; that edge is the edge of fan[i]
    # (fan[i] = twin(prev(fan[i-1]))).  A boundary fan starts a copy at
    # fan[0].
    split = is_cut[mesh.edge_id[fan]]
    first = offsets[:-1][size > 0]
    split[first] |= mesh.is_boundary_vertex[owner[first]]
    count = np.concatenate(([0], np.cumsum(split)))
    before = count[offsets]  # splits before each fan, then the total
    copies = np.maximum(np.diff(before), 1)
    # a fan's k-th split (k = 1, 2, ...) starts its group k - 1; the corners
    # before an interior fan's first split close its last group, which
    # wraps around
    rank = count[1:] - before[owner]
    group = np.where(rank > 0, rank - 1, copies[owner] - 1)
    extra = copies - 1
    first_extra = nv + np.cumsum(extra) - extra
    corners = np.empty(len(fan), dtype=np.int64)
    corners[fan] = np.where(group == 0, owner, first_extra[owner] + group - 1)

    vertex_map = np.concatenate((np.arange(nv), np.repeat(np.arange(nv), extra)))
    vertex_copies = {v: [v] for v in range(nv)}
    first_extra, extra = first_extra.tolist(), extra.tolist()
    for v in np.flatnonzero(copies > 1).tolist():
        vertex_copies[v] += range(first_extra[v], first_extra[v] + extra[v])
    comp = build_halfedge(mesh.vertices[vertex_map], corners.reshape(-1, 3))
    # severed exactly at cut edges: every cut edge now has two boundary sides
    return CompletionMesh(
        mesh=comp,
        vertex_map=vertex_map,
        vertex_copies=vertex_copies,
    )
