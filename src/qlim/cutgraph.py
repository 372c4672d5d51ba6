"""Cutting graphs and the cut-open completion mesh.

A simple cutting graph cuts the surface into a single topological disk,
contains every interior singularity as a degree-1 endpoint, and meets the
surface boundary only at discrete vertices.

The completion gives each vertex one copy per run of its fan between cut
edges.  `cut_mesh` numbers the copies and keeps the completion as arrays:
each halfedge's copy, the opened twins and each copy's fan.  Its other
facts (each copy's first halfedge and boundary flag, the boundary loops and
the Euler characteristic) are read from these tables, not from a `TriMesh`.
"""

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DisconnectedMesh, QlimError, SingularityOnBoundary
from .mesh import TriMesh, boundary_loops


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
    """The mesh cut open along a set of edges, as copy tables.  A cut edge
    opens only where its sides got different copies at one end or both: a
    one-edge slit whose ends each keep one copy stays joined, its halfedges
    twins.  Faces and halfedges are indexed as the original's, and the
    derived facts carry the names of their `TriMesh` counterparts."""

    vertex_map: np.ndarray  # completion vertex (copy) -> original vertex
    corners: np.ndarray  # halfedge -> the copy it leaves
    twin: np.ndarray  # the mesh's twins, -1 on both sides of an opened edge
    fans: tuple  # (halfedges, offsets) arrays: each copy's corners in fan order

    @cached_property
    def vertex_out(self) -> np.ndarray:
        """Each copy's first fan halfedge, or -1 for a copy with no corner."""
        fan, offsets = self.fans
        out = np.full(len(self.vertex_map), -1, dtype=np.int64)
        held = offsets[:-1] < offsets[1:]
        out[held] = fan[offsets[:-1][held]]
        return out

    @cached_property
    def is_boundary_vertex(self) -> np.ndarray:
        """A copy is on the boundary when a halfedge leaving it is twinless
        (its first one, as its fan starts there)."""
        flag = np.zeros(len(self.vertex_map), dtype=bool)
        flag[self.corners[self.twin == -1]] = True
        return flag

    @cached_property
    def boundary_loops(self) -> list:
        return boundary_loops(self.corners, self.twin, self.vertex_out)

    @property
    def euler(self) -> int:
        """V - E + F, where each edge is a twin pair or a twinless halfedge."""
        nh = len(self.corners)
        edges = (nh + int(np.count_nonzero(self.twin == -1))) // 2
        return len(self.vertex_map) - edges + nh // 3


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
            # the halfedge of e from v; -1 on a boundary edge walked from its head
            h = int(mesh.edge_halfedge[e])
            if mesh.src(h) != v:
                h = int(mesh.twin[h])
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
    set.  When no two singularities share a face, exactly one star edge of
    each remains uncrossed (the dual star is a cycle that only the star's
    own edges join first, and a tree omits at least one cycle edge), and
    pruning then drops it.  Where singularities share a face their dual
    stars overlap, and more than one star edge of a singularity may remain.
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


def _shortest_path_to(mesh, source, targets, blocked, edge_id, length):
    """Dijkstra over edges from the interior vertex `source` to any vertex in
    `targets`, edge e priced `length[e]`; `edge_id` is `mesh.edge_id` as a
    list.

    Path interiors avoid the `blocked` vertices (the existing graph and the
    other singularities: a path may only touch them at its final vertex).
    `targets` must hold every surface-boundary vertex, so a path stops at
    the first one it reaches: it never runs along the surface boundary, and
    never touches it mid-path, which would pinch the cut complement apart.
    Ties break on the lexicographically least vertex sequence.  Returns a
    list of edge ids or None.
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
            e = edge_id[h]
            w = mesh.dst(h)
            if w in done or (w in blocked and w not in targets):
                continue
            nd = d + length[e]
            nt = tiebreak + (w,)
            if w not in dist or (nd, nt) < dist[w]:
                dist[w] = (nd, nt)
                backptr[w] = (e, v)
                heapq.heappush(heap, (nd, nt, w))
    return None


def build_cutting_graph(mesh: TriMesh, interior_singularities) -> CutGraph:
    """Simple cutting graph whose complement is one disk.

    Construction: a dual spanning tree (`_dual_spanning_cotree`); cut set =
    interior edges the tree does not cross, pruned of chains hanging off
    interior leaves, singular or not; on a closed surface left with no cut,
    a two-edge seed slit off the singularities; then, for each interior
    singularity in increasing order, a slit along a shortest edge path to
    the nearest non-singular vertex of the graph or of the surface boundary.

    Refusals (`QlimError`): "no seed slit found" (no two adjacent edges
    off the singularities); "could not free singular vertex S from the cut
    graph" (the pruned graph passes through S); "no attachment path found
    for singularity S" (the graph and the other singularities wall S off).
    Each needs two singularities that share a face.  A graph that fails a
    check is refused as "cut graph is not simple: failed ..." naming it.
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

    # attach each singularity by a slit to the existing graph or directly to
    # the surface boundary; either keeps the complement a disk.  A slit never
    # ends at or passes through another singularity, so no singularity's cut
    # valence changes in this loop: each one is still off the pruned graph
    # (valence 0) or on it with valence >= 2, and the latter is refused
    boundary = {v for v in range(len(mesh.vertices)) if mesh.is_boundary_vertex[v]}
    edge_id, length = mesh.edge_id.tolist(), mesh.edge_lengths_3d()
    for s in sing:
        cut_vertices = set(_cut_valences(mesh, cut))
        if s in cut_vertices:
            raise QlimError(f"could not free singular vertex {s} from the cut graph")
        targets = {v for v in cut_vertices if v not in sing} | boundary
        path = _shortest_path_to(
            mesh, s, targets, cut_vertices | (set(sing) - {s}), edge_id, length
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
    val = _cut_valences(mesh, graph.cut_edges)

    report = {
        "complement_connected": _face_connected(comp.twin),
        "complement_simply_connected": comp.euler == 1 and len(comp.boundary_loops) == 1,
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


def _face_connected(twin):
    nf = len(twin) // 3
    if nf == 0:
        return True
    seen = np.zeros(nf, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        f = stack.pop()
        for i in range(3):
            t = twin[3 * f + i]
            if t != -1 and not seen[t // 3]:
                seen[t // 3] = True
                stack.append(t // 3)
    return bool(seen.all())


def cut_mesh(mesh: TriMesh, graph) -> CompletionMesh:
    """Cut the mesh open along the graph, duplicating vertices per local fan
    component; face and halfedge indexing is unchanged.

    One pass over the mesh's vertex-fan table.  A vertex keeps its own id
    for the copy that starts at its first split and numbers its other
    copies after the original vertices, in vertex order, so the copies
    `vertex_map` sends to a vertex are increasing, its own id first.  A
    copy's fan is its run of the mesh fan, from its twinless outgoing
    halfedge if it has one, else from the mesh fan's start."""
    cut_edges = graph.cut_edges if isinstance(graph, CutGraph) else frozenset(graph)
    nv = len(mesh.vertices)
    fan, offsets = mesh.fan_arrays()
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
    copy = np.where(group == 0, owner, first_extra[owner] + group - 1)
    corners = np.empty(len(fan), dtype=np.int64)
    corners[fan] = copy
    vertex_map = np.concatenate((np.arange(nv), np.repeat(np.arange(nv), extra)))

    # mesh twins stay twins unless the cut opened their edge, giving its
    # two sides different copies at one end or both
    twin = mesh.twin.copy()
    after = corners.reshape(-1, 3)[:, [1, 2, 0]].reshape(-1)  # copy each halfedge enters
    h = np.flatnonzero(twin >= 0)
    twin[h[(corners[h] != after[twin[h]]) | (after[h] != corners[twin[h]])]] = -1
    # each copy's run, rotated to start at its twinless outgoing halfedge
    pos = np.arange(len(fan))
    start = offsets[vertex_map]
    lone = pos[twin[fan] == -1]
    start[copy[lone]] = lone
    at = np.bincount(copy, minlength=len(vertex_map))
    copy_offsets = np.concatenate(([0], np.cumsum(at)))
    copy_fan = np.empty_like(fan)
    copy_fan[copy_offsets[copy] + (pos - start[copy]) % size[owner]] = fan
    return CompletionMesh(vertex_map, corners, twin, (copy_fan, copy_offsets))
