"""Deterministic SVG rendering of parameterizations and layouts.

Style: one polygon per face in UV space, cut arcs colored by role (blue for
disk-topology cuts, red for cuts reaching a cone), boundary in green, layout
or traced curves in black, cones as dots with radius scaled by the cone
order.  Elements are emitted in a stable sorted order so identical inputs
produce byte-identical files.
"""

import numpy as np

from .layout import _chart_points

COLOR_FACE_FILL = "#eceff4"
COLOR_FACE_EDGE = "#c8ccd4"
COLOR_DISK_CUT = "#1f77b4"  # blue
COLOR_SING_CUT = "#d62728"  # red
COLOR_BOUNDARY = "#2ca02c"  # green
COLOR_CURVE = "#000000"  # black
COLOR_CONE_INT = "#d62728"
COLOR_CONE_BND = "#9467bd"


def _fmt(x):
    return f"{float(x):.6f}"


class _Canvas:
    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        span = max(float((hi - lo).max()), 1e-9)
        self.margin = 0.05 * span
        self.lo = lo
        self.hi = hi
        self.scale = span
        self.parts = []

    def xy(self, p):
        # flip v so the UV frame reads with v upward
        return float(p[0]), float(self.hi[1] - p[1] + self.lo[1])

    def header(self):
        x0 = self.lo[0] - self.margin
        y0 = self.lo[1] - self.margin
        w = self.hi[0] - self.lo[0] + 2 * self.margin
        h = self.hi[1] - self.lo[1] + 2 * self.margin
        return (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}" '
            f'width="800" height="{_fmt(800 * h / w)}">\n'
        )

    def polygon(self, pts, fill, stroke, width):
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in map(self.xy, pts))
        self.parts.append(
            f'<polygon points="{coords}" fill="{fill}" fill-opacity="0.7" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>\n'
        )

    def line(self, p, q, stroke, width):
        (x1, y1), (x2, y2) = self.xy(p), self.xy(q)
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" stroke-linecap="round"/>\n'
        )

    def dot(self, p, r, fill):
        x, y = self.xy(p)
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" '
            f'fill="{fill}"/>\n'
        )

    def render(self):
        return self.header() + "".join(self.parts) + "</svg>\n"


def export_svg(param, layout=None, curves=None) -> str:
    """Deterministic SVG of the UV immersion, optionally with an extracted
    layout or a list of traced quotient curves overlaid."""
    mesh = param.mesh
    uv = param.uv
    canvas = _Canvas(uv.reshape(-1, 2))
    thin = 0.004 * canvas.scale
    thick = 0.010 * canvas.scale

    for f in range(len(mesh.faces)):
        canvas.polygon(uv[f], COLOR_FACE_FILL, COLOR_FACE_EDGE, thin * 0.5)

    # cut arcs, colored by whether they reach a cone
    cones = param.cone_vertices()
    for arc in param.cut_graph.arcs:
        ends = {int(mesh.src(arc.halfedges[0])), int(mesh.dst(arc.halfedges[-1]))}
        color = COLOR_SING_CUT if ends & cones else COLOR_DISK_CUT
        for h in sorted(
            list(arc.halfedges) + [int(mesh.twin[h]) for h in arc.halfedges]
        ):
            f, i = h // 3, h % 3
            canvas.line(uv[f, i], uv[f, (i + 1) % 3], color, thick)

    for h in range(mesh.n_halfedges):
        if mesh.twin[h] == -1:
            f, i = h // 3, h % 3
            canvas.line(uv[f, i], uv[f, (i + 1) % 3], COLOR_BOUNDARY, thick)

    if curves:
        segs = [s for curve in curves for piece in curve.pieces
                for s in piece.chart_segments]
        _, P, Q = _chart_points(param, segs)
        for p, q in zip(P, Q):
            canvas.line(p, q, COLOR_CURVE, thick * 0.8)

    if layout is not None:
        _, P, Q = layout.segments
        for p, q in zip(P, Q):
            canvas.line(p, q, COLOR_CURVE, thick * 0.8)

    # cone dots at every chart copy, radius scaled by the cone order m
    comp = param.completion
    for rec in sorted(param.cone_scan()[0], key=lambda r: r.vertex):
        color = COLOR_CONE_INT if rec.location == "interior" else COLOR_CONE_BND
        r = (0.008 + 0.004 * rec.m) * canvas.scale
        for cv in np.flatnonzero(comp.vertex_map == rec.vertex).tolist():
            h = comp.vertex_out[cv]
            canvas.dot(uv[h // 3, h % 3], r, color)

    return canvas.render()
