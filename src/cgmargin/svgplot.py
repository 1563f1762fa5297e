"""Self-contained, deterministic SVG rendering of locus plots.

Figures are described by rows of (kind, a, b, c):

* ``sample``: a = omega, b = abscissa, c = ordinate (locus point);
* ``circle``: a = real-axis center, b = radius;
* ``line``: the set x - a*y = b (a = Popov slope, b = real intercept;
  vertical at a = 0);
* ``marker``: real-axis intercept marker at x = a.

The same rows are written to CSV, so a figure can be rebuilt from its
CSV alone and renders byte-identically.
"""

from __future__ import annotations

WIDTH = 800
HEIGHT = 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 65, 25, 45, 55
DASHED = 'stroke="#b03030" stroke-width="1.5" stroke-dasharray="6 4"'
LABEL = 'font-family="sans-serif" font-size="11"'
# (x, y, anchor) of the labels of the data window's x0, x1, y0 and y1
CORNERS = (
    (MARGIN_L, HEIGHT - MARGIN_B + 18, ""),
    (WIDTH - MARGIN_R, HEIGHT - MARGIN_B + 18, ' text-anchor="end"'),
    (MARGIN_L - 6, HEIGHT - MARGIN_B, ' text-anchor="end"'),
    (MARGIN_L - 6, MARGIN_T + 10, ' text-anchor="end"'),
)


def rows_to_csv(rows) -> str:
    lines = ["kind,a,b,c"]
    for kind, a, b, c in rows:
        lines.append(f"{kind},{float(a)!r},{float(b)!r},{float(c)!r}")
    return "\n".join(lines) + "\n"


def csv_to_rows(text: str):
    rows = []
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for line in lines[1:]:
        kind, a, b, c = line.split(",")
        rows.append((kind, float(a), float(b), float(c)))
    return rows


class _Mapper:
    """The pixel map of a data window that holds the samples (xs, ys), every
    geometry row and the origin, padded by 8% of its span on each side.  With
    equal_aspect the scales are equal and the slack dimension is recentered."""

    def __init__(self, xs, ys, geometry, equal_aspect: bool):
        xs, ys = xs + [0.0], ys + [0.0]
        for kind, a, b, _ in geometry:
            if kind == "circle":
                xs += a - b, a + b
                ys += -b, b
            elif kind == "marker":
                xs.append(a)
            elif kind == "line":   # through (b, 0)
                xs.append(b)
        x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
        padx, pady = 0.08 * (x1 - x0 or 1.0), 0.08 * (y1 - y0 or 1.0)
        x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady
        pw, ph = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B
        sx, sy = pw / (x1 - x0), ph / (y1 - y0)
        if equal_aspect:
            sx = sy = s = min(sx, sy)
            xmid, ymid = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            x0, x1 = xmid - 0.5 * pw / s, xmid + 0.5 * pw / s
            y0, y1 = ymid - 0.5 * ph / s, ymid + 0.5 * ph / s
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.sx, self.sy = sx, sy

    def __call__(self, xs, ys):
        """Pixel coordinates of the data points (xs, ys), as two lists."""
        x0, y0, sx, sy = self.x0, self.y0, self.sx, self.sy
        return ([MARGIN_L + (x - x0) * sx for x in xs],
                [HEIGHT - MARGIN_B - (y - y0) * sy for y in ys])


def render_svg(rows, title: str, xlabel: str, ylabel: str, equal_aspect: bool = True) -> str:
    """SVG text of the figure that rows describe: the samples as one polyline,
    then each circle, line and marker in row order, over the axes through the
    origin and labels of the data window's corners."""
    xs, ys, geometry = [], [], []
    for row in rows:
        if row[0] == "sample":
            xs.append(row[2])
            ys.append(row[3])
        else:
            geometry.append(row)
    m = _Mapper(xs, ys, geometry, equal_aspect)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>',
        f'<text x="18" y="{HEIGHT // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {HEIGHT // 2})">{ylabel}</text>',
    ]
    (ox,), (oy,) = m([0.0], [0.0])
    if m.x0 < 0 < m.x1:
        out.append(f'<line x1="{ox:.2f}" y1="{MARGIN_T}" x2="{ox:.2f}" '
                   f'y2="{HEIGHT - MARGIN_B}" stroke="#bbbbbb" stroke-width="1"/>')
    if m.y0 < 0 < m.y1:
        out.append(f'<line x1="{MARGIN_L}" y1="{oy:.2f}" x2="{WIDTH - MARGIN_R}" '
                   f'y2="{oy:.2f}" stroke="#bbbbbb" stroke-width="1"/>')
    out += [f'<text x="{x}" y="{y}"{anchor} {LABEL}>{v:.4g}</text>'
            for (x, y, anchor), v in zip(CORNERS, (m.x0, m.x1, m.y0, m.y1))]
    if xs:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(*m(xs, ys)))
        out.append(f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>')
    for kind, a, b, _ in geometry:
        if kind == "circle":
            (x,), (y,) = m([a], [0.0])
            shape, radii = (("circle", f'r="{b * m.sx:.2f}"') if m.sx == m.sy else
                            ("ellipse", f'rx="{b * m.sx:.2f}" ry="{b * m.sy:.2f}"'))
            out.append(f'<{shape} cx="{x:.2f}" cy="{y:.2f}" {radii} fill="none" {DASHED}/>')
        elif kind == "line":
            out.append(_clipped_line(m, a, b))
        elif kind == "marker":
            (x,), (y,) = m([a], [0.0])
            out.append(f'<path d="M {x - 5:.2f} {y:.2f} L {x + 5:.2f} {y:.2f} '
                       f'M {x:.2f} {y - 5:.2f} L {x:.2f} {y + 5:.2f}" stroke="#207020" stroke-width="2"/>')
            out.append(f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" {LABEL} fill="#207020">{a:.4g}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _clipped_line(m: _Mapper, q: float, c: float) -> str:
    """Segment of {x - q*y = c} clipped to the data window."""
    pts = []
    if q == 0.0:
        pts = [(c, m.y0), (c, m.y1)]
    else:
        # intersect with all four window edges, keep points inside
        cands = [
            (c + q * m.y0, m.y0),
            (c + q * m.y1, m.y1),
            (m.x0, (m.x0 - c) / q),
            (m.x1, (m.x1 - c) / q),
        ]
        eps = 1e-9
        for x, y in cands:
            if m.x0 - eps <= x <= m.x1 + eps and m.y0 - eps <= y <= m.y1 + eps:
                pts.append((x, y))
        pts.sort()
    if len(pts) < 2:
        return "<!-- line outside window -->"
    (x1, x2), (y1, y2) = m(*zip(pts[0], pts[-1]))
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {DASHED}/>'
