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


def _data_bounds(rows):
    xs, ys = [], []
    for kind, a, b, c in rows:
        if kind == "sample":
            xs.append(b)
            ys.append(c)
        elif kind == "circle":
            xs.extend([a - b, a + b])
            ys.extend([-b, b])
        elif kind == "marker":
            xs.append(a)
        elif kind == "line":
            xs.append(b)
    xs.append(0.0)
    ys.append(0.0)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    padx = 0.08 * (x1 - x0 or 1.0)
    pady = 0.08 * (y1 - y0 or 1.0)
    return x0 - padx, x1 + padx, y0 - pady, y1 + pady


class _Mapper:
    def __init__(self, rows, equal_aspect: bool):
        x0, x1, y0, y1 = _data_bounds(rows)
        pw = WIDTH - MARGIN_L - MARGIN_R
        ph = HEIGHT - MARGIN_T - MARGIN_B
        sx = pw / (x1 - x0)
        sy = ph / (y1 - y0)
        if equal_aspect:
            s = min(sx, sy)
            sx = sy = s
            # recenter the slack dimension
            xmid, ymid = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            x0, x1 = xmid - 0.5 * pw / s, xmid + 0.5 * pw / s
            y0, y1 = ymid - 0.5 * ph / s, ymid + 0.5 * ph / s
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.sx, self.sy = sx, sy

    def px(self, x: float) -> float:
        return MARGIN_L + (x - self.x0) * self.sx

    def py(self, y: float) -> float:
        return HEIGHT - MARGIN_B - (y - self.y0) * self.sy


def _f(v: float) -> str:
    return f"{v:.2f}"


def render_svg(rows, title: str, xlabel: str, ylabel: str, equal_aspect: bool = True) -> str:
    m = _Mapper(rows, equal_aspect)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
        f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
        f'<text x="{WIDTH // 2}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>',
        f'<text x="18" y="{HEIGHT // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {HEIGHT // 2})">{ylabel}</text>',
    ]
    # axes through the origin
    if m.x0 < 0 < m.x1:
        x = _f(m.px(0.0))
        out.append(
            f'<line x1="{x}" y1="{MARGIN_T}" x2="{x}" '
            f'y2="{HEIGHT - MARGIN_B}" stroke="#bbbbbb" stroke-width="1"/>'
        )
    if m.y0 < 0 < m.y1:
        y = _f(m.py(0.0))
        out.append(
            f'<line x1="{MARGIN_L}" y1="{y}" x2="{WIDTH - MARGIN_R}" '
            f'y2="{y}" stroke="#bbbbbb" stroke-width="1"/>'
        )
    # corner annotations of the data window
    out.append(
        f'<text x="{MARGIN_L}" y="{HEIGHT - MARGIN_B + 18}" '
        f'font-family="sans-serif" font-size="11">{m.x0:.4g}</text>'
    )
    out.append(
        f'<text x="{WIDTH - MARGIN_R}" y="{HEIGHT - MARGIN_B + 18}" '
        f'text-anchor="end" font-family="sans-serif" font-size="11">'
        f"{m.x1:.4g}</text>"
    )
    out.append(
        f'<text x="{MARGIN_L - 6}" y="{HEIGHT - MARGIN_B}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{m.y0:.4g}</text>'
    )
    out.append(
        f'<text x="{MARGIN_L - 6}" y="{MARGIN_T + 10}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{m.y1:.4g}</text>'
    )

    samples = [(b, c) for kind, a, b, c in rows if kind == "sample"]
    if samples:
        x0, y0, sx, sy = m.x0, m.y0, m.sx, m.sy   # m.px and m.py inline, per sample
        pts = " ".join(f"{MARGIN_L + (x - x0) * sx:.2f},{HEIGHT - MARGIN_B - (y - y0) * sy:.2f}"
                       for x, y in samples)
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="#1f4e9c" '
            f'stroke-width="1.5"/>'
        )
    for kind, a, b, c in rows:
        if kind == "circle":
            out.append(
                f'<circle cx="{_f(m.px(a))}" cy="{_f(m.py(0.0))}" '
                f'r="{_f(b * m.sx)}" fill="none" stroke="#b03030" '
                f'stroke-width="1.5" stroke-dasharray="6 4"/>'
            )
        elif kind == "line":
            out.append(_clipped_line(m, a, b))
        elif kind == "marker":
            x, y = m.px(a), m.py(0.0)
            out.append(
                f'<path d="M {_f(x - 5)} {_f(y)} L {_f(x + 5)} {_f(y)} '
                f'M {_f(x)} {_f(y - 5)} L {_f(x)} {_f(y + 5)}" '
                f'stroke="#207020" stroke-width="2"/>'
            )
            out.append(
                f'<text x="{_f(x + 6)}" y="{_f(y - 6)}" '
                f'font-family="sans-serif" font-size="11" '
                f'fill="#207020">{a:.4g}</text>'
            )
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
        pts = sorted(set(pts))[:2] if len(pts) >= 2 else pts
    if len(pts) < 2:
        return "<!-- line outside window -->"
    (xa, ya), (xb, yb) = pts[0], pts[-1]
    return (
        f'<line x1="{_f(m.px(xa))}" y1="{_f(m.py(ya))}" '
        f'x2="{_f(m.px(xb))}" y2="{_f(m.py(yb))}" stroke="#b03030" '
        f'stroke-width="1.5" stroke-dasharray="6 4"/>'
    )
