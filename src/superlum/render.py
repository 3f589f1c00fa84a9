"""Minimal SVG rendering of spacetime diagrams.

Time runs up, space runs right, and both axes share one scale so the light
cone sits at 45 degrees.  Line style encodes the speed class: solid below c,
dashed above c, dotted on the cone.  All styling constants live in the two
dictionaries below.
"""

from __future__ import annotations

from .diagrams import Diagram, SpeedClass, resolved_segments

STYLE = {
    "scale": 90.0,          # pixels per unit of x and of c*t
    "margin": 50.0,
    "pad": 0.6,             # data-unit padding around the event bounding box
    "background": "#ffffff",
    "axis_color": "#c8c8c8",
    "cone_color": "#d8b0b0",
    "segment_color": "#202020",
    "event_color": "#1040a0",
    "event_radius": 3.5,
    "label_offset": 7.0,
    "font": "12px sans-serif",
}

DASH = {
    SpeedClass.SUBLUMINAL: None,
    SpeedClass.SUPERLUMINAL: "7,5",
    SpeedClass.LUMINAL: "2,4",
}


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape, whose import pulls in urllib.request (~45 ms)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _bounds(d: Diagram) -> tuple[float, float, float, float]:
    ts = [e.t * d.c for e in d.events.values()]
    xs = [e.x for e in d.events.values()]
    pad = STYLE["pad"]
    return min(xs) - pad, max(xs) + pad, min(ts) - pad, max(ts) + pad


def render_svg(d: Diagram, title: str | None = None) -> str:
    """Render one diagram to a standalone SVG string."""
    xlo, xhi, tlo, thi = _bounds(d)
    s = STYLE["scale"]
    m = STYLE["margin"]
    width = m * 2 + (xhi - xlo) * s
    height = m * 2 + (thi - tlo) * s

    def px(x: float) -> float:
        return m + (x - xlo) * s

    def py(ct: float) -> float:
        return m + (thi - ct) * s

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="100%" height="100%" fill="{STYLE["background"]}"/>',
    ]
    if title:
        parts.append(
            f'<text x="{m:.1f}" y="{m / 2:.1f}" style="font:{STYLE["font"]}">'
            f"{_escape(title)}</text>"
        )

    # Coordinate axes through the origin, when visible.
    if xlo < 0 < xhi:
        parts.append(
            f'<line x1="{px(0):.1f}" y1="{py(tlo):.1f}" x2="{px(0):.1f}" '
            f'y2="{py(thi):.1f}" stroke="{STYLE["axis_color"]}"/>'
        )
    if tlo < 0 < thi:
        parts.append(
            f'<line x1="{px(xlo):.1f}" y1="{py(0):.1f}" x2="{px(xhi):.1f}" '
            f'y2="{py(0):.1f}" stroke="{STYLE["axis_color"]}"/>'
        )

    # Light-cone guides x = +/- c*t through the origin, clipped to the view.
    for sign in (1.0, -1.0):
        lo = max(tlo, min(sign * xlo, sign * xhi))
        hi = min(thi, max(sign * xlo, sign * xhi))
        if lo < hi:
            parts.append(
                f'<line x1="{px(sign * lo):.1f}" y1="{py(lo):.1f}" '
                f'x2="{px(sign * hi):.1f}" y2="{py(hi):.1f}" '
                f'stroke="{STYLE["cone_color"]}" stroke-width="1"/>'
            )

    for seg in resolved_segments(d):
        dash = DASH[seg.speed_class]
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<line x1="{px(seg.start.x):.1f}" y1="{py(seg.start.t * d.c):.1f}" '
            f'x2="{px(seg.end.x):.1f}" y2="{py(seg.end.t * d.c):.1f}" '
            f'stroke="{STYLE["segment_color"]}" stroke-width="1.6"{dash_attr}/>'
        )

    for label in sorted(d.events):
        e = d.events[label]
        cx, cy = px(e.x), py(e.t * d.c)
        parts.append(
            f'<circle cx="{cx:.1f}" cy="{cy:.1f}" r="{STYLE["event_radius"]}" '
            f'fill="{STYLE["event_color"]}"/>'
        )
        parts.append(
            f'<text x="{cx + STYLE["label_offset"]:.1f}" '
            f'y="{cy - STYLE["label_offset"]:.1f}" '
            f'style="font:{STYLE["font"]}">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts)
