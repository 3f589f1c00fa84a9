"""Minimal SVG rendering of spacetime diagrams.

Time runs up, space runs right, and both axes share one scale so the light
cone sits at 45 degrees.  Line style encodes the speed class: solid below c,
dashed above c, dotted on the cone.  All styling constants live in the two
dictionaries below.
"""

from __future__ import annotations

import math
import reprlib
from itertools import chain

import numpy as np

from .diagrams import Diagram, SpeedClass
from .errors import NonfiniteResult

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


# Rows of the drawing and items of the diagram report's lists are written
# this many to a string.  Each % call holds its template and its fields at
# once, so one call for every row of a large drawing would raise the peak
# memory.
CHUNK = 1024


def _fixed(values: np.ndarray) -> list[str]:
    """Each value with one decimal, as f"{v:.1f}" writes it, in one call."""
    return ("%.1f\0" * len(values) % tuple(values.tolist())).split("\0")[:-1]


def _style(key: str) -> str:
    """A STYLE value as template text: a % in it is written %%."""
    return str(STYLE[key]).replace("%", "%%")


def _rows(row: str, columns: list[list], sep: str = "\n") -> list[str]:
    """The %-template row filled from each row of the columns, which hold
    its fields in order, CHUNK rows to a string joined by sep."""
    n = len(columns[0])
    return [sep.join([row] * min(CHUNK, n - i))
            % tuple(chain.from_iterable(zip(*(c[i:i + CHUNK] for c in columns))))
            for i in range(0, n, CHUNK)]


def _marks(d: Diagram, cx: np.ndarray, cy: np.ndarray) -> list[str]:
    """Segment lines in stored order, then the circle and label of each
    event in label order, from the events' pixel coordinates.  Each
    coordinate is formatted once, and segments and circles share the text.
    Labels are template fields, never template text, and are escaped only
    when one of them holds markup."""
    xs, ys = (np.array(_fixed(a), object) for a in (cx, cy))
    frm, to = d._seg[:, 0], d._seg[:, 1]
    dash = np.array([' stroke-dasharray="%s"' % DASH[k] if DASH[k] else ""
                     for k in SpeedClass], object)[d._codes]
    line = ('<line x1="%s" y1="%s" x2="%s" y2="%s" '
            f'stroke="{_style("segment_color")}" stroke-width="1.6"%s/>')
    by_label = np.argsort(d._rank)
    labels = d._labels[by_label].tolist()
    joined = "".join(labels)
    if "&" in joined or "<" in joined or ">" in joined:
        labels = list(map(_escape, labels))
    off = STYLE["label_offset"]
    mark = (f'<circle cx="%s" cy="%s" r="{_style("event_radius")}" '
            f'fill="{_style("event_color")}"/>\n'
            f'<text x="%s" y="%s" style="font:{_style("font")}">%s</text>')
    return (_rows(line, [a.tolist() for a in (xs[frm], ys[frm], xs[to], ys[to], dash)])
            + _rows(mark, [xs[by_label].tolist(), ys[by_label].tolist(),
                             _fixed(cx[by_label] + off), _fixed(cy[by_label] - off), labels]))


def render_svg(d: Diagram, title: str | None = None) -> str:
    """Render one diagram to a standalone SVG string.  A drawing whose size
    in pixels does not fit in a float raises NonfiniteResult naming the
    event farthest out.  A diagram of no events draws the padding around
    the origin."""
    with np.errstate(over="ignore"):
        x, ct = d._xy[:, 1], d._xy[:, 0] * d.c
    pad = STYLE["pad"]
    box = (x, ct) if len(x) else (np.zeros(1), np.zeros(1))
    (xlo, xhi), (tlo, thi) = ((a.min().item() - pad, a.max().item() + pad) for a in box)
    s = STYLE["scale"]
    m = STYLE["margin"]
    width = m * 2 + (xhi - xlo) * s
    height = m * 2 + (thi - tlo) * s
    if not (math.isfinite(width) and math.isfinite(height)):
        i = int(np.argmax(np.maximum(abs(x), abs(ct))))
        t, xi = d._xy[i].tolist()
        raise NonfiniteResult(
            f"event {reprlib.repr(d._labels[i])} at t={t!r}, x={xi!r} (c={d.c!r}) makes the "
            f"drawing {width:.6g} by {height:.6g} pixels, beyond a float")

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

    parts += _marks(d, px(x), py(ct))
    parts.append("</svg>")
    return "\n".join(parts)
