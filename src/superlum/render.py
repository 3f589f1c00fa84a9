"""Minimal SVG rendering of spacetime diagrams.

Time runs up, space runs right, and both axes share one scale so the light
cone sits at 45 degrees.  Line style encodes the speed class: solid below c,
dashed above c, dotted on the cone.  All styling constants live in the two
dictionaries below.

The segment and event rows are written as the rows of uint8 matrices, ROWS
rows to a matrix and so to a string.  Each field of a row is a block of
columns: text every row shares is copied into its block for all rows at
once, and the coordinates (see _tenths), the dash attribute and the UTF-8
bytes of the labels a block at a time.  A field shorter than its block is
padded with PAD, which one bytes.translate deletes before the matrix is
decoded.
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

from .diagrams import Diagram, SpeedClass
from .errors import InvalidScenario, NonfiniteResult

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


# Rows of the drawing written to one matrix, and so to one string: at a few
# hundred bytes a row, a matrix takes some 150-300 KB.
ROWS = 1024
# The padding of a field shorter than its column block: a byte that UTF-8
# text never holds, deleted when a matrix becomes a string.
PAD = b"\xff"
# True, False, ... : which runs of a label column hold a label's bytes.
_LABEL_THEN_PAD = np.arange(2 * ROWS) % 2 == 0


def _tenths(values: np.ndarray) -> np.ndarray:
    """Each value as "%.1f" writes it, one row of a uint8 matrix to a value,
    padded with PAD.

    For v > 0, q = v * 10.0 is within half an ulp of 10 v, and 10 v is
    never a half-integer, since (2j + 1) / 20 is not a dyadic rational.  So
    when q is nearer to an integer than 0.5 - q * 2**-49 (a margin of more
    than 8 ulp), rint(q) is the correctly rounded count of tenths of v,
    which is what "%.1f" prints, and its digits are taken in numpy, one
    scalar // 10 pass a digit.  Every other value (zero, negative, not
    finite, of 2**48 tenths or more, or near a tie) goes through "%.1f"
    itself."""
    with np.errstate(over="ignore", invalid="ignore"):
        q = values * 10.0
        r = np.rint(q)
        exact = q > 0.0
        gap = q * 2.0 ** -49
        q -= r
        gap += np.abs(q, out=q)
        exact &= gap < 0.5
    rest = np.flatnonzero(~exact)
    texts = list(map("%.1f".__mod__, values[rest].tolist()))
    r[rest] = 0.0
    count, higher, digit = q.view(np.int64), gap.view(np.int64), r.view(np.int64)
    np.copyto(count, r, casting="unsafe")
    digits = max(len(str(count.max())), 2)  # of the count of tenths: the units and the tenth
    width = max(digits + 1, max(map(len, texts), default=0))
    out = np.empty((len(values), width), np.uint8)
    out[:, :width - 1 - digits] = ord(PAD)
    out[:, -2] = ord(".")
    for place, column in enumerate((width - 1, *range(width - 3, width - 2 - digits, -1))):
        np.floor_divide(count, 10, out=higher)
        np.multiply(higher, -10, out=digit)
        digit += count
        digit += ord("0")
        if place > 1:  # left of the units, a zero with no digit left of it is padding
            digit[count == 0] = ord(PAD)
        out[:, column] = digit
        count, higher = higher, count
    if texts:
        fallback = np.array(texts, f"S{width}").view(np.uint8).reshape(len(rest), width)
        fallback[fallback == 0] = ord(PAD)  # numpy pads the texts with NUL
        out[rest] = fallback
    return out


def _cells(rows: np.ndarray) -> np.ndarray:
    """A uint8 matrix's rows as single items of one void type, so that a
    gather or a copy moves each row whole."""
    return rows.view(f"V{rows.shape[1]}")[:, 0]


def _put(rows: np.ndarray, start: int, cells: np.ndarray) -> None:
    """Write one cell to each row of the matrix, from column start."""
    _cells(rows[:, start:start + cells.itemsize])[:] = cells


def _layout(*pieces: bytes | int) -> tuple[bytes, list[int]]:
    """A row's template from its pieces, where bytes are text every row
    shares and an int is a field of that many bytes, held as PAD; and the
    column at which each field starts."""
    template, starts = b"", []
    for piece in pieces:
        if isinstance(piece, int):
            starts.append(len(template))
            piece = PAD * piece
        template += piece
    return template, starts


def _matrix(template: bytes, rows: int) -> tuple[bytearray, np.ndarray]:
    """Rows copies of the template, as a bytearray and as a uint8 matrix
    viewing it, a template to a row."""
    text = bytearray(rows * len(template))
    matrix = np.frombuffer(text, np.uint8).reshape(rows, len(template))
    matrix[:] = np.frombuffer(template, np.uint8)
    return text, matrix


def _string(text: bytearray) -> str:
    """Rows that each end in a newline as one string: the PAD bytes
    deleted and the last row's newline dropped."""
    text[-1] = ord(PAD)
    return text.translate(None, PAD).decode()


# The characters XML 1.0 forbids, apart from the lone surrogates, which UTF-8
# cannot encode: the C0 controls other than tab, LF and CR, U+FFFE and U+FFFF.
# Each is translated to NUL, one of them, so that one find locates them all.
_NOT_XML = dict.fromkeys([*range(9), 11, 12, *range(14, 32), 0xFFFE, 0xFFFF], 0)


def _unwritable(what: str, text: str) -> InvalidScenario | None:
    """The error naming a label or title that an SVG cannot hold, if text
    holds a character of _NOT_XML or one that UTF-8 cannot encode."""
    if "\0" in text.translate(_NOT_XML):
        return InvalidScenario(f"{what} {reprlib.repr(text)} holds a character that XML 1.0 "
                               "forbids")
    try:
        text.encode()
    except UnicodeEncodeError:
        return InvalidScenario(f"{what} {reprlib.repr(text)} holds a lone surrogate, "
                               "which UTF-8 cannot encode")
    return None


def _labels(d: Diagram, by_label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The labels in label order, escaped only when one of them holds
    markup, as their UTF-8 bytes joined; and the offset of each label's
    bytes in them, then the total.  A label that UTF-8 cannot encode, or
    that holds a character XML 1.0 forbids, raises InvalidScenario naming
    it."""
    labels = d._labels[by_label].tolist()
    joined = "".join(labels)
    if "&" in joined or "<" in joined or ">" in joined:
        labels = list(map(_escape, labels))
        joined = "".join(labels)
    ends = np.zeros(len(labels) + 1, np.intp)
    np.cumsum(np.fromiter(map(len, labels), np.intp, len(labels)), out=ends[1:])
    try:
        text = np.frombuffer(joined.encode(), np.uint8)
    except UnicodeEncodeError as exc:
        at = exc.start  # where in joined the first character an SVG cannot hold is
    else:
        # in UTF-8 a C0 control is one byte, and every byte of another character is >= 32
        forbidden = (text[text < 32].tobytes().translate(None, b"\t\n\r")
                     or "\ufffe" in joined or "\uffff" in joined)
        at = joined.translate(_NOT_XML).index("\0") if forbidden else -1
    if at >= 0:
        raise _unwritable("event label",
                          d._labels[by_label[np.searchsorted(ends, at, side="right") - 1]])
    if len(text) > len(joined):  # some label is not ASCII: offsets in bytes
        np.cumsum(np.fromiter(map(len, map(str.encode, labels)), np.intp, len(labels)),
                  out=ends[1:])
    return text, ends


def _marks(d: Diagram, cx: np.ndarray, cy: np.ndarray) -> list[str]:
    """Segment lines in stored order, then the circle and label of each
    event in label order, from the events' pixel coordinates, as strings of
    at most ROWS rows.  Each coordinate is formatted once, in label order,
    and segments and circles share its digits.  A matrix of event rows is
    split in two while padding its labels to the longest would make it hold
    more than 1.5 times its text, so that one long label does not pad every
    row of its matrix."""
    n = len(cx)
    if not n:
        return []
    by_label = d._by_label
    x, y = cx[by_label], cy[by_label]
    off = STYLE["label_offset"]
    digits = _cells(_tenths(np.concatenate((x, y, x + off, y - off)))).reshape(4, n)
    w = digits.itemsize
    dashes = [b' stroke-dasharray="%s"' % DASH[k].encode() if DASH[k] else b""
              for k in SpeedClass]
    dashed = max(map(len, dashes))
    dash = np.frombuffer(b"".join(s.ljust(dashed, PAD) for s in dashes), f"V{dashed}")
    line, fields = _layout(
        b'<line x1="', w, b'" y1="', w, b'" x2="', w, b'" y2="', w,
        b'" stroke="%s" stroke-width="1.6"' % str(STYLE["segment_color"]).encode(),
        dashed, b"/>\n")
    frm, to = d._rank[d._seg].T
    out = []
    for i in range(0, len(frm), ROWS):
        text, rows = _matrix(line, min(ROWS, len(frm) - i))
        start, end = frm[i:i + ROWS], to[i:i + ROWS]
        cells = (digits[0][start], digits[1][start], digits[0][end], digits[1][end],
                 dash[d._codes[i:i + ROWS]])
        for column, field in zip(fields, cells):
            _put(rows, column, field)
        out.append(_string(text))
    mark, fields = _layout(
        b'<circle cx="', w, b'" cy="', w, b'" r="%s" fill="%s"/>\n<text x="' % (
            str(STYLE["event_radius"]).encode(), str(STYLE["event_color"]).encode()),
        w, b'" y="', w, b'" style="font:%s">' % str(STYLE["font"]).encode())
    labels, offsets = _labels(d, by_label)
    lengths = offsets[1:] - offsets[:-1]
    chunks = [(i, min(i + ROWS, n)) for i in range(0, n, ROWS)][::-1]
    while chunks:
        i, j = chunks.pop()
        longest = lengths[i:j].max()
        if 2 * (j - i) * longest > (j - i) * len(mark) + 3 * (offsets[j] - offsets[i]):
            chunks += [((i + j) // 2, j), (i, (i + j) // 2)]
            continue
        text, rows = _matrix(mark + PAD * longest + b"</text>\n", j - i)
        for column, field in zip(fields, digits[:, i:j]):
            _put(rows, column, field)
        runs = np.empty(2 * (j - i), np.intp)  # each label's length, then its padding
        runs[0::2] = lengths[i:j]
        np.subtract(longest, lengths[i:j], out=runs[1::2])
        rows[:, len(mark):len(mark) + longest][
            np.repeat(_LABEL_THEN_PAD[:2 * (j - i)], runs).reshape(j - i, longest)] = (
                labels[offsets[i]:offsets[j]])
        out.append(_string(text))
    return out


def render_svg(d: Diagram, title: str | None = None) -> str:
    """Render one diagram to a standalone SVG string.  A drawing whose size
    in pixels does not fit in a float raises NonfiniteResult naming the
    event farthest out, and a label or title that UTF-8 cannot encode, or
    that holds a character XML 1.0 forbids, raises InvalidScenario naming
    it.  A diagram of no events draws the padding around the origin."""
    if title and (error := _unwritable("title", title)):
        raise error
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
