"""The drawing's row writer against the %-template writer it replaced.

render._marks writes the segment and event rows as rows of uint8 matrices,
each coordinate from its integer count of tenths.  template_marks below is
the writer it replaced, kept as the oracle: every coordinate through
"%.1f" and every row filled from a %-template, CHUNK rows to a string."""

import math
import re
import tracemalloc
from itertools import chain
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superlum import render
from superlum.diagrams import Diagram, SpeedClass
from superlum.errors import InvalidScenario
from superlum.kinematics import Event1p1
from superlum.render import DASH, STYLE, render_svg

from test_outputs import ODD_LABELS

CHUNK = 1024


def _fixed(values: np.ndarray) -> list[str]:
    return ("%.1f\0" * len(values) % tuple(values.tolist())).split("\0")[:-1]


def _style(key: str) -> str:
    return str(STYLE[key]).replace("%", "%%")


def _rows(row: str, columns: list[list]) -> list[str]:
    n = len(columns[0])
    return ["\n".join([row] * min(CHUNK, n - i))
            % tuple(chain.from_iterable(zip(*(c[i:i + CHUNK] for c in columns))))
            for i in range(0, n, CHUNK)]


def template_marks(d: Diagram, cx: np.ndarray, cy: np.ndarray) -> list[str]:
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
        labels = list(map(render._escape, labels))
    off = STYLE["label_offset"]
    mark = (f'<circle cx="%s" cy="%s" r="{_style("event_radius")}" '
            f'fill="{_style("event_color")}"/>\n'
            f'<text x="%s" y="%s" style="font:{_style("font")}">%s</text>')
    return (_rows(line, [a.tolist() for a in (xs[frm], ys[frm], xs[to], ys[to], dash)])
            + _rows(mark, [xs[by_label].tolist(), ys[by_label].tolist(),
                           _fixed(cx[by_label] + off), _fixed(cy[by_label] - off), labels]))


def by_templates(d: Diagram, title: str | None = None) -> str:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "_marks", template_marks)
        return render_svg(d, title=title)


def _written(values: list[float]) -> list[bytes]:
    rows = render._tenths(np.array(values, float))
    return [row.tobytes().translate(None, render.PAD) for row in rows]


@given(st.lists(st.floats(allow_subnormal=True) | st.floats(0.0, 1e7), min_size=1, max_size=30))
@example([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.nan, -math.nan, math.inf, -math.inf,
          1.7976931348623157e308, -1e300, 0.05, 0.25, 0.95, 9.95, 2.0 ** 48 / 10,
          2.0 ** 49 / 10, 2.0 ** 50 / 10, 1e15, 123456789.25, 43.0])
@settings(max_examples=300, deadline=None)
def test_tenths_are_what_percent_1f_writes(values):
    with np.errstate(invalid="ignore"):
        assert _written(values) == [b"%.1f" % v for v in values]


@given(st.integers(0, 10 ** 15), st.lists(st.integers(-6, 6), min_size=1, max_size=12),
       st.floats(43.0, 3e5))
@settings(max_examples=300, deadline=None)
def test_tenths_near_a_tie_are_what_percent_1f_writes(k, steps, plain):
    """Values a few ulp either side of (k + 0.5) / 10, among a plain value:
    rint(10 v) may round either way there, so those go through "%.1f"."""
    values = [plain]
    for step in steps:
        v = (k + 0.5) / 10
        for _ in range(abs(step)):
            v = math.nextafter(v, math.copysign(math.inf, step))
        values.append(v)
    assert _written(values) == [b"%.1f" % v for v in values]


LABEL_POOL = ODD_LABELS + ("a<b>&c", "名前", "é", "\U0001f600", " ", "x" * 40, "")


@st.composite
def _diagrams(draw):
    """Up to 3 000 events labelled from LABEL_POOL, some of them with markup,
    non-ASCII or multi-line text; coordinates spread wide, on a 1/1800 grid
    (so that many pixel values sit near a tie) or, now and then, far enough
    out for pixel values of 2**48 tenths; and random segments."""
    n = draw(st.integers(0, 3000) | st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pool = np.array(LABEL_POOL, object)[rng.integers(0, len(LABEL_POOL), n)]
    labels = [f"{p}{i}" for i, p in enumerate(pool)]
    scale = draw(st.sampled_from([1.0, 50.0, 1e13]))
    t = rng.uniform(-scale, scale, n)
    x = rng.uniform(-scale, scale, n)
    if draw(st.booleans()):
        t, x = np.round(t * 1800) / 1800, np.round(x * 1800) / 1800
    pairs = rng.integers(0, max(n, 1), (draw(st.integers(0, 2 * n)) if n else 0, 2))
    pairs = pairs[(t[pairs[:, 0]] != t[pairs[:, 1]]) | (x[pairs[:, 0]] != x[pairs[:, 1]])]
    events = {label: Event1p1(*tx) for label, tx in zip(labels, zip(t.tolist(), x.tolist()))}
    return Diagram(events, [(labels[a], labels[b]) for a, b in pairs.tolist()],
                   c=draw(st.sampled_from([1.0, 2.5])))


@given(_diagrams(), st.sampled_from([None, "", "plain", "%s {0} & <b> 100%", "两\nlines"]))
@example(Diagram({"": Event1p1(0.0, 0.0)}), None)
@example(Diagram({"": Event1p1(0.0, 0.0), "\U0001f600": Event1p1(1.0, 3.0)},
                 [("", "\U0001f600")]), "t")
@settings(max_examples=40, deadline=None)
def test_the_row_matrices_write_the_bytes_of_the_template_writer(d, title):
    assert render_svg(d, title=title) == by_templates(d, title)


def test_one_long_label_renders_in_memory_bounded_by_the_text():
    """One label of 10**6 characters among 10**4 events: padding each label
    of its matrix to the longest would take 1 024 rows of 10**6 bytes.  The
    matrix holding it is split until it holds at most 1.5 times its text,
    so the drawing takes a few times its own size at its peak."""
    n = 10 ** 4
    labels = [f"e{i}" for i in range(n)]
    labels[n // 2] += "x" * 10 ** 6
    events = {label: Event1p1(0.5 * i, 0.3 * (i % 7)) for i, label in enumerate(labels)}
    d = Diagram(events, list(zip(labels, labels[1:])))
    expected = by_templates(d)
    tracemalloc.start()
    try:
        svg = render_svg(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg == expected
    assert peak < 3 * len(svg)


@pytest.mark.parametrize("label", ["\ud800", "ok\udfffok"])
def test_a_label_utf8_cannot_encode_is_named(label):
    d = Diagram({"a": Event1p1(0.0, 0.0), label: Event1p1(1.0, 0.5), "é": Event1p1(2.0, 0.0)},
                [("a", label), (label, "é")])
    with pytest.raises(InvalidScenario, match="event label " + repr(repr(label))[1:-1]):
        render_svg(d)


def test_a_title_utf8_cannot_encode_is_named():
    d = Diagram({"a": Event1p1(0.0, 0.0), "b": Event1p1(1.0, 0.5)}, [("a", "b")])
    with pytest.raises(InvalidScenario, match="title 'x\\\\ud800' holds a lone surrogate"):
        render_svg(d, title="x\ud800")


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
                                  "\ufffe", "\uffff"])
def test_a_label_or_title_holding_a_character_xml_forbids_is_named(char):
    """Such a character made an SVG that no XML parser reads.  The label
    before it holds markup and a character of two UTF-8 bytes."""
    label = f"a{char}b"
    d = Diagram({"A&é": Event1p1(0.0, 0.0), label: Event1p1(1.0, 0.5), "é": Event1p1(2.0, 0.0)},
                [("A&é", label), (label, "é")])
    with pytest.raises(InvalidScenario, match="event label " + re.escape(repr(label))
                       + " holds a character that XML 1.0 forbids"):
        render_svg(d)
    with pytest.raises(InvalidScenario, match="title " + re.escape(repr(label))
                       + " holds a character that XML 1.0 forbids"):
        render_svg(Diagram({"a": Event1p1(0.0, 0.0)}), title=label)


def test_tab_lf_and_cr_stay_allowed_in_labels_and_titles():
    labels = ["a\tb", "c\nd", "e\rf", "g&<h"]
    d = Diagram({label: Event1p1(float(i), 0.0) for i, label in enumerate(labels)},
                list(zip(labels, labels[1:])))
    root = ElementTree.fromstring(render_svg(d, title="t\t\n\r"))
    assert len(root.findall("{http://www.w3.org/2000/svg}text")) == len(labels) + 1
