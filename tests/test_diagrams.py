"""Diagram bookkeeping: speed classes, frame changes, roles, path counts."""

import contextlib
import copy
import dataclasses
import json
import math
import os
import pickle
import re
import weakref
from collections import Counter
from collections.abc import Mapping
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from superlum import (
    Boost,
    Branch,
    CyclicDiagram,
    Diagram,
    Event1p1,
    InvalidInput,
    InvalidScenario,
    IsolatedEvent,
    MixedK,
    NonfiniteResult,
    Role,
    Scenario,
    SpeedClass,
    ZeroExtent,
    count_paths,
    count_paths_auto,
    load_fixture,
    load_scenario,
    render_svg,
    role_report,
    transform_diagram,
)
from superlum import diagrams
from superlum.diagrams import (
    FIXTURE_NAMES,
    Segment,
    classify_endpoints,
    resolved_segments,
    scenario_from_dict,
    scenario_to_dict,
    terminal_events,
)
from superlum.render import STYLE

E = Event1p1


def _diagram(events, segments, c=1.0):
    return Diagram(
        {k: E(*v) for k, v in events.items()},
        tuple(tuple(s) for s in segments),
        c=c,
    )


# ---------------------------------------------------------------------------
# Classification


def test_classify_speed_bands():
    assert classify_endpoints(E(0, 0), E(1, 0.5)) is SpeedClass.SUBLUMINAL
    assert classify_endpoints(E(0, 0), E(1, 1.0)) is SpeedClass.LUMINAL
    assert classify_endpoints(E(0, 0), E(1, 3.0)) is SpeedClass.SUPERLUMINAL
    # a simultaneous pair is the infinite-speed case
    assert classify_endpoints(E(0, 0), E(0, 1.0)) is SpeedClass.SUPERLUMINAL
    # classification only sees the ratio, not the direction of traversal
    assert classify_endpoints(E(1, 0.5), E(0, 0)) is SpeedClass.SUBLUMINAL


def test_classify_respects_c():
    assert classify_endpoints(E(0, 0), E(1, 1.5), c=2.0) is SpeedClass.SUBLUMINAL
    assert classify_endpoints(E(0, 0), E(1, 2.0), c=2.0) is SpeedClass.LUMINAL


def test_classify_tolerance_band():
    """The band is CLASSIFY_TOL relative to the speed, in any units: at
    extent 1e-10 a rest leg stays subluminal and a speed-5 leg superluminal,
    where a band of 1e-9 in the diagram's units made both luminal."""
    assert classify_endpoints(E(0, 0), E(1, 1.0 + 1e-12)) is SpeedClass.LUMINAL
    assert classify_endpoints(E(0, 0), E(1, 1.0 + 1e-6)) is SpeedClass.SUPERLUMINAL
    assert classify_endpoints(E(0, 0), E(1e-10, 0)) is SpeedClass.SUBLUMINAL
    assert classify_endpoints(E(1e-10, 0), E(2e-10, 5e-10)) is SpeedClass.SUPERLUMINAL
    assert classify_endpoints(E(0, 0), E(1e8, 1e8 * (1 + 5e-10))) is SpeedClass.LUMINAL
    assert classify_endpoints(E(0, 0), E(1e-8, 1e-8 * (1 - 2e-9))) is SpeedClass.SUBLUMINAL


def test_classify_zero_extent():
    with pytest.raises(ZeroExtent):
        classify_endpoints(E(1, 1), E(1, 1))


def test_large_luminal_segments_stay_luminal_in_every_frame():
    """2 000 luminal segments with endpoints in +/-1e8 and extents 1e6-1e8
    are luminal at rest and after boosts on both branches, the class law of
    transform_diagram; against a band of 1e-9 in the diagram's units, the
    rounding of their endpoints made most of them sub- or superluminal."""
    rng = np.random.default_rng(7)
    n = 2000
    t0, x0 = rng.uniform(-1e8, 1e8, (2, n))
    dt = rng.uniform(1e6, 1e8, n) * rng.choice((-1.0, 1.0), n)
    dx = np.abs(dt) * rng.choice((-1.0, 1.0), n)
    events = {f"a{i}": (t0[i], x0[i]) for i in range(n)}
    events.update({f"b{i}": (t0[i] + dt[i], x0[i] + dx[i]) for i in range(n)})
    d = _diagram(events, [(f"a{i}", f"b{i}") for i in range(n)])
    for frame in (d, transform_diagram(d, Boost(Branch.SUBLUMINAL, 0.6)),
                  transform_diagram(d, Boost(Branch.SUPERLUMINAL, 2.5))):
        assert Counter(s.speed_class for s in resolved_segments(frame)) == {
            SpeedClass.LUMINAL: n}


def test_an_increment_beyond_a_float_keeps_its_class():
    """The band stays finite where dt or dx overflows: an infinite dt alone
    is subluminal, an infinite dx alone superluminal, and both luminal."""
    m = 1.7e308
    cases = {((-m, 0.0), (m, 1.0)): SpeedClass.SUBLUMINAL,
             ((0.0, -m), (1.0, m)): SpeedClass.SUPERLUMINAL,
             ((-m, -m), (m, m)): SpeedClass.LUMINAL}
    for (a, b), expected in cases.items():
        (seg,) = resolved_segments(_diagram({"a": a, "b": b}, [("a", "b")]))
        assert seg.speed_class is expected


# leg speeds on both sides of the luminal band, 1e-9 relative, and far from it
LEG_SPEEDS = (0.0, 0.5, 1.0, -1.0, 1 + 1e-10, 1 - 1e-10, -1 - 5e-10,
              1 + 3e-9, 1 - 3e-9, 5.0, math.inf)


@settings(max_examples=200, deadline=None)
@given(st.integers(-1000, 1000), st.integers(-1000, 1000),
       st.lists(st.tuples(st.floats(1e-3, 1e3), st.sampled_from(LEG_SPEEDS)),
                min_size=1, max_size=8),
       st.integers(-60, 60))
def test_scaling_every_coordinate_by_a_power_of_two_keeps_every_class(t, x, legs, k):
    """A diagram drawn in other units has the same speed classes, at rest
    and after a boost: scaling by 2**k is exact, and so is the band."""
    events = {"e0": (float(t), float(x))}
    for i, (dt, v) in enumerate(legs, 1):
        dt, dx = (0.0, dt) if v == math.inf else (dt, v * dt)
        t, x = t + dt, x + dx
        events[f"e{i}"] = (t, x)
    segments = [(f"e{i - 1}", f"e{i}") for i in range(1, len(events))]
    scale = 2.0 ** k
    d = _diagram(events, segments)
    scaled = _diagram({label: (t * scale, x * scale) for label, (t, x) in events.items()},
                      segments)
    b = Boost(Branch.SUBLUMINAL, 0.6)
    for one, other in ((d, scaled), (transform_diagram(d, b), transform_diagram(scaled, b))):
        assert [s.speed_class for s in resolved_segments(one)] == [
            s.speed_class for s in resolved_segments(other)]


# ---------------------------------------------------------------------------
# Diagram construction


def test_a_boost_image_that_underflows_to_a_point_names_the_boost():
    d = _diagram({"a": (0, 0), "b": (0, 5e-324)}, [("a", "b")], c=3.0)
    with pytest.raises(ZeroExtent, match=r"segment \('a', 'b'\) has extent, but its image "
                                         r"under the superluminal boost at speed 9\.0 "
                                         r"underflowed to a point"):
        transform_diagram(d, Boost(Branch.SUPERLUMINAL, 9.0, 1 / 9))


def test_diagram_validates_labels_and_extent():
    with pytest.raises(InvalidScenario):
        _diagram({"A": (0, 0)}, [("A", "Z")])
    with pytest.raises(ZeroExtent):
        _diagram({"A": (0, 0), "B": (0, 0)}, [("A", "B")])
    with pytest.raises(ValueError):
        _diagram({"A": (0, 0), "B": (1, 0)}, [("A", "B")], c=0.0)


def test_segments_sorted_by_start_coordinates():
    d = _diagram(
        {"A": (0, 0), "B": (1, 0), "C": (2, 0)},
        [("B", "C"), ("A", "B")],
    )
    assert d.segments == (("A", "B"), ("B", "C"))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_frame_order_is_the_four_key_lexsort(data):
    """_sort's stored order is the stable sort by (start t, start x, end t,
    end x) of the rows as given, whether it takes the one-key sort of
    distinct start times or the lexsort of shared ones, which runs once,
    over the rows of the tied groups only; -0.0 and 0.0 are the same time.
    Loading the frame sorts nothing; its first read of the order does."""
    n = data.draw(st.integers(2, 10))
    value = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]) | st.floats(-3, 3)
    t = data.draw(st.lists(value, min_size=n, max_size=n, unique=data.draw(st.booleans())))
    x = data.draw(st.lists(value, min_size=n, max_size=n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: (t[p[0]], x[p[0]]) != (t[p[1]], x[p[1]]))
    distinct_starts = data.draw(st.booleans())
    seg = np.array(data.draw(st.lists(pairs, min_size=1, max_size=12,
                                      unique_by=(lambda p: p[0]) if distinct_starts else None)))
    t, x = np.array(t), np.array(x)
    frm, to = seg[:, 0], seg[:, 1]
    tied_rows = sum(k for k in Counter(t[frm].tolist()).values() if k > 1)
    lexsorts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "lexsort",
                   lambda keys, real=np.lexsort: lexsorts.append(len(keys[0])) or real(keys))
        d = diagrams._columns(Diagram.__new__(Diagram), [f"e{i}" for i in range(n)],
                              np.stack((t, x), axis=1), [(f"e{i}", f"e{j}") for i, j in seg], 1.0)
        assert not lexsorts
        diagrams._sort(d)
    assert lexsorts == ([tied_rows] if tied_rows else [])
    assert d._seg.tolist() == seg[np.lexsort((x[to], t[to], x[frm], t[frm]))].tolist()


def test_speed_codes_read_before_the_order_are_those_of_the_sorted_rows():
    """A frame whose speed codes are read before its segment rows sorts on
    that read, so each code is the class of the stored row it lines up with."""
    events = {"a": (2.0, 0.0), "b": (0.0, 0.0), "c": (1.0, 3.0), "d": (3.0, 1.0)}
    d = _diagram(events, [("a", "d"), ("c", "a"), ("b", "c"), ("b", "a")])
    assert d._speeds is None
    codes = d._codes.tolist()
    rows = [tuple(map(str, pair)) for pair in d._labels[d._seg]]
    assert rows == [("b", "c"), ("b", "a"), ("c", "a"), ("a", "d")]
    classes = list(SpeedClass)
    assert [classes[k] for k in codes] == [
        classify_endpoints(d.events[frm], d.events[to]) for frm, to in rows]


# ---------------------------------------------------------------------------
# Frame changes


def test_transform_rejects_mismatched_K():
    sc = load_fixture("fig2a")
    with pytest.raises(MixedK):
        transform_diagram(sc.diagram, Boost(Branch.SUBLUMINAL, 0.5, K=0.25))


def test_transform_flips_direction_when_order_reverses():
    sc = load_fixture("fig2a")
    moved = transform_diagram(sc.diagram, Boost(Branch.SUBLUMINAL, 0.8))
    (seg,) = resolved_segments(moved)
    # B now precedes A in coordinate time, so the segment runs B -> A
    assert (seg.start_label, seg.end_label) == ("B", "A")
    assert moved.events["B"].t == pytest.approx(-7.0 / 3.0, rel=1e-12)
    assert moved.events["B"].x == pytest.approx(11.0 / 3.0, rel=1e-12)


def test_subluminal_boost_preserves_speed_classes():
    for name in FIXTURE_NAMES:
        d = load_fixture(name).diagram
        before = sorted(s.speed_class.value for s in resolved_segments(d))
        for v in (-0.7, 0.3, 0.9):
            after = sorted(
                s.speed_class.value
                for s in resolved_segments(
                    transform_diagram(d, Boost(Branch.SUBLUMINAL, v))
                )
            )
            assert after == before


def test_infinite_boost_makes_fig3_superluminal():
    d = load_fixture("fig3a").diagram
    assert [s.speed_class for s in resolved_segments(d)] == [
        SpeedClass.SUBLUMINAL
    ] * 3
    moved = transform_diagram(d, Boost.infinite())
    assert [s.speed_class for s in resolved_segments(moved)] == [
        SpeedClass.SUPERLUMINAL
    ] * 3


def test_round_trip_boost_restores_coordinates():
    d = load_fixture("fig5a").diagram
    b = Boost(Branch.SUBLUMINAL, 0.6)
    back = transform_diagram(transform_diagram(d, b), b.inverse())
    for label, e in d.events.items():
        assert back.events[label].t == pytest.approx(e.t, abs=1e-12)
        assert back.events[label].x == pytest.approx(e.x, abs=1e-12)


def test_huge_w_transform_matches_the_infinite_swap():
    d = load_fixture("fig2a").diagram
    near = transform_diagram(d, Boost(Branch.SUPERLUMINAL, 1e200))
    swap = transform_diagram(d, Boost.infinite())
    assert near.segments == swap.segments
    for label, e in swap.events.items():
        assert near.events[label].t == pytest.approx(e.t, rel=1e-15, abs=1e-15)
        assert near.events[label].x == pytest.approx(e.x, rel=1e-15, abs=1e-15)


def test_boost_overflow_names_the_first_event_and_the_boost():
    d = _diagram({"B": (0, 0), "A": (1e308, -1e308), "C": (-1e308, 1e308)},
                 [("A", "B"), ("B", "C")])
    with pytest.raises(NonfiniteResult, match=r"'A' boosted to superluminal speed 1\.0001"):
        transform_diagram(d, Boost(Branch.SUPERLUMINAL, 1.0001))
    assert transform_diagram(d, Boost(Branch.SUPERLUMINAL, 1e300)).events["A"] == E(-1e308, 1e308)


# ---------------------------------------------------------------------------
# Roles


def test_fig2_roles_and_their_swap():
    sc = load_fixture("fig2a")
    assert role_report(sc.diagram) == (
        ("A", Role.EMISSION),
        ("B", Role.ABSORPTION),
    )
    moved = transform_diagram(sc.diagram, Boost(Branch.SUBLUMINAL, 0.8))
    assert role_report(moved) == (
        ("A", Role.ABSORPTION),
        ("B", Role.EMISSION),
    )


def test_roles_ignore_slower_than_light_segments():
    # a vertical worldline emits nothing faster than light
    d = _diagram({"A": (0, 0), "B": (1, 0)}, [("A", "B")])
    assert role_report(d) == ()


def test_role_report_rejects_isolated_events():
    d = _diagram({"A": (0, 0), "B": (1, 3), "lone": (5, 5)}, [("A", "B")])
    with pytest.raises(IsolatedEvent):
        role_report(d)


# ---------------------------------------------------------------------------
# Path counting


def test_fig4_path_counts():
    sc = load_fixture("fig4a")
    count, _ = count_paths(sc.diagram, sc.source, sc.sinks)
    assert count == 1
    moved = transform_diagram(sc.diagram, Boost.infinite())
    auto_count, sets = count_paths_auto(moved)
    assert auto_count == 2
    assert terminal_events(moved) == (("M",), ("A", "B"))
    assert sets[0].paths == (("M", "A"), ("M", "B"))


def test_fig5_path_counts():
    sc = load_fixture("fig5a")
    count, ps = count_paths(sc.diagram, sc.source, sc.sinks)
    assert count == 2
    assert ps.paths == (("A", "S", "B"), ("A", "S", "B2"))
    moved = transform_diagram(sc.diagram, Boost.infinite())
    auto_count, sets = count_paths_auto(moved)
    assert auto_count == 3
    assert sets[0].source == "S"


def test_paths_may_end_on_intermediate_sinks():
    d = _diagram({"A": (0, 0), "B": (1, 0), "C": (2, 0)}, [("A", "B"), ("B", "C")])
    count, ps = count_paths(d, "A", ("B", "C"))
    assert count == 2
    assert ps.paths == (("A", "B"), ("A", "B", "C"))


def test_count_paths_validates_labels():
    d = load_fixture("fig2a").diagram
    with pytest.raises(InvalidScenario):
        count_paths(d, "Z", ("B",))
    with pytest.raises(InvalidScenario):
        count_paths(d, "A", ("Z",))
    with pytest.raises(InvalidScenario):
        count_paths(d, "A", ())


@pytest.mark.parametrize("sinks", ["BC", {"B": 1}, 5])
def test_sinks_must_be_a_list_of_labels(sinks):
    """count_paths and scenario_from_dict share one label check; a string is
    not a list of one-character sinks."""
    d = _diagram({"A": (0, 0), "B": (1, 0), "C": (2, 0)}, [("A", "B"), ("B", "C")])
    with pytest.raises(InvalidScenario, match=re.escape(f"sinks must list event labels, "
                                                        f"got {sinks!r}")):
        count_paths(d, "A", sinks)
    with pytest.raises(InvalidScenario, match=re.escape(repr(sinks))):
        scenario_from_dict({**scenario_to_dict(Scenario(d)), "source": "A", "sinks": sinks})


@pytest.mark.parametrize("source, sinks, named", [
    (["A"], ("B",), "source"), ("A", (["B"],), "sinks[0]"), ("A", ("B", 3), "sinks[1]")])
def test_source_and_sinks_must_be_label_strings(source, sinks, named):
    """A label is a string: no other value is read as its str()."""
    d = _diagram({"A": (0, 0), "B": (1, 0), "3": (2, 0)}, [("A", "B"), ("B", "3")])
    message = re.escape(f"{named} must be an event label string")
    with pytest.raises(InvalidScenario, match=message):
        count_paths(d, source, sinks)
    with pytest.raises(InvalidScenario, match=message):
        scenario_from_dict({**scenario_to_dict(Scenario(d)), "source": source,
                            "sinks": list(sinks)})


@pytest.mark.parametrize("pairs", [[[1, 2], [2, 3]], ((1, 2), (2, 3)), [(1, "2"), ["2", 3]]])
def test_segment_labels_that_are_not_strings_load_as_their_str(pairs):
    """A pair of ints, in a list or a tuple, names the events its str() names."""
    data = {"events": {"1": [0, 0], "2": [1, 0.2], "3": [2, 0]}, "segments": pairs}
    d = scenario_from_dict(data).diagram
    expected = scenario_from_dict({**data, "segments": [["1", "2"], ["2", "3"]]}).diagram
    assert d.segments == expected.segments == (("1", "2"), ("2", "3"))
    assert resolved_segments(d) == resolved_segments(expected)
    assert count_paths_auto(d) == count_paths_auto(expected)


def test_cyclic_diagram_detected():
    d = _diagram({"P": (0, 0), "Q": (0, 1)}, [("P", "Q"), ("Q", "P")])
    with pytest.raises(CyclicDiagram):
        count_paths(d, "P", ("Q",))


def _chain(n, cyclic=False):
    events = {f"c{i}": (float(i), 0.1 * (i % 2)) for i in range(n)}
    segments = [(f"c{i}", f"c{i + 1}") for i in range(n - 1)]
    if cyclic:  # all events simultaneous, so every segment keeps its direction
        events = {label: (0.0, float(i)) for i, label in enumerate(events)}
        segments.append((f"c{n - 1}", "c0"))
    return _diagram(events, segments)


@pytest.mark.parametrize("n", [3000, 10**5])
def test_deep_chain_counts_one_path(n):
    d = _chain(n)
    whole = tuple(f"c{i}" for i in range(n))
    count, ps = count_paths(d, "c0", (f"c{n - 1}",))
    assert count == 1 and ps.paths == (whole,)
    auto_count, sets = count_paths_auto(d)
    assert auto_count == 1 and [s.paths for s in sets] == [(whole,)]


def test_deep_cycle_is_cyclic_not_recursion_error():
    with pytest.raises(CyclicDiagram):
        count_paths(_chain(3000, cyclic=True), "c0", ("c1",))


# Reference implementations for the path layer: the recursive enumeration
# that listed PathSet.paths before, and a path count by dynamic programming
# over a Kahn topological order.


def _recursive_paths(d, source, sinks):
    adjacency = {label: [] for label in d.events}
    for frm, to in d.segments:
        adjacency[frm].append(to)
    for nbrs in adjacency.values():
        nbrs.sort()
    found = []

    def walk(node, trail):
        if node in sinks and len(trail) > 1:
            found.append(trail)
        for nxt in adjacency[node]:
            walk(nxt, trail + (nxt,))

    walk(source, (source,))
    return tuple(found)


def _dp_count(d, sources, sinks):
    succ = {label: [] for label in d.events}
    indeg = dict.fromkeys(d.events, 0)
    for frm, to in d.segments:
        succ[frm].append(to)
        indeg[to] += 1
    total = 0
    for source in sources:
        ways = dict.fromkeys(d.events, 0)
        ways[source] = 1
        waiting = dict(indeg)
        ready = [label for label, n in waiting.items() if not n]
        while ready:
            node = ready.pop()
            for nxt in succ[node]:
                ways[nxt] += ways[node]
                waiting[nxt] -= 1
                if not waiting[nxt]:
                    ready.append(nxt)
        # the empty chain at the source is no path
        total += sum(ways[k] for k in sinks) - (source in sinks)
    return total


@st.composite
def _random_dag(draw):
    """Up to 8 events whose labels sort in a random order against the
    topological one; segments run from lower to higher index, duplicates
    allowed, so there can be several sources and sinks mid-graph."""
    n = draw(st.integers(2, 8))
    labels = draw(st.permutations("abcdefgh"))[:n]
    events = {labels[i]: (float(i), draw(st.sampled_from([-0.5, 0.0, 0.5])))
              for i in range(n)}
    pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(
        lambda p: p[0] < p[1])
    segments = [(labels[i], labels[j])
                for i, j in draw(st.lists(pairs, min_size=1, max_size=14))]
    return _diagram(events, segments)


def _check_census(d, data):
    labels = sorted(d.events)
    source = data.draw(st.sampled_from(labels))
    sinks = data.draw(st.sets(st.sampled_from(labels), min_size=1))
    count, ps = count_paths(d, source, sinks)
    assert ps.paths == _recursive_paths(d, source, sinks)
    assert count == len(ps.paths) == _dp_count(d, [source], sinks)
    sources, ends = terminal_events(d)
    auto_count, sets = count_paths_auto(d)
    assert auto_count == _dp_count(d, sources, ends)
    assert [ps.paths for ps in sets] == [
        _recursive_paths(d, src, ends) for src in sources]


@given(_random_dag(), st.data())
@settings(max_examples=300, deadline=None)
def test_paths_match_recursive_enumeration_and_dp_count(d, data):
    _check_census(d, data)


@pytest.mark.parametrize("budget", [3, 2**16])
@given(d=_random_dag(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_memoised_listing_matches_recursive_enumeration_and_dp_count(budget, d, data):
    """The suffix memo forced on for every census with a chain, under a
    budget that keeps only the lists near the sinks and one that keeps all."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagrams, "_OUTPUT_BOUND", 0)
        mp.setattr(diagrams, "_MEMO_LABELS", budget)
        _check_census(d, data)


def _ladder(rungs):
    """Source s, rungs of two events a_i and b_i each fed by both events of
    the rung before, and sink t: 2**rungs paths."""
    events = {"s": (0.0, 0.0), "t": (rungs + 1.0, 0.0)}
    segments, prev = [], ["s"]
    for i in range(1, rungs + 1):
        rung = [f"a{i:02d}", f"b{i:02d}"]
        events.update({rung[0]: (float(i), -0.3), rung[1]: (float(i), 0.3)})
        segments += [(p, r) for p in prev for r in rung]
        prev = rung
    return _diagram(events, segments + [(p, "t") for p in prev])


def _ladder_memo(rungs):
    """The ladder, its census graph and its suffix memo from s to t.  A
    ladder has no contractible segment, so each event is a run of its own
    and its tag is its index."""
    d = _ladder(rungs)
    g = diagrams._graph(d)
    assert not g.runs and len(g.succ) == len(d.events)
    ways = diagrams._ways(g, [d._index["s"]], [])
    memo = diagrams._suffixes(g, ways, {d._index["t"]: (0,)})
    return d, g, memo


def test_ladder_listing_from_the_memo_equals_the_plain_walk():
    d, g, memo = _ladder_memo(12)
    assert 2**12 > diagrams._OUTPUT_BOUND * (len(d.events) + len(d.segments))
    assert len(memo) > 2  # output-bound, so the census reads the memo
    (plain,) = diagrams._walk(g, [d._index["s"]], [0], {d._index["t"]: (0,)}, {})
    count, sets = count_paths_auto(d)
    assert count == len(plain) == 2**12
    assert [ps.paths for ps in sets] == [plain]


@pytest.mark.parametrize("rungs, most", [(10, 127), (12, 255)])
def test_the_memo_meets_the_walk_halfway(rungs, most):
    """The memo keeps a run only while the square of its number of chains
    to the sink is at most the count, so it holds about the count's square
    root in suffixes, and the census still lists the plain walk's paths."""
    d, g, memo = _ladder_memo(rungs)
    assert sum(map(len, memo.values())) <= most
    assert max(len(chains) for chains in memo.values()) ** 2 <= 2**rungs
    (plain,) = diagrams._walk(g, [d._index["s"]], [0], {d._index["t"]: (0,)}, {})
    count, sets = count_paths_auto(d)
    assert count == len(plain) == 2**rungs
    assert [ps.paths for ps in sets] == [plain]


@pytest.mark.parametrize("budget", [0, 7, 100, 2**16])
def test_the_memo_holds_no_more_labels_than_its_budget(monkeypatch, budget):
    monkeypatch.setattr(diagrams, "_MEMO_LABELS", budget)
    for rungs in (3, 8, 16, 40):  # 2**40 chains: the memo only, no listing
        _, _, memo = _ladder_memo(rungs)
        assert sum(len(chain) for chains in memo.values() for chain in chains) <= budget
        assert bool(memo) == (budget > 0)  # the sink's own list is the 1 label (t,)


@st.composite
def _railed_dag(draw):
    """Rails, chains of 2-8 events whose segments are all contractible,
    joined at hub events, with a few more segments between hubs.  Every
    event sits at the time of its topological index, so each segment runs
    forward; labels sort in a random order against that index."""
    hubs = draw(st.integers(1, 4))
    rails = draw(st.lists(st.integers(2, 8), min_size=1, max_size=4))
    n = hubs + sum(rails)
    labels = [f"e{i:02d}" for i in draw(st.permutations(range(n)))]
    rank = draw(st.permutations(range(n)))  # topological index of each event
    events = {labels[i]: (float(rank[i]), 0.5 * (i % 3)) for i in range(n)}
    segments = []
    first = hubs
    for length in rails:
        rail = sorted(range(first, first + length), key=rank.__getitem__)
        first += length
        segments += [(labels[a], labels[b]) for a, b in zip(rail, rail[1:])]
        into, out = (draw(st.none() | st.integers(0, hubs - 1)) for _ in "io")
        if into is not None and rank[into] < rank[rail[0]]:
            segments.append((labels[into], labels[rail[0]]))
        if out is not None and rank[rail[-1]] < rank[out]:
            segments.append((labels[rail[-1]], labels[out]))
    for i, j in draw(st.lists(st.tuples(st.integers(0, hubs - 1), st.integers(0, hubs - 1)),
                              max_size=4)):
        if rank[i] < rank[j]:
            segments.append((labels[i], labels[j]))
    return _diagram(events, segments)


@pytest.mark.parametrize("bound, budget", [(None, None), (0, 3), (0, 2**16)])
@given(d=_railed_dag(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_runs_with_sources_and_sinks_inside_them(bound, budget, d, data):
    """Runs contracted on every frame, a declared source and sinks drawn
    anywhere, mid-run included, with the suffix memo off and forced on."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagrams, "_RUN_SHARE", 0)
        if bound is not None:
            mp.setattr(diagrams, "_OUTPUT_BOUND", bound)
            mp.setattr(diagrams, "_MEMO_LABELS", budget)
        _check_census(d, data)
    assert diagrams._graph(d).runs  # a rail of two events or more is a run


def test_a_source_and_sinks_mid_run():
    """On one chain, a source after the head and sinks before, at and after
    it: only those after it end a path, each as the walk passes it."""
    d = _chain(12)
    count, ps = count_paths(d, "c4", ("c2", "c4", "c6", "c11"))
    assert diagrams._graph(d).runs
    assert count == 2 and ps.paths == (
        ("c4", "c5", "c6"), tuple(f"c{i}" for i in range(4, 12)))


@pytest.mark.parametrize("share", [0, 0.5])
@given(length=st.integers(2, 33), beside=st.booleans(), dag=_random_dag(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_ring_of_unary_events_is_cyclic(share, length, beside, dag, data):
    """A ring whose events each have one segment in and one out has no run
    head; the census still stops, and names the ring's event listed first,
    alone or beside a DAG, whether or not the frame contracts runs."""
    ring = [f"r{i}" for i in data.draw(st.permutations(range(length)))]
    events = {z: (0.0, float(i)) for i, z in enumerate(ring)}  # simultaneous: kept as given
    segments = list(zip(ring, ring[1:] + ring[:1]))
    if beside:
        events = {**{k: (e.t, e.x) for k, e in dag.events.items()}, **events}
        segments = [*dag.segments, *segments]
    d = _diagram(events, segments)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagrams, "_RUN_SHARE", share)
        for call in (lambda: count_paths_auto(d), lambda: count_paths(d, ring[0], ring[1:2])):
            with pytest.raises(CyclicDiagram, match=f"^directed cycle through '{ring[0]}'$"):
                call()


@given(_random_dag(), st.integers(2, 4), st.data())
@settings(max_examples=100, deadline=None)
def test_unreachable_cycle_is_named(d, length, data):
    """A cycle z0 -> ... -> z0 with a tail y into the DAG: nothing reaches it,
    and y, listed first, is left over by the topological pass but is not on
    the cycle."""
    target = data.draw(st.sampled_from(sorted(d.events)))
    ring = [f"z{i}" for i in range(length)]
    events = {"y": (-1.0, 9.0), **{k: (e.t, e.x) for k, e in d.events.items()},
              **{z: (-2.0, float(i)) for i, z in enumerate(ring)}}
    segments = [*d.segments, *zip(ring, ring[1:] + ring[:1]),
                (ring[-1], "y"), ("y", target)]
    cyclic = _diagram(events, segments)
    source = min(d.events)
    for call in (lambda: count_paths(cyclic, source, (target,)),
                 lambda: count_paths_auto(cyclic)):
        with pytest.raises(CyclicDiagram) as exc:
            call()
        named = re.fullmatch(r"directed cycle through '(\w+)'", str(exc.value))
        assert named and named.group(1) in ring


def test_a_frame_builds_its_census_graph_once(monkeypatch):
    """count_paths_auto, then count_paths, on one frame build its runs,
    successor rows and Kahn order once; a transformed diagram is a frame of
    its own."""
    built = []
    build = diagrams._census_graph
    monkeypatch.setattr(diagrams, "_census_graph", lambda d: built.append(d) or build(d))
    frames = []
    for d, source, sink, paths in ((_ladder(5), "s", "t", 2**5), (_chain(40), "c0", "c39", 1)):
        moved = transform_diagram(d, Boost(Branch.SUBLUMINAL, 0.5))
        for frame in (d, moved):
            auto, (listed,) = count_paths_auto(frame)
            declared, ps = count_paths(frame, source, (sink,))
            assert auto == declared == paths and listed.paths == ps.paths
            frames.append(frame)
    assert [id(frame) for frame in built] == list(map(id, frames))
    assert bool(diagrams._graph(frames[-1]).runs) and not diagrams._graph(frames[0]).runs


def test_a_cyclic_frame_raises_on_every_census():
    d = _diagram({"P": (0, 0), "Q": (0, 1)}, [("P", "Q"), ("Q", "P")])
    for call in (lambda: count_paths_auto(d), lambda: count_paths(d, "P", ("Q",)),
                 lambda: count_paths_auto(d)):
        with pytest.raises(CyclicDiagram, match="directed cycle through 'P'"):
            call()


# ---------------------------------------------------------------------------
# Scenario serialization


def test_scenario_round_trip():
    data = scenario_to_dict(load_fixture("fig3a"))
    again = scenario_to_dict(scenario_from_dict(data))
    assert again == data


def test_load_scenario_from_file(tmp_path):
    data = scenario_to_dict(load_fixture("fig4a"))
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    sc = load_scenario(p)
    assert sc.source == "A" and sc.sinks == ("B",)
    assert sc.diagram.events["M"] == E(1.0, -1.0)


def test_scenario_validation():
    with pytest.raises(InvalidScenario):
        scenario_from_dict({"events": {"A": [0, 0]}})
    with pytest.raises(InvalidScenario):
        scenario_from_dict(
            {"events": {"A": [0, 0], "B": [1, 0]}, "segments": [["A", "B"]],
             "source": "Z"}
        )
    with pytest.raises(InvalidScenario):
        load_fixture("fig9z")


LONG = "x" * 10**6
BASE = {"events": {"A": [0, 0], "B": [1, 0]}, "segments": [["A", "B"]]}


@pytest.mark.parametrize("scenario, start", [
    ({**BASE, "sinks": LONG}, "sinks must list event labels, got 'xxx"),
    ({**BASE, "sinks": [LONG]}, "sinks[0] names no event: 'xxx"),
    ({**BASE, "sinks": [[LONG]]}, "sinks[0] must be an event label string, got ['xxx"),
    ({**BASE, "source": LONG}, "source names no event: 'xxx"),
    ({**BASE, "events": {"A": [0, 0], "B": "y" * 10**6}}, "event 'B' must be [t, x] "),
    ({**BASE, "events": {LONG: [0, 0], "B": None}}, "event 'B' must be [t, x] "),
    ({**BASE, "events": {"A": [0, 0], LONG: "y"}}, "event 'xxx"),
    ({**BASE, "segments": [LONG]}, "segment 0 must be [start, end] labels, got 'xxx"),
    ({**BASE, "segments": [["A", "B"], [LONG, "B"]]}, "segment ('xxx"),
    ({**BASE, "c": LONG}, "light speed c must be a number, got 'xxx"),
])
def test_scenario_errors_cut_the_values_they_show(scenario, start):
    """A scenario error shows a value cut by reprlib, not all of a long one:
    "sinks": "x" * 10**6 made a 1 000 036-character message."""
    with pytest.raises(InvalidScenario) as err:
        scenario_from_dict(scenario)
    assert str(err.value).startswith(start) and len(str(err.value)) < 200


@pytest.mark.parametrize("error, fail", [
    (IsolatedEvent, lambda: role_report(
        _diagram({LONG: (0, 0), "A": (1, 0), "B": (2, 0)}, [("A", "B")]))),
    (ZeroExtent, lambda: _diagram({LONG: (0, 0), "B": (0, 0)}, [(LONG, "B")])),
    (ZeroExtent, lambda: transform_diagram(
        _diagram({LONG: (0, 0), "b": (0, 5e-324)}, [(LONG, "b")], c=3.0),
        Boost(Branch.SUPERLUMINAL, 9.0, 1 / 9))),
    (CyclicDiagram, lambda: count_paths_auto(
        _diagram({LONG: (0, 0), "Q": (0, 1)}, [(LONG, "Q"), ("Q", LONG)]))),
    (NonfiniteResult, lambda: render_svg(_diagram({"B": (0, 0), LONG: (1e308, 0.5)},
                                                  [("B", LONG)]))),
    (NonfiniteResult, lambda: transform_diagram(
        _diagram({"B": (0, 0), LONG: (1e308, -1e308)}, [(LONG, "B")]),
        Boost(Branch.SUPERLUMINAL, 1.0001))),
])
def test_errors_of_a_loaded_diagram_cut_the_labels_they_show(error, fail):
    """An event label of 10**6 characters made a 1 000 025- to 1 000 033-
    character IsolatedEvent, ZeroExtent or CyclicDiagram message."""
    with pytest.raises(error) as err:
        fail()
    assert "'xxx" in str(err.value) and len(str(err.value)) < 200


@pytest.mark.parametrize("events, named", [
    ({"a": ["0", True], "b": [1, "0.5"]}, "a"),
    ({"a": [0, 1], "b": [1, "0.5"]}, "b"),
    ({"a": [0, 1], "b": [False, 0.5]}, "b"),
    ({"a": [0, 1], "b": [1, None]}, "b"),
    ({"a": [0, 10**400], "b": [1, 0]}, "a"),
    ({"a": [0, 1], "b": [1, float("nan")]}, "b"),
    ({"a": [0, 1], "b": [1, 0.5, 2]}, "b"),
])
def test_event_coordinates_are_json_numbers(events, named):
    """A coordinate is a float or an int that fits in a float: "0" and true
    loaded as 0.0 and 1.0."""
    with pytest.raises(InvalidScenario, match=rf"event '{named}' must be \[t, x\]"):
        scenario_from_dict({"events": events, "segments": [["a", "b"]]})


def test_event_coordinates_of_other_number_types_load_event_by_event():
    one = scenario_from_dict({"events": {"a": (0, 1), "b": [1, 0.5]}, "segments": [("a", "b")]})
    other = scenario_from_dict({"events": {"a": np.array([0.0, 1.0]), "b": [np.float64(1), 0.5]},
                                "segments": [["a", "b"]]})
    assert scenario_to_dict(one) == scenario_to_dict(other)
    assert one.diagram._xy.tolist() == [[0.0, 1.0], [1.0, 0.5]]


def test_load_scenario_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidScenario):
        load_scenario(p)


def test_a_scenario_file_that_holds_a_json_list_is_rejected(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(InvalidScenario, match="^scenario must be a JSON object$"):
        load_scenario(p)


@pytest.mark.parametrize("source", [[1, 2], 1.5, b"scene.json", None])
def test_load_scenario_takes_only_a_path_or_a_mapping(source):
    """A list or a float raised open's TypeError; an int is the next test."""
    with pytest.raises(InvalidScenario, match=re.escape(
            f"a JSON file path must be a str or an os.PathLike, got {source!r}")):
        load_scenario(source)


def test_load_scenario_reads_no_file_descriptor(tmp_path):
    """An int was read as an open file descriptor, which open then closed."""
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(scenario_to_dict(load_fixture("fig2a"))), encoding="utf-8")
    fd = os.open(p, os.O_RDONLY)
    inode = os.fstat(fd).st_ino
    try:
        with pytest.raises(InvalidScenario, match=re.escape(
                f"a JSON file path must be a str or an os.PathLike, got {fd}")):
            load_scenario(fd)
        assert os.fstat(fd).st_ino == inode  # still open, on the same file
    finally:
        with contextlib.suppress(OSError):  # close fd only while it is still this file's
            if os.fstat(fd).st_ino == inode:
                os.close(fd)


def test_segments_that_are_no_list_are_rejected():
    with pytest.raises(InvalidScenario, match=re.escape(
            "scenario 'segments' must list [start, end] pairs, got 5")):
        scenario_from_dict({**BASE, "segments": 5})


def test_event_labels_that_are_not_strings_load_as_their_str():
    sc = scenario_from_dict({"events": {1: [0, 0], 2: [1, 0]}, "segments": [[1, 2]]})
    assert scenario_to_dict(sc) == {"c": 1.0, "events": {"1": [0.0, 0.0], "2": [1.0, 0.0]},
                                    "segments": [["1", "2"]]}


def test_event_labels_equal_under_str_are_rejected():
    with pytest.raises(InvalidScenario, match="^event labels must be distinct$"):
        scenario_from_dict({"events": {1: [0, 0], "1": [1, 0]}, "segments": []})


@pytest.mark.parametrize("events, shown", [
    ({"a": (0, 0)}, "event 'a' must be of type Event1p1, got (0, 0)"),
    ({"a": E(0, 0), "b": 5}, "event 'b' must be of type Event1p1, got 5"),
    (5, "events must be of type Mapping, got 5"),
    ([E(0, 0)], "events must be of type Mapping, got [Event1p1(t=0.0, x=0.0)]"),
    ({1: E(0, 0), 2: E(1, 0.1)}, "event labels must be strings, got 1"),
    ({"a": E(0, 0), ("b",): E(1, 0)}, "event labels must be strings, got ('b',)"),
    ({None: E(0, 0), "b": E(1, 0)}, "event labels must be strings, got None"),
    ({"a": E(0, 0), 10 ** 100: E(1, 0)},
     "event labels must be strings, got 100000000000000000...0000000000000000000"),
])
def test_diagram_events_must_map_labels_to_events(events, shown):
    """A value that is no Event1p1 raised AttributeError from its missing t.
    A label that is no string was taken, and render_svg's join of the labels
    raised the builtin TypeError; a tuple or None beside a string raised it
    from the sort of the labels."""
    with pytest.raises(InvalidInput, match=re.escape(shown)):
        Diagram(events)


@pytest.mark.parametrize("segments, shown", [
    (5, "segments must be a sequence, got 5"),
    ([("a", "b"), 7], "segments[1] must be a sequence, got 7"),
    ([("a",)], "segments[0] must be a (start, end) pair of labels, got ('a',)"),
    ([("a", "b", "a"), ("b",)], "segments[0] must be a (start, end) pair of labels"),
    ([(["a"], "b")], "segments[0] must name events by string labels, got ['a']"),
    ([("a", "b"), ("a", 1)], "segments[1] must name events by string labels, got 1"),
])
def test_diagram_segments_must_be_label_pairs(segments, shown):
    """A number raised tuple()'s TypeError and a one-label segment numpy's
    ValueError, while a three-label segment and a one-label one were read
    silently as two pairs, ("a", "b") twice.  A list as a label raised the
    builtin TypeError of the label lookup, and a number was named only as
    an unknown event."""
    with pytest.raises(InvalidInput, match=re.escape(shown)):
        Diagram({"a": E(0, 0), "b": E(1, 0)}, segments)


# ---------------------------------------------------------------------------
# Rendering


def test_fig2_svg_has_one_dashed_segment():
    svg = render_svg(load_fixture("fig2a").diagram)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count('stroke-dasharray="7,5"') == 1


def test_fig4_svg_renders_luminal_segments_dotted():
    svg = render_svg(load_fixture("fig4a").diagram, title="mirror bounce")
    assert svg.count('stroke-dasharray="2,4"') == 2
    assert "mirror bounce" in svg


def test_svg_labels_every_event():
    d = load_fixture("fig3a").diagram
    svg = render_svg(d)
    for label in d.events:
        assert f">{label}<" in svg


def test_svg_escapes_markup_in_labels_and_title():
    import xml.etree.ElementTree as ET

    d = _diagram({"<a&b>": (0, 0), "B": (1, 3), "C": (2, 0.5)},
                 [("<a&b>", "B"), ("<a&b>", "C")])
    root = ET.fromstring(render_svg(d, title='say "&<" here'))
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}circle")) == len(d.events)
    texts = [t.text for t in root.findall(f"{ns}text")]
    assert 'say "&<" here' in texts and "<a&b>" in texts


def test_svg_of_a_drawing_beyond_a_float_names_the_farthest_event():
    d = _diagram({"B": (0, 0), "A": (1e308, 0.5)}, [("B", "A")])
    with pytest.raises(NonfiniteResult, match=r"event 'A' at t=1e\+308, x=0\.5 \(c=1\.0\) "
                                              r"makes the drawing 253 by inf pixels"):
        render_svg(d)
    with pytest.raises(NonfiniteResult, match="event 'B'"):
        render_svg(_diagram({"A": (0, 0), "B": (1e300, 0)}, [("A", "B")], c=1e10))


def test_diagram_rejects_nonfinite_light_speed():
    with pytest.raises(ValueError):
        _diagram({"A": (0, 0), "B": (1, 0)}, [("A", "B")], c=float("inf"))


def test_an_empty_diagram_draws_the_padding_around_the_origin():
    """Defect (p): an empty diagram raised numpy's zero-size reduction
    ValueError; it draws the padded box around the origin, with no marks."""
    root = ElementTree.fromstring(render_svg(Diagram({}, ()), title="nothing"))
    pixels = 2 * STYLE["margin"] + 2 * STYLE["pad"] * STYLE["scale"]
    assert root.get("width") == root.get("height") == f"{pixels:.0f}"
    ns = "{http://www.w3.org/2000/svg}"
    assert not root.findall(f"{ns}circle")
    assert [t.text for t in root.findall(f"{ns}text")] == ["nothing"]


# ---------------------------------------------------------------------------
# Objects built from the columns


@st.composite
def _checked_diagram(draw):
    """Up to 12 events with any text labels and finite coordinates, -0.0
    and subnormals included, and segments between events that differ by
    enough that no boost's image of them underflows to a point."""
    coords = st.floats(-1e6, 1e6, allow_subnormal=True) | st.sampled_from([-0.0, 0.0, 5e-324])
    labels = draw(st.lists(st.text(max_size=4), min_size=1, max_size=12, unique=True))
    events = {label: (draw(coords), draw(coords)) for label in labels}

    def apart(a, b):
        (t1, x1), (t2, x2) = events[a], events[b]
        return abs(t1 - t2) + abs(x1 - x2) > 1e-3

    pairs = [(a, b) for a in labels for b in labels if apart(a, b)]
    segments = draw(st.lists(st.sampled_from(pairs), max_size=16)) if pairs else []
    return _diagram(events, segments, c=draw(st.sampled_from([1.0, 0.5, 3.0])))


def _boost_of_each_kind(c):
    K = 1.0 / (c * c)
    return st.one_of(
        st.floats(-0.99, 0.99).map(lambda v: Boost(Branch.SUBLUMINAL, v * c, K)),
        st.floats(1.01, 50.0).flatmap(lambda w: st.sampled_from([w, -w])).map(
            lambda w: Boost(Branch.SUPERLUMINAL, w * c, K)),
        st.just(Boost.infinite(K)),
    )


def _same(got, expected):
    """Equal field by field, type by type and bit by bit."""
    assert type(got) is type(expected)
    if isinstance(expected, float):
        assert got.hex() == expected.hex()
    elif dataclasses.is_dataclass(expected):
        for field in dataclasses.fields(expected):
            _same(getattr(got, field.name), getattr(expected, field.name))
    else:
        assert got == expected


def _behaves_as_a_frozen_dataclass(obj, fields: tuple):
    """==, hash, repr, replace and pickle as the dataclass without slots
    gives them, and no __dict__, new attribute or weak reference."""
    name = type(obj).__name__
    assert repr(obj) == f"{name}({', '.join(f'{k}={v!r}' for k, v in fields)})"
    assert hash(obj) == hash(tuple(v for _, v in fields))
    copy = dataclasses.replace(obj)
    assert copy == obj and copy is not obj and hash(copy) == hash(obj)
    _same(pickle.loads(pickle.dumps(obj)), obj)
    assert not hasattr(obj, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, fields[0][0], fields[0][1])
    # a frozen dataclass with slots raises TypeError here on Python 3.11
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        obj.extra = 1
    with pytest.raises(TypeError):
        weakref.ref(obj)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_objects_built_from_the_columns_equal_the_checked_constructors(data):
    d = data.draw(_checked_diagram())
    for frame in (d, transform_diagram(d, data.draw(_boost_of_each_kind(d.c)))):
        labels = frame._labels.tolist()
        expected = {label: Event1p1(t, x) for label, (t, x) in zip(labels, frame._xy.tolist())}
        assert list(frame.events) == labels
        for label, event in frame.events.items():
            _same(event, expected[label])
        segments = resolved_segments(frame)
        assert len(segments) == len(frame.segments)
        for segment, (a, b) in zip(segments, frame.segments):
            _same(segment, Segment(a, b, expected[a], expected[b],
                                   classify_endpoints(expected[a], expected[b], frame.c)))
            assert segment.start is frame.events[a] and segment.end is frame.events[b]
        for event in frame.events.values():
            _behaves_as_a_frozen_dataclass(event, (("t", event.t), ("x", event.x)))
            with pytest.raises(ValueError, match="must be finite"):
                dataclasses.replace(event, t=math.nan)
        for s in segments[:3]:
            _behaves_as_a_frozen_dataclass(s, (
                ("start_label", s.start_label), ("end_label", s.end_label),
                ("start", s.start), ("end", s.end), ("speed_class", s.speed_class)))


@pytest.mark.parametrize("t,x", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_the_event_constructor_still_rejects_a_non_finite_coordinate(t, x):
    with pytest.raises(ValueError, match="must be finite"):
        Event1p1(t, x)


def _lexsorted(frame: Diagram, rows: list[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    """rows sorted stably by (start t, start x, end t, end x) in frame."""
    t = np.array([frame.events[a].t for a, _ in rows] + [frame.events[b].t for _, b in rows])
    x = np.array([frame.events[a].x for a, _ in rows] + [frame.events[b].x for _, b in rows])
    m = len(rows)
    order = np.lexsort((x[m:], t[m:], x[:m], t[:m])) if m else []
    return tuple(rows[i] for i in order)


def _flipped(frame: Diagram, rows) -> list[tuple[str, str]]:
    """Each row of the parent frame run from its earlier end in frame: a row
    is turned only where its end comes strictly first."""
    t = {label: e.t for label, e in frame.events.items()}
    return [(b, a) if t[b] < t[a] else (a, b) for a, b in rows]


@st.composite
def _coincident_scenario(draw):
    """Up to 8 events on a coarse grid holding -0.0 and 0.0, so that events
    coincide and start times tie, with segments drawn in either direction
    and now and then twice."""
    grid = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0])
    n = draw(st.integers(2, 8))
    events = {f"e{i}": (draw(grid), draw(grid)) for i in range(n)}
    pairs = [(a, b) for a in events for b in events if events[a] != events[b]]
    assume(pairs)
    return events, draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=12))


def _boost_or_reject(d: Diagram, b: Boost) -> Diagram:
    try:
        return transform_diagram(d, b)
    except ZeroExtent:  # two ends of a segment rounded onto one point
        reject()


@given(_coincident_scenario(), _boost_of_each_kind(1.0), _boost_of_each_kind(1.0),
       st.booleans())
@example(({"A": (0, 0), "B": (0, 0), "C": (1, 0)}, [("C", "B"), ("A", "C")]),
         Boost(Branch.SUBLUMINAL, 0.5), Boost.infinite(), False)
@settings(max_examples=300, deadline=None)
def test_every_frame_holds_the_lexsort_of_its_base_rows(scenario, first, second, read_first):
    """A loaded frame holds the four-key lexsort of its segments in the
    order given; a boosted frame holds that of its parent's stored rows,
    each turned to run forward in time, so that segments tied on all four
    keys keep their order in the parent, through one boost and two, on
    both branches, whether or not the loaded frame's order was read before
    the boost."""
    events, rows = scenario
    loaded = _diagram(events, rows)
    if read_first:
        loaded.segments
    frames = [loaded]
    for b in (first, second):
        frames.append(_boost_or_reject(frames[-1], b))
    assert loaded.segments == _lexsorted(loaded, rows)
    for parent, moved in zip(frames, frames[1:]):
        assert moved.segments == _lexsorted(moved, _flipped(moved, parent.segments))


def test_coincident_events_keep_their_segments_order_across_a_boost():
    """A and B coincide, so (A, C) and the turned (C, B) tie on all four
    keys after the boost; they keep the loaded frame's stored order."""
    d = load_scenario({"events": {"A": [0, 0], "B": [0, 0], "C": [1, 0]},
                       "segments": [["C", "B"], ["A", "C"]]}).diagram
    moved = transform_diagram(d, Boost(Branch.SUBLUMINAL, 0.5))
    assert moved.segments == (("A", "C"), ("B", "C"))
    assert d.segments == (("A", "C"), ("C", "B"))


@pytest.mark.parametrize("step", ["events", "census", "subluminal", "superluminal"])
def test_a_diagram_pickles_and_deep_copies_once_its_caches_are_filled(step):
    """The events read, the census graph built, or a frame boosted on either
    branch and resolved: the diagram still round-trips by pickle and by
    deepcopy to an equal one."""
    d = load_fixture("fig3a").diagram
    if step == "census":
        count_paths_auto(d)
    elif step != "events":
        branch, speed = ((Branch.SUBLUMINAL, 0.5) if step == "subluminal"
                         else (Branch.SUPERLUMINAL, 2.0))
        d = transform_diagram(d, Boost(branch, speed))
        resolved_segments(d)
        count_paths_auto(d)
    d.events
    for copied in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert copied == d and copied is not d
        assert role_report(copied) == role_report(d)


def test_diagram_events_is_a_read_only_view_in_label_order():
    d = _diagram({"b": (1, 0), "a": (0, 0), "c": (2, 1.5)}, [("b", "c"), ("a", "b")])
    events = d.events
    assert isinstance(events, Mapping)
    with pytest.raises(TypeError):
        events["a"] = E(5, 5)
    with pytest.raises(TypeError):
        del events["a"]
    assert len(events) == 3 and "a" in events and "z" not in events
    assert events.get("a") == E(0, 0) and events.get("z") is None
    expected = {"b": E(1, 0), "a": E(0, 0), "c": E(2, 1.5)}
    assert list(events) == ["b", "a", "c"]
    assert list(events.items()) == list(expected.items())
    assert list(events.values()) == list(expected.values())
    assert ("a", E(0, 0)) in events.items() and E(2, 1.5) in events.values()
    assert events == expected and expected == events
    assert "Event1p1(t=1.0, x=0.0)" in repr(d) and "Event1p1(t=2.0, x=1.5)" in repr(d)
    for segment in resolved_segments(d):
        assert segment.start is d.events[segment.start_label]
        assert segment.end is d.events[segment.end_label]


@pytest.mark.parametrize("census", [
    count_paths_auto,
    lambda d: count_paths(d, "s", ("t", "a02")),
    terminal_events,
])
def test_a_loaded_frame_that_is_only_counted_never_orders_its_segments(census):
    """The census and terminal_events read the segment rows in any order, so
    a loaded frame they alone read never sorts or classifies them."""
    d = _ladder(3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diagrams, "_sort", lambda d: pytest.fail("the frame sorted its segments"))
        census(d)
        census(d)
    assert d._speeds is None


def test_scenario_events_must_be_a_mapping():
    with pytest.raises(InvalidScenario, match=r"^scenario 'events' must map labels to \[t, x\]$"):
        scenario_from_dict({"events": [], "segments": []})
