"""Spacetime scenarios: labeled events, directed segments, frame transforms.

A Diagram lives in one frame.  Segment directions follow coordinate time in
that frame; transforming a diagram re-derives directions and ordering, which
is what makes emission and absorption roles frame-dependent.
"""

from __future__ import annotations

import json
import reprlib
import sys
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._input import instance, is_label, is_number, read_json, sequence
from .errors import (
    CyclicDiagram,
    InvalidInput,
    InvalidScenario,
    IsolatedEvent,
    MixedK,
    ZeroExtent,
)
from .kinematics import Boost, Event1p1, K_from_c, _entries, _image

CLASSIFY_TOL = 1e-9  # relative to a segment's speed, by _speed_code


class SpeedClass(Enum):
    SUBLUMINAL = "subluminal"
    LUMINAL = "luminal"
    SUPERLUMINAL = "superluminal"


class Role(Enum):
    EMISSION = "emission"
    ABSORPTION = "absorption"


@dataclass(frozen=True, slots=True)
class Segment:
    start_label: str
    end_label: str
    start: Event1p1
    end: Event1p1
    speed_class: SpeedClass


_CLASSES = np.array(tuple(SpeedClass), object)  # a speed code indexes this
_ROLES = np.array((Role.ABSORPTION, Role.EMISSION), object)  # a role bit indexes this


def _filled(cls: type, *columns: list) -> list:
    """One instance of the slotted dataclass cls per row of the columns,
    which hold its fields in order, set through the slot descriptors.  For
    values the diagram has already checked: __init__ and __post_init__ do
    not run, so nothing is converted or checked again."""
    rows = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for name, column in zip(cls.__slots__, columns):
        deque(map(getattr(cls, name).__set__, rows, column), maxlen=0)
    return rows


def _speed_code(dt, dx, c: float):
    """Index into SpeedClass, elementwise for arrays: luminal when |dx| and
    c*|dt| differ by at most CLASSIFY_TOL times the larger of them, a band
    relative to the speed, as Boost's BOUNDARY_BAND is, so the class does not
    depend on the diagram's units; else subluminal when |dx| < c*|dt| and
    superluminal otherwise.  An increment beyond a float keeps a finite band:
    an infinite dt alone is subluminal, an infinite dx superluminal, and both
    luminal."""
    adx, cdt = abs(dx), c * abs(dt)
    band = CLASSIFY_TOL * np.minimum(np.maximum(adx, cdt), sys.float_info.max)
    return np.where(adx < cdt - band, 0, np.where(adx <= cdt + band, 1, 2))


def classify_endpoints(start: Event1p1, end: Event1p1, c: float = 1.0) -> SpeedClass:
    """Speed class of the straight segment between two events, by
    _speed_code.  dt = 0 with dx != 0 is an infinite-speed segment and lands
    superluminal."""
    dt = end.t - start.t
    dx = end.x - start.x
    if dt == 0.0 and dx == 0.0:
        raise ZeroExtent("segment endpoints coincide")
    return _CLASSES[_speed_code(dt, dx, c)]


class _Events(Mapping):
    """A frame's events as a read-only Mapping from label to Event1p1, in
    the order of the labels: the frame's label index and one list of its
    events, in the same order."""

    __slots__ = ("_index", "_events")

    def __init__(self, index: dict[str, int], events: list[Event1p1]) -> None:
        self._index, self._events = index, events

    def __getitem__(self, label: str) -> Event1p1:
        return self._events[self._index[label]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return repr(dict(zip(self._index, self._events)))


@dataclass(init=False)
class Diagram:
    """Events plus directed segments, all in one frame with light speed c.

    The constructor converts and checks its input once, into columns: the
    labels, an (n, 2) float array of (t, x), an (m, 2) int array of segment
    endpoint rows, and each label's rank in sorted order and the rows in
    that order, which every frame shares.  The stored order of the segments
    is the stable sort by (start t, start x, end t, end x) of the rows as
    given, and their speed codes classify them in that order; both are built
    on first read, by segments, resolved_segments, role_report, render_svg
    or the diagram report, and kept.  The census and terminal_events read
    the rows in any order, so a frame that is only counted never sorts them.
    A transformed diagram is sorted when it is made.  events is a read-only
    Mapping over the label index and one list of Event1p1 built on first
    use; segments is the tuple of label pairs in stored order.  The census
    graph of the frame, its runs of events (see count_paths), their
    successor rows and Kahn order, is likewise built on first use and shared
    by every later count_paths and count_paths_auto of the frame; a
    transformed diagram is a new frame and builds its own.  Zero-length
    segments are rejected; segment labels must name existing events.
    """

    # The constructor's arguments as dataclass fields, so that fields(),
    # replace(), repr and == see them; each is read through a property below.
    events: Mapping[str, Event1p1]
    segments: tuple[tuple[str, str], ...]
    c: float
    __slots__ = ("_c", "_labels", "_index", "_rank", "_by_label", "_xy", "_pairs", "_speeds",
                 "_events", "_graph")

    def __init__(self, events: Mapping[str, Event1p1],
                 segments: Iterable[tuple[str, str]] = (), c: float = 1.0) -> None:
        instance("events", events, Mapping)
        try:
            xy = np.fromiter((v for e in events.values() for v in (e.t, e.x)), float,
                             2 * len(events)).reshape(-1, 2)
        except (AttributeError, TypeError, ValueError):  # a value that is no Event1p1
            for label, e in events.items():
                instance(f"event {reprlib.repr(label)}", e, Event1p1)
            raise
        for label in events:
            if not is_label(label):
                raise InvalidInput(f"event labels must be strings, got {reprlib.repr(label)}")
        segments = sequence("segments", segments)
        for i, pair in enumerate(segments):
            if len(sequence(f"segments[{i}]", pair)) != 2:
                raise InvalidInput(f"segments[{i}] must be a (start, end) pair of labels, "
                                   f"got {reprlib.repr(pair)}")
            for end in pair:
                if not is_label(end):
                    raise InvalidInput(f"segments[{i}] must name events by string labels, "
                                       f"got {reprlib.repr(end)}")
        _columns(self, list(events), xy, segments, c)

    c = property(lambda self: self._c)

    @property
    def events(self) -> Mapping[str, Event1p1]:
        if self._events is None:
            self._events = _Events(self._index, _filled(Event1p1, *self._xy.T.tolist()))
        return self._events

    @property
    def segments(self) -> tuple[tuple[str, str], ...]:
        ends = self._labels[self._seg]
        return tuple(zip(ends[:, 0].tolist(), ends[:, 1].tolist()))

    # The segment endpoint rows in stored order and their speed codes, which
    # index SpeedClass: the frame's one ordered and classified view of its
    # segments, sorted on the first read of _seg, which _codes reads first.
    @property
    def _seg(self) -> np.ndarray:
        if self._speeds is None:
            _sort(self)
        return self._pairs

    @property
    def _codes(self) -> np.ndarray:
        self._seg  # sorts the frame if no reader has yet
        return self._speeds


def _columns(d: Diagram, labels: list[str], xy: np.ndarray,
             segments: Iterable[Sequence[str]], c: float) -> Diagram:
    """Fill d from labels, their (t, x) rows and label pairs, checked once."""
    K_from_c(c)  # rejects a c that is not positive and finite, or whose K over- or underflows
    index = dict(zip(labels, range(len(labels))))
    if len(index) < len(labels):
        raise InvalidScenario("event labels must be distinct")
    segments = tuple(segments)
    seg = np.fromiter(map(index.get, chain.from_iterable(segments), repeat(-1)),
                      np.intp, 2 * len(segments)).reshape(-1, 2)
    unknown = np.flatnonzero((seg < 0).any(axis=1))
    if len(unknown):
        frm, to = segments[unknown[0]]
        raise InvalidScenario(
            f"segment ({reprlib.repr(frm)}, {reprlib.repr(to)}) names unknown events")
    by_label = np.fromiter(sorted(range(len(labels)), key=labels.__getitem__), np.intp,
                           len(labels))
    rank = np.empty(len(labels), np.intp)
    rank[by_label] = np.arange(len(labels))
    d._c, d._index, d._rank, d._by_label = c, index, rank, by_label
    d._labels = np.fromiter(labels, object, len(labels))
    return _frame(d, xy[:, 0], xy[:, 1], seg)


def _frame(d: Diagram, t: np.ndarray, x: np.ndarray, seg: np.ndarray,
           boost: Boost | None = None) -> Diagram:
    """Store one frame's coordinates, from the columns t and x, and its
    segment rows seg, once every segment has extent; d already holds the
    labels, their index, ranks and order, and c.  This is the one place a
    frame's coordinates are set, so it drops the cached order, events and
    census graph.  If boost is given, the columns are the image under boost
    of a frame whose segments all have extent, and a copy of seg is stored
    with each row turned where its end comes strictly before its start."""
    frm, to = seg[:, 0], seg[:, 1]
    start, end = t[frm], t[to]
    flat = np.flatnonzero((end == start) & (x[to] == x[frm]))
    if len(flat):
        frm, to = map(reprlib.repr, d._labels[seg[flat[0]]])
        if boost is None:
            raise ZeroExtent(f"segment ({frm}, {to}) has zero extent")
        raise ZeroExtent(
            f"segment ({frm}, {to}) has extent, but its image under the "
            f"{boost.branch.value} boost at speed {boost.speed!r} underflowed to a point")
    if boost is not None:
        back = end < start
        seg = seg.copy()
        seg[back] = seg[back, ::-1]
    d._xy, d._pairs = np.stack((t, x), axis=1), seg
    d._speeds = d._events = d._graph = None
    return d


def _sort(d: Diagram) -> bool:
    """Put the frame's segment rows in stored order, the stable sort by
    (start t, start x, end t, end x), and classify them in that order.

    One stable argsort orders the rows by start time.  Only when start
    times tie does np.lexsort run, once, by all four keys, over the rows of
    the tied groups alone, in place within that order: the result is the
    four-key lexsort of the rows as held.  False when two rows tie on all
    four keys, so that the order they were held in decided theirs."""
    t, x, seg = d._xy[:, 0], d._xy[:, 1], d._pairs
    head, tail = seg[:, 0], seg[:, 1]
    start = t[head]
    order = np.argsort(start, kind="stable")
    ordered = start[order]
    same = ordered[1:] == ordered[:-1]
    exact = True
    if same.any():  # a shared start time: lexsort the tied rows by all four keys
        edge = np.zeros(len(order) + 1, bool)
        edge[1:-1] = same
        tied = np.flatnonzero(edge[1:] | edge[:-1])  # the rows of the groups
        rows = order[tied]
        frm, to = head[rows], tail[rows]
        keys = x[to], t[to], x[frm], ordered[tied]
        by = np.lexsort(keys)
        order[tied] = rows[by]
        tie = True
        for key in keys:  # neighbours equal on every key so far
            key = key[by]
            tie = tie & (key[1:] == key[:-1])
            if not tie.any():
                break
        else:
            exact = False
    d._pairs = seg = seg[order]
    frm, to = seg[:, 0], seg[:, 1]
    with np.errstate(over="ignore"):
        d._speeds = _speed_code(t[to] - t[frm], x[to] - x[frm], d.c)
    return exact


def resolved_segments(d: Diagram) -> tuple[Segment, ...]:
    """The segments in stored order with their endpoint events, the objects
    of d.events, and speed classes, built from the diagram's columns."""
    events = np.fromiter(d.events._events, object, len(d._labels))  # by row
    seg = d._seg
    ends, pairs = d._labels[seg], events[seg]
    return tuple(_filled(Segment, ends[:, 0].tolist(), ends[:, 1].tolist(),
                         pairs[:, 0].tolist(), pairs[:, 1].tolist(),
                         _CLASSES[d._codes].tolist()))


def transform_diagram(d: Diagram, b: Boost) -> Diagram:
    """Apply one boost to every event and re-derive segment directions.

    The boost's K must match the diagram's light speed (K = 1/c**2).  In the
    new frame each segment runs from the earlier endpoint to the later one;
    exactly simultaneous endpoints keep their given direction.  Subluminal
    boosts preserve every speed class; superluminal boosts swap subluminal
    with superluminal and fix luminal.  Raises NonfiniteResult when an
    event's image does not fit in a float.
    """
    if abs(b.K * d.c * d.c - 1.0) > 1e-9:
        raise MixedK(
            f"boost K={b.K!r} is inconsistent with diagram light speed c={d.c!r}"
        )
    t, x = _image(_entries(b), d._xy[:, 0], d._xy[:, 1], b, d._labels)
    moved = Diagram.__new__(Diagram)
    moved._c, moved._labels, moved._index = d._c, d._labels, d._index
    moved._rank, moved._by_label = d._rank, d._by_label
    _frame(moved, t, x, d._pairs, b)
    # Rows tied on all four keys keep their order in d's stored rows: if d
    # held its rows as given, sort again from its stored order.
    if not _sort(moved) and d._speeds is None:
        _sort(_frame(moved, t, x, d._seg, b))
    return moved


def role_report(d: Diagram) -> tuple[tuple[str, Role], ...]:
    """Emission and absorption events of the superluminal segments.

    For each superluminal-class segment, the event it leaves is an emission
    and the event it reaches is an absorption, in this frame's time order.
    Worldlines at or below c contribute no roles.  Every event must touch at
    least one segment.  Sorted by label, absorption before emission.
    """
    touched = np.bincount(d._seg.ravel(), minlength=len(d._labels))
    if not touched.all():
        raise IsolatedEvent(f"event {reprlib.repr(d._labels[touched.argmin()])} "
                            "touches no segment")
    fast = d._seg[d._codes == 2]
    # slot 2 * rank + role of each event's roles, absorption 0 and emission 1
    held = np.zeros(2 * len(d._labels), bool)
    held[2 * d._rank[fast[:, 1]]] = held[2 * d._rank[fast[:, 0]] + 1] = True
    keys = np.flatnonzero(held)
    return tuple(zip(d._labels[d._by_label[keys >> 1]].tolist(), _ROLES[keys & 1].tolist()))


@dataclass(frozen=True)
class PathSet:
    source: str
    sinks: tuple[str, ...]
    paths: tuple[tuple[str, ...], ...]


# The census memoises suffix lists only when it is output-bound, that is when
# the chains outnumber events plus segments by more than this factor, and the
# memo holds at most this many labels over all its lists.  The memo pass is
# itself linear in events and segments, so it pays only when the walk has many
# paths to list per event: timed against the plain walk, it lost at 1.0 chains
# per event plus segment (ladder of 5 rungs, 1.1x slower) and on chains and
# bundles (0.0-0.75; 1.5-3x slower), broke even near 1.7 and won from 2.9 up
# (ladder of 7 rungs, 1.25-1.4x faster; 2-2.6x from 9 rungs).
_OUTPUT_BOUND = 2
_MEMO_LABELS = 2**16

# The census graph contracts runs only when at least this share of the
# segments is contractible.  Finding the runs costs a few dozen numpy passes
# and one list per run, and each run saves a step of every later pass for
# each event past its head: on bundles of five-event worldlines (a quarter of
# the segments contractible, runs of 2.1 events) that lost, and the graph
# build took 1.4x as long; on chains (all contractible) the census ran 4-40x
# faster.
_RUN_SHARE = 0.5


class _Graph(NamedTuple):
    """The census graph of a frame, over its runs.

    A segment is contractible when it is the only segment out of its start
    and the only one into its end.  A run is a maximal path of events joined
    by contractible segments, so only its head has a segment in from outside
    and only its tail a segment out; an event on no contractible segment is a
    run of its own, and so is every event when less than _RUN_SHARE of the
    segments is contractible.  Each run has a tag, the rank of its head
    among the heads in the order of the diagram's labels, that indexes
    succ, names and the census's lists.
    """

    succ: list[list[int]]  # each run's successor tags (its tail's), sorted by label
    order: list[int]  # the tags in Kahn order
    names: list  # a lone event's label; a longer run's tuple of labels
    runs: frozenset[int]  # the tags t of the runs of several events, and their marks ~t
    tag: np.ndarray | None  # each event's tag; None when the tags are the events
    place: np.ndarray | None  # each event's place in its run, 0 at the head


def _graph(d: Diagram) -> _Graph:
    """The frame's census graph, built by _census_graph on its first census
    and kept in d._graph; a cyclic frame keeps none, so each census raises."""
    if d._graph is None:
        d._graph = _census_graph(d)
    return d._graph


def _census_graph(d: Diagram) -> _Graph:
    """The census graph of the frame, from numpy passes over its segments
    and one Python pass per run.

    Each event finds its run's head and its place in it by pointer doubling
    over the contractible segments, so a run of k events costs log k
    passes.  A ring of contractible segments has no head, so its events are
    left runs of their own.  The Kahn pass visits runs whose predecessors
    have all been visited (Kahn 1962); runs left over lie on a directed
    cycle or downstream of one, and the CyclicDiagram message names an
    event that lies on the cycle.  No recursion, so depth is unbounded.
    """
    n = len(d._labels)
    frm, to = d._pairs[:, 0], d._pairs[:, 1]
    out, into = np.bincount(frm, minlength=n), np.bincount(to, minlength=n)
    inner = out[frm] * into[to] == 1  # contractible
    tag = place = None
    waiting, runs = into, frozenset()
    contractible = np.count_nonzero(inner)
    if contractible and contractible >= _RUN_SHARE * len(inner):
        head, place = np.arange(n), np.zeros(n, np.intp)
        head[to[inner]], place[to[inner]] = frm[inner], 1
        for _ in range((n - 1).bit_length()):
            hop = place[head]
            if not hop.any():  # every event points at its head
                break
            place += hop
            head = head[head]
        else:  # a ring, or the longest run ended on the last pass
            ring = place[head] > 0
            inner &= ~ring[to]
            head[ring], place[ring] = np.flatnonzero(ring), 0
        first = place == 0  # the heads, whose ranks are the tags
        tag = (first.cumsum() - 1)[head]
        waiting, names = into[first], d._labels[first].tolist()
        sizes = np.bincount(tag)
        starts = sizes.cumsum() - sizes
        flat = np.empty(n, np.intp)
        flat[starts[tag] + place] = np.arange(n)  # each run's events in order
        labels = d._labels[flat].tolist()
        long = np.flatnonzero(sizes > 1)
        spans = map(slice, starts[long].tolist(), (starts + sizes)[long].tolist())
        deque(map(names.__setitem__, long.tolist(), map(tuple, map(labels.__getitem__, spans))),
              maxlen=0)
        runs = frozenset(np.concatenate((long, ~long)).tolist())
        frm, to = tag[frm[~inner]], to[~inner]
        out = np.bincount(frm, minlength=len(names))
    else:
        names = d._labels.tolist()
    by_start = np.argsort(frm * n + d._rank[to], kind="stable")  # by run, then end label
    ends = (to[by_start] if tag is None else tag[to[by_start]]).tolist()
    stops = out.cumsum().tolist()
    succ = [ends[a:b] for a, b in zip([0, *stops], stops)]
    order = np.flatnonzero(waiting == 0).tolist()
    waiting = waiting.tolist()  # predecessors not yet visited
    visit = order.append
    for node in order:
        for nxt in succ[node]:
            waiting[nxt] -= 1
            if not waiting[nxt]:
                visit(nxt)
    if len(order) < len(names):
        # Every leftover event has a leftover predecessor, so walking back
        # along them must revisit an event, and that event is on a cycle.
        left = np.array(waiting) > 0
        left = left if tag is None else left[tag]
        frm, to = d._seg[:, 0], d._seg[:, 1]  # in stored order, so the event named is fixed
        live = left[frm] & left[to]
        pred = dict(zip(to[live].tolist(), frm[live].tolist()))
        node = int(left.argmax())
        seen = set()
        while node not in seen:
            seen.add(node)
            node = pred[node]
        raise CyclicDiagram(f"directed cycle through {reprlib.repr(d._labels[node])}")
    return _Graph(succ, order, names, runs, tag, place)


def _ways(g: _Graph, heads: list[int], late: list[tuple[int, int]]) -> list[int]:
    """The number of chains from the sources into the head of each run, by
    a dynamic program over the Kahn order with exact Python ints.  heads
    holds the tags of the sources that head their runs, late the (tag,
    place) of those after their run's head, which add only to the run's
    successors here; the census adds them to the run's own events after
    them."""
    succ = g.succ
    ways = [0] * len(succ)
    for node in heads:
        ways[node] = 1
    for node, _ in late:
        for nxt in succ[node]:
            ways[nxt] += 1
    for node in g.order:
        here = ways[node]
        if here:
            for nxt in succ[node]:
                ways[nxt] += here
    return ways


def _suffixes(g: _Graph, ways: list[int], marks: Mapping[int, Sequence[int]]
              ) -> dict[int, list[tuple[str, ...]]]:
    """Every chain from a run's head to a sink, in _walk's pre-order, for
    the runs nearest the sinks; marks holds the places of the sinks in each
    run that has any.

    One pass in reverse Kahn order builds a run's list from its own sinks
    and its successors' lists, so a run is kept only when all its successors
    are; runs whose heads no chain reaches (ways 0) are skipped.  The split
    is balanced: a run is kept only while the square of its number of chains
    is at most the count, ways times sinks summed over the marked runs (the
    census count before its corrections for sources inside runs or on
    sinks), both exact ints, and while the lists fit in _MEMO_LABELS labels
    counted over all lists.  The walk then meets the memo halfway, listing
    about the square root of the count in prefixes against about as many
    suffixes here.  Each list is joined from its successors' by one C-level
    map of operator.add per successor.
    """
    succ, names, runs = g.succ, g.names, g.runs
    count = sum(ways[v] * len(places) for v, places in marks.items())
    memo: dict[int, list[tuple[str, ...]]] = {}
    size: dict[int, int] = {}  # labels in each kept list
    total = 0
    for v in reversed(g.order):
        kids = succ[v]
        if not ways[v] or not all(w in memo for w in kids):
            continue
        tails = sum(len(memo[w]) for w in kids) + len(marks.get(v, ()))
        if tails * tails > count:
            continue
        run = names[v] if v in runs else (names[v],)
        k = len(run)
        labels = sum(size[w] + k * len(memo[w]) for w in kids)
        if v in marks:  # the chains that end in the run itself
            labels += sum(marks[v]) + len(marks[v])
        if total + labels > _MEMO_LABELS:
            continue
        chains = [run[:at + 1] for at in marks[v]] if v in marks else []
        for w in kids:
            chains += map(add, repeat(run), memo[w])
        memo[v], size[v] = chains, labels
        total += labels
    return memo


def _walk(g: _Graph, starts: list[int], at: Iterable[int], marks: Mapping[int, Sequence[int]],
          memo: Mapping[int, list[tuple[str, ...]]]) -> list[tuple[tuple[str, ...], ...]]:
    """For each source, given by its run's tag in starts and its place in
    that run in at, every chain from it that ends on a sink, as labels, in
    pre-order over the sorted successors.  An explicit stack of successor
    iterators and one mutable trail replace recursion; a trail is copied
    only when it counts.  A run of several events is entered by one extend
    of the trail, each sink in it emitting its prefix, and its row is
    followed by its mark, on which one slice delete takes all its labels
    but its head's off the trail.  On reaching a run whose chains memo
    holds, the walk emits the trail joined to each of them instead of
    descending.
    """
    succ, names, runs = g.succ, g.names, g.runs
    special = runs.union(memo) if runs and memo else memo or runs
    listings, found, trail, stack = [], [], [], []
    # bound methods, looked up once: this loop runs once per listed step
    push, pop, emit, join = stack.append, stack.pop, found.append, found.extend
    step, back, grow = trail.append, trail.pop, trail.extend
    for source, place in zip(starts, at):
        if source not in runs:
            step(names[source])
        else:  # in a run of several events
            grow(names[source][place:])
            for q in marks.get(source, ()):  # the sinks after it in its run
                if q > place:
                    emit(tuple(trail[:q + 1 - place]))
        push(iter(succ[source]))
        while stack:
            for nxt in stack[-1]:  # advance the deepest iterator by one
                if nxt in special:
                    if nxt < 0:  # a run's mark: all its labels off but its head's
                        del trail[1 - len(names[~nxt]):]
                    elif nxt in memo:
                        join(map(add, repeat(tuple(trail)), memo[nxt]))
                    else:
                        cut = len(trail)
                        grow(names[nxt])
                        if nxt in marks:
                            join([tuple(trail[:cut + q + 1]) for q in marks[nxt]])
                        push(chain(succ[nxt], (~nxt,)))
                    break
                step(names[nxt])
                if nxt in marks:
                    emit(tuple(trail))
                if succ[nxt]:
                    push(iter(succ[nxt]))
                else:
                    back()
                break
            else:  # exhausted: retreat one event
                pop()
                back()
        listings.append(tuple(found))
        found.clear()
        trail.clear()  # a run's labels before the last stay when its walk ends
    return listings


def _census(d: Diagram, sources: Iterable[str], sinks: Iterable[str]
            ) -> tuple[int, list[tuple[tuple[str, ...], ...]]]:
    """The exact count of chains from any source to any sink, from the
    dynamic program of _ways, taken before and apart from the listing, and
    each source's listing by _walk, which reads the suffix memo only when
    the census is output-bound."""
    g = _graph(d)
    index = d._index
    starts = [index[s] for s in sources]
    ends = sorted({index[s] for s in sinks})
    # the chain of no segment at a source that is also a sink is no path
    count = -len(set(ends).intersection(starts))
    heads, late, at = starts, [], repeat(0)
    marks: dict[int, Sequence[int]] = dict.fromkeys(ends, (0,))  # each run's sink places
    if g.runs:  # the events as (tag, place) of their runs
        at, sunk = g.place[starts].tolist(), g.place[ends].tolist()
        starts, ends = g.tag[starts].tolist(), g.tag[ends].tolist()
        heads = [node for node, a in zip(starts, at) if not a]
        late = [(node, a) for node, a in zip(starts, at) if a]  # after their run's head
        marks = {}
        for node, place in sorted(zip(ends, sunk)):
            marks.setdefault(node, []).append(place)
        count += sum(s == node and a <= place for s, a in late for node, place in zip(ends, sunk))
    ways = _ways(g, heads, late)
    count += sum(ways[node] * len(places) for node, places in marks.items())
    memo = {}
    if count > _OUTPUT_BOUND * (len(d._labels) + len(d._pairs)):
        memo = _suffixes(g, ways, marks)
    return count, _walk(g, starts, at, marks, memo)


def count_paths(d: Diagram, source: str, sinks: Iterable[str]) -> tuple[int, PathSet]:
    """Count directed chains from source to any sink, and list them.

    A chain may continue through a sink toward another sink; every prefix
    ending on a sink counts once, and a path needs at least one segment.
    The segment graph must be acyclic anywhere, not only where the source
    reaches.  Paths are listed in pre-order: from each event the successors
    are taken in sorted label order, and a prefix comes before its
    extensions.  The census works on runs: a run is a maximal path of
    events joined by segments that are each the only one out of their start
    and the only one into their end, so a chain of events is one run.  The
    runs, their successor rows and their Kahn order are the frame's census
    graph, built by the frame's first census with numpy passes and one
    Python step per run, and shared by every later count_paths and
    count_paths_auto of it; when fewer than half the segments lie inside
    runs, every event stays a run of its own.  The count is an exact int
    from a dynamic program over the Kahn order, linear in the runs and the
    segments between them, taken apart from the listing.  The listing adds
    the total length of the listed paths, with one list extend per run
    entered, and no recursion limit caps the depth.  A source or sink inside
    a run is placed there at census time.  When the chains outnumber events
    plus segments more than twofold, the listing first memoises the chains
    from the runs nearest the sinks, each run only while the square of its
    number of chains is at most the count and up to 2**16 labels in all, so
    the walk meets the memo halfway: on a ladder of 2**k paths, about
    2**(k/2) prefixes joined to about 2**(k/2) suffixes.  Each walked prefix
    is joined to a memo list by one C-level map of operator.add, one tuple
    concatenation per path.
    """
    sink_set = tuple(sorted(set(_known(d, source, sinks))))
    if not sink_set:
        raise InvalidScenario("at least one sink is required")
    count, (paths,) = _census(d, (source,), sink_set)
    return count, PathSet(source, sink_set, paths)


def _known(d: Diagram, source: str | None, sinks: Iterable[str]) -> tuple[str, ...]:
    """sinks as a tuple, once source, unless None, and each sink is a label
    string that names an event of d.  A string or a mapping is not a list of
    sinks."""
    if isinstance(sinks, (str, Mapping)) or not isinstance(sinks, Iterable):
        raise InvalidScenario(f"sinks must list event labels, got {reprlib.repr(sinks)}")
    sinks = tuple(sinks)
    named = [(f"sinks[{i}]", s) for i, s in enumerate(sinks)]
    if source is not None:
        named.insert(0, ("source", source))
    for where, label in named:
        if not is_label(label):
            raise InvalidScenario(f"{where} must be an event label string, "
                                  f"got {reprlib.repr(label)}")
        if label not in d._index:
            raise InvalidScenario(f"{where} names no event: {reprlib.repr(label)}")
    return sinks


def terminal_events(d: Diagram) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Labels with only outgoing segments, and labels with only incoming,
    each in label order: the frame's rows in label order, filtered."""
    n = len(d._labels)
    out, into = (np.bincount(d._pairs[:, k], minlength=n)[d._by_label] > 0 for k in (0, 1))
    return tuple(tuple(d._labels[d._by_label[keep]].tolist())
                 for keep in (out & ~into, into & ~out))


def count_paths_auto(d: Diagram) -> tuple[int, tuple[PathSet, ...]]:
    """Path census of the current frame: chains from every pure start event
    of the segment graph to the pure end events, one PathSet per start
    event in label order.  The count and the suffix memo of count_paths are
    built once and shared by every start event, and the census graph of the
    frame, its runs built once, by every later census of it, at the cost
    count_paths gives: linear in the runs, plus the listed labels."""
    sources, sinks = terminal_events(d)
    count, listings = _census(d, sources, sinks)
    return count, tuple(PathSet(src, sinks, paths) for src, paths in zip(sources, listings))


# ---------------------------------------------------------------------------
# Scenario JSON.


@dataclass(frozen=True)
class Scenario:
    diagram: Diagram
    source: str | None = None
    sinks: tuple[str, ...] = ()


def _scenario_event(label, coords) -> Event1p1:
    try:
        t, x = coords
        if is_number(t) and is_number(x):
            return Event1p1(float(t), float(x))
    except (TypeError, ValueError):
        pass
    raise InvalidScenario(f"event {reprlib.repr(label)} must be [t, x] with finite numbers, "
                          f"got {reprlib.repr(coords)}")


def _coordinates(events: Mapping) -> np.ndarray:
    """The (n, 2) float array of the [t, x] values, converted in one pass
    when every value holds two items, each a float or an int that fits in a
    float; otherwise event by event, each coordinate a JSON number, so that
    the error names the event."""
    values = list(events.values())
    try:
        if {*map(len, values)} <= {2}:
            flat = list(chain.from_iterable(values))
            if {*map(type, flat)} <= {float, int}:
                xy = np.fromiter(flat, float, len(flat))
                if np.isfinite(xy).all():
                    return xy.reshape(-1, 2)
    except (TypeError, OverflowError):  # a value of no length, or an int beyond a float
        pass
    pairs = [_scenario_event(label, coords) for label, coords in events.items()]
    return np.array([(e.t, e.x) for e in pairs], float).reshape(-1, 2)


def _label_pairs(segments) -> Sequence[Sequence[str]]:
    """The [start, end] label pairs as strings: segments itself when every
    segment is a list or tuple of two strings; otherwise converted by str()
    segment by segment, so that an error names the segment.  A string or an
    object of two items is not a pair."""
    if (isinstance(segments, (list, tuple)) and {*map(type, segments)} <= {list, tuple}
            and {*map(len, segments)} <= {2}
            and {*map(type, chain.from_iterable(segments))} <= {str}):
        return segments
    if not isinstance(segments, Iterable):
        raise InvalidScenario(f"scenario 'segments' must list [start, end] pairs, "
                              f"got {reprlib.repr(segments)}")
    pairs = []
    for i, seg in enumerate(segments):
        if not (isinstance(seg, (list, tuple)) and len(seg) == 2):
            raise InvalidScenario(f"segment {i} must be [start, end] labels, "
                                  f"got {reprlib.repr(seg)}")
        pairs.append((str(seg[0]), str(seg[1])))
    return tuple(pairs)


def scenario_from_dict(data: Mapping) -> Scenario:
    if not isinstance(data, Mapping):
        raise InvalidScenario("scenario must be a JSON object")
    if "events" not in data or "segments" not in data:
        raise InvalidScenario("scenario requires 'events' and 'segments'")
    if not isinstance(data["events"], Mapping):
        raise InvalidScenario("scenario 'events' must map labels to [t, x]")
    xy = _coordinates(data["events"])
    c = data.get("c", 1.0)
    if not is_number(c):
        raise InvalidScenario(f"light speed c must be a number, got {reprlib.repr(c)}")
    labels = list(data["events"])
    if not {*map(type, labels)} <= {str}:
        labels = list(map(str, labels))
    diagram = _columns(Diagram.__new__(Diagram), labels, xy, _label_pairs(data["segments"]),
                       float(c))
    source = data.get("source")
    return Scenario(diagram, source, _known(diagram, source, data.get("sinks", ())))


def scenario_to_dict(sc: Scenario) -> dict:
    d = sc.diagram
    out: dict = {
        "c": d.c,
        "events": dict(zip(d._labels[d._by_label].tolist(), d._xy[d._by_label].tolist())),
        "segments": [list(pair) for pair in d.segments],
    }
    if sc.source is not None:
        out["source"] = sc.source
    if sc.sinks:
        out["sinks"] = list(sc.sinks)
    return out


def load_scenario(source: str | Path | Mapping) -> Scenario:
    if isinstance(source, Mapping):
        return scenario_from_dict(source)
    return scenario_from_dict(read_json(source, InvalidScenario))


FIXTURE_NAMES = ("fig2a", "fig3a", "fig4a", "fig5a")


def load_fixture(name: str) -> Scenario:
    """Load one of the bundled scenarios: fig2a, fig3a, fig4a, fig5a."""
    if name not in FIXTURE_NAMES:
        raise InvalidScenario(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    ref = resources.files("superlum").joinpath(f"scenarios/{name}.json")
    return scenario_from_dict(json.loads(ref.read_text(encoding="utf-8")))
