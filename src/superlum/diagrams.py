"""Spacetime scenarios: labeled events, directed segments, frame transforms.

A Diagram lives in one frame.  Segment directions follow coordinate time in
that frame; transforming a diagram re-derives directions and ordering, which
is what makes emission and absorption roles frame-dependent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from importlib import resources

from .errors import (
    CyclicDiagram,
    InvalidScenario,
    IsolatedEvent,
    MixedK,
    ZeroExtent,
)
from .kinematics import Boost, Event1p1, K_from_c, _apply, _entries

CLASSIFY_TOL = 1e-9


class SpeedClass(Enum):
    SUBLUMINAL = "subluminal"
    LUMINAL = "luminal"
    SUPERLUMINAL = "superluminal"


class Role(Enum):
    EMISSION = "emission"
    ABSORPTION = "absorption"


@dataclass(frozen=True)
class Segment:
    start_label: str
    end_label: str
    start: Event1p1
    end: Event1p1
    speed_class: SpeedClass


def classify_endpoints(
    start: Event1p1, end: Event1p1, c: float = 1.0, tol: float = CLASSIFY_TOL
) -> SpeedClass:
    """Speed class of the straight segment between two events.

    Subluminal when |dx| < c*|dt| - tol, luminal within the tol band around
    the cone, superluminal otherwise.  dt = 0 with dx != 0 is an
    infinite-speed segment and lands superluminal.
    """
    dt = end.t - start.t
    dx = end.x - start.x
    if dt == 0.0 and dx == 0.0:
        raise ZeroExtent("segment endpoints coincide")
    if abs(dx) < c * abs(dt) - tol:
        return SpeedClass.SUBLUMINAL
    if abs(dx) <= c * abs(dt) + tol:
        return SpeedClass.LUMINAL
    return SpeedClass.SUPERLUMINAL


def classify_segment(s: Segment, c: float = 1.0, tol: float = CLASSIFY_TOL) -> SpeedClass:
    return classify_endpoints(s.start, s.end, c, tol)


def _segment_sort_key(events: Mapping[str, Event1p1], pair: tuple[str, str]):
    a, b = events[pair[0]], events[pair[1]]
    return (a.t, a.x, b.t, b.x)


@dataclass(frozen=True)
class Diagram:
    """Events plus directed segments, all in one frame with light speed c.

    Segments are stored ordered by the coordinate time of their start event
    (ties broken by the spatial coordinate).  Zero-length segments are
    rejected; segment labels must name existing events.
    """

    events: dict[str, Event1p1]
    segments: tuple[tuple[str, str], ...] = field(default=())
    c: float = 1.0

    def __post_init__(self) -> None:
        K_from_c(self.c)  # rejects a light speed that is not positive and finite
        segs = [tuple(p) for p in self.segments]
        for frm, to in segs:
            if frm not in self.events or to not in self.events:
                raise InvalidScenario(f"segment ({frm!r}, {to!r}) names unknown events")
            a, b = self.events[frm], self.events[to]
            if a.t == b.t and a.x == b.x:
                raise ZeroExtent(f"segment ({frm!r}, {to!r}) has zero extent")
        segs.sort(key=lambda p: _segment_sort_key(self.events, p))
        object.__setattr__(self, "segments", tuple(segs))
        object.__setattr__(self, "events", dict(self.events))


def resolved_segments(d: Diagram, tol: float = CLASSIFY_TOL) -> tuple[Segment, ...]:
    out = []
    for frm, to in d.segments:
        a, b = d.events[frm], d.events[to]
        out.append(Segment(frm, to, a, b, classify_endpoints(a, b, d.c, tol)))
    return tuple(out)


def transform_diagram(d: Diagram, b: Boost) -> Diagram:
    """Apply one boost to every event and re-derive segment directions.

    The boost's K must match the diagram's light speed (K = 1/c**2).  In the
    new frame each segment runs from the earlier endpoint to the later one;
    exactly simultaneous endpoints keep their given direction.  Subluminal
    boosts preserve every speed class; superluminal boosts swap subluminal
    with superluminal and fix luminal.
    """
    if abs(b.K * d.c * d.c - 1.0) > 1e-9:
        raise MixedK(
            f"boost K={b.K!r} is inconsistent with diagram light speed c={d.c!r}"
        )
    m = _entries(b)
    new_events = {label: _apply(m, e) for label, e in d.events.items()}
    new_segs = []
    for frm, to in d.segments:
        if new_events[to].t < new_events[frm].t:
            frm, to = to, frm
        new_segs.append((frm, to))
    return Diagram(new_events, tuple(new_segs), d.c)


def role_report(d: Diagram) -> tuple[tuple[str, Role], ...]:
    """Emission and absorption events of the superluminal segments.

    For each superluminal-class segment, the event it leaves is an emission
    and the event it reaches is an absorption, in this frame's time order.
    Worldlines at or below c contribute no roles.  Every event must touch at
    least one segment.
    """
    touched = {label for pair in d.segments for label in pair}
    for label in d.events:
        if label not in touched:
            raise IsolatedEvent(f"event {label!r} touches no segment")
    roles = set()
    for seg in resolved_segments(d):
        if seg.speed_class is SpeedClass.SUPERLUMINAL:
            roles.add((seg.start_label, Role.EMISSION))
            roles.add((seg.end_label, Role.ABSORPTION))
    return tuple(sorted(roles, key=lambda pair: (pair[0], pair[1].value)))


@dataclass(frozen=True)
class PathSet:
    source: str
    sinks: tuple[str, ...]
    paths: tuple[tuple[str, ...], ...]


def _successors(d: Diagram) -> dict[str, tuple[str, ...]]:
    """Sorted successor labels of every event, after one Kahn pass.

    The pass peels off events whose predecessors are all gone (Kahn 1962);
    events left over lie on a directed cycle or downstream of one, and the
    CyclicDiagram message names one that lies on the cycle.  No recursion,
    so depth is unbounded.
    """
    succ: dict[str, list[str]] = {label: [] for label in d.events}
    waiting = dict.fromkeys(d.events, 0)  # predecessors not yet peeled off
    for frm, to in d.segments:
        succ[frm].append(to)
        waiting[to] += 1
    ready = [label for label, n in waiting.items() if not n]
    done = 0
    while ready:
        node = ready.pop()
        done += 1
        for nxt in succ[node]:
            waiting[nxt] -= 1
            if not waiting[nxt]:
                ready.append(nxt)
    if done < len(waiting):
        # Every leftover event has a leftover predecessor, so walking back
        # along them must revisit an event, and that event is on a cycle.
        pred = {to: frm for frm, to in d.segments if waiting[frm] and waiting[to]}
        node = next(label for label, n in waiting.items() if n)
        seen = set()
        while node not in seen:
            seen.add(node)
            node = pred[node]
        raise CyclicDiagram(f"directed cycle through {node!r}")
    return {label: tuple(sorted(nbrs)) for label, nbrs in succ.items()}


def _walk(succ: Mapping[str, tuple[str, ...]], source: str,
          sinks: frozenset[str]) -> tuple[tuple[str, ...], ...]:
    """Every chain from source that ends on a sink, in pre-order over the
    sorted successors.  An explicit stack of successor iterators and one
    mutable trail replace recursion; a trail is copied only when it counts.
    """
    found: list[tuple[str, ...]] = []
    trail = [source]
    stack = [iter(succ[source])]
    # bound methods, looked up once: this loop runs once per listed step
    push, pop, emit = stack.append, stack.pop, found.append
    step, back = trail.append, trail.pop
    while stack:
        for nxt in stack[-1]:  # advance the deepest iterator by one
            step(nxt)
            if nxt in sinks:
                emit(tuple(trail))
            if succ[nxt]:
                push(iter(succ[nxt]))
            else:
                back()
            break
        else:  # exhausted: retreat one event
            pop()
            back()
    return tuple(found)


def count_paths(d: Diagram, source: str, sinks: Iterable[str]) -> tuple[int, PathSet]:
    """Count directed chains from source to any sink, and list them.

    A chain may continue through a sink toward another sink; every prefix
    ending on a sink counts once.  The segment graph must be acyclic
    anywhere, not only where the source reaches.  Paths are listed in
    pre-order: from each event the successors are taken in sorted label
    order, and a prefix comes before its extensions.  The cost is linear in
    the events and segments plus the total length of the listed paths, and
    no recursion limit caps the depth; the count is len(paths), an exact int.
    """
    sink_set = tuple(sorted(set(sinks)))
    if source not in d.events:
        raise InvalidScenario(f"unknown source {source!r}")
    for s in sink_set:
        if s not in d.events:
            raise InvalidScenario(f"unknown sink {s!r}")
    if not sink_set:
        raise InvalidScenario("at least one sink is required")
    paths = _walk(_successors(d), source, frozenset(sink_set))
    return len(paths), PathSet(source, sink_set, paths)


def terminal_events(d: Diagram) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Labels with only outgoing segments, and labels with only incoming."""
    outdeg = {label: 0 for label in d.events}
    indeg = {label: 0 for label in d.events}
    for frm, to in d.segments:
        outdeg[frm] += 1
        indeg[to] += 1
    sources = tuple(sorted(l for l in d.events if outdeg[l] and not indeg[l]))
    sinks = tuple(sorted(l for l in d.events if indeg[l] and not outdeg[l]))
    return sources, sinks


def count_paths_auto(d: Diagram) -> tuple[int, tuple[PathSet, ...]]:
    """Path census of the current frame: chains from every pure start event
    of the segment graph to the pure end events, one PathSet per start
    event in label order.  The graph is built and checked once and shared
    by every start event."""
    succ = _successors(d)
    sources, sinks = terminal_events(d)
    if not sources or not sinks:
        return 0, ()
    sink_set = frozenset(sinks)
    sets = tuple(PathSet(src, sinks, _walk(succ, src, sink_set)) for src in sources)
    return sum(len(ps.paths) for ps in sets), sets


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
        return Event1p1(float(t), float(x))
    except (TypeError, ValueError) as exc:
        raise InvalidScenario(
            f"event {label!r} must be [t, x] with finite numbers, got {coords!r}"
        ) from exc


def scenario_from_dict(data: Mapping) -> Scenario:
    if not isinstance(data, Mapping):
        raise InvalidScenario("scenario must be a JSON object")
    if "events" not in data or "segments" not in data:
        raise InvalidScenario("scenario requires 'events' and 'segments'")
    if not isinstance(data["events"], Mapping):
        raise InvalidScenario("scenario 'events' must map labels to [t, x]")
    events = {str(label): _scenario_event(label, coords)
              for label, coords in data["events"].items()}
    try:
        c = float(data.get("c", 1.0))
        segments = tuple((str(a), str(b)) for a, b in data["segments"])
    except (TypeError, ValueError) as exc:
        raise InvalidScenario(f"malformed scenario: {exc}") from exc
    diagram = Diagram(events, segments, c)
    source = data.get("source")
    sinks = tuple(str(s) for s in data.get("sinks", ()))
    if source is not None and source not in events:
        raise InvalidScenario(f"unknown source {source!r}")
    for s in sinks:
        if s not in events:
            raise InvalidScenario(f"unknown sink {s!r}")
    return Scenario(diagram, source, sinks)


def scenario_to_dict(sc: Scenario) -> dict:
    d = sc.diagram
    out: dict = {
        "c": d.c,
        "events": {label: [e.t, e.x] for label, e in sorted(d.events.items())},
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
    try:
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidScenario(f"invalid JSON in {source}: {exc}") from exc
    return scenario_from_dict(data)


FIXTURE_NAMES = ("fig2a", "fig3a", "fig4a", "fig5a")


def load_fixture(name: str) -> Scenario:
    """Load one of the bundled scenarios: fig2a, fig3a, fig4a, fig5a."""
    if name not in FIXTURE_NAMES:
        raise InvalidScenario(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")
    ref = resources.files("superlum").joinpath(f"scenarios/{name}.json")
    return scenario_from_dict(json.loads(ref.read_text(encoding="utf-8")))
