"""Seeded workloads for the superlum benchmark: input generators, the calls
into the program, and the oracles that check every output.

Every input is a pure function of (workload seed, slot, repeat); the
program only ever receives the generated dicts, JSON files and arrays.
Slots are grouped into rounds with a fixed composition (kind and size
stratum per position), so a run that measures whole rounds sees the same op
mix for every seed and only the jitter inside each stratum and the input
contents change.  An op's shape (its sizes and kind of input) comes from a
stream of the slot alone and its contents from a stream of (slot, repeat):
a repeat of a slot costs the same work on fresh data, so no cache in the
program sees the same input twice.

The oracles never call the package: they recompute each answer by a
different route (closed-form boost in numpy, dynamic-programming path count,
log-domain phase sums, closed-form scan scaling, streaming XML parse).  Each
check returns a list of failure classes named ``<layer>.<what>``; an empty
list means the output passed.  Classes in SILENT are wrong answers that
look like results; every other class is a failure the user can see
(an exception, a non-zero exit, NaN, a document that does not parse).
"""

from __future__ import annotations

import csv
import json
import math
import traceback
import xml.parsers.expat
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LAYERS = ("kinematics", "diagrams", "invariants", "sympoly", "verify", "render", "cli")

# Failure classes that mean the program returned a wrong answer without
# signalling anything; any of them makes the run's "correct" false.
SILENT = frozenset(
    {
        "kinematics.coordinates",
        "diagrams.speed_class",
        "diagrams.direction",
        "diagrams.roles",
        "diagrams.count_mismatch",
        "diagrams.paths_invalid",
        "invariants.value_mismatch",
        "invariants.scan_class",
        "invariants.amplitude_mismatch",
        "sympoly.value_mismatch",
        "verify.sabotage_missed",
        "verify.nondeterministic",
    }
)


@dataclass
class Op:
    kind: str
    size: int
    payload: dict = field(default_factory=dict)


def _rng(seed: int, slot: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, slot & 0xFFFFFFFF, stream, 7919])


def _log_stratum(shape, lo: float, hi: float, j: int, strata: int) -> int:
    """Size near the log-centre of stratum j of [10**lo, 10**hi].

    The jitter spans a fifth of the stratum, so an op's cost depends on its
    position in the round and barely on the seed: the strata, not the
    draws, spread the sizes log-uniformly."""
    return int(round(10 ** (lo + (hi - lo) * (j + shape.uniform(0.4, 0.6)) / strata)))


def _reorder(plan: list, order: tuple[int, ...]) -> list:
    """Interleave the kinds of a round so that no kind runs in a block."""
    assert sorted(order) == list(range(len(plan)))
    return [plan[i] for i in order]


def raised_class(exc: BaseException) -> str:
    """Failure class of an exception: the layer of the innermost package frame."""
    layer = "bench"
    for frame in traceback.extract_tb(exc.__traceback__):
        parts = Path(frame.filename).parts
        if "superlum" in parts:
            stem = Path(frame.filename).stem
            layer = {"report": layer, "errors": layer}.get(stem, stem)
    return f"{layer}.raised.{type(exc).__name__}"


class Workload:
    """One benchmark workload.  Subclasses set `name` and `plan`, a list of
    (kind, stratum) pairs that makes up one round, and implement `make`,
    `call` and `check`.  Ops in `prelude` run once, before the first round.
    `make` draws the op's shape from `shape` and its contents from `rng`."""

    name = ""
    min_slots = 100  # p90 then keeps at least ten samples above it
    plan: list[tuple[str, int]] = []
    prelude: list[tuple[str, int]] = []
    warmup_slot: tuple[str, int] = ("", 0)

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny

    def round_of(self, slot: int) -> int:
        return max(0, slot - len(self.prelude)) // len(self.plan)

    def round_start(self, slot: int) -> bool:
        """True when slot begins a round, so that stopping here leaves whole rounds."""
        k = slot - len(self.prelude)
        return k >= 0 and k % len(self.plan) == 0

    def is_prelude(self, slot: int) -> bool:
        return slot < len(self.prelude)

    def op(self, slot: int, repeat: int = 0) -> Op:
        """The op of a slot; repeats keep its shape and redraw its contents."""
        k = slot - len(self.prelude)
        kind, stratum = self.prelude[slot] if k < 0 else self.plan[k % len(self.plan)]
        return self.make(kind, stratum, _rng(self.seed, slot, 0),
                         _rng(self.seed, slot, repeat + 1), slot)

    def warmup(self) -> Op:
        """The first, untimed op: small, drawn from its own stream."""
        kind, stratum = self.warmup_slot
        return self.make(kind, stratum, _rng(self.seed, -1, 0), _rng(self.seed, -1, 1), -1)

    def make(self, kind: str, stratum: int, shape, rng, slot: int) -> Op:
        raise NotImplementedError

    def call(self, sl, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify_sweep


class VerifySweep(Workload):
    """In-process `superlum verify` with seeds drawn from the stream.

    Seeds come from [0, 400).  One op per round of ten is sabotaged, with
    --break-antisymmetric-term and --perturb-cauchy in turn, and must exit 1
    with exactly the targeted check failing; the others must exit 0.  A
    repeated (seed, flags) pair must reproduce the output byte for byte.
    """

    name = "verify_sweep"
    plan = [("clean", 0)] * 9 + [("sabotage", 0)]
    warmup_slot = ("clean", 0)
    SEED_RANGE = 400

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.outputs: dict[tuple, bytes] = {}
        self.out_path = self.workdir / "verify.json"

    def make(self, kind, stratum, shape, rng, slot):
        vseed = int(rng.integers(0, self.SEED_RANGE))
        argv = ["verify", "--seed", str(vseed), "--output", str(self.out_path)]
        target = None
        if kind == "sabotage":
            if self.round_of(slot) % 2 == 0:
                argv.append("--break-antisymmetric-term")
                target = "superluminal_inverse_law"
            else:
                argv += ["--perturb-cauchy", repr(float(10 ** rng.uniform(-6, -2)))]
                target = "cauchy_condition"
        return Op(kind, 1, {"argv": argv, "seed": vseed, "target": target})

    def call(self, sl, op):
        if self.out_path.exists():
            self.out_path.unlink()
        code = sl.cli.main(list(op.payload["argv"]))
        data = self.out_path.read_bytes() if self.out_path.exists() else b""
        return code, data

    def check(self, op, out):
        code, data = out
        target = op.payload["target"]
        if code not in (0, 1) or not data:
            return [f"cli.exit_{code}"]
        report = json.loads(data)
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        fails = []
        key = tuple(op.payload["argv"][:3] + op.payload["argv"][5:])  # all but --output
        seen = self.outputs.setdefault(key, data)
        if seen != data:
            fails.append("verify.nondeterministic")
        if report["seed"] != op.payload["seed"] or code != (1 if failing else 0):
            fails.append("cli.exit_code")
        if target is None:
            if failing:
                fails.append("verify.check_failed")
        elif target not in failing:
            fails.append("verify.sabotage_missed")
        elif failing != {target}:
            fails.append("verify.check_failed")
        return fails


# ---------------------------------------------------------------------------
# diagram_frames

SUB_MAX = 0.7            # |dx/dt| of subluminal segments
SUPER_RANGE = (1.5, 6.0)  # |dx/dt| of superluminal segments
MARKUP = '<&"'


def bundle_scenario(rng, n_events: int, markup: bool) -> dict:
    """Tiles of one worldline each: slow leg, superluminal leg (an emission
    and an absorption), slow leg.  Four events and three segments per tile,
    tiles on a square grid far enough apart not to overlap."""
    tiles = max(1, n_events // 4)
    cols = int(math.ceil(math.sqrt(tiles)))
    j = np.arange(tiles)
    t0 = (j // cols) * 20.0 + rng.uniform(0, 1, tiles)
    x0 = (j % cols) * 20.0 + rng.uniform(0, 1, tiles)
    dts = rng.uniform(0.3, 2.0, (3, tiles))
    speeds = rng.uniform(-SUB_MAX, SUB_MAX, (3, tiles))
    fast = rng.uniform(*SUPER_RANGE, tiles) * rng.choice([-1.0, 1.0], tiles)
    speeds[1] = fast
    ts = [t0]
    xs = [x0]
    for leg in range(3):
        ts.append(ts[-1] + dts[leg])
        xs.append(xs[-1] + speeds[leg] * dts[leg])
    labels = [f"w{i}.{k}" for i in range(tiles) for k in range(4)]
    if markup:
        for i in rng.choice(len(labels), size=max(1, len(labels) // 50), replace=False):
            labels[i] = f'{labels[i]}{MARKUP[i % 3]}{MARKUP}'
    events = {}
    for i in range(tiles):
        for k in range(4):
            events[labels[4 * i + k]] = [float(ts[k][i]), float(xs[k][i])]
    segments = [[labels[4 * i + k], labels[4 * i + k + 1]]
                for i in range(tiles) for k in range(3)]
    return {"c": 1.0, "events": events, "segments": segments}


def boost_closed_form(kind: str, speed: float, t, x):
    """(a*(t - K*W*x), a*(x - W*t)) with K = 1, on both branches."""
    if kind == "infinite":
        return x.copy(), t.copy()
    if kind == "subluminal":
        a = 1.0 / math.sqrt(1.0 - speed * speed)
    else:
        a = -math.copysign(1.0, speed) / math.sqrt(speed * speed - 1.0)
    return a * (t - speed * x), a * (x - speed * t)


class _WellFormed:
    """Streaming XML well-formedness check that counts <circle> elements."""

    def __init__(self):
        self.circles = 0

    def start(self, name, attrs):
        if name == "circle":
            self.circles += 1

    def parse(self, text: str) -> bool:
        p = xml.parsers.expat.ParserCreate()
        p.StartElementHandler = self.start
        try:
            p.Parse(text, True)
        except xml.parsers.expat.ExpatError:
            return False
        return True


class DiagramFrames(Workload):
    """load_scenario(dict) -> transform_diagram -> resolved_segments ->
    role_report -> render_svg on tiled worldline bundles.

    Each run starts with one diagram of about 10**5 events; then every round
    holds 12 diagrams spread log-uniformly over 10**2..10**3.7 events.
    Short rounds spread each size stratum over the whole run, so that
    slow and fast spells of a shared machine affect every stratum alike.
    Boosts rotate through subluminal, superluminal and infinite.  One
    diagram of every 12 carries labels with markup characters.
    """

    name = "diagram_frames"
    SMALL, LARGE = (2.0, 3.7), (4.95, 5.0)
    prelude = [("large", 0)]
    plan = [("bundle", j) for j in range(12)]
    warmup_slot = ("bundle", 0)

    def make(self, kind, stratum, shape, rng, slot):
        if self.tiny:
            n = _log_stratum(shape, 1.3, 2.0, stratum % 4, 4)
        elif kind == "large":
            n = _log_stratum(shape, *self.LARGE, 0, 1)
        else:
            n = _log_stratum(shape, *self.SMALL, stratum, len(self.plan))
        boost_kind = ("subluminal", "superluminal", "infinite")[(stratum + self.round_of(slot)) % 3]
        if boost_kind == "subluminal":
            speed = float(rng.uniform(-0.9, 0.9))
        elif boost_kind == "superluminal":
            speed = float(10 ** rng.uniform(math.log10(1.2), math.log10(20.0)))
            speed *= float(rng.choice([-1.0, 1.0]))
        else:
            speed = math.inf
        markup = kind == "bundle" and stratum == 5
        scenario = bundle_scenario(rng, n, markup)
        return Op(kind, len(scenario["events"]),
                  {"scenario": scenario, "boost": (boost_kind, speed)})

    def call(self, sl, op):
        kind, speed = op.payload["boost"]
        if kind == "infinite":
            boost = sl.Boost.infinite()
        else:
            branch = sl.Branch.SUBLUMINAL if kind == "subluminal" else sl.Branch.SUPERLUMINAL
            boost = sl.Boost(branch, speed)
        sc = sl.diagrams.load_scenario(op.payload["scenario"])
        moved = sl.diagrams.transform_diagram(sc.diagram, boost)
        segs = sl.diagrams.resolved_segments(moved)
        roles = sl.diagrams.role_report(moved)
        svg = sl.render.render_svg(moved)
        return moved, segs, roles, svg

    def check(self, op, out):
        """Coordinates, speed classes, directions and roles against the closed
        form, computed on index arrays so that the oracle's own memory stays
        small next to the program's output (peak_rss_mb is the process's)."""
        moved, segs, roles, svg = out
        sc = op.payload["scenario"]
        kind, speed = op.payload["boost"]
        labels = list(sc["events"])
        n = len(labels)
        index = {k: i for i, k in enumerate(labels)}
        coords = np.fromiter((v for tx in sc["events"].values() for v in tx), float, 2 * n).reshape(n, 2)
        t_ref, x_ref = boost_closed_form(kind, speed, coords[:, 0], coords[:, 1])
        fails = []
        # rounding of a*t - a*W*x is relative to the size of its two terms
        a, w = (1.0, 1.0) if kind == "infinite" else (1.0 / math.sqrt(abs(1.0 - speed * speed)), abs(speed))
        tol = 1e-12 * (1.0 + a * (np.abs(coords[:, 0]) + w * np.abs(coords[:, 1])))
        try:
            got = np.fromiter((v for k in labels for v in (moved.events[k].t, moved.events[k].x)),
                              float, 2 * n).reshape(n, 2)
        except KeyError:
            got = None
        if got is None or len(moved.events) != n or not (
            np.all(np.abs(got[:, 0] - t_ref) <= tol) and np.all(np.abs(got[:, 1] - x_ref) <= tol)
        ):
            fails.append("kinematics.coordinates")

        def pair_key(ends):
            return np.minimum(ends[:, 0], ends[:, 1]) * n + np.maximum(ends[:, 0], ends[:, 1])

        ref = np.fromiter((index[k] for pair in sc["segments"] for k in pair), np.int64,
                          2 * len(sc["segments"])).reshape(-1, 2)
        sub = np.abs(np.diff(coords[:, 1][ref], axis=1)) < np.abs(np.diff(coords[:, 0][ref], axis=1))
        # a subluminal boost keeps every class; the other branch swaps them
        ref_super = ~sub[:, 0] if kind == "subluminal" else sub[:, 0]
        ref_key = pair_key(ref)
        ref_order = np.argsort(ref_key)
        ends = np.fromiter((index.get(k, -1) for s in segs for k in (s.start_label, s.end_label)),
                           np.int64, 2 * len(segs)).reshape(-1, 2)
        got_key = pair_key(ends)
        got_order = np.argsort(got_key)
        if len(segs) != len(ref) or np.any(ends < 0) or not np.array_equal(
                got_key[got_order], ref_key[ref_order]):
            fails += ["diagrams.speed_class", "diagrams.direction"]
            return fails + (["render.malformed_svg"] if not _svg_ok(svg, n) else [])
        classes = {"subluminal": 0, "superluminal": 1}
        got_class = np.fromiter((classes.get(s.speed_class.value, 2) for s in segs), np.int64, len(segs))
        expect_super = np.empty(len(segs), bool)
        expect_super[got_order] = ref_super[ref_order]
        if not np.array_equal(got_class, expect_super.astype(np.int64)):
            fails.append("diagrams.speed_class")
        if np.any(t_ref[ends[:, 0]] > t_ref[ends[:, 1]]):
            fails.append("diagrams.direction")
        # roles: the start of each superluminal segment emits, its end absorbs
        expected = np.unique(np.concatenate([3 * ends[expect_super, 0], 3 * ends[expect_super, 1] + 1]))
        role_code = {"emission": 0, "absorption": 1}
        got_roles = np.sort(np.fromiter((3 * index.get(label, -1) + role_code.get(role.value, 2)
                                         for label, role in roles), np.int64, len(roles)))
        if not np.array_equal(got_roles, expected):
            fails.append("diagrams.roles")
        if not _svg_ok(svg, n):
            fails.append("render.malformed_svg")
        return fails


def _svg_ok(svg: str, n_events: int) -> bool:
    """The document parses as XML and draws one circle per event."""
    wf = _WellFormed()
    return wf.parse(svg) and wf.circles == n_events


# ---------------------------------------------------------------------------
# path_census


def ladder_scenario(depth: int) -> dict:
    """Source, `depth` rungs of two events each, sink: 2**depth paths."""
    events = {"s": [0.0, 0.0], "t": [float(depth + 1), 0.0]}
    segments = []
    prev = ["s"]
    for i in range(1, depth + 1):
        rung = [f"a{i}", f"b{i}"]
        events[rung[0]] = [float(i), -0.3]
        events[rung[1]] = [float(i), 0.3]
        segments += [[p, r] for p in prev for r in rung]
        prev = rung
    segments += [[p, "t"] for p in prev]
    return {"c": 1.0, "events": events, "segments": segments}


def bundle_dag(rng, n_events: int) -> dict:
    """Many-source bundle: worldlines of five events, each linked forward
    to its neighbour, all ending in a few shared sinks.  The declared
    sinks add the middle event of the first worldline, so prefixes that
    stop there count as well."""
    length = 5
    lines = max(2, (n_events - 4) // length)
    n_sinks = max(1, lines // 40)
    events, segments = {}, []
    for i in range(lines):
        x = 0.5 * i + float(rng.uniform(0, 0.1))
        for j in range(length):
            events[f"l{i}.{j}"] = [float(j), x]
            if j:
                segments.append([f"l{i}.{j - 1}", f"l{i}.{j}"])
            if j and i and rng.uniform() < 0.5:
                segments.append([f"l{i - 1}.{j - 1}", f"l{i}.{j}"])
    for k in range(n_sinks):
        events[f"z{k}"] = [float(length + 1), 0.5 * k * lines / n_sinks]
    for i in range(lines):
        for k in {int(rng.integers(n_sinks)), i * n_sinks // lines}:
            segments.append([f"l{i}.{length - 1}", f"z{k}"])
    return {"c": 1.0, "events": events, "segments": segments,
            "source": "l0.0", "sinks": [f"z{k}" for k in range(n_sinks)] + ["l0.2"]}


def chain_scenario(n_events: int) -> dict:
    events = {f"c{i}": [float(i), 0.1 * (i % 2)] for i in range(n_events)}
    segments = [[f"c{i}", f"c{i + 1}"] for i in range(n_events - 1)]
    return {"c": 1.0, "events": events, "segments": segments,
            "source": "c0", "sinks": [f"c{n_events - 1}"]}


def terminals(scenario: dict) -> tuple[list, list]:
    """Census endpoints: events with only outgoing segments, and events with
    only incoming ones."""
    outs = {frm for frm, _ in scenario["segments"]}
    ins = {to for _, to in scenario["segments"]}
    return sorted(outs - ins), sorted(ins - outs)


def dp_count(scenario: dict, sources, sinks) -> int:
    """Exact count of chains from any source to any sink, over a
    topological order (Kahn), with no recursion."""
    labels = list(scenario["events"])
    out = {k: [] for k in labels}
    indeg = dict.fromkeys(labels, 0)
    for frm, to in scenario["segments"]:
        out[frm].append(to)
        indeg[to] += 1
    ways = dict.fromkeys(labels, 0)
    for s in sources:
        ways[s] = 1
    queue = [k for k in labels if not indeg[k]]
    remaining = dict(indeg)
    while queue:
        node = queue.pop()
        for nxt in out[node]:
            ways[nxt] += ways[node]
            remaining[nxt] -= 1
            if not remaining[nxt]:
                queue.append(nxt)
    sink_set = set(sinks)
    # a prefix must have at least one segment, so a source is never its own sink
    return sum(ways[k] - (1 if k in sources else 0) for k in sink_set)


def paths_ok(scenario: dict, paths, sources, sinks) -> bool:
    """Listed paths are distinct chains of segments from a source to a sink.

    Distinctness is judged on an array of the paths' hashes rather than a set
    of the paths, so the oracle adds 8 bytes per path to the process's peak
    memory; a hash collision can only report a false duplicate."""
    if any(len(p) < 2 for p in paths):
        return False
    hashes = np.fromiter(map(hash, paths), np.int64, len(paths))
    hashes.sort()  # in place: np.unique would allocate several times the array
    if np.any(hashes[1:] == hashes[:-1]):
        return False
    steps = set()
    for p in paths:
        steps.update(zip(p, p[1:]))
    return (steps <= {tuple(p) for p in scenario["segments"]}
            and {p[0] for p in paths} <= set(sources)
            and {p[-1] for p in paths} <= set(sinks))


class PathCensus(Workload):
    """count_paths_auto (and count_paths for declared source and sinks) on
    ladders of depth 10..18, many-source bundles of 10**2..2*10**3 events
    and chains of 3000..6000 events.

    Each run starts with the largest shapes, once: ladders of depth 17 and
    18 and a bundle of about 1.8*10**3 events, which together cost more than
    all the rest of a round.  Then every round holds the ladder depths
    10..16 once, eight bundles spread log-uniformly over 10**2..10**3 events,
    and two chains.  Ladders declare nothing; bundles and chains declare a
    source and sinks.
    """

    name = "path_census"
    prelude = [("ladder", 17), ("ladder", 18), ("bundle", -1)]
    plan = _reorder([("ladder", k) for k in range(10, 17)]
                    + [("bundle", j) for j in range(8)]
                    + [("chain", j) for j in range(2)],
                    (0, 7, 1, 15, 8, 2, 9, 3, 10, 4, 11, 16, 5, 12, 6, 13, 14))
    warmup_slot = ("ladder", 10)
    BUNDLE, LARGE_BUNDLE = (2.0, 3.0), (3.2, 3.3)
    CHAIN = (3000, 6000)

    def make(self, kind, stratum, shape, rng, slot):
        if kind == "ladder":
            depth = stratum if not self.tiny else 2 + stratum % 5
            sc = ladder_scenario(depth)
            return Op(kind, depth, {"scenario": sc})
        if kind == "bundle":
            lo, hi = (1.3, 1.8) if self.tiny else self.LARGE_BUNDLE if stratum < 0 else self.BUNDLE
            n = _log_stratum(shape, lo, hi, max(stratum, 0), 1 if stratum < 0 else 8)
            sc = bundle_dag(rng, n)
        else:
            lo, hi = (20, 40) if self.tiny else self.CHAIN
            sc = chain_scenario(_log_stratum(shape, math.log10(lo), math.log10(hi), stratum, 2))
        return Op(kind, len(sc["events"]), {"scenario": sc})

    def call(self, sl, op):
        sc = sl.diagrams.load_scenario(op.payload["scenario"])
        auto = sl.diagrams.count_paths_auto(sc.diagram)
        declared = None
        if sc.source is not None and sc.sinks:
            declared = sl.diagrams.count_paths(sc.diagram, sc.source, sc.sinks)
        return auto, declared

    def check(self, op, out):
        (total, sets), declared = out
        sc = op.payload["scenario"]
        fails = []
        listed = [p for ps in sets for p in ps.paths]
        sources, sinks = terminals(sc)
        if total != dp_count(sc, sources, sinks) or len(listed) != total:
            fails.append("diagrams.count_mismatch")
        elif not paths_ok(sc, listed, sources, sinks):
            fails.append("diagrams.paths_invalid")
        if "source" in sc:
            n, ps = declared
            if n != dp_count(sc, [sc["source"]], sc["sinks"]) or len(ps.paths) != n:
                fails.append("diagrams.count_mismatch")
            elif not paths_ok(sc, list(ps.paths), [sc["source"]], sc["sinks"]):
                fails.append("diagrams.paths_invalid")
        return sorted(set(fails))

    @staticmethod
    def paths_listed(out) -> int:
        (total, sets), declared = out
        return sum(len(ps.paths) for ps in sets) + (len(declared[1].paths) if declared else 0)


# ---------------------------------------------------------------------------
# phase_scan

PHASE_LOW, PHASE_HIGH = 0.0, math.pi
OVERFLOW_SPEC = (300.0, 0.0, 1.0)
EXP_MAX = 709.0


def _spec(rng, family: str) -> tuple[complex, float, float, float]:
    """(alpha, beta, gamma, expected slope of log median |P| vs log n).

    For real alpha and for imaginary alpha with |alpha|*pi < 3*pi/2 the
    mean of exp(alpha*phi) is far from zero, so |P| grows like
    n**(2*gamma - beta).  The slope is drawn near -1, 0 or +1, well clear
    of the +/-0.2 classification threshold."""
    if family == "overflow":
        a, b, g = OVERFLOW_SPEC
        return complex(a, 0.0), b, g, 2 * g - b
    mag = float(rng.uniform(0.5, 1.5)) if family == "imaginary" else float(rng.uniform(0.1, 1.0))
    alpha = complex(0.0, mag * rng.choice([-1.0, 1.0])) if family == "imaginary" else complex(mag, 0.0)
    gamma = float(rng.uniform(0.5, 1.5))
    slope = float(rng.choice([-1.0, 0.0, 1.0])) + float(rng.uniform(-0.03, 0.03))
    return alpha, 2 * gamma - slope, gamma, slope


def _expected_class(slope: float) -> str:
    return "diverging" if slope > 0.2 else "vanishing" if slope < -0.2 else "bounded"


def log_exp_sum(alpha: complex, phi: np.ndarray) -> complex:
    """log(sum_k exp(alpha*phi_k)) without overflow: shift by the largest
    real exponent and sum cos and sin parts separately."""
    re = alpha.real * phi
    m = float(re.max())
    w = np.exp(re - m)
    s = complex(float(np.sum(w * np.cos(alpha.imag * phi))),
                float(np.sum(w * np.sin(alpha.imag * phi))))
    return m + complex(math.log(abs(s)), math.atan2(s.imag, s.real))


def invariant_reference(alpha: complex, beta: float, gamma: float, phi) -> complex:
    """log P for the two-sided invariant, in the log domain."""
    lp = log_exp_sum(alpha, phi)
    lm = log_exp_sum(-alpha, phi)
    return -beta * math.log(phi.size) + gamma * (lp + lm)


def tail_bound(alphas, phi, truncation: int, beta_prime: float) -> float:
    """Series tail bound of the truncated coefficient expansion, the same
    formula the package checks, so that generated inputs never trip
    TruncationInsufficient without the generator calling the package."""
    mags = [abs(a) * np.abs(phi) for a in alphas]
    ceilings = [float(np.sum(np.exp(m))) for m in mags]
    total = 0.0
    for i, m in enumerate(mags):
        delta = float(np.sum(m ** (truncation + 1) * np.exp(m))) / math.factorial(truncation + 1)
        total += delta * math.prod(c for j, c in enumerate(ceilings) if j != i)
    return phi.size ** (-beta_prime) * total


class PhaseScan(Workload):
    """Phase-sum kernels at size: invariant_P on 10**2..10**6 phases,
    in-process `superlum scan` runs, amplitude, closed_product,
    expansion_reconstruction_check at order 2..4 and truncation 8..12, and
    newton_convolution_check.

    invariant_P and scan inputs rotate through imaginary alpha, real alpha
    and the spec alpha=300, beta=0, gamma=1 whose exponentials overflow; for
    that spec the only correct outcome is a named SuperlumError.
    """

    name = "phase_scan"
    # 16 rounds: the median falls among ops of about 2 ms whose costs rise
    # about 5% per rank, so at 8 rounds it moved 0.18 (IQR/median) over seeds
    min_slots = 16 * 13
    FAMILIES = ("imaginary", "real", "overflow")
    plan = _reorder([("invariant_P", j) for j in range(4)]
                    + [("scan", j) for j in range(3)]
                    + [("amplitude", 0), ("closed_product", 0), ("newton", 0)]
                    + [("expansion", n) for n in (2, 3, 4)],
                    (0, 4, 10, 1, 7, 5, 11, 2, 8, 6, 12, 3, 9))
    warmup_slot = ("expansion", 2)

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.scan_in = self.workdir / "scan.json"
        self.scan_out = self.workdir / "scan.csv"

    def _phases(self, rng, n):
        return rng.uniform(PHASE_LOW, PHASE_HIGH, n)

    def make(self, kind, stratum, shape, rng, slot):
        family = self.FAMILIES[(self.round_of(slot) + stratum) % 3]
        if kind == "invariant_P":
            lo, hi = (1.0, 2.0) if self.tiny else (2.0, 6.0)
            n = _log_stratum(shape, lo, hi, stratum, 4)
            alpha, beta, gamma, _ = _spec(rng, family)
            return Op(kind, n, {"spec": (alpha, beta, gamma), "phases": self._phases(rng, n)})
        if kind == "scan":
            alpha, beta, gamma, slope = _spec(rng, family)
            n_values = [30, 100, 300] if self.tiny else [100, 1000, 10000]
            return Op(kind, max(n_values), {
                "input": {"alpha": [alpha.real, alpha.imag], "beta": beta, "gamma": gamma,
                          "n_values": n_values, "trials": 20 if self.tiny else 100,
                          "sampler": {"low": PHASE_LOW, "high": PHASE_HIGH}},
                "seed": int(rng.integers(0, 2**31)), "slope": slope, "family": family})
        # shapes of the one-per-round kinds rotate with the round, so that a
        # run of whole rounds has the same op mix for every seed
        rnd = self.round_of(slot)
        size_stratum = rnd % 4
        if kind == "amplitude":
            n = _log_stratum(shape, 1.0, 2.0 if self.tiny else 5.0, size_stratum, 4)
            return Op(kind, n, {"phases": self._phases(rng, n),
                                "alpha_mag": float(rng.uniform(0.5, 2.0))})
        if kind == "closed_product":
            n = _log_stratum(shape, 1.0 if self.tiny else 2.0, 2.0 if self.tiny else 5.0, size_stratum, 4)
            order = 2 + rnd % 3
            imag = rnd % 2 == 1
            alphas = [complex(0, a) if imag else complex(a, 0)
                      for a in rng.uniform(-1.5 if imag else -1.0, 1.5 if imag else 1.0, order)]
            return Op(kind, n, {"alphas": alphas, "beta_prime": float(rng.uniform(0, 1)),
                                "phases": self._phases(rng, n)})
        if kind == "expansion":
            order = stratum
            truncation = 6 if self.tiny else 8 + (rnd + order) % 5
            a = float(rng.uniform(0.3, 0.8))
            alphas = ([a, -a, a / 2, -a / 2][:order]
                      if rnd % 2 == 0 else [1j * a, -1j * a, 0.5j * a, -0.5j * a][:order])
            n = 4 + rnd % 9
            phi_max = 1.0
            while True:
                phi = rng.uniform(-phi_max, phi_max, n)
                if tail_bound(alphas, phi, truncation, 1.0) <= 1e-10:
                    break
                phi_max /= 2
            return Op(kind, order, {"alphas": alphas, "phases": phi, "truncation": truncation})
        r = rnd % 9
        n, m = (_log_stratum(shape, 1.0, 2.5, size_stratum, 4) for _ in range(2))
        return Op(kind, n * m, {"r": r, "a": rng.uniform(-1, 1, n), "b": rng.uniform(-1, 1, m)})

    def call(self, sl, op):
        p = op.payload
        if op.kind == "invariant_P":
            alpha, beta, gamma = p["spec"]
            try:
                return sl.invariants.invariant_P(sl.InvariantSpec(alpha, beta, gamma), p["phases"])
            except sl.SuperlumError as exc:
                return exc
        if op.kind == "scan":
            self.scan_in.write_text(json.dumps(p["input"]), encoding="utf-8")
            if self.scan_out.exists():
                self.scan_out.unlink()
            code = sl.cli.main(["scan", "--input", str(self.scan_in), "--output",
                                str(self.scan_out), "--seed", str(p["seed"])])
            text = self.scan_out.read_text(encoding="utf-8") if self.scan_out.exists() else ""
            return code, text
        if op.kind == "amplitude":
            return sl.invariants.amplitude(p["phases"], p["alpha_mag"])
        if op.kind == "closed_product":
            ct = sl.CoefficientTensor(tuple(p["alphas"]), p["beta_prime"])
            return sl.sympoly.closed_product(ct, p["phases"])
        if op.kind == "expansion":
            ct = sl.CoefficientTensor(tuple(p["alphas"]), 1.0)
            return sl.sympoly.expansion_reconstruction_check(ct, p["phases"], p["truncation"])
        return sl.sympoly.newton_convolution_check(p["r"], p["a"], p["b"])

    def check(self, op, out):
        p = op.payload
        if op.kind == "invariant_P":
            ref = invariant_reference(*p["spec"], p["phases"])
            representable = ref.real < EXP_MAX
            if isinstance(out, Exception):
                return [] if not representable else ["invariants.raised." + type(out).__name__]
            if not (math.isfinite(out.real) and math.isfinite(out.imag)):
                return ["invariants.nonfinite_value"]
            if not representable or abs(out - np.exp(ref)) > 1e-9 * abs(np.exp(ref)):
                return ["invariants.value_mismatch"]
            return []
        if op.kind == "scan":
            code, text = out
            if p["family"] == "overflow" and code == 2:
                return []
            if code != 0 or not text:
                return [f"cli.exit_{code}"]
            rows = list(csv.reader(text.splitlines()))[1:]
            meds = [float(r[1]) for r in rows]
            if len(rows) != len(p["input"]["n_values"]) or not all(map(math.isfinite, meds)):
                return ["invariants.nonfinite_scan"]
            if {r[2] for r in rows} != {_expected_class(p["slope"])}:
                return ["invariants.scan_class"]
            return []
        if op.kind == "amplitude":
            phi = p["phases"] * p["alpha_mag"]
            ref = complex(float(np.cos(phi).mean()), float(np.sin(phi).mean()))
            if out.n_paths != phi.size or abs(out.value - ref) > 1e-12:
                return ["invariants.amplitude_mismatch"]
            return []
        if op.kind == "closed_product":
            phi = p["phases"]
            ref = sum(log_exp_sum(a, phi) for a in p["alphas"]) - p["beta_prime"] * math.log(phi.size)
            if not (math.isfinite(out.real) and math.isfinite(out.imag)):
                return ["sympoly.nonfinite_value"]
            if abs(out - np.exp(ref)) > 1e-9 * abs(np.exp(ref)):
                return ["sympoly.value_mismatch"]
            return []
        return [] if out.passed and out.deviation <= out.tol else ["sympoly.check_failed"]


WORKLOADS = {w.name: w for w in (VerifySweep, DiagramFrames, PathCensus, PhaseScan)}
