"""Command-line front end.

Subcommands: boost, compose, diagram, verify, scan, amplitude.  Exit codes:
0 success, 1 a verification check failed, 2 bad usage or invalid input.
Reports are JSON on stdout unless --output is given; a fixed --seed makes
them bit-identical across runs.  Each stream gets at most one document:
diagram --format svg without --output prints the SVG alone.

Each command imports the phase-sum, series, SVG and verify layers that it
runs, from the package root, when it runs: a boost starts without them.
"""

from __future__ import annotations

import functools
import json
import reprlib
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ._input import finite, is_label, is_number, read_json, whole
from .diagrams import (
    FIXTURE_NAMES,
    Scenario,
    SpeedClass,
    count_paths,
    count_paths_auto,
    load_fixture,
    load_scenario,
    role_report,
    transform_diagram,
)
from .errors import SuperlumError
from .kinematics import (
    Boost,
    Branch,
    Event1p1,
    Event1p3,
    K_from_c,
    boost_1p1,
    boost_1p3_subluminal,
    boost_1p3_superluminal,
    compose_boosts_1p1,
)

if TYPE_CHECKING:  # argparse is imported where the parser is built
    import argparse


# The field reader: every field of a JSON input is read through _read.  An
# error names the field by its JSON path, "key" at the top of the input,
# where.key below it and path[i] for a list item, and shows the value, cut
# to a few items and digits by reprlib, so that a long list or int in the
# input does not make a long message.

_REQUIRED = object()  # the default of a field that must be present
_BRANCHES = [b.value for b in Branch]
_KINDS = {"number": ("must be a JSON number", "numbers"), None: ("", "values"),
          "count": ("takes whole numbers >= 1", "whole numbers"),
          "complex": ("must be a number or an [re, im] pair", ""),
          "branch": (f"must be one of {_BRANCHES}", "")}  # kind: (rule, list noun)


def _read(obj, key: str, where: str = "input", default=_REQUIRED, kind: str | None = "number",
          lengths: tuple[int, ...] | None = None):
    """obj[key], or default when obj has no key, as a kind of value: a float
    for a JSON "number" (_input.is_number), an int for a "count", a whole
    number >= 1, a "complex" for a number or an [re, im] pair of them, a
    Branch for a "branch" label (_input.is_label), or any value for None.
    With lengths, a list of that kind of one of those lengths (any, when
    empty)."""
    if not isinstance(obj, dict):
        raise SuperlumError(f"{where} must be a JSON object, got {reprlib.repr(obj)}")
    if key not in obj and default is _REQUIRED:
        raise SuperlumError(f'{where} has no "{key}"')
    value, path = obj.get(key, default), f'"{key}"' if where == "input" else f"{where}.{key}"
    if lengths is None:
        return _as(kind, value, path)
    if not isinstance(value, list) or lengths and len(value) not in lengths:
        size = " or ".join(("two", "three", "four")[n - 2] for n in lengths) + " " if lengths else ""
        raise SuperlumError(f"{path} must be a list of {size}{_KINDS[kind][1]}, "
                            f"got {reprlib.repr(value)}")
    return [_as(kind, item, f"{path}[{i}]") for i, item in enumerate(value)]


def _as(kind: str | None, value, path: str):
    if kind is None:
        return value
    if kind == "branch" and is_label(value) and value in _BRANCHES:
        return Branch(value)
    if kind == "number" and is_number(value):
        return float(value)
    if kind == "count" and is_number(value) and value >= 1 and float(value).is_integer():
        return int(value)
    if kind == "complex":
        parts = value if isinstance(value, list) else [value, 0.0]
        if len(parts) == 2 and all(map(is_number, parts)):
            return complex(*map(float, parts))
    raise SuperlumError(f"{path} {_KINDS[kind][0]}, got {reprlib.repr(value)}")


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)  # not text + "\n", which would copy the whole text
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(data: dict, output: str | None) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=True), output)


def _parse_boost(obj, K: float, where: str, dims: int = 1) -> Boost:
    """A boost object: its speed a number, or for dims 3 a list of three."""
    branch = _read(obj, "branch", where, kind="branch")
    speed = _read(obj, "speed", where, lengths=None if dims == 1 else (dims,))
    return Boost(branch, speed if dims == 1 else tuple(speed), K)


def cmd_boost(args: argparse.Namespace) -> int:
    data = read_json(args.input)
    c = _read(data, "c", default=args.c)
    event = _read(data, "event", lengths=(2, 4))
    b = _parse_boost(_read(data, "boost", kind=None), K_from_c(c), "boost", len(event) - 1)
    if len(event) == 2:
        out = boost_1p1(Event1p1(*event), b)
        _dump({"event": [out.t, out.x], "branch": b.branch.value}, args.output)
        return 0
    e = Event1p3(event[0], tuple(event[1:]))
    if b.branch is Branch.SUBLUMINAL:
        out = boost_1p3_subluminal(e, b.speed, c)
        _dump({"event": [out.t, *out.r], "branch": "subluminal"}, args.output)
    else:
        sup = boost_1p3_superluminal(e, b.speed, c)
        _dump({"tvec": list(sup.tvec), "x": sup.x, "branch": "superluminal"},
              args.output)
    return 0


def cmd_compose(args: argparse.Namespace) -> int:
    data = read_json(args.input)
    K = K_from_c(_read(data, "c", default=args.c))
    boosts = _read(data, "boosts", kind=None, lengths=(2,))
    b1, b2 = (_parse_boost(obj, K, f"boosts[{i}]") for i, obj in enumerate(boosts))
    composed = compose_boosts_1p1(b1, b2)
    _dump({"branch": composed.branch.value, "speed": composed.speed, "K": composed.K,
           "velocity_composition": composed.speed}, args.output)  # the same law's speed
    return 0


# Items of the diagram report's lists are written this many to a string.
# Each % call holds its template and its fields at once, so one call for
# every item of a long list would raise the peak memory.
CHUNK = 1024


@functools.cache
def _layout(depth: int, brackets: str) -> tuple[str, str, str]:
    """What json.dumps(indent=2) writes before, between and after the items
    of a list, or with brackets "{}" an object, at nesting depth; cached,
    since every listed path asks for it."""
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner, "," + inner, "\n" + "  " * depth + brackets[1]


def _join(items: list[str], depth: int) -> str:
    """A list of items already written as JSON, laid out at depth by one
    join, which copies each item once."""
    head, sep, tail = _layout(depth, "[]")
    parts = [sep] * (2 * len(items) + 1)
    parts[1::2], parts[0], parts[-1] = items, head, tail
    return "".join(parts) if items else "[]"


def _rows(row: str, columns: list, depth: int, brackets: str = "[]") -> str:
    """The %-template row filled from each row of the columns, which hold
    its fields in order as text already written as JSON, CHUNK rows to a
    string, laid out at depth.  The first and last templates hold the
    brackets, so that a list of one chunk copies its fields once."""
    columns = [list(c) for c in columns]
    n = len(columns[0])
    head, sep, tail = _layout(depth, brackets)
    return sep.join([(head * (i == 0) + sep.join([row] * min(CHUNK, n - i))
                      + tail * (n - i <= CHUNK))
                     % tuple(chain.from_iterable(zip(*(c[i:i + CHUNK] for c in columns))))
                     for i in range(0, n, CHUNK)]) or brackets


# One item of each long list of objects in the diagram report, at the depth
# where the report holds it, as json.dumps(indent=2) lays it out.
_EVENT = '%s: [\n      %s,\n      %s\n    ]'
_SEGMENT = '{\n      "from": %s,\n      "speed_class": %s,\n      "to": %s\n    }'
_ROLE = '{\n      "event": %s,\n      "role": %s\n    }'
_encode = json.encoder.encode_basestring_ascii
_CLASS_NAMES = [_encode(k.value) for k in SpeedClass]  # a stored speed code indexes this


def _strings(values, depth: int) -> str:
    return _join(list(map(_encode, values)), depth)


def _object(fields: dict[str, str], depth: int) -> str:
    """A JSON object of values already written, with its keys sorted."""
    keys = sorted(fields)
    return _rows("%s: %s", [map(_encode, keys), map(fields.__getitem__, keys)], depth, "{}")


def _census(count: int, paths, **terminals: str) -> str:
    """The report's frame or declared section at depth 1: its terminal
    events, already written, its path count and its paths."""
    return _object({**terminals, "path_count": int.__repr__(count),
                    "paths": _join([_strings(path, 3) for path in paths], 2)}, 1)


def _report_text(sc: Scenario) -> str:
    """The diagram report of sc, as json.dumps(indent=2, sort_keys=True)
    writes it, straight from the frame's columns: numbers by their __repr__
    and labels by json's ASCII string encoder, as json writes them.  Roles,
    the frame's census and the declared census are taken in that order, so
    the first fault found is the one raised."""
    d = sc.diagram
    roles = role_report(d)
    count, sets = count_paths_auto(d)  # a frame with no source has no segment, so no sink
    sections = {"c": float.__repr__(d.c),
                "roles": _rows(_ROLE, [[_encode(label) for label, _ in roles],
                                       [_encode(role.value) for _, role in roles]], 1),
                "frame": _census(count, (p for ps in sets for p in ps.paths),
                                 sources=_strings((ps.source for ps in sets), 2),
                                 sinks=_strings(sets[0].sinks if sets else (), 2))}
    if sc.source is not None and sc.sinks:
        count, declared = count_paths(d, sc.source, sc.sinks)
        sections["declared"] = _census(count, declared.paths, source=_encode(sc.source),
                                       sinks=_strings(sc.sinks, 2))
    by_label = d._by_label
    t, x = d._xy[by_label].T.tolist()
    sections["events"] = _rows(_EVENT, [map(_encode, d._labels[by_label].tolist()),
                                        map(float.__repr__, t), map(float.__repr__, x)], 1, "{}")
    ends = d._labels[d._seg]
    sections["segments"] = _rows(_SEGMENT, [map(_encode, ends[:, 0].tolist()),
                                            map(_CLASS_NAMES.__getitem__, d._codes.tolist()),
                                            map(_encode, ends[:, 1].tolist())], 1)
    return _object(sections, 0)


def cmd_diagram(args: argparse.Namespace) -> int:
    sc = (load_fixture if args.input in FIXTURE_NAMES else load_scenario)(args.input)
    d = sc.diagram
    K = K_from_c(d.c)
    if args.infinite:
        d = transform_diagram(d, Boost.infinite(K))
    elif args.boost_v is not None:
        d = transform_diagram(d, Boost(Branch.SUBLUMINAL, args.boost_v, K))
    elif args.boost_w is not None:
        d = transform_diagram(d, Boost(Branch.SUPERLUMINAL, args.boost_w, K))
    sc = Scenario(d, sc.source, sc.sinks)
    if args.format == "json":
        _emit(_report_text(sc), args.output)
        return 0
    from . import render_svg

    if args.output:
        report = _report_text(sc)  # first, so a rejected scenario writes no file
        _emit(render_svg(d, title=args.title), args.output)
        _emit(report, None)
    else:
        _emit(render_svg(d, title=args.title), None)  # the SVG alone on stdout
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import run_suite, suite_report

    timings = {} if args.timings else None
    knobs = {"tolerance": args.tolerance, "perturb_cauchy": args.perturb_cauchy,
             "break_antisymmetric_term": args.break_antisymmetric_term}
    reports = run_suite(seed=args.seed, timings=timings, **knobs)
    if timings is not None:
        sys.stderr.write(json.dumps({"row_seconds": timings}) + "\n")
    payload = suite_report(reports, args.seed, **knobs)
    _dump(payload, args.output)
    return 0 if payload["all_passed"] else 1


def cmd_scan(args: argparse.Namespace) -> int:
    from . import InvariantSpec, finiteness_scan, uniform_phase_sampler

    data = read_json(args.input) if args.input else {}
    spec = InvariantSpec(_read(data, "alpha", default=[0.0, 1.0], kind="complex"),
                         _read(data, "beta", default=2.0),
                         _read(data, "gamma", default=1.0))
    bounds = _read(data, "sampler", default={}, kind=None)
    # the sampler checks its own bounds by the number rule, and names both
    sampler = uniform_phase_sampler(_read(bounds, "low", '"sampler"', 0.0, kind=None),
                                    _read(bounds, "high", '"sampler"', np.pi, kind=None))
    result = finiteness_scan(
        spec,
        _read(data, "n_values", default=[100, 1000, 10000], kind="count", lengths=()),
        sampler,
        trials=_read(data, "trials", default=100, kind="count"),
        rng=np.random.default_rng(whole("seed", args.seed)),
    )
    # the bytes csv.writer writes: no field needs quoting
    _emit("".join(["n,median_abs_P,classification\r\n",
                   *(f"{n},{med!r},{label}\r\n" for n, med, label in result.rows())]),
          args.output)
    return 0


def cmd_amplitude(args: argparse.Namespace) -> int:
    from . import amplitude

    data = read_json(args.input)
    amp = amplitude(_read(data, "phases", lengths=()), _read(data, "alpha_mag", default=1.0))
    _dump({"value": [amp.value.real, amp.value.imag], "probability": abs(amp.value) ** 2,
           "n_paths": amp.n_paths}, args.output)
    return 0


def _finite(text: str) -> float:
    """An argparse type: a float that must be finite (_input.finite)."""
    import argparse

    try:
        return finite("value", float(text))
    except ValueError:  # not a number, or NonfiniteInput
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="superlum",
        description="Subluminal and superluminal boosts, spacetime diagrams, "
        "and path-count invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, required=True, light_speed=False,
                inputs="input JSON path",
                output="output file (default stdout)") -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if inputs:
            p.add_argument("--input", required=required, help=inputs)
        p.add_argument("--output", help=output)
        if light_speed:
            p.add_argument("--c", type=float, default=1.0,
                           help="light speed, unless the input sets c")
        return p

    command("boost", cmd_boost, "transform one event", light_speed=True)
    command("compose", cmd_compose, "compose two boosts", light_speed=True)

    p_diagram = command(
        "diagram", cmd_diagram, "render a scenario and report roles and paths",
        inputs=f"scenario JSON path or fixture name {FIXTURE_NAMES}",
        output="file for the --format document (default stdout); with --format "
        "svg and --output, the JSON report goes to stdout")
    p_diagram.add_argument("--format", choices=("svg", "json"), default="svg")
    p_diagram.add_argument("--title", default=None)
    group = p_diagram.add_mutually_exclusive_group()
    group.add_argument("--boost-v", type=float, default=None,
                       help="apply a subluminal boost before reporting")
    group.add_argument("--boost-w", type=float, default=None,
                       help="apply a superluminal boost before reporting")
    group.add_argument("--infinite", action="store_true",
                       help="apply the infinite-speed axis swap")

    p_verify = command("verify", cmd_verify, "run the verification suite", inputs=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", type=_finite, default=None,
                          help="replace every default pass tolerance")
    p_verify.add_argument(
        "--break-antisymmetric-term", action="store_true",
        help="sabotage: drop the W/|W| factor from superluminal matrices",
    )
    p_verify.add_argument(
        "--perturb-cauchy", type=_finite, default=0.0, metavar="EPS",
        help="sabotage: add EPS to one expansion coefficient",
    )
    p_verify.add_argument(
        "--timings", action="store_true",
        help="write the seconds of each suite row to stderr as one JSON object",
    )

    p_scan = command("scan", cmd_scan, "finiteness scan over path counts", required=False,
                     inputs="scan parameters JSON path", output="CSV output path (default stdout)")
    p_scan.add_argument("--seed", type=int, default=0)

    command("amplitude", cmd_amplitude, "sum a phase set into an amplitude")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reads every command line with, built once per process:
    building it costs about 1 ms, and parse_args fills a new namespace each
    call, so nothing carries over from one command line to the next."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SuperlumError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
