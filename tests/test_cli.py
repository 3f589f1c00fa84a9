"""End-to-end command-line behavior: exit codes, JSON reports, artifacts."""

import csv
import io
import json
import math
import os
import re
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superlum import cli
from superlum.cli import build_parser, main
from superlum.diagrams import (
    Scenario,
    count_paths,
    count_paths_auto,
    resolved_segments,
    role_report,
    scenario_from_dict,
    scenario_to_dict,
    terminal_events,
    transform_diagram,
)
from superlum.kinematics import Boost, Branch


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# boost


def test_boost_zero_velocity_is_identity(tmp_path, capsys):
    inp = _write(
        tmp_path, "b.json",
        {"event": [0.75, -0.25], "boost": {"branch": "subluminal", "speed": 0.0}},
    )
    code, out, _ = _run(capsys, "boost", "--input", inp)
    assert code == 0
    assert json.loads(out)["event"] == [0.75, -0.25]


def test_a_boost_event_that_is_not_finite_is_named(tmp_path, capsys):
    inp = _write(
        tmp_path, "b.json",
        {"event": [math.inf, 0.0], "boost": {"branch": "subluminal", "speed": 0.5}},
    )
    code, out, err = _run(capsys, "boost", "--input", inp)
    assert (code, out) == (2, "")
    assert err == "error: NonfiniteInput: t must be finite, got inf\n"


def test_boost_huge_speed_swaps_axes(tmp_path, capsys):
    inp = _write(
        tmp_path, "b.json",
        {"event": [1.0, 0.0], "boost": {"branch": "superluminal", "speed": 1e9}},
    )
    code, out, _ = _run(capsys, "boost", "--input", inp)
    assert code == 0
    t, x = json.loads(out)["event"]
    assert abs(t) < 1e-8 and x == pytest.approx(1.0, rel=1e-8)


def test_boost_far_above_c_is_not_all_zeros(tmp_path, capsys):
    inp = _write(
        tmp_path, "b.json",
        {"event": [1.0, 2.0], "boost": {"branch": "superluminal", "speed": 1e200}},
    )
    code, out, _ = _run(capsys, "boost", "--input", inp)
    assert code == 0
    assert json.loads(out)["event"] == [2.0, 1.0]


def test_boost_at_light_speed_names_the_violation(tmp_path, capsys):
    inp = _write(
        tmp_path, "b.json",
        {"event": [1.0, 0.0], "boost": {"branch": "subluminal", "speed": 1.0}},
    )
    code, _, err = _run(capsys, "boost", "--input", inp)
    assert code == 2
    assert "BranchSpeedViolation" in err


def test_boost_handles_vector_events(tmp_path, capsys):
    inp = _write(
        tmp_path, "b.json",
        {
            "event": [0.0, 0.0, 1.0, 0.0],
            "boost": {"branch": "superluminal", "speed": [2.0, 0.0, 0.0]},
        },
    )
    code, out, _ = _run(capsys, "boost", "--input", inp)
    assert code == 0
    data = json.loads(out)
    assert data["tvec"] == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
    assert data["x"] == pytest.approx(0.0, abs=1e-15)


def test_boost_rejects_malformed_event(tmp_path, capsys):
    inp = _write(
        tmp_path, "b.json",
        {"event": [1.0, 0.0, 0.0], "boost": {"branch": "subluminal", "speed": 0.1}},
    )
    code, _, err = _run(capsys, "boost", "--input", inp)
    assert code == 2 and "event" in err


@pytest.mark.parametrize("event,speed,names", [
    ([1e308, -1e308], 1.0001, "Event1p1(t=1e+308, x=-1e+308)"),
    ([1e308, -1e308, 0, 0], [1.0001, 0, 0], "Event1p3(t=1e+308, r=(-1e+308, 0.0, 0.0))"),
])
def test_boost_result_beyond_a_float_names_the_event_and_the_boost(
        tmp_path, capsys, event, speed, names):
    inp = _write(tmp_path, "b.json",
                 {"event": event, "boost": {"branch": "superluminal", "speed": speed}})
    code, out, err = _run(capsys, "boost", "--input", inp)
    assert code == 2 and out == ""
    assert err.startswith(f"error: NonfiniteResult: event {names} boosted to superluminal "
                          f"speed {tuple(map(float, speed)) if len(event) == 4 else speed!r}")
    assert "10**310.151, beyond a float" in err


def test_boost_missing_input_file(capsys):
    code, _, err = _run(capsys, "boost", "--input", "/no/such/file.json")
    assert code == 2 and "FileNotFoundError" in err


# ---------------------------------------------------------------------------
# compose


def test_compose_reports_branch_and_velocity(tmp_path, capsys):
    inp = _write(
        tmp_path, "c.json",
        {
            "boosts": [
                {"branch": "superluminal", "speed": 2.0},
                {"branch": "superluminal", "speed": 3.0},
            ]
        },
    )
    code, out, _ = _run(capsys, "compose", "--input", inp)
    assert code == 0
    data = json.loads(out)
    assert data["branch"] == "subluminal"
    assert data["speed"] == pytest.approx(5.0 / 7.0, rel=1e-12)
    assert data["velocity_composition"] == pytest.approx(5.0 / 7.0, rel=1e-12)


def test_compose_requires_exactly_two(tmp_path, capsys):
    inp = _write(
        tmp_path, "c.json",
        {"boosts": [{"branch": "subluminal", "speed": 0.5}]},
    )
    code, _, err = _run(capsys, "compose", "--input", inp)
    assert code == 2 and "two" in err


def test_compose_with_an_infinite_speed_prints_strict_json(tmp_path, capsys):
    inp = _write(
        tmp_path, "c.json",
        {
            "boosts": [
                {"branch": "subluminal", "speed": 0.5},
                {"branch": "superluminal", "speed": math.inf},  # written Infinity
            ]
        },
    )
    code, out, _ = _run(capsys, "compose", "--input", inp)
    assert code == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    data = json.loads(out, parse_constant=reject)
    assert data["branch"] == "superluminal"
    assert data["speed"] == 2.0 and data["velocity_composition"] == 2.0


@pytest.mark.parametrize(
    "command,payload,message",
    [
        ("boost", {"boost": {"branch": "subluminal", "speed": 0.1}},
         'input has no "event"'),
        ("boost", {"event": [1.0, 0.0], "boost": {"branch": "subluminal"}},
         'boost has no "speed"'),
        ("compose", {"boosts": [{"branch": "subluminal"},
                                {"branch": "subluminal", "speed": 0.1}]},
         'boosts[0] has no "speed"'),
    ],
)
def test_missing_fields_are_named(tmp_path, capsys, command, payload, message):
    inp = _write(tmp_path, "in.json", payload)
    code, _, err = _run(capsys, command, "--input", inp)
    assert code == 2
    assert message in err and "KeyError" not in err


# ---------------------------------------------------------------------------
# diagram


def test_diagram_fixture_report(capsys):
    code, out, _ = _run(capsys, "diagram", "--input", "fig2a", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["roles"] == [{"event": "A", "role": "emission"},
                             {"event": "B", "role": "absorption"}]
    assert data["segments"] == [
        {"from": "A", "to": "B", "speed_class": "superluminal"}
    ]


def test_diagram_boosted_roles_swap(capsys):
    code, out, _ = _run(
        capsys, "diagram", "--input", "fig2a", "--format", "json",
        "--boost-v", "0.8",
    )
    assert code == 0
    roles = {r["event"]: r["role"] for r in json.loads(out)["roles"]}
    assert roles == {"A": "absorption", "B": "emission"}


def test_diagram_infinite_boost_path_count(capsys):
    code, out, _ = _run(
        capsys, "diagram", "--input", "fig5a", "--format", "json", "--infinite"
    )
    assert code == 0
    data = json.loads(out)
    assert data["frame"]["path_count"] == 3
    assert data["frame"]["sources"] == ["S"]


def test_diagram_svg_artifact(tmp_path, capsys):
    svg_path = tmp_path / "scene.svg"
    code, out, _ = _run(
        capsys, "diagram", "--input", "fig2a", "--output", str(svg_path)
    )
    assert code == 0
    svg = svg_path.read_text(encoding="utf-8")
    assert svg.startswith("<svg") and svg.count('stroke-dasharray="7,5"') == 1
    # the role/path report still lands on stdout
    assert json.loads(out)["frame"]["path_count"] == 1


def test_diagram_svg_stdout_is_one_xml_document(capsys):
    code, out, _ = _run(capsys, "diagram", "--input", "fig2a")
    assert code == 0
    assert ElementTree.fromstring(out).tag.endswith("svg")


def test_diagram_json_output_file(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, "diagram", "--input", "fig5a", "--format", "json",
        "--output", str(report_path),
    )
    assert code == 0 and out == ""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["frame"]["path_count"] == 2


def test_diagram_of_no_events_draws_as_it_reports(tmp_path, capsys):
    """Defect (p): the SVG of an empty scenario exited 2 with numpy's
    zero-size reduction error, while its JSON report exited 0."""
    inp = _write(tmp_path, "empty.json", {"events": {}, "segments": []})
    code, out, err = _run(capsys, "diagram", "--input", inp, "--format", "svg")
    assert code == 0 and err == ""
    root = ElementTree.fromstring(out)
    assert root.get("width") == "208" and not root.findall("{http://www.w3.org/2000/svg}circle")
    code, out, _ = _run(capsys, "diagram", "--input", inp, "--format", "json")
    assert code == 0
    assert json.loads(out)["events"] == {} and json.loads(out)["frame"]["path_count"] == 0


@st.composite
def _scenario(draw):
    """A DAG over any text labels, each event after its predecessors in time,
    with up to two of them, so that a source may reach a sink by several
    paths, some segments faster than light and some on the cone.  Some
    scenarios declare a source and sinks, which may repeat and come in any
    order.  The frame is moved by a boost of either branch or none."""
    labels = draw(st.lists(st.text(max_size=5), min_size=2, max_size=14, unique=True))
    events = {label: [i + draw(st.sampled_from([0.0, 0.5])),
                      draw(st.one_of(st.integers(-3, 3).map(float), st.floats(-3, 3)))]
              for i, label in enumerate(labels)}
    segments = [[labels[i], label] for j, label in enumerate(labels[1:], 1)
                for i in sorted(draw(st.sets(st.integers(0, j - 1), max_size=2)))]
    ends = {label for pair in segments for label in pair}
    data = {"c": draw(st.sampled_from([1.0, 2.0])),
            "events": {k: v for k, v in events.items() if k in ends}, "segments": segments}
    if segments and draw(st.booleans()):
        named = list(data["events"])
        data["source"] = draw(st.sampled_from(named))
        data["sinks"] = draw(st.lists(st.sampled_from(named), min_size=1, max_size=4))
    sc = scenario_from_dict(data)
    K = 1.0 / (sc.diagram.c * sc.diagram.c)
    boost = draw(st.sampled_from([None, Boost(Branch.SUBLUMINAL, 0.3, K),
                                  Boost(Branch.SUPERLUMINAL, -3.0, K), Boost.infinite(K)]))
    if boost is None:
        return sc
    return Scenario(transform_diagram(sc.diagram, boost), sc.source, sc.sinks)


def _report(sc: Scenario) -> dict:
    """The diagram report as a dict, from the public functions: the oracle
    of the report writer."""
    d = sc.diagram
    roles = [{"event": label, "role": role.value} for label, role in role_report(d)]
    sources, sinks = terminal_events(d)
    count, sets = count_paths_auto(d)
    report = {
        "c": d.c,
        "events": scenario_to_dict(sc)["events"],
        "segments": [{"from": s.start_label, "to": s.end_label,
                      "speed_class": s.speed_class.value} for s in resolved_segments(d)],
        "roles": roles,
        "frame": {"sources": list(sources), "sinks": list(sinks), "path_count": count,
                  "paths": [list(p) for ps in sets for p in ps.paths]},
    }
    if sc.source is not None and sc.sinks:
        count, declared = count_paths(d, sc.source, sc.sinks)
        report["declared"] = {"source": sc.source, "sinks": list(sc.sinks),
                              "path_count": count, "paths": [list(p) for p in declared.paths]}
    return report


_UNSORTED = scenario_from_dict({"events": {"u": [2, 0], "s": [0, 0], "t": [1, 0.5], "a": [3, 9]},
                                "segments": [["u", "a"], ["s", "t"], ["t", "u"]],
                                "source": "s", "sinks": ["u", "t", "u"]})


@given(_scenario())
@example(scenario_from_dict({"events": {"s": [0, 0], "t": [1, 0], "u": [2, 0]},
                             "segments": [["s", "t"], ["t", "u"]],
                             "source": "s", "sinks": ["u", "t", "u"]}))
@example(_UNSORTED)
@example(Scenario(transform_diagram(_UNSORTED.diagram, Boost(Branch.SUPERLUMINAL, -3.0)),
                  _UNSORTED.source, _UNSORTED.sinks))
@settings(max_examples=200, deadline=None)
def test_the_report_writer_writes_the_bytes_of_indented_json_dumps(sc):
    """The report's bytes, and its events, the scenario dict's events and
    the frame's terminal events in label order, however the labels were
    loaded and whether or not the frame was boosted."""
    report = _report(sc)
    assert cli._report_text(sc) == json.dumps(report, indent=2, sort_keys=True)
    assert list(report["events"]) == sorted(sc.diagram.events)
    assert list(json.loads(cli._report_text(sc))["events"]) == list(report["events"])
    for labels in terminal_events(sc.diagram):
        assert list(labels) == sorted(labels)


def _ladder(rungs: int) -> dict:
    """A source s, rungs of two events each, and a sink t: 2**rungs paths."""
    events = {"s": [0.0, 0.0], "t": [float(rungs + 1), 0.0]}
    segments, prev = [], ["s"]
    for i in range(1, rungs + 1):
        rung = [f"a{i}", f"b{i}"]
        events.update({rung[0]: [float(i), -0.3], rung[1]: [float(i), 0.3]})
        segments += [[p, r] for p in prev for r in rung]
        prev = rung
    return {"events": events, "segments": segments + [[p, "t"] for p in prev]}


@pytest.mark.parametrize("rungs", [10, 12])
def test_the_report_of_a_ladder_is_the_bytes_of_indented_json_dumps(rungs):
    """Thousands of listed paths, in the frame and in a declared census whose
    sinks repeat and are not sorted, each path ending on a rung or on t."""
    sc = scenario_from_dict({**_ladder(rungs), "source": "s",
                             "sinks": ["t", f"b{rungs // 2}", "t", "a3", f"b{rungs // 2}"]})
    report = _report(sc)
    assert report["frame"]["path_count"] == 2 ** rungs
    assert report["declared"]["sinks"] == ["t", f"b{rungs // 2}", "t", "a3", f"b{rungs // 2}"]
    assert cli._report_text(sc) == json.dumps(report, indent=2, sort_keys=True)


def test_stdout_gets_the_text_with_no_copy_of_it(monkeypatch):
    """_emit added the last newline by concatenation, a second copy of the
    whole document before the stream encoded it: 2.0 times the text at the
    allocation peak."""
    text = "x" * (20 << 20)
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            cli._emit(text, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * len(text)


def test_diagram_deep_chain(tmp_path, capsys):
    n = 3000
    inp = _write(
        tmp_path, "chain.json",
        {
            "events": {f"c{i}": [float(i), 0.1 * (i % 2)] for i in range(n)},
            "segments": [[f"c{i}", f"c{i + 1}"] for i in range(n - 1)],
        },
    )
    code, out, _ = _run(capsys, "diagram", "--input", inp, "--format", "json")
    assert code == 0
    frame = json.loads(out)["frame"]
    assert frame["path_count"] == 1 and len(frame["paths"][0]) == n


def test_diagram_scenario_file_rejects_unknown_sink(tmp_path, capsys):
    inp = _write(
        tmp_path, "scene.json",
        {
            "c": 1.0,
            "events": {"A": [0.0, 0.0], "B": [1.0, 0.5]},
            "segments": [["A", "B"]],
            "source": "A",
            "sinks": ["Z"],
        },
    )
    code, _, err = _run(capsys, "diagram", "--input", inp, "--format", "json")
    assert code == 2 and "InvalidScenario" in err


def test_diagram_scenario_names_a_malformed_event(tmp_path, capsys):
    inp = _write(
        tmp_path, "s.json",
        {"events": {"a": [0.0, 0.0], "b": [1.5]}, "segments": [["a", "b"]]},
    )
    code, out, err = _run(capsys, "diagram", "--input", inp, "--format", "json")
    assert code == 2 and out == ""
    assert "InvalidScenario" in err and "'b'" in err and "[1.5]" in err


@pytest.mark.parametrize("scenario,named", [
    ({"events": {"a": [0.0, 0.0], "b": [10**400, 1.0]}}, "'b'"),
    ({"c": 10**400, "events": {"a": [0.0, 0.0], "b": [1.0, 0.5]}}, "light speed c"),
])
def test_diagram_scenario_names_a_number_beyond_the_float_range(
        tmp_path, capsys, scenario, named):
    inp = _write(tmp_path, "s.json", {**scenario, "segments": [["a", "b"]]})
    code, out, err = _run(capsys, "diagram", "--input", inp, "--format", "json")
    assert code == 2 and out == ""
    assert "InvalidScenario" in err and named in err


def test_diagram_light_speed_whose_K_overflows_is_named(tmp_path, capsys):
    inp = _write(
        tmp_path, "s.json",
        {"c": 1e-200, "events": {"a": [0.0, 0.0], "b": [1.0, 0.5]},
         "segments": [["a", "b"]]},
    )
    code, out, err = _run(capsys, "diagram", "--input", inp, "--format", "json")
    assert code == 2 and out == ""
    assert "NonpositiveK" in err and "c=1e-200" in err


@pytest.mark.parametrize("boost", [(), ("--boost-v", "0.5")])
def test_diagram_light_speed_whose_K_underflows_is_named(tmp_path, capsys, boost):
    inp = _write(
        tmp_path, "s.json",
        {"c": 1e200, "events": {"a": [0.0, 0.0], "b": [1.0, 0.5]},
         "segments": [["a", "b"]]},
    )
    code, out, err = _run(capsys, "diagram", "--input", inp, "--format", "json", *boost)
    assert code == 2 and out == ""
    assert "NonpositiveK" in err and "c=1e+200" in err and "underflows" in err


def test_diagram_scenario_names_a_malformed_segment(tmp_path, capsys):
    inp = _write(
        tmp_path, "s.json",
        {"events": {"a": [0.0, 0.0], "b": [1.0, 0.5]}, "segments": [["a", "b"], ["a"]]},
    )
    code, out, err = _run(capsys, "diagram", "--input", inp, "--format", "json")
    assert code == 2 and out == ""
    assert "InvalidScenario" in err and "segment 1" in err and "['a']" in err


@pytest.mark.parametrize("segment", ["ab", {"a": 1, "b": 2}])
def test_diagram_scenario_rejects_a_two_item_segment_that_is_no_pair(segment, tmp_path,
                                                                     capsys):
    inp = _write(
        tmp_path, "s.json",
        {"events": {"a": [0.0, 0.0], "b": [1.0, 0.5]}, "segments": [["a", "b"], segment]},
    )
    code, out, err = _run(capsys, "diagram", "--input", inp, "--format", "json")
    assert code == 2 and out == ""
    assert "InvalidScenario" in err and "segment 1" in err and repr(segment) in err


def test_diagram_boost_overflow_names_the_event(tmp_path, capsys):
    inp = _write(
        tmp_path, "s.json",
        {"events": {"A": [1e308, -1e308], "B": [0, 0]}, "segments": [["A", "B"]]},
    )
    code, out, err = _run(capsys, "diagram", "--input", inp, "--format", "json",
                          "--boost-w", "1.0001")
    assert code == 2 and out == ""
    assert "NonfiniteResult" in err and "'A'" in err and "1.0001" in err


def test_diagram_scenario_rejects_a_string_of_sinks(tmp_path, capsys):
    inp = _write(tmp_path, "s.json", {
        "events": {"a": [0, 0], "b": [1, 0], "c": [2, 0]},
        "segments": [["a", "b"], ["b", "c"]], "source": "a", "sinks": "bc"})
    code, out, err = _run(capsys, "diagram", "--input", inp, "--format", "json")
    assert code == 2 and out == ""
    assert "InvalidScenario: sinks must list event labels, got 'bc'" in err


@pytest.mark.parametrize("fmt", ["svg", "json"])
def test_diagram_too_large_to_draw_names_the_event(tmp_path, capsys, fmt):
    inp = _write(tmp_path, "s.json",
                 {"events": {"A": [1e308, 0], "B": [0, 0]}, "segments": [["B", "A"]]})
    svg = tmp_path / "d.svg"
    argv = ["--output", str(svg)] if fmt == "json" else []
    code, out, err = _run(capsys, "diagram", "--input", inp, *argv)
    assert code == 2 and out == "" and not svg.exists()
    assert "NonfiniteResult: event 'A' at t=1e+308, x=0.0" in err


@pytest.mark.parametrize("label,title,named", [
    ("\ud800", "t", "event label '\\ud800'"),
    ("a", "x\udfff", "title 'x\\udfff'"),
])
def test_diagram_text_utf8_cannot_encode_is_named_before_any_file_opens(
        tmp_path, capsys, label, title, named):
    """A label or title holding a lone surrogate exited 2 with a bare
    UnicodeEncodeError, and left an empty --output file behind; the JSON
    report escapes the surrogate and still exits 0."""
    inp = _write(tmp_path, "s.json",
                 {"events": {label: [0, 0], "B": [1, 0.5]}, "segments": [[label, "B"]]})
    svg = tmp_path / "d.svg"
    code, out, err = _run(capsys, "diagram", "--input", inp, "--title", title,
                          "--output", str(svg))
    assert code == 2 and out == "" and not svg.exists()
    assert f"InvalidScenario: {named} holds a lone surrogate" in err
    code, out, err = _run(capsys, "diagram", "--input", inp, "--title", title,
                          "--format", "json")
    assert code == 0 and err == "" and json.loads(out)["roles"] == []


@pytest.mark.parametrize("label, title, named", [
    ("a\x01b", None, "event label 'a\\x01b'"),
    ("a\ufffeb", None, "event label 'a\\ufffeb'"),
    ("a", "x\x02y", "title 'x\\x02y'"),
    ("a", "x\uffff", "title 'x\\uffff'"),
])
def test_diagram_text_xml_forbids_is_named_before_any_file_opens(
        tmp_path, capsys, label, title, named):
    """A label or title holding a character XML 1.0 forbids exited 0 with an
    SVG that no XML parser reads; the JSON report escapes the character and
    still exits 0."""
    inp = _write(tmp_path, "s.json",
                 {"events": {label: [0, 0], "z": [1, 0.2]}, "segments": [[label, "z"]]})
    titled = ["--title", title] if title else []
    svg = tmp_path / "d.svg"
    for output in (["--output", str(svg)], []):
        code, out, err = _run(capsys, "diagram", "--input", inp, *titled, *output)
        assert code == 2 and out == "" and not svg.exists()
        assert err == f"error: InvalidScenario: {named} holds a character that XML 1.0 forbids\n"
    code, out, err = _run(capsys, "diagram", "--input", inp, *titled, "--format", "json")
    assert code == 0 and err == "" and json.loads(out)["frame"]["sources"] == [label]


def test_diagram_unknown_fixture(capsys):
    code, _, err = _run(capsys, "diagram", "--input", "fig7q", "--format", "json")
    assert code == 2


def test_diagram_boost_flags_are_exclusive(capsys):
    code, _, _ = _run(
        capsys, "diagram", "--input", "fig2a", "--boost-v", "0.5", "--infinite"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_default_passes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = _run(capsys, "verify", "--output", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["all_passed"] is True
    assert all(c["passed"] for c in report["checks"])


def test_verify_is_bit_identical_for_fixed_seed(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(capsys, "verify", "--seed", "3", "--output", str(a))[0] == 0
    assert _run(capsys, "verify", "--seed", "3", "--output", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["verify", "scan"])
def test_a_negative_seed_is_a_named_error(command, capsys):
    """numpy's ValueError from SeedSequence escaped main as a traceback."""
    code, out, err = _run(capsys, command, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: InvalidInput: seed must be a whole number >= 0, got seed=-1\n"


def test_verify_timings_go_to_stderr_and_leave_the_report_alone(tmp_path, capsys):
    code, plain, err = _run(capsys, "verify", "--seed", "2")
    assert code == 0 and err == ""
    code, timed, err = _run(capsys, "verify", "--seed", "2", "--timings")
    assert code == 0 and timed == plain
    rows = json.loads(err)["row_seconds"]
    assert list(rows)[:2] == ["subluminal_inverse_law", "superluminal_inverse_law"]
    assert "closure_product+closure_power+closure_ratio+closure_sum" in rows
    assert all(s >= 0.0 for s in rows.values())
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(capsys, "verify", "--seed", "2", "--output", str(a))[0] == 0
    assert _run(capsys, "verify", "--seed", "2", "--output", str(b), "--timings")[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_broken_inverse_term_fails(capsys):
    code, out, _ = _run(capsys, "verify", "--break-antisymmetric-term")
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["superluminal_inverse_law"]


def test_verify_perturbed_cauchy_fails(capsys):
    code, out, _ = _run(capsys, "verify", "--perturb-cauchy", "0.1")
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]
    assert failed == ["cauchy_condition"]


@pytest.mark.parametrize("flag", ["--tolerance", "--perturb-cauchy"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_a_non_finite_number(capsys, flag, value):
    code, out, err = _run(capsys, "verify", f"{flag}={value}")
    assert code == 2 and out == ""
    assert f"argument {flag}: must be a finite number, got '{value}'" in err


# ---------------------------------------------------------------------------
# scan


def test_scan_default_is_bounded(capsys):
    code, out, _ = _run(capsys, "scan")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,median_abs_P,classification"
    assert len(lines) == 4
    assert all(line.endswith("bounded") for line in lines[1:])


def test_scan_real_alpha_diverges(tmp_path, capsys):
    inp = _write(
        tmp_path, "scan.json",
        {"alpha": [0.7, 0.0], "beta": 0.0, "gamma": 1.0,
         "n_values": [100, 1000], "trials": 50},
    )
    code, out, _ = _run(capsys, "scan", "--input", inp)
    assert code == 0
    assert all(line.endswith("diverging") for line in out.strip().splitlines()[1:])


def test_scan_overflowing_spec_is_a_named_error(tmp_path, capsys):
    inp = _write(tmp_path, "scan.json", {"alpha": [300, 0], "beta": 0, "gamma": 1})
    csv_path = tmp_path / "scan.csv"
    code, out, err = _run(capsys, "scan", "--input", inp, "--output", str(csv_path))
    assert code == 2
    assert not csv_path.exists() and out == ""
    assert "NonfiniteResult" in err and "diverging" in err


@pytest.mark.parametrize("alpha", [[1], [1, 2, 3], "1", {"re": 1}, [1, "2"], None])
def test_scan_alpha_must_be_a_number_or_a_pair(tmp_path, capsys, alpha):
    inp = _write(tmp_path, "scan.json", {"alpha": alpha})
    code, out, err = _run(capsys, "scan", "--input", inp)
    assert code == 2 and out == ""
    assert f'"alpha" must be a number or an [re, im] pair, got {alpha!r}' in err


@pytest.mark.parametrize("field, text, shown", [
    ("n_values", '[1e400, 2]', "inf"), ("n_values", '[2.5, 10]', "2.5"),
    ("n_values", '[0, 10]', "0"), ("n_values", '[true, 10]', "True"),
    ("n_values", '["10", 20]', "'10'"), ("n_values", '10', None),
    ("trials", '1e400', "inf"), ("trials", '2.5', "2.5"), ("trials", '-1', "-1"),
    ("trials", 'null', "None"),
])
def test_scan_counts_must_be_whole_numbers(tmp_path, capsys, field, text, shown):
    path = tmp_path / "scan.json"
    path.write_text(f'{{"{field}": {text}}}', encoding="utf-8")
    code, out, err = _run(capsys, "scan", "--input", str(path))
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and f'"{field}"' in lines[0]
    if shown is None:
        assert f'must be a list of whole numbers, got {text}' in lines[0]
    else:
        assert f'takes whole numbers >= 1, got {shown}' in lines[0]


@pytest.mark.parametrize("sampler", [
    {"low": -1e308, "high": 1e308}, {"high": "nan"}, {"low": 1, "high": 0}])
def test_scan_sampler_bounds_are_named(tmp_path, capsys, sampler):
    inp = _write(tmp_path, "scan.json", {"sampler": sampler})
    code, out, err = _run(capsys, "scan", "--input", inp)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: InvalidInput: ")
    assert "low=" in lines[0] and "high=" in lines[0]


def test_a_builtin_from_a_fault_of_the_program_is_not_shown_as_a_bad_input(monkeypatch, capsys):
    """main catches only SuperlumError and OSError: a KeyError from the
    census, a fault of the program, propagates with its traceback, where it
    was written as "error: KeyError" with exit 2, as if the input were bad."""
    def broken(d):
        raise KeyError("a")

    monkeypatch.setattr(cli, "count_paths_auto", broken)
    with pytest.raises(KeyError):
        main(["diagram", "--input", "fig5a", "--format", "json"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("sampler", [5, [0, 1], "uniform"])
def test_scan_sampler_must_be_an_object(tmp_path, capsys, sampler):
    inp = _write(tmp_path, "scan.json", {"sampler": sampler})
    code, out, err = _run(capsys, "scan", "--input", inp)
    assert code == 2 and out == ""
    assert err == f'error: SuperlumError: "sampler" must be a JSON object, got {sampler!r}\n'


# ---------------------------------------------------------------------------
# amplitude


def test_amplitude_two_paths(tmp_path, capsys):
    inp = _write(tmp_path, "a.json", {"phases": [0.0, math.pi / 3]})
    code, out, _ = _run(capsys, "amplitude", "--input", inp)
    assert code == 0
    data = json.loads(out)
    assert data["n_paths"] == 2
    assert data["probability"] == pytest.approx(0.75, rel=1e-12)


@pytest.mark.parametrize("phases", [5, "01", {"a": 1}])
def test_amplitude_phases_must_be_a_list(tmp_path, capsys, phases):
    inp = _write(tmp_path, "a.json", {"phases": phases})
    code, out, err = _run(capsys, "amplitude", "--input", inp)
    assert code == 2 and out == ""
    assert f'"phases" must be a list of numbers, got {phases!r}' in err


def test_amplitude_beyond_a_float_names_alpha_mag_and_the_phase(tmp_path, capsys):
    inp = _write(tmp_path, "a.json", {"phases": [1.0, 1e308, 1e308], "alpha_mag": 1e308})
    code, out, err = _run(capsys, "amplitude", "--input", inp)
    assert code == 2 and out == ""
    assert "NonfiniteResult: alpha_mag * phase 1 = 1e+308 * 1e+308 = 10**616" in err


# ---------------------------------------------------------------------------
# Argument handling


def test_no_command_is_usage_error(capsys):
    assert _run(capsys, )[0] == 2


def test_invalid_json_input(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{oops", encoding="utf-8")
    code, _, err = _run(capsys, "boost", "--input", str(p))
    assert code == 2 and "JSONDecodeError" in err


# ---------------------------------------------------------------------------
# Light speed and removed flags


@pytest.mark.parametrize("c", [0, -1.0])
def test_boost_rejects_bad_light_speed_in_input(tmp_path, capsys, c):
    inp = _write(
        tmp_path, "b.json",
        {"c": c, "event": [1, 0], "boost": {"branch": "subluminal", "speed": 0.1}},
    )
    code, _, err = _run(capsys, "boost", "--input", inp)
    assert code == 2
    assert "NonpositiveK" in err and "light speed" in err


def test_1p3_boost_rejects_negative_c_flag(tmp_path, capsys):
    inp = _write(
        tmp_path, "b.json",
        {"event": [0.0, 1.0, 0.0, 0.0],
         "boost": {"branch": "subluminal", "speed": [0.1, 0.0, 0.0]}},
    )
    code, _, err = _run(capsys, "boost", "--input", inp, "--c", "-1")
    assert code == 2
    assert "NonpositiveK" in err and "BranchSpeedViolation" not in err


def test_compose_rejects_zero_light_speed(tmp_path, capsys):
    inp = _write(
        tmp_path, "c.json",
        {"c": 0.0, "boosts": [{"branch": "subluminal", "speed": 0.1}] * 2},
    )
    code, _, err = _run(capsys, "compose", "--input", inp)
    assert code == 2 and "NonpositiveK" in err


VALID_LINES = {
    "boost": ["boost", "--input", "b.json"],
    "compose": ["compose", "--input", "c.json"],
    "amplitude": ["amplitude", "--input", "a.json"],
    "diagram": ["diagram", "--input", "fig2a"],
    "scan": ["scan"],
    "verify": ["verify"],
}


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("boost", "--seed", "1"),
        ("boost", "--tolerance", "1e-3"),
        ("compose", "--seed", "1"),
        ("compose", "--tolerance", "1e-3"),
        ("amplitude", "--seed", "1"),
        ("amplitude", "--tolerance", "1e-3"),
        ("amplitude", "--c", "2"),
        ("diagram", "--seed", "1"),
        ("diagram", "--tolerance", "1e-3"),
        ("diagram", "--c", "2"),
        ("scan", "--c", "2"),
        ("scan", "--tolerance", "1e-3"),
        ("verify", "--c", "2"),
    ],
)
def test_removed_flags_are_usage_errors(capsys, command, flag, value):
    line = VALID_LINES[command]
    build_parser().parse_args(line)  # the line is valid without the flag
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*line, flag, value])
    assert exc.value.code == 2


def test_one_parser_reads_each_command_line_as_a_fresh_parser_does(capsys, monkeypatch):
    # a flag or default of one command line must not carry over to the next
    lines = [["scan"], ["verify", "--seed", "1", "--timings"], ["verify", "--seed", "1"],
             ["diagram", "--input", "fig5a", "--format", "json", "--boost-w", "2.5"],
             ["diagram", "--input", "fig5a", "--format", "json"]]

    def run_all():
        runs = []
        for line in lines:
            code, out, err = _run(capsys, *line)
            if "--timings" in line:  # the seconds vary from run to run; the rows do not
                err = sorted(json.loads(err)["row_seconds"])
            runs.append((code, out, err))
        return runs

    assert build_parser() is not build_parser()
    cached = run_all()
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert cached == run_all()


# ---------------------------------------------------------------------------
# The field reader: numbers are JSON numbers, labels strings, and an error
# names the field by its JSON path

BIG = "1" + "0" * 400  # a JSON int beyond the float range
BOOST = '"boost": {"branch": "subluminal", "speed": 0.5}'
SCENE = '"events": {"a": [0, 0], "b": [1, 0.5]}, "segments": [["a", "b"]]'


def _run_text(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    extra = ("--format", "json") if command == "diagram" else ()
    return (*_run(capsys, command, "--input", str(path), *extra), path)


@pytest.mark.parametrize("command, text, named", [
    # an int beyond the float range
    ("boost", '{"event": [1, 0], "boost": {"branch": "subluminal", "speed": %s}}' % BIG,
     "boost.speed"),
    ("amplitude", '{"phases": [0, 1], "alpha_mag": %s}' % BIG, '"alpha_mag"'),
    ("scan", '{"alpha": [%s, 0]}' % BIG, '"alpha"'),
    ("scan", '{"trials": %s}' % BIG, '"trials"'),
    # a string or a bool where a number belongs
    ("boost", '{"event": "01", %s}' % BOOST, '"event"'),
    ("boost", '{"event": [true, false], %s}' % BOOST, '"event"[0]'),
    ("boost", '{"c": true, "event": [1, 0], %s}' % BOOST, '"c"'),
    ("boost", '{"event": [1, 0], "boost": {"branch": "subluminal", "speed": "0.5"}}',
     "boost.speed"),
    ("scan", '{"beta": "2"}', '"beta"'),
    ("amplitude", '{"phases": ["0", "1"]}', '"phases"[0]'),
    ("diagram", '{"c": true, %s}' % SCENE, "light speed c"),
    ("diagram", '{"c": "1", %s}' % SCENE, "light speed c"),
    # a value of the wrong shape, type or name
    ("diagram", '{%s, "source": ["a"], "sinks": ["b"]}' % SCENE, "source"),
    ("diagram", '{%s, "source": "a", "sinks": [["b"]]}' % SCENE, "sinks[0]"),
    ("boost", '{"event": 5, %s}' % BOOST, '"event"'),
    ("boost", '{"event": [0, "a"], %s}' % BOOST, '"event"[1]'),
    ("boost", '{"event": [1, 0], "boost": {"branch": "subluminal", "speed": {"a": 1}}}',
     "boost.speed"),
    ("boost", '{"event": [1, 0], "boost": {"branch": "sideways", "speed": 0.5}}',
     "boost.branch"),
    ("compose", '{"boosts": [{"branch": ["x"], "speed": 0.2}, '
                '{"branch": "subluminal", "speed": 0.5}]}', "boosts[0].branch"),
])
def test_a_field_that_breaks_its_rule_is_named(tmp_path, capsys, command, text, named):
    code, out, err, _ = _run_text(tmp_path, capsys, command, text)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]


def test_an_error_shows_a_long_value_cut_short(tmp_path, capsys):
    code, out, err, _ = _run_text(tmp_path, capsys, "amplitude",
                                  json.dumps({"phases": "0" * 10**5}))
    assert code == 2 and out == ""
    assert err.startswith('error: SuperlumError: "phases" must be a list of numbers, got \'000')
    assert len(err) < 150


@pytest.mark.parametrize("command", ["boost", "compose", "amplitude", "scan", "diagram"])
def test_json_nested_past_the_parser_is_named(tmp_path, capsys, command):
    depth = 10**5
    code, out, err, path = _run_text(tmp_path, capsys, command,
                                     '{"phases": ' + "[" * depth + "]" * depth + "}")
    error = "InvalidScenario" if command == "diagram" else "SuperlumError"
    assert code == 2 and out == ""
    assert err == f"error: {error}: {path} nests its JSON too deeply to read\n"


# The fuzz: valid inputs, each perturbed at one place.  A number is an int
# (not a bool) that fits in a float, or a float, and a branch one of two
# names; FIELD_NAMES gives, for each field whose rule the reader checks,
# what the error line must name when a value breaks the rule.  Event
# coordinates and segment pairs keep looser readings, so they are perturbed
# but not held to a name.

FUZZ_BASES = [
    ("boost", {"c": 1.0, "event": [1.0, 0.5],
               "boost": {"branch": "superluminal", "speed": 2.0}}),
    ("boost", {"event": [1.0, 0.5, 0.0, -1.0],
               "boost": {"branch": "subluminal", "speed": [0.1, 0.2, 0.3]}}),
    ("compose", {"c": 2.0, "boosts": [{"branch": "subluminal", "speed": 0.5},
                                      {"branch": "superluminal", "speed": 3.0}]}),
    ("amplitude", {"phases": [0.0, 1.0, 2.5], "alpha_mag": 1.5}),
    ("scan", {"alpha": [0.0, 1.0], "beta": 2.0, "gamma": 1.0, "n_values": [10, 30],
              "trials": 5, "sampler": {"low": 0.0, "high": 3.0}}),
    ("diagram", {"c": 1.0, "events": {"a": [0.0, 0.0], "b": [1.0, 0.5], "c": [2.0, 4.0]},
                 "segments": [["a", "b"], ["b", "c"]], "source": "a", "sinks": ["c"]}),
]

FIELD_NAMES = {
    "boost": {("c",): '"c"', ("event",): '"event"', ("event", "#"): '"event"[#]',
              ("boost",): "boost", ("boost", "branch"): "boost.branch",
              ("boost", "speed"): "boost.speed", ("boost", "speed", "#"): "boost.speed[#]"},
    "compose": {("c",): '"c"', ("boosts",): '"boosts"', ("boosts", "#"): "boosts[#]",
                ("boosts", "#", "branch"): "boosts[#].branch",
                ("boosts", "#", "speed"): "boosts[#].speed"},
    "amplitude": {("phases",): '"phases"', ("phases", "#"): '"phases"[#]',
                  ("alpha_mag",): '"alpha_mag"'},
    "scan": {("alpha",): '"alpha"', ("alpha", "#"): '"alpha"', ("beta",): '"beta"',
             ("gamma",): '"gamma"', ("sampler",): '"sampler"', ("sampler", "low"): "low=",
             ("sampler", "high"): "high=", ("n_values",): '"n_values"',
             ("n_values", "#"): '"n_values"[#]', ("trials",): '"trials"'},
    "diagram": {("c",): "light speed c", ("source",): "source", ("sinks",): "sinks",
                ("sinks", "#"): "sinks[#]"},
}

JUNK = st.one_of(
    st.sampled_from(["", "01", "0.5", "nan", "subluminal", True, False, None, [], {},
                     10**400, -(10**400), 2**1024, 5e-324, -5e-324, math.inf, -math.inf,
                     math.nan, 0, -1, 1e308, 10**4, 2.5]),
    st.floats(), st.integers(), st.text(max_size=3),
    st.recursive(st.none() | st.booleans() | st.floats() | st.text(max_size=2),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                 max_leaves=6),
)


def _is_number(value) -> bool:
    return (isinstance(value, float) or isinstance(value, int) and not isinstance(value, bool)
            and abs(value) <= 1.7976931348623157e308)


def _paths(value, path=()):
    """Every path below the root of a JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, item in items:
        yield (*path, key)
        yield from _paths(item, (*path, key))


def _breaks_rule(command, path, old, new) -> bool:
    if path[-1] == "branch":
        return new not in ("subluminal", "superluminal")
    if command == "scan" and path == ("alpha",):
        return not (_is_number(new) or isinstance(new, list))
    if command == "diagram" and path == ("source",) and new is None:
        return False  # "source": null reads as no source
    return not _is_number(new) if _is_number(old) else type(new) is not type(old)


@st.composite
def _perturbed(draw):
    """(command, input, what the error must name or None) for a valid input
    changed at one place: a value replaced by junk, a field removed, or a
    list emptied, shortened, lengthened or given a repeated item."""
    command, base = draw(st.sampled_from(FUZZ_BASES))
    data = json.loads(json.dumps(base))
    path = draw(st.sampled_from(list(_paths(data))))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    old = holder[path[-1]]
    actions = ["replace", "remove"] + (["empty", "drop", "extend", "twin"] * 2
                                       if isinstance(old, list) and old else [])
    action = draw(st.sampled_from(actions))
    named = None
    if action == "remove":
        del holder[path[-1]]  # an item, for a list: its length changes
    elif action == "replace":
        new = holder[path[-1]] = draw(JUNK)
        pattern = tuple("#" if isinstance(key, int) else key for key in path)
        name = FIELD_NAMES[command].get(pattern)
        if name is not None and _breaks_rule(command, path, old, new):
            index = next((key for key in path if isinstance(key, int)), None)
            named = name.replace("#", str(index))
    else:
        holder[path[-1]] = {"empty": [], "drop": old[:-1], "extend": old + old[-1:],
                            "twin": old[:1] * 2}[action]
    fmt = draw(st.sampled_from(["json", "svg"])) if command == "diagram" else None
    return command, data, named, fmt


def _finite_svg(text: str) -> bool:
    numbers = re.findall(r'(?<![\w#])[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan|inf', text)
    return text.startswith("<svg") and all(math.isfinite(float(n)) for n in numbers)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_perturbed())
def test_malformed_input_gets_an_answer_or_one_named_error(tmp_path_factory, case):
    command, data, named, fmt = case
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data), encoding="utf-8")  # nan and inf as NaN, Infinity
    argv = [command, "--input", str(path)] + (["--format", fmt] if fmt else [])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, data, code, err)
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: "), (data, err)
        assert named is None or named in err, (data, named, err)
        return
    assert named is None, (data, named, out)
    assert err == ""
    if command == "scan":
        header, *rows = csv.reader(out.splitlines())
        assert header == ["n", "median_abs_P", "classification"] and rows
        assert all(math.isfinite(float(median)) for _, median, _ in rows)
    elif fmt == "svg":
        assert _finite_svg(out), out
    else:
        def reject(constant):
            raise AssertionError(f"not strict JSON: {constant}")

        json.loads(out, parse_constant=reject)
