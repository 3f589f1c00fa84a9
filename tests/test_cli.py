"""End-to-end command-line behavior: exit codes, JSON reports, artifacts."""

import json
import math
from xml.etree import ElementTree

import pytest

from superlum.cli import build_parser, main


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


def test_boost_huge_speed_swaps_axes(tmp_path, capsys):
    inp = _write(
        tmp_path, "b.json",
        {"event": [1.0, 0.0], "boost": {"branch": "superluminal", "speed": 1e9}},
    )
    code, out, _ = _run(capsys, "boost", "--input", inp)
    assert code == 0
    t, x = json.loads(out)["event"]
    assert abs(t) < 1e-8 and x == pytest.approx(1.0, rel=1e-8)


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


# ---------------------------------------------------------------------------
# amplitude


def test_amplitude_two_paths(tmp_path, capsys):
    inp = _write(tmp_path, "a.json", {"phases": [0.0, math.pi / 3]})
    code, out, _ = _run(capsys, "amplitude", "--input", inp)
    assert code == 0
    data = json.loads(out)
    assert data["n_paths"] == 2
    assert data["probability"] == pytest.approx(0.75, rel=1e-12)


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
