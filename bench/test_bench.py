"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_bench.py

Checks that every workload runs, that the result line carries every metric
BENCHMARK.json names, that the launcher refuses to run without the
package, and that each oracle rejects a deliberately perturbed result.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import superlum  # noqa: E402
import superlum.cli  # noqa: E402,F401
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    p = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
             "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        mt = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(mt[f"{layer}.self_s"] for layer in W.LAYERS)
        # bench.self_s is computed from the root spans alone, so this holds
        # only if the self times of nested spans add up to their roots' time
        assert mt["bench.self_s"] >= 0 and 0 < layers <= mt["tracing.wall_s"]
        assert layers + mt["bench.self_s"] == pytest.approx(mt["tracing.wall_s"], rel=1e-9)
        assert mt["tracing.overhead_ratio"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = _run("--workload", "verify_sweep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert p.returncode != 0 and p.stdout == ""


def _op(cls, kind, tmp_path, seed=5, **filters):
    wl = cls(seed, tmp_path, tiny=True)
    for slot in range(200):
        op = wl.op(slot)
        if op.kind == kind and all(op.payload.get(k) == v for k, v in filters.items()):
            return wl, op
    raise LookupError(kind)


def test_verify_oracle(tmp_path):
    wl, op = _op(W.VerifySweep, "sabotage", tmp_path)
    code, data = wl.call(superlum, op)
    assert wl.check(op, (code, data)) == []
    report = json.loads(data)
    for c in report["checks"]:
        c["passed"] = True
    assert "verify.sabotage_missed" in wl.check(op, (0, json.dumps(report).encode()))
    wl, op = _op(W.VerifySweep, "clean", tmp_path)
    code, data = wl.call(superlum, op)
    assert wl.check(op, (code, data)) == []
    assert "verify.nondeterministic" in wl.check(op, (code, data.replace(b"}", b" }", 1)))
    report = json.loads(data)
    report["checks"][3]["passed"] = False
    assert "verify.check_failed" in wl.check(op, (1, json.dumps(report).encode()))


def test_diagram_oracle(tmp_path):
    wl, op = _op(W.DiagramFrames, "bundle", tmp_path)
    op.payload["scenario"] = W.bundle_scenario(np.random.default_rng(0), 40, markup=False)
    moved, segs, roles, svg = wl.call(superlum, op)
    assert wl.check(op, (moved, segs, roles, svg)) == []
    label = next(iter(moved.events))
    e = moved.events[label]
    shifted = dataclasses.replace(moved, events={**moved.events, label: type(e)(e.t + 1e-6, e.x)})
    assert "kinematics.coordinates" in wl.check(op, (shifted, segs, roles, svg))
    flipped = (dataclasses.replace(segs[0], speed_class=superlum.SpeedClass.LUMINAL),) + segs[1:]
    assert "diagrams.speed_class" in wl.check(op, (moved, flipped, roles, svg))
    assert "diagrams.roles" in wl.check(op, (moved, segs, roles[1:], svg))
    assert "render.malformed_svg" in wl.check(op, (moved, segs, roles, svg.replace("</svg>", "<&</svg>")))


def test_path_oracle(tmp_path):
    for kind in ("ladder", "bundle", "chain"):
        wl, op = _op(W.PathCensus, kind, tmp_path)
        (total, sets), declared = wl.call(superlum, op)
        assert wl.check(op, ((total, sets), declared)) == []
        assert "diagrams.count_mismatch" in wl.check(op, ((total + 1, sets), declared))
        ps = sets[0]
        backwards = dataclasses.replace(ps, paths=ps.paths[:-1] + (ps.paths[-1][::-1],))
        assert wl.check(op, ((total, (backwards,) + sets[1:]), declared)) == ["diagrams.paths_invalid"]
        if len(ps.paths) > 1:
            dup = dataclasses.replace(ps, paths=ps.paths[:-1] + ps.paths[:1])
            assert wl.check(op, ((total, (dup,) + sets[1:]), declared)) == ["diagrams.paths_invalid"]
    ladder = W.ladder_scenario(12)
    assert W.dp_count(ladder, *W.terminals(ladder)) == 2**12


def test_phase_oracles(tmp_path):
    wl, op = _op(W.PhaseScan, "invariant_P", tmp_path)
    op.payload["spec"] = (0.8j, 1.0, 1.3)
    out = wl.call(superlum, op)
    assert wl.check(op, out) == []
    assert wl.check(op, out * (1 + 1e-6)) == ["invariants.value_mismatch"]
    assert wl.check(op, complex("nan+nanj")) == ["invariants.nonfinite_value"]
    op.payload["spec"] = W.OVERFLOW_SPEC
    assert wl.check(op, superlum.SuperlumError("overflow")) == []

    wl, op = _op(W.PhaseScan, "scan", tmp_path, family="real")
    code, text = wl.call(superlum, op)
    assert wl.check(op, (code, text)) == []
    label = W._expected_class(op.payload["slope"])
    other = "bounded" if label != "bounded" else "diverging"
    assert wl.check(op, (code, text.replace(label, other))) == ["invariants.scan_class"]
    rows = text.splitlines()
    broken = "\n".join(rows[:1] + [r.split(",")[0] + ",nan," + r.split(",")[2] for r in rows[1:]])
    assert wl.check(op, (code, broken)) == ["invariants.nonfinite_scan"]

    for kind, bad in (("amplitude", "invariants.amplitude_mismatch"),
                      ("closed_product", "sympoly.value_mismatch")):
        wl, op = _op(W.PhaseScan, kind, tmp_path)
        out = wl.call(superlum, op)
        assert wl.check(op, out) == []
        perturbed = (dataclasses.replace(out, value=out.value + 1e-6) if kind == "amplitude"
                     else out * (1 + 1e-6))
        assert wl.check(op, perturbed) == [bad]

    for kind in ("expansion", "newton"):
        wl, op = _op(W.PhaseScan, kind, tmp_path)
        rep = wl.call(superlum, op)
        assert wl.check(op, rep) == []
        failed = copy.copy(rep)
        object.__setattr__(failed, "passed", False)
        assert wl.check(op, failed) == ["sympoly.check_failed"]
