"""Structure and knobs of the built-in verification suite."""

import json
import math

import pytest

from superlum import run_suite, suite_report


def test_suite_passes_and_reports_are_json_clean():
    reports = run_suite(seed=0)
    assert all(r.passed for r in reports)
    payload = suite_report(reports, seed=0)
    assert payload["all_passed"] is True
    json.dumps(payload)  # numpy scalars must not leak through
    names = [c["name"] for c in payload["checks"]]
    assert len(names) == len(set(names))


def test_tolerance_override_reaches_pass_checks():
    reports = run_suite(seed=0, tolerance=1e-20)
    tightened = [r for r in reports if r.tol == 1e-20]
    assert tightened and any(not r.passed for r in tightened)


def test_sabotage_knobs_break_their_checks():
    broken = {r.name: r for r in run_suite(seed=0, break_antisymmetric_term=True)}
    assert not broken["superluminal_inverse_law"].passed
    perturbed = {r.name: r for r in run_suite(seed=0, perturb_cauchy=0.1)}
    assert not perturbed["cauchy_condition"].passed


def test_seed_42_passes():
    # its sign-flip pair sits near the light cone (s2 ~ 9e-7, dt2 + dx2 ~ 0.17)
    assert [r.name for r in run_suite(seed=42) if not r.passed] == []


MODEL_GAP_BOUNDS = {"rapidity_band": 1e-6, "infinite_speed_limit": 1e-8}


@pytest.mark.parametrize("seed", range(5))
def test_tight_tolerance_leaves_model_gaps_alone(seed):
    reports = run_suite(seed=seed, tolerance=1e-12)
    assert [r.name for r in reports if not r.passed] == []
    for r in reports:
        expected = MODEL_GAP_BOUNDS.get(r.name, 1e-12)
        assert r.tol == expected or r.params.get("expected") == "failure"


INTERVAL_CHECKS = {
    "interval_sign_flip_1p1",
    "interval_sign_flip_1p3",
    "subluminal_interval_invariance",
}


def test_interval_checks_catch_a_relative_error_of_1e9(monkeypatch):
    from superlum import kinematics as kin

    f = math.sqrt(1.0 + 1e-9)  # scales every interval by 1 + 1e-9
    boost_1p1, boost_1p3 = kin.boost_1p1, kin.boost_1p3_superluminal

    def scaled_1p1(e, b):
        out = boost_1p1(e, b)
        return kin.Event1p1(f * out.t, f * out.x)

    def scaled_1p3(e, w):
        out = boost_1p3(e, w)
        return kin.SuperluminalEvent1p3(tuple(f * v for v in out.tvec), f * out.x)

    monkeypatch.setattr(kin, "boost_1p1", scaled_1p1)
    monkeypatch.setattr(kin, "boost_1p3_superluminal", scaled_1p3)
    failed = {r.name for r in run_suite(seed=0) if not r.passed}
    assert INTERVAL_CHECKS <= failed


@pytest.mark.parametrize("seed", range(5))
def test_each_sabotage_fails_exactly_its_check(seed):
    broken = run_suite(seed=seed, break_antisymmetric_term=True)
    assert {r.name for r in broken if not r.passed} == {"superluminal_inverse_law"}
    perturbed = run_suite(seed=seed, perturb_cauchy=1e-3)
    assert {r.name for r in perturbed if not r.passed} == {"cauchy_condition"}
