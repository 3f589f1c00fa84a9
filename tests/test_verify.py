"""Structure and knobs of the built-in verification suite."""

import json
import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from superlum import kinematics as kin
from superlum import InvalidInput, run_suite, suite_report, sympoly, verify
from superlum.cli import main
from superlum.invariants import (
    InvariantSpec,
    Path,
    _path_phases,
    amplitude,
    amplitude_invariant,
    check_multiplicativity,
    check_symmetry,
    check_time_reversal,
)
from superlum.kinematics import Boost, Branch, Event1p1, Event1p3
from superlum.report import relative_deviation
from superlum.sympoly import newton_convolution_check


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


MODEL_GAP_BOUNDS = {
    "rapidity_band": 1e-6,
    "infinite_speed_limit": 1e-8,
    "expansion_reconstruction_real": 1e-8,
    "expansion_matches_invariant": 1e-8,
}


@pytest.mark.parametrize("seed", range(5))
def test_tight_tolerance_leaves_model_gaps_alone(seed):
    reports = run_suite(seed=seed, tolerance=1e-12)
    assert [r.name for r in reports if not r.passed] == []
    for r in reports:
        expected = MODEL_GAP_BOUNDS.get(r.name, 1e-12)
        assert r.tol == expected or r.params.get("expected") == "failure"


# seeds whose 12-term expansion checks deviate by 1e-12 to 3e-12, within
# 0.13 of their series tail bound: truncation, not rounding
TRUNCATION_SEEDS = (17, 51, 80, 117, 122, 142, 154, 155, 162, 181, 198, 284,
                    295, 367, 373)


@pytest.mark.parametrize("seed", TRUNCATION_SEEDS)
def test_tight_tolerance_leaves_expansion_truncation_alone(seed):
    assert [r.name for r in run_suite(seed=seed, tolerance=1e-12) if not r.passed] == []


@pytest.mark.parametrize("seed", TRUNCATION_SEEDS)
def test_tight_tolerance_still_catches_the_cauchy_sabotage(seed):
    perturbed = run_suite(seed=seed, tolerance=1e-12, perturb_cauchy=1e-3)
    assert {r.name for r in perturbed if not r.passed} == {"cauchy_condition"}


def test_a_tolerance_below_a_rows_rounding_floor_fails_that_row():
    """velocity_matrix_agreement reads a speed back from a product of two
    matrices; at seed 18 that read-back rounds 1.5e-12 away, so under a
    1e-12 tolerance it is the one failing row, and verify exits 1."""
    failing = [(r.name, r.deviation) for r in run_suite(seed=18, tolerance=1e-12)
               if not r.passed]
    assert failing == [("velocity_matrix_agreement", 1.5118807149009675e-12)]


INTERVAL_CHECKS = {
    "interval_sign_flip_1p1",
    "interval_sign_flip_1p3",
    "subluminal_interval_invariance",
}


def test_interval_checks_catch_a_relative_error_of_1e9(monkeypatch):
    from superlum import kinematics as kin

    f = math.sqrt(1.0 + 1e-9)  # scales every interval by 1 + 1e-9
    boost_1p1, boost_1p3 = kin.boost_1p1_columns, kin.boost_1p3_superluminal_columns

    def scaled_1p1(e, branch, V, K=1.0):
        out = boost_1p1(e, branch, V, K)
        return kin.EventColumns(f * out.t, f * out.x)

    def scaled_1p3(t, r, W, c=1.0):
        tvec, x = boost_1p3(t, r, W, c)
        return f * tvec, f * x

    monkeypatch.setattr(kin, "boost_1p1_columns", scaled_1p1)
    monkeypatch.setattr(kin, "boost_1p3_superluminal_columns", scaled_1p3)
    failed = {r.name for r in run_suite(seed=0) if not r.passed}
    assert INTERVAL_CHECKS <= failed


@pytest.mark.parametrize("seed", range(5))
def test_each_sabotage_fails_exactly_its_check(seed):
    broken = run_suite(seed=seed, break_antisymmetric_term=True)
    assert {r.name for r in broken if not r.passed} == {"superluminal_inverse_law"}
    perturbed = run_suite(seed=seed, perturb_cauchy=1e-3)
    assert {r.name for r in perturbed if not r.passed} == {"cauchy_condition"}


def test_a_nan_trial_fails_its_check_wherever_it_falls(monkeypatch):
    """The worst of [0, nan, 0] is nan, which fails a tolerance and a floor;
    a sign of zero survives the reduction."""
    def trial(rng, opts, n):
        return [(0.0, 0.0, -0.0), (math.nan, math.nan, -0.0), (0.0, 0.0, 0.0)]

    row = verify.Row((verify.tol("tolerance_row", 1.0), verify.floor("floor_row", -1.0),
                      verify.tol("zero_row", 1.0)), 3, trial)
    monkeypatch.setattr(verify, "SUITE", (row,))
    reports = {r.name: r for r in run_suite(seed=0)}
    for name in ("tolerance_row", "floor_row"):
        assert math.isnan(reports[name].deviation) and not reports[name].passed
    zero = reports["zero_row"]
    assert zero.passed and math.copysign(1.0, zero.deviation) == -1.0


def test_seed_119_passes(capsys):
    # its sum_fails_multiplicativity instance 8 deviated by 6.5e-4 when f2
    # drew a gamma of its own (1.84 against 0.50)
    assert main(["verify", "--seed", "119"]) == 0


@given(st.floats(0.2, 1.0), st.floats(1.2, 2.0), st.floats(0.0, 1.0), st.floats(0.5, 2.0),
       *[st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=6)] * 2)
def test_a_sum_of_invariants_misses_multiplicativity_by_its_bound(
        alpha1, alpha2, beta, gamma, phi, xi):
    """The draw box of sum_fails_multiplicativity, corners included: every
    instance deviates by at least 2r/(1 + r)**2 at r = cosh(4)**-2."""
    f1 = amplitude_invariant(InvariantSpec(alpha1, beta, gamma))
    f2 = amplitude_invariant(InvariantSpec(alpha2, beta, gamma))
    dev = check_multiplicativity(lambda p: f1(p) + f2(p), phi, xi).deviation
    assert dev >= 2.67e-3


_DRAW = st.one_of(
    st.tuples(st.just("random"), st.integers(0, 6)),
    st.tuples(st.just("uniform"), st.sampled_from([(-1, 1), (0.2, 1.0), (1.05, 20.0)]),
              st.integers(0, 6)),
    st.tuples(st.just("integers"), st.integers(-3, 9), st.sampled_from([1, 4, 5, 6, 400])),
    st.tuples(st.just("permutation"), st.integers(0, 8)),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.none() | st.integers(0, 2**32 - 1),
       st.integers(0, 2) | st.just(64), st.lists(st.lists(_DRAW, max_size=12),
                                                 min_size=1, max_size=3))
@example(0, 0, 1, [[("integers", 1, 6), ("integers", 0, 5), ("permutation", 8)]])
def test_a_raw_block_draws_what_the_generator_draws(seed, half, first, rows):
    """Each row opens a _Raw block of `first` words, too few for most rows,
    and draws what the Generator's samplers draw, bit for bit, leaving the
    generator in the same state.  A generator may start with a kept
    half-word; a kept 0 makes spans 5 and 6 reject."""
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    if half is not None:
        for g in (rng, oracle):
            state = g.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, half
            g.bit_generator.state = state
    for draws in rows:
        raw, got, want = verify._Raw(rng, first), [], []
        for kind, *args in draws:
            if kind == "integers":
                lo, span = args
                got.append(raw.integer(lo, lo + span))
                want.append(int(oracle.integers(lo, lo + span)))
            elif kind == "permutation":
                got.append(raw.permutation(args[0]))
                want.append(oracle.permutation(args[0]).tolist())
            elif kind == "random":
                got.append((raw.take(args[0]), 0.0, 1.0))
                want.append(oracle.random(args[0]).tobytes())
            else:
                (lo, hi), k = args
                got.append((raw.take(k), lo, hi))
                want.append(oracle.uniform(lo, hi, k).tobytes())
        u = raw.close()
        got = [verify._uniform(u[g[0]], *g[1:]).tobytes() if isinstance(g, tuple) else g
               for g in got]
        assert got == want
        assert rng.bit_generator.state == oracle.bit_generator.state


class _CountingGenerator:
    """A Generator that counts the calls of its samplers; its bit_generator
    is the wrapped one's."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    bit_generator = property(lambda self: self.rng.bit_generator)

    def __getattr__(self, name):
        self.calls += 1
        return getattr(self.rng, name)


def test_no_row_calls_the_generator_per_trial():
    """A row of many trials makes at most one Generator call: the kinematics
    rows one rng.random block, the rest none, since they read raw words."""
    rng = np.random.default_rng(11)
    for row in verify.SUITE:
        counting = _CountingGenerator(rng)
        row.trial(counting, verify.Opts(True, 0.0), row.trials)
        assert row.trials == 1 or counting.calls <= 1, row.name


def test_timings_name_every_row_and_leave_the_reports_alone():
    timings = {}
    timed = run_suite(seed=3, timings=timings)
    assert [r.to_dict() for r in timed] == [r.to_dict() for r in run_suite(seed=3)]
    assert list(timings) == [row.name for row in verify.SUITE]
    assert all(isinstance(s, float) and s >= 0.0 for s in timings.values())


# ---------------------------------------------------------------------------
# The per-trial rows, as they ran one trial at a time: the oracle of the
# column rows, which must give the same deviations and leave the generator
# in the same state.


def _random_subluminal(rng):
    return float(rng.uniform(-0.95, 0.95))


def _random_superluminal(rng):
    w = float(rng.uniform(1.05, 20.0))
    return w if rng.uniform() < 0.5 else -w


def _random_boost(rng):
    if rng.uniform() < 0.5:
        return Boost(Branch.SUBLUMINAL, _random_subluminal(rng))
    return Boost(Branch.SUPERLUMINAL, _random_superluminal(rng))


def _random_event(rng):
    return Event1p1(*rng.uniform(-2, 2, 2))


def _random_event_1p3(rng):
    return Event1p3(float(rng.uniform(-2, 2)), tuple(rng.uniform(-2, 2, 3)))


def _inverse_law(matrix, v):
    return float(np.max(np.abs(matrix(-v) @ matrix(v) - verify.IDENTITY)))


def _subluminal_inverse(rng, opts, i):
    return _inverse_law(kin.subluminal_matrix, _random_subluminal(rng))


def _superluminal_inverse(rng, opts, i):
    matrix = partial(kin.superluminal_matrix, antisymmetric_term=opts.antisymmetric_term)
    return _inverse_law(matrix, _random_superluminal(rng))


def _light_cone(rng, opts, i):
    b = _random_boost(rng)
    e1 = _random_event(rng)
    dt = float(rng.uniform(0.1, 2.0))
    e2 = Event1p1(e1.t + dt, e1.x + math.copysign(dt, rng.uniform(-1, 1)))
    return abs(kin.interval_1p1(kin.boost_1p1(e1, b), kin.boost_1p1(e2, b)))


def _interval_1p1(b, e1, e2, sign):
    s2 = kin.interval_1p1(e1, e2)
    s2p = kin.interval_1p1(kin.boost_1p1(e1, b), kin.boost_1p1(e2, b))
    scale = (e2.t - e1.t) ** 2 + (e2.x - e1.x) ** 2
    return relative_deviation(s2p, sign * s2, scale)


def _sign_flip_1p1(rng, opts, i):
    b = Boost(Branch.SUPERLUMINAL, _random_superluminal(rng))
    return _interval_1p1(b, _random_event(rng), _random_event(rng), -1.0)


def _sign_flip_1p3(rng, opts, i):
    w = rng.uniform(-1, 1, 3)
    w *= rng.uniform(1.1, 8.0) / np.linalg.norm(w)
    e1, e2 = _random_event_1p3(rng), _random_event_1p3(rng)
    dt, dr = e2.t - e1.t, np.subtract(e2.r, e1.r)
    s2 = kin.interval_nm([dt], dr)
    f1 = kin.boost_1p3_superluminal(e1, w)
    f2 = kin.boost_1p3_superluminal(e2, w)
    s2p = kin.interval_nm(np.subtract(f2.tvec, f1.tvec), [f2.x - f1.x])
    return relative_deviation(s2p, -s2, dt * dt + float(dr @ dr))


def _sub_invariance(rng, opts, i):
    b = Boost(Branch.SUBLUMINAL, _random_subluminal(rng))
    return _interval_1p1(b, _random_event(rng), _random_event(rng), 1.0)


def _branch_closure(rng, opts, i):
    b1, b2 = _random_boost(rng), _random_boost(rng)
    composed = kin.compose_boosts_1p1(b1, b2)
    xor_holds = (composed.branch is Branch.SUBLUMINAL) == (b1.branch == b2.branch)
    e = _random_event(rng)
    direct = kin.boost_1p1(kin.boost_1p1(e, b1), b2)
    via = kin.boost_1p1(e, composed)
    scale = max(abs(direct.t), abs(direct.x), 1.0)
    dev = max(abs(direct.t - via.t) / scale, abs(direct.x - via.x) / scale)
    return dev if xor_holds else math.inf


def _velocity_antisymmetry(rng, opts, i):
    v1 = float(rng.uniform(-0.95, 0.95))
    v2 = float(rng.uniform(-0.95, 0.95))
    return abs(kin.compose_velocities_1p1(v1, v2) + kin.compose_velocities_1p1(-v2, -v1))


def _velocity_matrix_agreement(rng, opts, i):
    b1, b2 = _random_boost(rng), _random_boost(rng)
    u = kin.compose_velocities_1p1(float(b1.speed), float(b2.speed))
    m = kin.boost_matrix_1p1(b2) @ kin.boost_matrix_1p1(b1)
    return relative_deviation(kin.velocity_of_matrix(m), u, 1.0)


def _rapidity_band(rng, opts, i):
    qpi = math.pi / 4
    sub = kin.rapidity(Boost(Branch.SUBLUMINAL, _random_subluminal(rng)))
    sup = kin.rapidity(Boost(Branch.SUPERLUMINAL, _random_superluminal(rng)))
    if not (-qpi < sub < qpi and qpi < sup < 3 * qpi):
        return math.inf
    if i > 0:
        return 0.0
    if kin.rapidity(Boost.infinite()) != math.pi / 2:
        return math.inf
    near = kin.rapidity(Boost(Branch.SUBLUMINAL, 1 - 1e-9))
    above = kin.rapidity(Boost(Branch.SUPERLUMINAL, 1 + 1e-9))
    return abs(above - near)


def _infinite_limit(rng, opts, i):
    e = _random_event(rng)
    w = verify.INFINITE_LIMIT_SPEED if rng.uniform() < 0.5 else -verify.INFINITE_LIMIT_SPEED
    out = kin.boost_1p1(e, Boost(Branch.SUPERLUMINAL, w))
    scale = max(abs(e.t), abs(e.x), 1.0)
    e3 = _random_event_1p3(rng)
    direction = rng.uniform(-1, 1, 3)
    direction /= np.linalg.norm(direction)
    out3 = kin.boost_1p3_superluminal(e3, direction * verify.INFINITE_LIMIT_SPEED)
    scale3 = max(abs(e3.t), float(np.max(np.abs(e3.r))), 1.0)
    return max(
        abs(out.t - e.x) / scale,
        abs(out.x - e.t) / scale,
        abs(out3.x - e3.t) / scale3,
        float(np.max(np.abs(np.subtract(out3.tvec, e3.r)))) / scale3,
    )


def _random_spec(rng, complex_alpha):
    re = float(rng.uniform(-1.0, 1.0))
    im = float(rng.uniform(-0.3, 0.3)) if complex_alpha else 0.0
    return InvariantSpec(complex(re, im), float(rng.uniform(0.0, 2.0)),
                         float(rng.uniform(-2.0, 2.0)))


def _random_timelike_path(rng):
    t, x = 0.0, float(rng.uniform(-1, 1))
    verts = [Event1p1(t, x)]
    for _ in range(int(rng.integers(2, 6))):
        dt = float(rng.uniform(0.2, 1.0))
        v = float(rng.uniform(-0.9, 0.9))
        t, x = t + dt, x + v * dt
        verts.append(Event1p1(t, x))
    return Path(tuple(verts))


def _invariant_axioms(rng, opts, i):
    spec = _random_spec(rng, complex_alpha=(i % 2 == 0))
    n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    phi = rng.uniform(-1, 1, n)
    xi = rng.uniform(-1, 1, m)
    f = amplitude_invariant(spec)
    return (
        check_symmetry(f, phi, trials=5, rng=rng).deviation,
        check_time_reversal(f, phi).deviation,
        check_multiplicativity(f, phi, xi).deviation,
    )


def _sum_fails(rng, opts, i):
    s1 = InvariantSpec(float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 1.0)),
                       float(rng.uniform(0.5, 2.0)))
    s2 = InvariantSpec(float(rng.uniform(0.2, 1.0)) + 1.0, s1.beta, s1.gamma)
    rng.uniform(0.0, 1.0), rng.uniform(0.5, 2.0)  # f2's own beta and gamma, unused
    f1, f2 = amplitude_invariant(s1), amplitude_invariant(s2)
    phi = rng.uniform(-1, 1, int(rng.integers(2, 7)))
    xi = rng.uniform(-1, 1, int(rng.integers(2, 7)))
    return check_multiplicativity(lambda p: f1(p) + f2(p), phi, xi).deviation


def _two_path(rng, opts, i):
    delta = float(verify.TWO_PATH_DELTAS[i])
    return abs(abs(amplitude([0.0, delta]).value) ** 2 - math.cos(delta / 2) ** 2)


def _proper_time(p):
    """path_phase as it summed one segment at a time on Python floats."""
    total = 0.0
    for a, b in zip(p.vertices, p.vertices[1:]):
        dt, dx = b.t - a.t, b.x - a.x
        assert abs(dx) < dt
        total += dt * math.sqrt(1.0 - (dx / dt) ** 2)
    return total


def _phase_invariance(rng, opts, i):
    p = _random_timelike_path(rng)
    b = Boost(Branch.SUBLUMINAL, _random_subluminal(rng))
    moved = Path(tuple(kin.boost_1p1(v, b) for v in p.vertices))
    return relative_deviation(_proper_time(moved), _proper_time(p))


def _phase_additivity(rng, opts, i):
    p = _random_timelike_path(rng)
    cut = len(p.vertices) // 2
    if cut < 1 or cut >= len(p.vertices) - 1:
        return 0.0
    first = Path(p.vertices[: cut + 1])
    second = Path(p.vertices[cut:])
    return relative_deviation(_proper_time(first) + _proper_time(second), _proper_time(p))


def _newton(rng, opts, i):
    n, m = int(rng.integers(9, 13)), int(rng.integers(9, 13))
    phi = rng.uniform(-1, 1, n)
    xi = rng.uniform(-1, 1, m)
    return max(newton_convolution_check(r, phi, xi).deviation for r in range(9))


ORACLE = {
    "subluminal_inverse_law": _subluminal_inverse,
    "superluminal_inverse_law": _superluminal_inverse,
    "light_cone_preservation": _light_cone,
    "interval_sign_flip_1p1": _sign_flip_1p1,
    "interval_sign_flip_1p3": _sign_flip_1p3,
    "subluminal_interval_invariance": _sub_invariance,
    "branch_closure_xor": _branch_closure,
    "velocity_composition_antisymmetry": _velocity_antisymmetry,
    "velocity_matrix_agreement": _velocity_matrix_agreement,
    "rapidity_band": _rapidity_band,
    "infinite_speed_limit": _infinite_limit,
    "invariant_symmetry+invariant_time_reversal+invariant_multiplicativity":
        _invariant_axioms,
    "sum_fails_multiplicativity": _sum_fails,
    "two_path_interference": _two_path,
    "phase_boost_invariance": _phase_invariance,
    "phase_additivity": _phase_additivity,
    "newton_convolution": _newton,
}
SABOTAGE = (verify.Opts(False, 0.0), verify.Opts(True, 1e-3))


def test_the_oracle_covers_the_leading_rows_of_the_table():
    """The column rows lead SUITE, with only k_extraction, which draws
    nothing, among them: so each seed's generator reaches them fresh."""
    names = [row.name for row in verify.SUITE[:len(ORACLE) + 1]]
    assert set(names) == set(ORACLE) | {"k_extraction"}


@pytest.mark.parametrize("seed", range(50))
def test_column_rows_match_their_per_trial_oracle(seed):
    for opts in SABOTAGE:
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for row in verify.SUITE[:len(ORACLE) + 1]:
            if row.name not in ORACLE:
                continue
            columns = np.asarray(row.trial(rng, opts, row.trials), float)
            expected = np.array([ORACLE[row.name](oracle_rng, opts, i)
                                 for i in range(row.trials)])
            assert columns.tobytes() == expected.tobytes(), (seed, opts, row.name)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_instance_rows_take_one_kernel_call_per_group(monkeypatch):
    """The invariant rows value every instance's sets with one _log_P per
    (kind of alpha, branch) group, whatever the set sizes: two for the axioms
    (real and general complex alphas) and one for the sum counterexample.
    newton_convolution raises every instance's sets to each power in one
    _power_table.  A call per instance made 144 _log_P calls in run_suite(1)
    and 40 power tables, and a call per set size as well 21 to 27 and 8 to 14
    _log_P calls over seeds 0 to 59."""
    from superlum import invariants, sympoly

    current, log_P, tables = [None], {}, {}

    def rows(row):
        def trial(rng, opts, n):
            current[0] = row.name
            return row.trial(rng, opts, n)
        return row._replace(trial=trial)

    def spy_log_P(spec, phi, reach=None, scratch=None, lengths=None, real=invariants._log_P):
        alpha = np.asarray(spec.alpha, complex).ravel()
        kind = ("real" if not alpha[0].imag else
                "imaginary" if not alpha[0].real else "general")
        branch = (invariants._reach(complex(alpha[0]), phi) if reach is None
                  else reach) <= invariants.SAFE_EXPONENT
        log_P.setdefault(current[0], []).append((kind, branch))
        return real(spec, phi, reach, scratch, lengths)

    def spy_table(v, r_max, real=sympoly._power_table):
        tables.setdefault(current[0], []).append(v.size)
        return real(v, r_max)

    monkeypatch.setattr(verify, "SUITE", tuple(map(rows, verify.SUITE)))
    monkeypatch.setattr(invariants, "_log_P", spy_log_P)
    monkeypatch.setattr(sympoly, "_power_table", spy_table)
    run_suite(1)
    for name, calls in (
            ("invariant_symmetry+invariant_time_reversal+invariant_multiplicativity", 2),
            ("sum_fails_multiplicativity", 1)):
        groups = log_P[name]
        assert len(groups) == len(set(groups)) == calls, name
    (size,) = tables["newton_convolution"]
    assert size > 10 * 2 * (81 + 18)  # every instance's two sets, sums and |sums|


@pytest.mark.parametrize("seed", [1.5, -1, "3", None])
def test_the_seed_is_a_whole_number(seed):
    """1.5 raised numpy's TypeError and -1 its ValueError from SeedSequence;
    None drew a seed from the operating system, so the report was not
    reproducible."""
    with pytest.raises(InvalidInput, match=re.escape(f"seed must be a whole number >= 0, "
                                                     f"got seed={seed!r}")):
        run_suite(seed)


def test_the_permutation_sum_cache_stays_bounded_over_many_seeds():
    """The Cauchy check draws fresh alphas on every run, and each run added
    about 7 entries to the permutation-sum cache that no later run hits: 400
    seeds left 2 817 of them.  The cache keeps the 256 most recent."""
    sympoly._permutation_sum_sorted.cache_clear()
    for seed in range(400):
        verify._cauchy(np.random.default_rng(seed), verify.Opts(True, 0.0), 0)
    info = sympoly._permutation_sum_sorted.cache_info()
    assert info.misses > 2000 and info.currsize <= 256



# ---------------------------------------------------------------------------
# Stacked calls: a row passes every column one kernel moves in one call, and
# each part of the result has the bits of that part's own call.

_COORD = st.floats(-1e6, 1e6)
_SUB = st.floats(-0.999, 0.999)
_SUPER = st.tuples(st.floats(1.001, 1e6), st.booleans()).map(lambda w: w[0] if w[1] else -w[0])


def _bits(*arrays) -> list[bytes]:
    return [np.asarray(a, float).tobytes() for a in arrays]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD, st.booleans(), _SUB, _SUPER),
                min_size=1, max_size=12))
def test_one_boost_call_on_both_events_gives_each_events_bits(rows):
    """With a Branch and with a mask, the stacked call of _boost_both gives
    the bits of one boost_1p1_columns call per event column."""
    t1, x1, t2, x2, sub, v, w = map(np.array, zip(*rows))
    e1, e2 = kin.EventColumns(t1, x1), kin.EventColumns(t2, x2)
    for branch, V in ((sub, np.where(sub, v, w)), (Branch.SUBLUMINAL, v),
                      (Branch.SUPERLUMINAL, w)):
        got = verify._boost_both(e1, e2, branch, V)
        want = (kin.boost_1p1_columns(e1, branch, V), kin.boost_1p1_columns(e2, branch, V))
        assert _bits(*got[0], *got[1]) == _bits(*want[0], *want[1])


_VECTOR = st.tuples(_COORD, _COORD, _COORD)
_SPEED3 = st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)).filter(
    lambda w: math.hypot(*w) > 1.001)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_COORD, _VECTOR, _COORD, _VECTOR, _SPEED3), min_size=1, max_size=12))
def test_one_1p3_boost_call_on_both_events_gives_each_events_bits(rows):
    t1, r1, t2, r2, w = map(np.array, zip(*rows))
    n = len(rows)
    tvec, x = kin.boost_1p3_superluminal_columns(np.concatenate([t1, t2]),
                                                 np.concatenate([r1, r2]), np.tile(w, (2, 1)))
    (tvec1, x1), (tvec2, x2) = (kin.boost_1p3_superluminal_columns(t, r, w)
                                for t, r in ((t1, r1), (t2, r2)))
    assert _bits(tvec[:n], x[:n], tvec[n:], x[n:]) == _bits(tvec1, x1, tvec2, x2)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(), _SUB, _SUPER), min_size=1, max_size=12),
       st.lists(st.tuples(st.booleans(), _SUB, _SUPER), min_size=1, max_size=12),
       st.booleans())
def test_one_matrix_call_on_two_speed_columns_gives_each_columns_bits(a, b, antisymmetric):
    """column_entries through _matrices, on a Branch and on a mask."""
    (sub_a, v_a, w_a), (sub_b, v_b, w_b) = (map(np.array, zip(*rows)) for rows in (a, b))
    for branch_a, V_a, branch_b, V_b in (
            (sub_a, np.where(sub_a, v_a, w_a), sub_b, np.where(sub_b, v_b, w_b)),
            (Branch.SUBLUMINAL, v_a, Branch.SUBLUMINAL, v_b),
            (Branch.SUPERLUMINAL, w_a, Branch.SUPERLUMINAL, w_b)):
        branch = (branch_a if isinstance(branch_a, Branch)
                  else np.concatenate([branch_a, branch_b]))
        got = verify._matrices(branch, np.concatenate([V_a, V_b]), antisymmetric)
        want = np.concatenate([verify._matrices(branch_a, V_a, antisymmetric),
                               verify._matrices(branch_b, V_b, antisymmetric)])
        assert _bits(got) == _bits(want)


@st.composite
def _spans(draw):
    """A timelike path of 2 to 6 vertices, padded to 6 with finite values,
    and a span lo..hi-1 of at least two of its vertices."""
    k = draw(st.integers(2, 6))
    t, x = [0.0], [draw(st.floats(-1e3, 1e3))]
    for _ in range(k - 1):
        dt = draw(st.floats(1e-3, 1e3))
        t.append(t[-1] + dt)
        x.append(x[-1] + draw(st.floats(-0.99, 0.99)) * dt)
    pad = draw(st.floats(-1e3, 1e3))
    lo = draw(st.integers(0, k - 2))
    return t + [pad] * (6 - k), x + [pad] * (6 - k), lo, draw(st.integers(lo + 2, k))


@settings(max_examples=150, deadline=None)
@given(st.lists(_spans(), min_size=1, max_size=9), st.data())
def test_one_path_phase_call_on_stacked_rows_gives_each_parts_bits(rows, data):
    """Rows of mixed lo and hi, cut into parts at drawn places: the phases
    of the whole stack are those of the parts' own calls."""
    t, x, lo, hi = map(np.array, zip(*rows))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    parts = [_path_phases(t[a:b], x[a:b], lo[a:b], hi[a:b])
             for a, b in zip([0] + cuts, cuts + [len(rows)])]
    assert _bits(_path_phases(t, x, lo, hi)) == _bits(np.concatenate(parts))


_DOT_ENTRY = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
              | st.floats(-1e3, 1e3)
              | st.floats(1e-160, 1e-140) | st.floats(-1e-140, -1e-160)
              | st.floats(1e140, 1e153) | st.floats(-1e153, -1e140))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_DOT_ENTRY, _DOT_ENTRY, _DOT_ENTRY), min_size=1, max_size=20))
def test_the_stacked_dots_are_the_blas_dots_of_each_row(rows):
    """_dots and _norms against row @ row, np.linalg.norm and
    math.sqrt(row.dot(row)), on ±0, subnormals and values near 1e±150."""
    rows = np.array(rows)
    assert _bits(verify._dots(rows)) == _bits([row @ row for row in rows])
    assert (_bits(verify._norms(rows)) == _bits([math.sqrt(row.dot(row)) for row in rows])
            == _bits([np.linalg.norm(row) for row in rows]))


def test_each_row_moves_its_columns_through_each_kernel_once(monkeypatch):
    """The rows that boost two sets of events, build two sets of matrices or
    sum three sets of paths make one call of that kernel, not one per set.
    A call on a mask (light_cone_preservation, velocity_matrix_agreement)
    is one call, which column_entries splits by branch into two more."""
    from superlum import invariants

    calls = {}

    def spy(name, real):
        def kernel(*args, **kwargs):
            branch = args[0] if name == "column_entries" else None
            key = f"{name} on a mask" if isinstance(branch, np.ndarray) else name
            calls[key] = calls.get(key, 0) + 1
            return real(*args, **kwargs)
        return kernel

    for name in ("boost_1p1_columns", "boost_1p3_superluminal_columns", "column_entries"):
        monkeypatch.setattr(kin, name, spy(name, getattr(kin, name)))
    monkeypatch.setattr(verify, "_path_phases", spy("_path_phases", invariants._path_phases))
    expected = {
        verify._sign_flip_1p3: {"boost_1p3_superluminal_columns": 1, "column_entries": 1},
        verify._sign_flip_1p1: {"boost_1p1_columns": 1, "column_entries": 1},
        verify._sub_invariance: {"boost_1p1_columns": 1, "column_entries": 1},
        verify._light_cone: {"boost_1p1_columns": 1, "column_entries on a mask": 1,
                             "column_entries": 2},
        verify._subluminal_inverse: {"column_entries": 1},
        verify._superluminal_inverse: {"column_entries": 1},
        verify._velocity_matrix_agreement: {"column_entries on a mask": 1,
                                            "column_entries": 2},
        verify._phase_additivity: {"_path_phases": 1},
        verify._phase_invariance: {"boost_1p1_columns": 1, "column_entries": 1,
                                   "_path_phases": 1},
    }
    for trial, counts in expected.items():
        calls.clear()
        trial(np.random.default_rng(5), verify.Opts(True, 0.0), 200)
        assert calls == counts, trial.__name__
