"""Seeded verification suite spanning kinematics, invariants and sympoly.

The suite is one table, SUITE.  Each row draws its inputs and returns one
deviation per report it feeds; run_suite runs every row for its number of
trials, keeps the worst deviation (the largest against a tolerance, the
smallest against the floor of an expected failure) and builds the
CheckReports.  All randomness comes from one seeded generator, consumed in
table order, so a fixed seed gives a bit-identical report.  The two sabotage
switches exist to demonstrate that the suite actually bites:
break_antisymmetric_term drops the W/|W| factor from superluminal matrices
(the inverse law then fails for every W), and perturb_cauchy shifts one
expansion coefficient (the factorial product condition then fails).
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import kinematics as kin
from .invariants import (
    InvariantSpec,
    Path,
    amplitude,
    amplitude_invariant,
    check_multiplicativity,
    check_symmetry,
    check_time_reversal,
    invariant_P,
    path_phase,
)
from .kinematics import Boost, Branch, Event1p1, Event1p3
from .report import CheckReport, relative_deviation
from .sympoly import (
    CoefficientTensor,
    cauchy_condition_check,
    closed_product,
    closure_checks,
    expansion_reconstruction_check,
    newton_convolution_check,
)

IDENTITY = np.eye(2)
INFINITE_LIMIT_SPEED = 1e9
TWO_PATH_DELTAS = np.linspace(0.0, 2 * math.pi, 100)


class Opts(NamedTuple):  # the sabotage switches, as the trials see them
    antisymmetric_term: bool
    perturb: float


class Check(NamedTuple):
    name: str
    bound: float  # the default tol, a model-gap bound, or an expected failure's floor
    kind: str  # "tol", "gap" or "floor"
    params: dict  # values may be callables of Opts


def tol(name: str, bound: float, **params) -> Check:
    """A report that passes when its worst (largest) deviation is <= bound."""
    return Check(name, bound, "tol", params)


def gap(name: str, bound: float, **params) -> Check:
    """Like tol, but the deviation is a gap the check's own model leaves (a
    speed standing in for the light cone or for infinity), not rounding, so
    run_suite's tolerance does not replace the bound."""
    return Check(name, bound, "gap", params)


def floor(name: str, bound: float, **params) -> Check:
    """An expected failure: passes when its smallest deviation is > bound."""
    return Check(name, bound, "floor", params)


class Row(NamedTuple):
    checks: tuple[Check, ...]
    trials: int
    # trial(rng, opts, i) draws the inputs of trial i and returns one
    # deviation per check: a float, or a tuple for several checks.
    trial: Callable
    unit: str | None = "trials"  # params key that reports the trial count


# ---------------------------------------------------------------------------
# Draws.


def _random_subluminal(rng: np.random.Generator) -> float:
    return float(rng.uniform(-0.95, 0.95))


def _random_superluminal(rng: np.random.Generator) -> float:
    w = float(rng.uniform(1.05, 20.0))
    return w if rng.uniform() < 0.5 else -w


def _random_boost(rng: np.random.Generator) -> Boost:
    if rng.uniform() < 0.5:
        return Boost(Branch.SUBLUMINAL, _random_subluminal(rng))
    return Boost(Branch.SUPERLUMINAL, _random_superluminal(rng))


def _random_event(rng: np.random.Generator) -> Event1p1:
    return Event1p1(*rng.uniform(-2, 2, 2))


def _random_event_1p3(rng: np.random.Generator) -> Event1p3:
    return Event1p3(float(rng.uniform(-2, 2)), tuple(rng.uniform(-2, 2, 3)))


def _random_spec(rng, complex_alpha: bool) -> InvariantSpec:
    re = float(rng.uniform(-1.0, 1.0))
    im = float(rng.uniform(-0.3, 0.3)) if complex_alpha else 0.0
    return InvariantSpec(complex(re, im), float(rng.uniform(0.0, 2.0)),
                         float(rng.uniform(-2.0, 2.0)))


def _random_timelike_path(rng) -> Path:
    t, x = 0.0, float(rng.uniform(-1, 1))
    verts = [Event1p1(t, x)]
    for _ in range(int(rng.integers(2, 6))):
        dt = float(rng.uniform(0.2, 1.0))
        v = float(rng.uniform(-0.9, 0.9))
        t, x = t + dt, x + v * dt
        verts.append(Event1p1(t, x))
    return Path(tuple(verts))


# ---------------------------------------------------------------------------
# Trials.  Each returns the deviation(s) of one trial.


def _inverse_law(matrix: Callable[[float], np.ndarray], v: float) -> float:
    return float(np.max(np.abs(matrix(-v) @ matrix(v) - IDENTITY)))


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


def _interval_1p1(b: Boost, e1: Event1p1, e2: Event1p1, sign: float) -> float:
    """Deviation of the boosted interval from sign * the original one,
    relative to the cancellation-free scale dt**2 + dx**2 (c = 1)."""
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
    """inf when a drawn boost leaves its band; the first trial also measures
    the gap between the bands at the light cone."""
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


def _k_extraction(rng, opts, i):
    low, high = [0.05, 0.1, 0.2, 0.4], [3.0, 4.0, 5.0]
    return max(
        abs(kin.extract_K(fam, samples) - k_true)
        for k_true, fam, samples in (
            (1.0, kin.lorentz_family(1.0), low),
            (0.0, kin.galilean_family(), low),
            (-1.0, kin.lorentz_family(-1.0), low),
            (1.0, kin.superluminal_family(1.0), high),
        )
    )


def _infinite_limit(rng, opts, i):
    e = _random_event(rng)
    w = INFINITE_LIMIT_SPEED if rng.uniform() < 0.5 else -INFINITE_LIMIT_SPEED
    out = kin.boost_1p1(e, Boost(Branch.SUPERLUMINAL, w))
    scale = max(abs(e.t), abs(e.x), 1.0)
    e3 = _random_event_1p3(rng)
    direction = rng.uniform(-1, 1, 3)
    direction /= np.linalg.norm(direction)
    out3 = kin.boost_1p3_superluminal(e3, direction * INFINITE_LIMIT_SPEED)
    scale3 = max(abs(e3.t), float(np.max(np.abs(e3.r))), 1.0)
    return max(
        abs(out.t - e.x) / scale,
        abs(out.x - e.t) / scale,
        abs(out3.x - e3.t) / scale3,
        float(np.max(np.abs(np.subtract(out3.tvec, e3.r)))) / scale3,
    )


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
    s2 = InvariantSpec(float(rng.uniform(0.2, 1.0)) + 1.0,
                       float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.5, 2.0)))
    f1, f2 = amplitude_invariant(s1), amplitude_invariant(s2)
    phi = rng.uniform(-1, 1, int(rng.integers(2, 7)))
    xi = rng.uniform(-1, 1, int(rng.integers(2, 7)))
    return check_multiplicativity(lambda p: f1(p) + f2(p), phi, xi).deviation


def _two_path(rng, opts, i):
    delta = float(TWO_PATH_DELTAS[i])
    return abs(abs(amplitude([0.0, delta]).value) ** 2 - math.cos(delta / 2) ** 2)


def _phase_invariance(rng, opts, i):
    p = _random_timelike_path(rng)
    b = Boost(Branch.SUBLUMINAL, _random_subluminal(rng))
    moved = Path(tuple(kin.boost_1p1(v, b) for v in p.vertices))
    return relative_deviation(path_phase(moved), path_phase(p))


def _phase_additivity(rng, opts, i):
    p = _random_timelike_path(rng)
    cut = len(p.vertices) // 2
    if cut < 1 or cut >= len(p.vertices) - 1:
        return 0.0
    first = Path(p.vertices[: cut + 1])
    second = Path(p.vertices[cut:])
    return relative_deviation(path_phase(first) + path_phase(second), path_phase(p))


def _newton(rng, opts, i):
    n, m = int(rng.integers(9, 13)), int(rng.integers(9, 13))
    phi = rng.uniform(-1, 1, n)
    xi = rng.uniform(-1, 1, m)
    return max(newton_convolution_check(r, phi, xi).deviation for r in range(9))


def _cauchy(rng, opts, i):
    a = float(rng.uniform(0.4, 1.0))
    ct2 = CoefficientTensor((a, -a))
    ct4 = CoefficientTensor((0.6, -0.6, 0.4, -0.4), beta_prime=0.5)
    return max(
        cauchy_condition_check(ct, k, s, n, m, perturb=opts.perturb).deviation
        for ct, k, s, n, m in (
            (ct2, (1, 0), (0, 1), 5, 6),
            (ct2, (1, 1), (1, 1), 5, 6),
            (ct2, (2, 1), (1, 2), 7, 5),
            (ct4, (1, 1, 0, 0), (0, 1, 0, 1), 6, 5),
            (ct4, (2, 1, 1, 0), (1, 0, 2, 1), 5, 7),
        )
    )


def _expansion(rng, opts, i):
    phi = rng.uniform(-1, 1, 5)
    real_ct = CoefficientTensor((0.8, -0.8), beta_prime=1.0)
    imag_ct = CoefficientTensor((0.8j, -0.8j), beta_prime=1.0)
    cross = relative_deviation(
        closed_product(imag_ct, phi),
        invariant_P(InvariantSpec(0.8j, 1.0, 1.0), phi),
    )
    return (
        expansion_reconstruction_check(real_ct, phi).deviation,
        max(expansion_reconstruction_check(imag_ct, phi).deviation, cross),
    )


def _odd_tensor(rng, opts, i):
    ct = CoefficientTensor((0.5, -0.5, 0.3))
    phi = np.array([0.3, 0.7, -0.2, 0.5])
    return check_time_reversal(lambda p: closed_product(ct, p), phi).deviation


def _closure(rng, opts, i):
    f1 = amplitude_invariant(InvariantSpec(0.7, 0.4, 1.0))
    f2 = amplitude_invariant(InvariantSpec(0.3, 1.1, 2.0))
    phi = rng.uniform(-1, 1, 4)
    xi = rng.uniform(-1, 1, 3)
    return tuple(r.deviation for r in closure_checks((f1, f2), phi, xi))


# ---------------------------------------------------------------------------
# The table, in draw order.

SUITE: tuple[Row, ...] = (
    Row((tol("subluminal_inverse_law", 1e-10, antisymmetric_term=True),),
        200, _subluminal_inverse),
    Row((tol("superluminal_inverse_law", 1e-10,
             antisymmetric_term=lambda o: o.antisymmetric_term),),
        200, _superluminal_inverse),
    Row((tol("light_cone_preservation", 1e-10),), 400, _light_cone),
    Row((tol("interval_sign_flip_1p1", 1e-10),), 200, _sign_flip_1p1),
    Row((tol("interval_sign_flip_1p3", 1e-10),), 200, _sign_flip_1p3),
    Row((tol("subluminal_interval_invariance", 1e-10),), 200, _sub_invariance),
    Row((tol("branch_closure_xor", 1e-10),), 200, _branch_closure),
    Row((tol("velocity_composition_antisymmetry", 1e-12),), 200, _velocity_antisymmetry),
    Row((tol("velocity_matrix_agreement", 1e-10),), 200, _velocity_matrix_agreement),
    Row((gap("rapidity_band", 1e-6),), 200, _rapidity_band),
    Row((tol("k_extraction", 1e-10),), 1, _k_extraction, unit=None),
    Row((gap("infinite_speed_limit", 1e-8, speed=INFINITE_LIMIT_SPEED),),
        100, _infinite_limit),
    Row((tol("invariant_symmetry", 1e-9), tol("invariant_time_reversal", 1e-9),
         tol("invariant_multiplicativity", 1e-9)),
        25, _invariant_axioms, unit="instances"),
    Row((floor("sum_fails_multiplicativity", 1e-3),), 10, _sum_fails, unit="instances"),
    Row((tol("two_path_interference", 1e-12),), len(TWO_PATH_DELTAS), _two_path,
        unit="deltas"),
    Row((tol("phase_boost_invariance", 1e-10),), 100, _phase_invariance),
    Row((tol("phase_additivity", 1e-12),), 100, _phase_additivity),
    Row((tol("newton_convolution", 1e-9, r_max=8),), 10, _newton, unit="instances"),
    Row((tol("cauchy_condition", 1e-10, perturb=lambda o: o.perturb, orders=[2, 4]),),
        1, _cauchy, unit=None),
    Row((tol("expansion_reconstruction_real", 1e-8, alphas="+/-0.8"),
         tol("expansion_matches_invariant", 1e-8, alphas="+/-0.8i")),
        1, _expansion, unit=None),
    Row((floor("odd_tensor_breaks_time_reversal", 1e-3, alphas=3),), 1, _odd_tensor,
        unit=None),
    Row((tol("closure_product", 1e-9), tol("closure_power", 1e-9),
         tol("closure_ratio", 1e-9), floor("closure_sum", 1e-3)),
        1, _closure, unit=None),
)


def run_suite(
    seed: int = 0,
    tolerance: float | None = None,
    break_antisymmetric_term: bool = False,
    perturb_cauchy: float = 0.0,
) -> list[CheckReport]:
    """Run every row of SUITE; a fixed seed gives a bit-identical report list.

    tolerance, when given, replaces the default pass tolerance of every
    deviation-style check.  It leaves alone the expected-failure floors and
    the model-gap bounds of rapidity_band (the bands at V = c -/+ 1e-9) and
    infinite_speed_limit (W = 1e9 standing in for infinite speed), whose
    deviations of about 1e-9 no tolerance on rounding can shrink.
    """
    rng = np.random.default_rng(seed)
    opts = Opts(not break_antisymmetric_term, perturb_cauchy)
    reports: list[CheckReport] = []
    for row in SUITE:
        picks = [min if c.kind == "floor" else max for c in row.checks]
        worst = None
        for i in range(row.trials):
            devs = row.trial(rng, opts, i)
            if not isinstance(devs, tuple):
                devs = (devs,)
            worst = devs if worst is None else tuple(
                pick(w, d) for pick, w, d in zip(picks, worst, devs))
        for check, dev in zip(row.checks, worst):
            params = {row.unit: row.trials} if row.unit else {}
            params.update({k: v(opts) if callable(v) else v
                           for k, v in check.params.items()})
            if check.kind == "floor":
                params["expected"] = "failure"
                reports.append(CheckReport(check.name, dev, check.bound,
                                           dev > check.bound, params))
            else:
                fixed = tolerance is None or check.kind == "gap"
                bound = check.bound if fixed else tolerance
                reports.append(CheckReport(check.name, dev, bound, dev <= bound, params))
    return reports


def suite_report(reports: list[CheckReport], seed: int, **run_params) -> dict:
    return {
        "seed": seed,
        "run_params": run_params,
        "checks": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
