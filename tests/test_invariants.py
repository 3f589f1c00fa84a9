"""Invariant family axioms, growth scan, path phases, and amplitudes."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from superlum import (
    Amplitude,
    Boost,
    Branch,
    Event1p1,
    InvariantSpec,
    NonfiniteResult,
    Path,
    SuperluminalSegment,
    amplitude,
    boost_1p1,
    check_multiplicativity,
    check_symmetry,
    check_time_reversal,
    finiteness_scan,
    invariant_P,
    path_phase,
    relative_deviation,
    uniform_phase_sampler,
)
from superlum.invariants import (
    _log_sums,
    amplitude_invariant,
    as_phases,
    pairwise_phase_sums,
)

E = Event1p1
APPROX = pytest.approx


# ---------------------------------------------------------------------------
# Phase-set plumbing


def test_as_phases_validation():
    with pytest.raises(ValueError):
        as_phases([])
    with pytest.raises(ValueError):
        as_phases([[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError):
        as_phases([0.0, math.inf])


def test_pairwise_phase_sums_enumerates_all_pairs():
    out = pairwise_phase_sums([0.0, 1.0], [10.0, 20.0])
    assert sorted(out) == [10.0, 11.0, 20.0, 21.0]


# ---------------------------------------------------------------------------
# Path phases


def test_path_phase_is_scaled_proper_time():
    p = Path((E(0, 0), E(1, 0.6)))
    assert path_phase(p) == APPROX(0.8, rel=1e-15)
    assert path_phase(p, scale=5.0) == APPROX(4.0, rel=1e-15)


def test_path_phase_additive_over_concatenation():
    whole = Path((E(0, 0), E(1, 0.6), E(3, 0.2)))
    first = Path((E(0, 0), E(1, 0.6)))
    second = Path((E(1, 0.6), E(3, 0.2)))
    assert path_phase(whole) == APPROX(path_phase(first) + path_phase(second))


def test_path_phase_unchanged_by_subluminal_boost(rng):
    verts = (E(0, 0), E(1, 0.6), E(2.5, -0.1), E(4, 0.9))
    p = Path(verts)
    base = path_phase(p)
    for v in (-0.9, -0.3, 0.5, 0.95):
        b = Boost(Branch.SUBLUMINAL, v)
        moved = Path(tuple(boost_1p1(e, b) for e in verts))
        assert path_phase(moved) == APPROX(base, rel=1e-10)


def test_path_requires_increasing_time():
    with pytest.raises(ValueError):
        Path((E(0, 0),))
    with pytest.raises(ValueError):
        Path((E(0, 0), E(0, 1)))


def test_path_phase_rejects_fast_segments():
    with pytest.raises(SuperluminalSegment):
        path_phase(Path((E(0, 0), E(1, 1.0))))
    with pytest.raises(SuperluminalSegment):
        path_phase(Path((E(0, 0), E(1, 1.5))))


# ---------------------------------------------------------------------------
# The invariant family: frozen values


def test_invariant_vanishes_on_opposite_unit_phasors():
    val = invariant_P(InvariantSpec(1j, 2.0, 1.0), (0.0, math.pi))
    assert abs(val) < 1e-30


def test_invariant_real_alpha_closed_form():
    val = invariant_P(InvariantSpec(1.0, 0.0, 1.0), (0.3, -0.3))
    assert val.imag == 0.0
    assert val.real == APPROX(4.0 * math.cosh(0.3) ** 2, rel=1e-14)


def test_invariant_imaginary_alpha_closed_form():
    val = invariant_P(InvariantSpec(2j, 0.0, 1.0), (0.0, 0.4))
    assert val.real == APPROX(4.0 * math.cos(0.4) ** 2, rel=1e-13)
    assert abs(val.imag) < 1e-15


def test_invariant_beta_and_gamma_scalings():
    phases = (0.1, 0.5, -0.2)
    base = invariant_P(InvariantSpec(1j, 0.0, 1.0), phases)
    withbeta = invariant_P(InvariantSpec(1j, 2.0, 1.0), phases)
    assert withbeta * 9.0 == APPROX(base, rel=1e-13)
    squared = invariant_P(InvariantSpec(1j, 0.0, 2.0), phases)
    assert squared == APPROX(base * base, rel=1e-12)


# ---------------------------------------------------------------------------
# Magnitudes beyond exp's range


def test_overflowing_invariant_raises_a_named_error_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonfiniteResult) as exc:
            invariant_P(InvariantSpec(300, 0, 1), [0, 3])
    msg = str(exc.value)
    for part in ("alpha=(300+0j)", "beta=0", "gamma=1", "10**390.8"):
        assert part in msg


@pytest.mark.parametrize("alpha", [250.0, 300.0])
def test_representable_invariant_past_exp_range_is_returned(alpha):
    # ((1 + e**3a) * (1 + e**-3a))**0.5 = e**1.5a * (1 + e**-3a); the log of
    # P is at most 450, whose ulp (6e-14) bounds the relative error of exp
    val = invariant_P(InvariantSpec(alpha, 0, 0.5), [0, 3])
    assert val.imag == 0.0
    assert val.real == APPROX(math.exp(1.5 * alpha) * (1.0 + math.exp(-3 * alpha)),
                              rel=1e-12)


# ---------------------------------------------------------------------------
# The phase-sum kernel against the direct formula

KINDS = ("real", "imaginary", "complex")


def _alpha(kind: str, re: float, im: float) -> complex:
    return {"real": complex(re, 0.0), "imaginary": complex(0.0, im),
            "complex": complex(re, im)}[kind]


def _direct(alpha: complex, phi: np.ndarray) -> tuple[complex, float]:
    """S(alpha) by the direct formula, and its cancellation-free scale."""
    terms = np.exp(alpha * phi)
    return complex(np.sum(terms)), float(np.sum(np.abs(terms)))


def _assert_kernel_matches_direct(alpha: complex, phi: np.ndarray) -> None:
    lp, lm = _log_sums(alpha, phi)
    for a, log_s in ((alpha, lp), (-alpha, lm)):
        ref, scale = _direct(a, phi)
        assert abs(cmath.exp(complex(log_s)) - ref) <= 1e-12 * scale


PHASES = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20).map(np.array)
COEFF = st.floats(-5.0, 5.0)


@given(st.sampled_from(KINDS), COEFF, COEFF, PHASES)
def test_kernel_matches_direct_sums(kind, re, im, phi):
    # |Re(alpha*phi)| <= 50: the unshifted pass
    _assert_kernel_matches_direct(_alpha(kind, re, im), phi)


@given(st.sampled_from(("real", "complex")), COEFF, COEFF, PHASES,
       st.floats(601.0, 700.0))
def test_kernel_matches_direct_sums_past_the_safe_exponent(kind, re, im, phi, top):
    # Re alpha = +/-top / max|phi| puts the largest |Re(alpha*phi)| at top,
    # in (600, 700]: the shifted passes, where the direct formula still fits
    # in a float.  Below max|phi| of about 4e-306 no double is such an alpha.
    peak = float(np.max(np.abs(phi)))
    assume(peak > 0.0 and math.isfinite(top / peak))
    re_alpha = math.copysign(top / peak, re)
    _assert_kernel_matches_direct(_alpha(kind, re_alpha, im), phi)


@pytest.mark.parametrize("alpha, beta, gamma", [
    (math.inf, 0.0, 1.0), (complex(1.0, math.nan), 0.0, 1.0),
    (1.0, math.inf, 1.0), (1.0, 0.0, math.nan)])
def test_nonfinite_invariant_parameters_are_rejected(alpha, beta, gamma):
    with pytest.raises(ValueError, match="must be finite"):
        InvariantSpec(alpha, beta, gamma)


@given(COEFF, COEFF, PHASES, st.floats(0.0, 2.0), st.floats(-2.0, 2.0))
def test_general_alpha_invariant_keeps_the_principal_branch(re, im, phi, beta, gamma):
    alpha = complex(re, im)
    (splus, sp_scale), (sminus, sm_scale) = _direct(alpha, phi), _direct(-alpha, phi)
    product = splus * sminus
    # away from cancellation and from the branch cut, where rounding alone
    # moves the reference
    assume(abs(splus) > 1e-2 * sp_scale and abs(sminus) > 1e-2 * sm_scale)
    assume(math.pi - abs(cmath.phase(product)) > 1e-6)
    ref = phi.size ** (-beta) * product ** gamma
    assert relative_deviation(invariant_P(InvariantSpec(alpha, beta, gamma), phi),
                              ref) <= 1e-12


# ---------------------------------------------------------------------------
# Axiom checks


def test_axiom_checks_pass_for_family_members(rng):
    for spec in (
        InvariantSpec(1j, 2.0, 1.0),
        InvariantSpec(0.5, 1.0, -1.0),
        InvariantSpec(0.4 + 0.2j, 0.5, 2.0),
    ):
        f = amplitude_invariant(spec)
        phases = rng.uniform(-1.0, 1.0, 5)
        assert check_symmetry(f, phases, rng=rng).passed
        assert check_time_reversal(f, phases).passed
        more = rng.uniform(-1.0, 1.0, 4)
        rep = check_multiplicativity(f, phases, more)
        assert rep.passed, rep.deviation


def test_sum_of_two_members_breaks_multiplicativity(rng):
    f1 = amplitude_invariant(InvariantSpec(0.5, 1.0, 1.0))
    f2 = amplitude_invariant(InvariantSpec(1.0, 2.0, 1.0))
    rep = check_multiplicativity(
        lambda phi: f1(phi) + f2(phi),
        rng.uniform(0.0, 1.0, 4),
        rng.uniform(0.0, 1.0, 3),
    )
    assert not rep.passed
    assert rep.deviation > 1e-3


# ---------------------------------------------------------------------------
# Growth scan


def test_scan_classifications_cover_all_three_labels(rng):
    ns = (100, 1000, 10000)
    half = uniform_phase_sampler(0.0, math.pi)
    bounded = finiteness_scan(
        InvariantSpec(1j, 2.0, 1.0), ns, half, rng=np.random.default_rng(1)
    )
    assert bounded.classification == "bounded"
    assert abs(bounded.slope) < 0.2

    grow = finiteness_scan(
        InvariantSpec(0.7, 0.0, 1.0), ns, half, rng=np.random.default_rng(2)
    )
    assert grow.classification == "diverging"
    assert grow.slope == APPROX(2.0, abs=0.1)

    shrink = finiteness_scan(
        InvariantSpec(0.7, 0.0, -1.0), ns, half, rng=np.random.default_rng(3)
    )
    assert shrink.classification == "vanishing"
    assert shrink.slope == APPROX(-2.0, abs=0.1)


def test_scan_full_circle_coherence_is_lost():
    # over the full circle the mean phasor vanishes, the sums only grow like
    # sqrt(n), and the n**-2 normalization then drives |P| to zero
    full = uniform_phase_sampler(0.0, 2.0 * math.pi)
    res = finiteness_scan(
        InvariantSpec(1j, 2.0, 1.0),
        (100, 1000, 10000),
        full,
        rng=np.random.default_rng(4),
    )
    assert res.classification == "vanishing"
    assert res.slope == APPROX(-1.0, abs=0.2)


def test_scan_of_an_overflowing_spec_names_the_class():
    half = uniform_phase_sampler(0.0, math.pi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonfiniteResult) as exc:
            finiteness_scan(InvariantSpec(300, 0, 1), (100, 1000, 10000), half,
                            rng=np.random.default_rng(0))
    msg = str(exc.value)
    assert "diverging" in msg and "n=100" in msg and "slope=" in msg


@pytest.mark.parametrize("alpha", [1j, 0.7, 0.5 + 0.3j])
@pytest.mark.parametrize("trials", [7, 8])
def test_scan_medians_and_slope_match_the_direct_formula(alpha, trials):
    spec = InvariantSpec(alpha, 1.5, 1.0)
    ns = (10, 30, 100)
    half = uniform_phase_sampler(0.0, math.pi)
    res = finiteness_scan(spec, ns, half, trials=trials, rng=np.random.default_rng(5))
    rng = np.random.default_rng(5)
    medians = []
    for n in ns:
        phi = half(rng, (trials, n))
        vals = n ** -1.5 * (np.exp(alpha * phi).sum(axis=1)
                            * np.exp(-alpha * phi).sum(axis=1))
        medians.append(float(np.median(np.abs(vals))))
    assert res.median_abs == APPROX(medians, rel=1e-12)
    assert res.slope == APPROX(float(np.polyfit(np.log(ns), np.log(medians), 1)[0]),
                               rel=1e-12)


def test_scan_budget_and_shape_validation():
    spec = InvariantSpec(1j, 2.0, 1.0)
    half = uniform_phase_sampler(0.0, math.pi)
    with pytest.raises(ValueError):
        finiteness_scan(spec, (100,), half)
    with pytest.raises(ValueError):
        finiteness_scan(spec, (100, 100000), half)
    with pytest.raises(ValueError):
        finiteness_scan(spec, (100, 1000), half, trials=500)


def test_scan_is_deterministic_for_fixed_seed():
    spec = InvariantSpec(1j, 2.0, 1.0)
    half = uniform_phase_sampler(0.0, math.pi)
    a = finiteness_scan(spec, (100, 1000), half, rng=np.random.default_rng(7))
    b = finiteness_scan(spec, (100, 1000), half, rng=np.random.default_rng(7))
    assert a == b
    assert len(a.rows()) == 2


# ---------------------------------------------------------------------------
# Amplitudes


def test_two_path_amplitude_closed_form():
    amp = amplitude((0.0, math.pi / 3))
    assert isinstance(amp, Amplitude)
    assert amp.n_paths == 2
    assert abs(amp.value) ** 2 == APPROX(math.cos(math.pi / 6) ** 2, rel=1e-14)


def test_amplitude_scale_folds_into_phases():
    a = amplitude((0.0, 0.7), alpha_mag=2.0)
    b = amplitude((0.0, 1.4))
    assert a.value == APPROX(b.value, rel=1e-14)


@given(
    st.lists(
        st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    )
)
def test_amplitude_magnitude_never_exceeds_one(phases):
    assert abs(amplitude(phases).value) <= 1.0 + 1e-12
