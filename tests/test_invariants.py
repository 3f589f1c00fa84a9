"""Invariant family axioms, growth scan, path phases, and amplitudes."""

import cmath
import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from superlum import (
    Amplitude,
    Boost,
    Branch,
    Event1p1,
    InvalidInput,
    InvariantSpec,
    NonfiniteInput,
    NonfiniteResult,
    NonpositiveK,
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
from superlum import invariants
from superlum.invariants import (
    SAFE_EXPONENT,
    _Columns,
    _blocked_log_P,
    _invariant_Ps,
    _log_P,
    _log_sums,
    _row_sums,
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


@pytest.mark.parametrize("phases, index, shown", [
    ([10**400], 0, r"1000+\.\.\.0+"), ([1.0, -10**400], 1, r"-1000+\.\.\.0+"),
    ([1.0, math.nan], 1, "nan"), ([math.inf, math.nan], 0, "inf")])
def test_a_phase_that_is_not_a_finite_float_is_named(phases, index, shown):
    """An int beyond a float and a non-finite float are a named
    NonfiniteInput, never a builtin OverflowError, with the index of the
    first such phase and its value cut short."""
    for call in (as_phases, partial(invariant_P, InvariantSpec(0.5, 1, 1)), amplitude):
        with pytest.raises(NonfiniteInput,
                           match=rf"^phases must be finite; phase {index} is {shown}$") as info:
            call(phases)
        assert len(str(info.value)) < 100


@pytest.mark.parametrize("phases, shown", [
    (np.array([0.1, 0.2 + 3j]), r"(0.2+3j) at entry 1"), ([0.1, 1j], "1j at entry 1"),
    ([0.1, np.complex64(1)], "at entry 1"), (np.array([1.0, 2.0], complex), "(1+0j) at entry 0")])
def test_a_complex_phase_is_named_not_cast(phases, shown):
    """A complex array was cast to float64 with its imaginary part dropped
    (invariant_P returned a value), and a list with a complex entry raised
    numpy's TypeError: both raise InvalidInput naming the first complex entry."""
    for call in (as_phases, partial(invariant_P, InvariantSpec(0.5, 1, 1)), amplitude):
        with pytest.raises(InvalidInput, match=re.escape(f"a phase set must be real, got ")
                           + ".*" + re.escape(shown)):
            call(phases)


def test_pairwise_phase_sums_enumerates_all_pairs():
    out = pairwise_phase_sums([0.0, 1.0], [10.0, 20.0])
    assert sorted(out) == [10.0, 11.0, 20.0, 21.0]


@pytest.mark.parametrize("call", [
    lambda a, b: pairwise_phase_sums(a, b),
    lambda a, b: check_multiplicativity(amplitude_invariant(InvariantSpec(0.5, 1.0, 1.0)), a, b),
], ids=["pairwise_phase_sums", "check_multiplicativity"])
def test_a_pairwise_sum_beyond_a_float_names_its_two_phases(call):
    """pairwise_phase_sums returned [inf] with a RuntimeWarning, and
    check_multiplicativity blamed the input: "phase 0 is inf"."""
    with pytest.raises(NonfiniteResult, match=r"^the sum of phases a\[1\] = 1e\+308 and "
                                              r"b\[0\] = 1e\+308 does not fit in a float$"):
        call([0.5, 1e308], [1e308, -1.0])


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


def test_path_phase_of_a_path_whose_floats_overflow_is_rescaled_or_raises():
    """A row whose increments, c*dt or total overflow is run again on its
    coordinates scaled by a power of two: its phase is finite where it fits
    in a float, and NonfiniteResult names the span, c and scale where it
    does not.  Rows that do not overflow keep their bits."""
    wide = (E(-1e308, -0.9e308), E(1e308, 0.9e308))
    assert path_phase(Path(wide)) == APPROX(2 * (1e308 * math.sqrt(1 - 0.81)), rel=1e-15)
    assert path_phase(Path((E(-1e308, 0), E(1e308, 0))), scale=0.25) == 5e307
    # c*dt overflows while the total fits: dx/(c*dt) is not 0
    assert path_phase(Path((E(0, 0), E(0.5e308, 0.9e308))), c=4.0) == APPROX(
        0.5e308 * math.sqrt(1 - 0.45**2), rel=1e-15)
    with pytest.raises(NonfiniteResult, match=r"path from \(t, x\) = \(-1e\+308, 0\.0\) to "
                                              r"\(1e\+308, 0\.0\) with c=1\.0 and scale=1\.0 "
                                              r"has a phase of magnitude 10\*\*308\.30"):
        path_phase(Path((E(-1e308, 0), E(1e308, 0))))
    with pytest.raises(NonfiniteResult, match=r"scale=1e\+300 has a phase of magnitude 10\*\*600"):
        path_phase(Path((E(0, 0), E(1e300, 0))), scale=1e300)
    with pytest.raises(SuperluminalSegment, match=r"\|1\.0\| is not below c=1\.0"):
        path_phase(Path((E(-1e308, -1e308), E(1e308, 1e308))))
    t = np.array([[0.0, 1.0, 2.5], [-1e308, 0.0, 1e308]])
    x = np.array([[0.0, 0.6, -0.1], [-0.9e308, 0.0, 0.9e308]])
    lo, hi = np.zeros(2, int), np.full(2, 3)
    rows = invariants._path_phases(t, x, lo, hi)
    assert rows[0].hex() == invariants._path_phases(t[:1], x[:1], lo[:1], hi[:1])[0].hex()
    assert rows[0].hex() == path_phase(Path(tuple(map(E, t[0], x[0])))).hex()
    assert rows[1] == path_phase(Path(wide))


def test_path_phase_checks_its_light_speed_and_scale():
    """c goes through K_from_c, where c = 0 and c = -1 raised
    SuperluminalSegment and c = NaN raised NonfiniteResult; a scale that is
    not finite names the scale, where NaN raised NonfiniteResult."""
    p = Path((E(0, 0), E(1, 0.1)))
    for c in (0.0, -1.0, math.nan, math.inf, 1e300):
        with pytest.raises(NonpositiveK, match=re.escape(f"c={c!r}")):
            path_phase(p, c=c)
    for scale in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonfiniteInput, match=re.escape(f"scale must be finite, got {scale!r}")):
            path_phase(p, scale=scale)


def test_path_requires_increasing_time():
    with pytest.raises(ValueError):
        Path((E(0, 0),))
    with pytest.raises(ValueError):
        Path((E(0, 0), E(0, 1)))


@pytest.mark.parametrize("vertices, shown", [
    (5, "path vertices must be a sequence, got 5"),
    (((0, 0), (1, 0)), "path vertices[0] must be of type Event1p1, got (0, 0)"),
    ((E(0, 0), 1.0), "path vertices[1] must be of type Event1p1, got 1.0"),
])
def test_path_vertices_must_be_a_sequence_of_events(vertices, shown):
    """A number raised tuple()'s TypeError, and (t, x) tuples an
    AttributeError."""
    with pytest.raises(InvalidInput, match=re.escape(shown)):
        Path(vertices)


def test_an_invariant_spec_stores_its_checked_parameters():
    """alpha as a complex, beta and gamma as floats, with the bits given, so
    that no caller converts them again."""
    spec = InvariantSpec(np.float64(0.5), 2, np.int64(-3))
    assert (type(spec.alpha), type(spec.beta), type(spec.gamma)) == (complex, float, float)
    assert (spec.alpha, spec.beta, spec.gamma) == (0.5 + 0j, 2.0, -3.0)
    assert InvariantSpec(-0.0, -0.0, 0.1).beta.hex() == (-0.0).hex()
    with pytest.raises(NonfiniteInput, match="^alpha must be finite, got"):
        InvariantSpec(complex(0.0, math.nan), 1.0, 1.0)


def test_the_scan_n_values_must_be_a_sequence():
    with pytest.raises(InvalidInput, match=re.escape("n_values must be a sequence, got 5")):
        finiteness_scan(InvariantSpec(1j, 2.0, 1.0), 5, uniform_phase_sampler(0.0, 1.0))


def test_path_phase_rejects_fast_segments():
    with pytest.raises(SuperluminalSegment):
        path_phase(Path((E(0, 0), E(1, 1.0))))
    with pytest.raises(SuperluminalSegment):
        path_phase(Path((E(0, 0), E(1, 1.5))))


@given(st.lists(st.tuples(st.floats(1e-3, 10.0), st.floats(-2.0, 2.0)), min_size=1,
                max_size=8),
       st.floats(0.5, 3.0), st.floats(-5.0, 5.0))
@example([(7.5, 0.6218945060428236)], 0.6317720479414497, 1.0)
def test_path_phase_adds_its_segments_in_order(legs, c, scale):
    """path_phase runs on columns, with the bits of a loop over the segments
    on Python floats, and names the same first segment that is too fast.
    The square is v * v, as in the kernel: at the example, v ** 2 (libm pow)
    is one unit in the last place off the correctly rounded product, and
    the cancellation in 1 - v * v makes that 11 units of the phase."""
    t, x = 0.0, 0.0
    verts = [E(t, x)]
    for dt, v in legs:
        t, x = t + dt, x + v * dt
        verts.append(E(t, x))
    total = 0.0
    for a, b in zip(verts, verts[1:]):
        dt, dx = b.t - a.t, b.x - a.x
        if abs(dx) >= c * dt:
            with pytest.raises(SuperluminalSegment) as err:
                path_phase(Path(tuple(verts)), scale, c)
            assert str(err.value) == f"segment speed |{dx/dt!r}| is not below c={c!r}"
            return
        v = dx / (c * dt)
        total += dt * math.sqrt(1.0 - v * v)
    assert path_phase(Path(tuple(verts)), scale, c).hex() == (scale * total).hex()


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
@example(0.5, 5e-324, np.array([1.0, 1.0]), 0.0, 0.0)
def test_general_alpha_invariant_keeps_the_principal_branch(re, im, phi, beta, gamma):
    alpha = complex(re, im)
    (splus, sp_scale), (sminus, sm_scale) = _direct(alpha, phi), _direct(-alpha, phi)
    product = splus * sminus
    # away from cancellation and from the branch cut, where rounding alone
    # moves the reference; math.atan2, since cmath.phase raises OverflowError
    # on a subnormal imaginary part such as the example's -1e-323
    assume(abs(splus) > 1e-2 * sp_scale and abs(sminus) > 1e-2 * sm_scale)
    assume(math.pi - abs(math.atan2(product.imag, product.real)) > 1e-6)
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
    with pytest.raises(ValueError, match="trials=0"):
        finiteness_scan(spec, (100, 1000), half, trials=0)


@pytest.mark.parametrize("n_values", [(10, 10), (30, 30, 30)])
def test_scan_with_one_distinct_n_value_fits_no_slope(n_values):
    """Repeated n values are named before any sampling, not fitted by a
    degenerate line (np.polyfit's RankWarning and a class read off it)."""
    def never(rng, size):
        raise AssertionError("sampled")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"n_values={list(n_values)}")):
            finiteness_scan(InvariantSpec(1j, 2.0, 1.0), n_values, never)


@pytest.mark.parametrize("alpha, n, high", [
    (0.7, 10**4, 857.153), (0.7 + 0.3j, 10**4, 857.153),
    (-1.1j, 997, math.pi), (0.6, 997, math.pi)])
@pytest.mark.parametrize("block", [None, 1])
def test_blocked_log_P_is_the_one_shot_log_P_bit_for_bit(alpha, n, high, block, monkeypatch):
    # on [0, 857.153] some trials reach |Re(alpha*phi)| > SAFE_EXPONENT and
    # some do not, so a block that chose its own branch would move bits;
    # with block 1 each trial is a block of its own
    sampler = uniform_phase_sampler(0.0, high)
    phi = sampler(np.random.default_rng(4), (100, n))
    if high > math.pi:
        over = 0.7 * phi.max(axis=1) > SAFE_EXPONENT
        assert 0 < over.sum() < len(over)
    if block is not None:
        monkeypatch.setattr(invariants, "_BLOCK", block)
    spec = InvariantSpec(alpha, 2.0, 1.0)
    blocked = _blocked_log_P(spec, sampler, np.random.default_rng(4), (100, n))
    for got, want in zip(blocked, _log_P(spec, phi), strict=True):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 7, 997, 10**4])
@pytest.mark.parametrize("block", [None, 1])
def test_the_scan_draws_its_blocks_with_the_bits_of_one_draw(n, block, monkeypatch):
    """The uniform sampler's blocks, drawn in row order, are one (trials, n)
    draw, and the generator ends in the state that draw leaves."""
    if block is not None:
        monkeypatch.setattr(invariants, "_BLOCK", block)
    rows = min(100, max(1, invariants._BLOCK // n))
    half = uniform_phase_sampler(0.0, math.pi)
    sizes, drawn = [], []

    def spy(rng, size):
        phi = half(rng, size)
        sizes.append(size)
        drawn.append(phi.copy())  # the kernel overwrites the block it is given
        return phi

    rng, one = np.random.default_rng(6), np.random.default_rng(6)
    _blocked_log_P(InvariantSpec(0.6, 2.0, 1.0), spy, rng, (100, n))
    assert sizes == [(min(rows, 100 - i), n) for i in range(0, 100, rows)]
    assert np.concatenate(drawn).tobytes() == half(one, (100, n)).tobytes()
    assert rng.bit_generator.state == one.bit_generator.state


@pytest.mark.parametrize("alpha, n, high", [
    (0.7, 10**4, 857.153), (0.7 + 0.3j, 10**4, 857.153),
    (-1.1j, 997, math.pi), (0.6, 997, math.pi)])
@pytest.mark.parametrize("block", [None, 1])
def test_a_scan_values_each_n_as_one_shot_log_P_of_its_whole_draw(alpha, n, high, block,
                                                                    monkeypatch):
    # on [0, 857.153] at n = 10**4 the first trial stays below SAFE_EXPONENT
    # and a later one crosses it, so with block 1 the scan draws again
    spec, ns = InvariantSpec(alpha, 2.0, 1.0), (7, n)
    sampler = uniform_phase_sampler(0.0, high)
    rng = np.random.default_rng(4)
    phis = [sampler(rng, (100, m)) for m in ns]
    want = [_log_P(spec, phi)[0] for phi in phis]
    if block is not None:
        monkeypatch.setattr(invariants, "_BLOCK", block)
    logs, sizes = [], []
    log_median = invariants._log_median
    monkeypatch.setattr(invariants, "_log_median", lambda l: logs.append(l.copy()) or log_median(l))

    def spy(rng, size):
        sizes.append(size)
        return sampler(rng, size)

    got = finiteness_scan(spec, ns, spy, rng=np.random.default_rng(4))
    assert [l.tobytes() for l in logs] == [w.tobytes() for w in want]
    if high > math.pi:
        over = 0.7 * phis[1].max(axis=1) > SAFE_EXPONENT
        assert not over[0] and over.any()
        if block == 1:
            assert sizes.count((1, n)) > 100
    monkeypatch.setattr(invariants, "_blocked_log_P", lambda spec, sampler, rng, shape, scratch:
                        _log_P(spec, sampler(rng, shape)))
    assert got == finiteness_scan(spec, ns, sampler, rng=np.random.default_rng(4))


def _read_only(phi):
    phi.setflags(write=False)
    return phi


@pytest.mark.parametrize("sampler", [
    lambda rng, size: rng.integers(0, 4, size),
    lambda rng, size: rng.random(size, dtype=np.float32) * 3,
    lambda rng, size: _read_only(rng.random(size) * 3),
    lambda rng, size: np.asfortranarray(rng.random(size) * 3)],
    ids=["int64", "float32", "read-only", "fortran"])
@pytest.mark.parametrize("alpha", [0.9j, 0.6, 3j])
def test_a_scan_values_blocks_it_cannot_overwrite_as_one_shot_log_P(sampler, alpha, monkeypatch):
    """Blocks that are not writeable float64 arrays in C order are valued
    without the scratch block, with the bits of one pass."""
    spec, ns = InvariantSpec(alpha, 2.0, 1.0), (7, 997)
    got = finiteness_scan(spec, ns, sampler, rng=np.random.default_rng(3))
    monkeypatch.setattr(invariants, "_blocked_log_P", lambda spec, sampler, rng, shape, scratch:
                        _log_P(spec, sampler(rng, shape)))
    assert got == finiteness_scan(spec, ns, sampler, rng=np.random.default_rng(3))


@st.composite
def _column_sets(draw, kind: str, far: bool, n: int):
    """A spec and a phase set of size n of one kind of alpha, with a reach
    |Re(alpha)| * max|phi| beyond SAFE_EXPONENT when far (at least 700) and
    at most 500 when not; gamma is 0 about a quarter of the time."""
    re, im = (draw(st.floats(1.0, 5.0)) * draw(st.sampled_from((-1, 1))) for _ in range(2))
    alpha = _alpha(kind, re, im)
    gamma = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                           st.floats(-2.0, 2.0)))
    top = 700.0 * 5.0 if far else 100.0
    phi = draw(st.lists(st.floats(-top, top), min_size=n, max_size=n))
    if far:
        phi[draw(st.integers(0, n - 1))] = draw(st.sampled_from((-1, 1))) * 700.0
    return InvariantSpec(alpha, draw(st.floats(0.0, 2.0)), gamma), np.array(phi)


@st.composite
def _column_groups(draw):
    """Sets of one kind of alpha and one side of SAFE_EXPONENT, of one
    length or of lengths drawn apart (ragged rows)."""
    kind, far, n = draw(st.sampled_from(KINDS)), draw(st.booleans()), draw(st.integers(1, 40))
    lengths = st.just(n) if draw(st.booleans()) else st.integers(1, 40)
    sets = lengths.flatmap(lambda m: _column_sets(kind, far, m))
    return draw(st.lists(sets, min_size=1, max_size=8))


def _flat(pairs):
    """The specs, the phases laid end to end and the lengths of (spec, set)
    pairs, as _invariant_Ps takes them."""
    specs, sets = zip(*pairs)
    return specs, np.concatenate(sets), np.array([len(phi) for phi in sets])


@given(_column_groups())
def test_column_log_P_is_the_one_spec_log_P_row_by_row(group):
    """Real, purely imaginary and general alpha, on both sides of
    SAFE_EXPONENT, with gamma = 0 mixed into the column, on rows of one
    length and on ragged rows."""
    specs, phi, lengths = _flat(group)
    cols = _Columns(np.array([complex(s.alpha) for s in specs]),
                    np.array([s.beta for s in specs]), np.array([s.gamma for s in specs]))
    reach = max(abs(complex(s.alpha).real) * np.abs(row).max() for s, row in group)
    got = _log_P(cols, phi, reach, lengths=lengths)
    for j, (spec, row) in enumerate(group):
        for column, want in zip(got, _log_P(spec, row), strict=True):
            assert column[j].tobytes() == want.tobytes()


@given(st.lists(_column_groups(), min_size=1, max_size=4))
def test_invariant_Ps_of_many_specs_is_invariant_P_bit_for_bit(groups):
    pairs = [pair for group in groups for pair in group]
    want = []
    for spec, phi in pairs:
        try:
            want.append(invariant_P(spec, phi))
        except NonfiniteResult:  # |P| beyond a float: the batch raises too
            with pytest.raises(NonfiniteResult):
                _invariant_Ps(*_flat(pairs))
            return
    got = _invariant_Ps(*_flat(pairs))
    assert [complex(v).__repr__() for v in got] == [v.__repr__() for v in want]


def test_invariant_Ps_makes_one_kernel_call_per_kind_of_alpha_and_branch(monkeypatch):
    """Sets of six lengths under real, purely imaginary and general complex
    alphas, the real and the general ones on both sides of SAFE_EXPONENT,
    take five _log_sums calls, not one per length as well."""
    calls = []
    log_sums = invariants._log_sums

    def counted(alpha, *args, **kwargs):
        calls.append(_alpha_kind(complex(np.ravel(alpha)[0])))
        return log_sums(alpha, *args, **kwargs)

    monkeypatch.setattr(invariants, "_log_sums", counted)
    rng = np.random.default_rng(5)
    pairs = [(InvariantSpec(alpha, 1.0, 0.5), rng.uniform(-top, top, n))
             for alpha, top in ((0.5, 1.0), (0.5j, 1.0), (0.5 + 0.2j, 1.0), (1.0, 700.0),
                                (1.0 - 0.1j, 700.0))
             for n in range(1, 7)]
    assert _invariant_Ps(*_flat(pairs)) == [invariant_P(spec, phi) for spec, phi in pairs]
    assert sorted(calls[:5]) == ["complex", "complex", "imaginary", "real", "real"]
    assert len(calls) == 5 + len(pairs)  # the oracle's own calls, one per set


def _alpha_kind(alpha: complex) -> str:
    return "real" if not alpha.imag else "imaginary" if not alpha.real else "complex"


@given(st.lists(st.integers(1, 300), min_size=1, max_size=12), st.integers(1, 3),
       st.sampled_from((np.float64, np.complex128)), st.integers(0, 2**32 - 1))
@example([200, 200, 200], 1, np.float64, 0)
@example([7, 8, 9, 127, 128, 129, 300], 2, np.complex128, 1)
def test_row_sums_are_each_rows_own_sum_bit_for_bit(lengths, lead, dtype, seed):
    """Rows of 1 to 300 values of widely spread magnitudes, mixed in one
    call, with leading axes as the power table of the Newton check has:
    each sum has the bits of the row's own sum, across numpy's 8-value
    unrolling and its 128-value pairwise blocks."""
    rng = np.random.default_rng(seed)
    shape = (lead, sum(lengths))
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    got = _row_sums(x, np.array(lengths))
    want = [[row.sum() for row in np.split(line, np.cumsum(lengths)[:-1])] for line in x]
    assert got.dtype == dtype and got.tobytes() == np.array(want, dtype).tobytes()


def test_a_zero_gamma_in_a_column_gives_a_power_of_0_where_a_sum_vanishes(monkeypatch):
    """0 * log 0 would be nan (and a RuntimeWarning, an error here); a row
    with gamma = 0 gets exactly 0, as one spec does."""
    def vanishing(alpha, phi, reach=None, scratch=None, lengths=None):
        zeros = _row_sums(phi, lengths)  # phi is all zeros
        return zeros - math.inf, zeros

    monkeypatch.setattr(invariants, "_log_sums", vanishing)
    cols = _Columns(np.full(2, 0.5 + 0j), np.zeros(2), np.array([0.0, 1.0]))
    log_abs, theta = _log_P(cols, np.zeros(6), lengths=np.array([2, 4]))
    assert log_abs.tolist() == [0.0, -math.inf] and theta.tolist() == [0.0, 0.0]
    assert float(_log_P(InvariantSpec(0.5, 0.0, 0.0), np.zeros(3))[0]) == 0.0


def test_invariant_Ps_names_an_overflowing_half_angle_by_its_own_spec():
    pairs = [(InvariantSpec(0.5j, 0, 1), np.array([1.0, 2.0])),
             (InvariantSpec(1e308j, 0, 1), np.array([1e308, 1.0]))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonfiniteResult, match=r"alpha \* phase 0 = 1e\+308j \* 1e\+308 "):
            _invariant_Ps(*_flat(pairs))


def test_a_scan_names_an_overflowing_half_angle_by_its_trial_among_all_trials():
    half = uniform_phase_sampler(0.0, math.pi)
    rng = np.random.default_rng(0)
    half(rng, (100, 100))
    row = half(rng, (100, 10**4))[97]  # the 98th row drawn at n = 10**4

    def planted(rng, size):
        phi = half(rng, size)
        if size[1] == 10**4:
            phi[(phi == row).all(axis=1), 5] = 1e308
        return phi

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonfiniteResult, match=r"alpha \* phase \(97, 5\) = 5j \* 1e\+308"):
            finiteness_scan(InvariantSpec(5j, 2.0, 1.0), (100, 10**4), planted,
                            rng=np.random.default_rng(0))


@pytest.mark.parametrize("low, high", [
    (0.0, math.pi), (-3.7, 2.2), (0.0, 857.153), (1e-3, 1e5), (2.5, 2.5), (-1e300, 1e300),
    (-0.0, 1.0), (0.0, 0.0), (-0.0, -0.0)])
def test_uniform_phase_sampler_draws_what_rng_uniform_draws(low, high):
    for seed in range(3):
        got = uniform_phase_sampler(low, high)(np.random.default_rng(seed), (40, 1001))
        want = np.random.default_rng(seed).uniform(low, high, (40, 1001))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("low, high", [
    (-1e308, 1e308), (0.0, math.nan), (math.nan, 1.0), (1.0, 0.0), (0.0, math.inf),
    (-math.inf, 0.0), ("0", 1.0), (0.0, True), (0.0, 10**400), (None, 1.0)])
def test_uniform_phase_sampler_names_bounds_it_cannot_draw_between(low, high):
    with pytest.raises(ValueError, match=re.escape(f"low={low!r}, high={high!r}")):
        uniform_phase_sampler(low, high)


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


def test_amplitude_beyond_a_float_names_alpha_mag_and_the_first_phase():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonfiniteResult, match=r"alpha_mag \* phase 0 = 1e\+308 \* "
                                                  r"1e\+308 = 10\*\*616 does not fit"):
            amplitude([1e308, 1e308], 1e308)
        with pytest.raises(NonfiniteResult, match=r"phase 2 = 10000000000\.0 \* -3e\+300 = 10\*\*310\.477"):
            amplitude([0.0, 1.0, -3e300, 5e300], 1e10)
        with pytest.raises(ValueError, match="alpha_mag must be finite"):
            amplitude([0.0, 1.0], math.nan)


def test_an_imaginary_alpha_whose_half_angle_overflows_names_alpha_and_the_phase():
    spec = InvariantSpec(1e308j, 0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonfiniteResult, match=r"alpha \* phase 0 = 1e\+308j \* "
                                                  r"1e\+308 = 10\*\*616 does not fit"):
            invariant_P(spec, [1e308, 1.0])
        with pytest.raises(NonfiniteResult, match=r"alpha \* phase \(0, 0\) = 1e\+308j \* "
                                                  r"-3e\+300 = 10\*\*608\.477"):
            finiteness_scan(spec, (1, 2), lambda rng, size: np.full(size, -3e300))


@given(
    st.lists(
        st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    )
)
def test_amplitude_magnitude_never_exceeds_one(phases):
    assert abs(amplitude(phases).value) <= 1.0 + 1e-12


def test_a_complex_alpha_times_a_phase_beyond_a_float_names_the_phase():
    with pytest.raises(NonfiniteResult, match=re.escape(
            "alpha * phase 0 = (1e+200+1e+200j) * 1e+200 = 10**400.151 does not fit in a float")):
        invariant_P(InvariantSpec(1e200 + 1e200j, 0, 1), [1e200, 1.0])


def test_a_scan_median_of_zero_or_inf_names_the_slope():
    with pytest.raises(NonfiniteResult, match=re.escape(
            "the growth slope is nan (alpha=(1+0j), beta=0.0, gamma=1e+308, n=[10, 100])")):
        finiteness_scan(InvariantSpec(1.0, 0, 1e308), (10, 100), uniform_phase_sampler(0, 3),
                        trials=3)


def test_a_deviation_of_a_complex_value_beyond_a_float_is_named():
    with pytest.raises(NonfiniteResult, match=re.escape(
            "the deviation of (1.7e+308+1.7e+308j) from 0 does not fit in a float")):
        relative_deviation(complex(1.7e308, 1.7e308), 0)


def test_an_argument_of_p_beyond_a_float_is_dropped_only_where_p_is_zero():
    """At gamma = 1e308, gamma * arg P does not fit in a float wherever
    |arg P| > 1.8.  Around an alpha where |S(alpha) * S(-alpha)| = 1 and
    arg P is 2.3, log|P| is gamma times a rounding of either sign, or
    exactly 0: P is then 0 (its argument dropped), |P| beyond a float, or
    |P| = 1 at an argument beyond a float, which raises NonfiniteResult
    naming it.  Each of the three happens on this grid of alphas."""
    z = cmath.acosh((cmath.exp(2.3j) - 2) / 2)
    seen = set()
    for j in range(-30, 31):
        for i in range(-30, 31):
            spec = InvariantSpec(complex(z.real + i * 2.0**-53, z.imag + j * 2.0**-51), 0, 1e308)
            try:
                assert invariant_P(spec, [0.0, 1.0]) == 0
                seen.add("zero")
            except NonfiniteResult as exc:
                assert re.match(r"\|P\| = 10\*\*\S+ does not fit|arg P = inf does not fit",
                                str(exc))
                seen.add(str(exc)[:3])
    assert seen == {"zero", "|P|", "arg"}
