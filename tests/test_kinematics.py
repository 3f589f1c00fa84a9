"""Unit tests for the two-branch boost kinematics.

Numeric oracles are hand-derived closed forms, frozen here; property-style
sweeps live in the verify suite and the acceptance tests.
"""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from superlum import kinematics as kin
from superlum import (
    Boost,
    Branch,
    BranchSpeedViolation,
    DegenerateA,
    Event1p1,
    Event1p3,
    GeneralTransformFamily,
    InvalidInput,
    LightSpeedResult,
    MixedK,
    NonfiniteInput,
    NonfiniteResult,
    NonpositiveK,
    NotConstant,
    Parity,
    PoleError,
    ZeroVelocity,
    boost_1p1,
    boost_1p3_subluminal,
    boost_1p3_superluminal,
    boost_matrix_1p1,
    branch_of_matrix,
    compose_boosts_1p1,
    compose_velocities_1p1,
    extract_K,
    galilean_family,
    general_boost_1p1,
    interval_1p1,
    interval_nm,
    lorentz_family,
    rapidity,
    subluminal_matrix,
    superluminal_family,
    superluminal_matrix,
    velocity_of_matrix,
)

APPROX = pytest.approx


# ---------------------------------------------------------------------------
# Construction and validation


def test_boost_rejects_nonpositive_K():
    with pytest.raises(NonpositiveK):
        Boost(Branch.SUBLUMINAL, 0.5, K=0.0)
    with pytest.raises(NonpositiveK):
        Boost(Branch.SUBLUMINAL, 0.5, K=-1.0)


def test_boost_enforces_branch_bounds():
    with pytest.raises(BranchSpeedViolation):
        Boost(Branch.SUBLUMINAL, 1.0)
    with pytest.raises(BranchSpeedViolation):
        Boost(Branch.SUBLUMINAL, -1.3)
    with pytest.raises(BranchSpeedViolation):
        Boost(Branch.SUPERLUMINAL, 0.999)
    with pytest.raises(BranchSpeedViolation):
        Boost(Branch.SUPERLUMINAL, 1.0)
    # speeds inside the boundary band are rejected by both branches
    with pytest.raises(BranchSpeedViolation):
        Boost(Branch.SUPERLUMINAL, 1.0 + 1e-14)
    with pytest.raises(BranchSpeedViolation):
        Boost(Branch.SUBLUMINAL, 1.0 - 1e-14)


def test_boost_bounds_scale_with_K():
    # K = 1/4 means c = 2
    Boost(Branch.SUBLUMINAL, 1.5, K=0.25)
    with pytest.raises(BranchSpeedViolation):
        Boost(Branch.SUPERLUMINAL, 1.5, K=0.25)


def test_infinite_speed_is_superluminal_only():
    b = Boost.infinite()
    assert b.branch is Branch.SUPERLUMINAL and math.isinf(b.speed)
    with pytest.raises(BranchSpeedViolation):
        Boost(Branch.SUBLUMINAL, math.inf)


@pytest.mark.parametrize("branch", list(Branch))
def test_a_nan_speed_is_a_nonfinite_input_scalar_or_vector(branch):
    """A NaN scalar speed raised BranchSpeedViolation, a NaN component
    NonfiniteInput: one bad speed, one error class."""
    with pytest.raises(NonfiniteInput, match=r"^speed must be finite or \+/-inf, got nan$"):
        Boost(branch, math.nan)
    with pytest.raises(NonfiniteInput, match=r"^speed component must be finite, got nan$"):
        Boost(branch, (math.nan, 0.0, 2.0))


def test_a_boost_stores_its_checked_speed_and_K():
    b = Boost(Branch.SUPERLUMINAL, np.float64(-2.5), np.float64(0.25))
    assert type(b.speed) is float and type(b.K) is float
    assert (b.speed, b.K) == (-2.5, 0.25)
    assert Boost(Branch.SUBLUMINAL, 0, 1).speed.hex() == (0.0).hex()
    assert Boost(Branch.SUBLUMINAL, -0.0).speed.hex() == (-0.0).hex()
    assert Boost(Branch.SUPERLUMINAL, -math.inf).speed == -math.inf


@pytest.mark.parametrize("speed", [5, 0.5, None, "abc"])
def test_a_1p3_boost_needs_three_speed_components(speed):
    """A number raised TypeError from tuple()."""
    e = Event1p3(0.0, (1.0, 2.0, 3.0))
    for boost in (boost_1p3_subluminal, boost_1p3_superluminal):
        with pytest.raises(InvalidInput, match="speed component"):
            boost(e, speed)


def test_events_of_an_interval_must_be_events():
    """Numbers and (t, x) tuples raised AttributeError."""
    with pytest.raises(InvalidInput, match=re.escape(
            "e1 must be of type Event1p1 or EventColumns, got 1")):
        interval_1p1(1, 2)
    with pytest.raises(InvalidInput, match=re.escape(
            "e2 must be of type Event1p1 or EventColumns, got (1.0, 0.0)")):
        interval_1p1(Event1p1(0.0, 0.0), (1.0, 0.0))


def test_k_extraction_samples_must_be_a_sequence():
    with pytest.raises(InvalidInput, match=re.escape("samples must be a sequence, got 5")):
        extract_K(lorentz_family(), 5)


def test_composing_vector_speed_boosts_is_a_1p1_operation():
    """A vector speed raised float()'s TypeError."""
    b = Boost(Branch.SUBLUMINAL, (0.1, 0.0, 0.0))
    with pytest.raises(InvalidInput, match=r"1\+1 operations require a scalar-speed boost"):
        compose_boosts_1p1(b, Boost(Branch.SUBLUMINAL, 0.2))
    with pytest.raises(InvalidInput, match=r"1\+1 operations require a scalar-speed boost"):
        compose_boosts_1p1(Boost(Branch.SUBLUMINAL, 0.2), b)


def test_boost_inverse_negates_speed():
    assert Boost(Branch.SUBLUMINAL, 0.6).inverse().speed == -0.6
    assert Boost(Branch.SUPERLUMINAL, (3.0, 0.0, -4.0)).inverse().speed == (
        -3.0,
        0.0,
        4.0,
    )


def test_event_rejects_nonfinite_and_bad_shape():
    with pytest.raises(ValueError):
        Event1p1(math.nan, 0.0)
    with pytest.raises(ValueError):
        Event1p3(0.0, (1.0, 2.0))


# ---------------------------------------------------------------------------
# 1+1 matrices: frozen closed-form entries


def test_subluminal_matrix_at_three_fifths():
    M = subluminal_matrix(0.6)
    # gamma = 1.25
    assert M == APPROX(np.array([[1.25, -0.75], [-0.75, 1.25]]), rel=1e-15)
    assert float(np.linalg.det(M)) == APPROX(1.0, rel=1e-14)


def test_superluminal_matrix_at_three():
    a = 1.0 / math.sqrt(8.0)
    M = superluminal_matrix(3.0)
    assert M == APPROX(np.array([[-a, 3 * a], [3 * a, -a]]), rel=1e-15)
    assert float(np.linalg.det(M)) == APPROX(-1.0, rel=1e-14)
    # the other overall-sign convention is the elementwise negation
    assert superluminal_matrix(3.0, positive_convention=True) == APPROX(-M)


def test_matrix_constructors_enforce_branch_bounds():
    with pytest.raises(BranchSpeedViolation):
        subluminal_matrix(1.0)
    with pytest.raises(BranchSpeedViolation):
        superluminal_matrix(0.5)
    with pytest.raises(NonpositiveK):
        subluminal_matrix(0.5, K=-2.0)


def test_boost_matrix_requires_scalar_speed():
    with pytest.raises(TypeError):
        boost_matrix_1p1(Boost(Branch.SUBLUMINAL, (0.1, 0.2, 0.3)))


def test_inverse_law_both_branches():
    for M, Mi in [
        (subluminal_matrix(0.6), subluminal_matrix(-0.6)),
        (superluminal_matrix(3.0), superluminal_matrix(-3.0)),
    ]:
        assert Mi @ M == APPROX(np.eye(2), abs=1e-14)


def test_broken_superluminal_variant_inverts_to_minus_identity():
    # dropping the W/|W| factor makes M(-W) M(W) equal -1 exactly
    M = superluminal_matrix(3.0, antisymmetric_term=False)
    Mi = superluminal_matrix(-3.0, antisymmetric_term=False)
    assert Mi @ M == APPROX(-np.eye(2), abs=1e-14)
    with pytest.raises(ValueError):
        boost_matrix_1p1(Boost.infinite(), antisymmetric_term=False)


def test_velocity_and_branch_recovered_from_matrix():
    assert velocity_of_matrix(subluminal_matrix(0.6)) == APPROX(0.6, rel=1e-14)
    assert velocity_of_matrix(superluminal_matrix(3.0)) == APPROX(3.0, rel=1e-14)
    # velocity extraction is scale independent
    assert velocity_of_matrix(2.5 * subluminal_matrix(-0.3)) == APPROX(-0.3)
    assert branch_of_matrix(subluminal_matrix(0.6)) is Branch.SUBLUMINAL
    assert branch_of_matrix(superluminal_matrix(3.0)) is Branch.SUPERLUMINAL
    with pytest.raises(PoleError):
        velocity_of_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.mark.parametrize("shape", [(), (2,), (3, 3), (2, 3), (1, 2, 2, 2)])
def test_a_boost_matrix_of_another_shape_is_named(shape):
    """np.eye(3) gave a velocity of -0.0, np.ones(2) an IndexError, and
    branch_of_matrix a ValueError or TypeError from unpacking."""
    M = np.ones(shape) if shape != (3, 3) else np.eye(3)
    with pytest.raises(InvalidInput, match=re.escape(
            f"must have shape (2, 2) or (n, 2, 2), got an array of shape {shape}")):
        velocity_of_matrix(M)
    with pytest.raises(InvalidInput, match=re.escape(
            f"must have shape (2, 2), got an array of shape {shape}")):
        branch_of_matrix(M)


def test_a_stack_of_matrices_is_read_one_by_one_but_has_no_one_branch():
    M = np.stack([subluminal_matrix(0.6), superluminal_matrix(3.0)])
    assert velocity_of_matrix(M).tolist() == [velocity_of_matrix(m) for m in M]
    with pytest.raises(InvalidInput, match=re.escape("got an array of shape (2, 2, 2)")):
        branch_of_matrix(M)


def test_velocity_of_matrix_far_above_c():
    # only an x-x entry of exactly 0 is the infinite-speed pole
    for W in (1e13, 1e15, -1e15, 1e200):
        M = boost_matrix_1p1(Boost(Branch.SUPERLUMINAL, W))
        assert velocity_of_matrix(M) == APPROX(W, rel=1e-12)
    with pytest.raises(PoleError):
        velocity_of_matrix(boost_matrix_1p1(Boost.infinite()))


def test_composition_beyond_the_float_range_says_so():
    with pytest.raises(PoleError, match="beyond the float range") as err:
        compose_velocities_1p1(math.inf, 1.1426084867461988e-133, K=1e-200)
    assert "pole" not in str(err.value)
    with pytest.raises(PoleError, match="composition pole"):
        compose_velocities_1p1(0.5, -2.0)


# ---------------------------------------------------------------------------
# Applying boosts


def test_boost_at_three_fifths_on_unit_time():
    out = boost_1p1(Event1p1(1.0, 0.0), Boost(Branch.SUBLUMINAL, 0.6))
    assert (out.t, out.x) == APPROX((1.25, -0.75), rel=1e-15)


def test_superluminal_boost_frozen_values():
    out = boost_1p1(Event1p1(2.0, 1.0), Boost(Branch.SUPERLUMINAL, 3.0))
    a = 1.0 / math.sqrt(8.0)
    assert (out.t, out.x) == APPROX((a, 5 * a), rel=1e-14)
    # interval flips sign: 4 - 1 = 3 goes to -3
    s0 = interval_1p1(Event1p1(0, 0), Event1p1(2.0, 1.0))
    s1 = interval_1p1(Event1p1(0, 0), out)
    assert s1 == APPROX(-s0, rel=1e-12)


def test_infinite_boost_swaps_axes():
    out = boost_1p1(Event1p1(1.0, 0.0), Boost.infinite())
    assert (out.t, out.x) == APPROX((0.0, 1.0), abs=1e-15)
    # with c = 2: t' = x/c, x' = c*t
    out2 = boost_1p1(Event1p1(1.0, 3.0), Boost.infinite(K=0.25))
    assert (out2.t, out2.x) == APPROX((1.5, 2.0), rel=1e-15)


def test_infinite_boost_limit_is_direction_independent():
    e = Event1p1(0.7, -0.4)
    swap = boost_1p1(e, Boost.infinite())
    for w in (1e9, -1e9):
        close = boost_1p1(e, Boost(Branch.SUPERLUMINAL, w))
        assert (close.t, close.x) == APPROX((swap.t, swap.x), abs=2e-9)


# ---------------------------------------------------------------------------
# Composition


def test_velocity_composition_frozen_values():
    assert compose_velocities_1p1(0.5, 0.5) == APPROX(0.8, rel=1e-15)
    assert compose_velocities_1p1(0.5, 3.0) == APPROX(1.4, rel=1e-15)
    assert compose_velocities_1p1(2.0, 3.0) == APPROX(5.0 / 7.0, rel=1e-15)


def test_velocity_composition_pole():
    with pytest.raises(PoleError):
        compose_velocities_1p1(0.5, -2.0)


def test_velocity_composition_warns_on_light_speed():
    with pytest.warns(LightSpeedResult):
        v = compose_velocities_1p1(0.5, 1.0)
    assert v == APPROX(1.0)


@given(
    v1=st.floats(-0.99, 0.99),
    v2=st.floats(min_value=1.01, max_value=50.0),
)
def test_velocity_composition_antisymmetry(v1, v2):
    lhs = compose_velocities_1p1(v1, v2)
    rhs = compose_velocities_1p1(-v2, -v1)
    assert lhs == APPROX(-rhs, rel=1e-12, abs=1e-12)


def test_compose_boosts_branch_algebra():
    sub = Boost(Branch.SUBLUMINAL, 0.5)
    sup2 = Boost(Branch.SUPERLUMINAL, 2.0)
    sup3 = Boost(Branch.SUPERLUMINAL, 3.0)
    assert compose_boosts_1p1(sub, sub).branch is Branch.SUBLUMINAL
    assert compose_boosts_1p1(sub, sub).speed == APPROX(0.8, rel=1e-14)
    mixed = compose_boosts_1p1(sub, sup3)
    assert mixed.branch is Branch.SUPERLUMINAL
    assert mixed.speed == APPROX(1.4, rel=1e-14)
    # two superluminal boosts land back below the light cone
    ss = compose_boosts_1p1(sup2, sup3)
    assert ss.branch is Branch.SUBLUMINAL
    assert ss.speed == APPROX(5.0 / 7.0, rel=1e-14)


def test_compose_boosts_matches_matrix_product():
    b1 = Boost(Branch.SUPERLUMINAL, 2.0)
    b2 = Boost(Branch.SUPERLUMINAL, 3.0)
    direct = boost_matrix_1p1(compose_boosts_1p1(b1, b2))
    product = boost_matrix_1p1(b2) @ boost_matrix_1p1(b1)
    assert direct == APPROX(product, abs=1e-14)


def test_compose_boosts_rejects_mixed_K():
    with pytest.raises(MixedK):
        compose_boosts_1p1(
            Boost(Branch.SUBLUMINAL, 0.5, K=1.0),
            Boost(Branch.SUBLUMINAL, 0.5, K=0.25),
        )


def test_a_composed_speed_on_the_light_cone_names_both_operands():
    """Two boosts can compose to a speed that rounds into the band around c
    that Boost rejects, on either branch; the error names the operands as
    well as the composed speed, which the caller never gave."""
    b = Boost(Branch.SUBLUMINAL, 0.9999999)
    with pytest.raises(BranchSpeedViolation) as err:
        compose_boosts_1p1(b, b)
    assert str(err.value) == (
        "subluminal branch requires |V| < c: |V|=0.999999999999995, c=1.0, composing "
        "the subluminal boost at speed 0.9999999 with the subluminal boost at speed 0.9999999")
    sup, sub = Boost(Branch.SUPERLUMINAL, 1.0000001), Boost(Branch.SUBLUMINAL, 0.9999999)
    with pytest.raises(BranchSpeedViolation, match=r"\|W\|=.*, composing the superluminal "
                       r"boost at speed 1\.0000001 with the subluminal boost at speed "
                       r"0\.9999999$"):
        compose_boosts_1p1(sup, sub)


def test_compose_boosts_pole_maps_to_infinite_frame():
    with pytest.raises(PoleError):
        compose_boosts_1p1(
            Boost(Branch.SUBLUMINAL, 0.5), Boost(Branch.SUPERLUMINAL, -2.0)
        )


# ---------------------------------------------------------------------------
# Rapidity


def test_rapidity_frozen_values_and_bands():
    assert rapidity(Boost(Branch.SUBLUMINAL, 0.6)) == APPROX(math.atan(0.6))
    assert rapidity(Boost(Branch.SUPERLUMINAL, 3.0)) == APPROX(
        math.pi / 2 - math.atan(1.0 / 3.0)
    )
    assert rapidity(Boost.infinite()) == APPROX(math.pi / 2)
    assert abs(rapidity(Boost(Branch.SUBLUMINAL, 0.99))) < math.pi / 4
    assert math.pi / 4 < rapidity(Boost(Branch.SUPERLUMINAL, 1.01)) < 3 * math.pi / 4


def test_rapidity_continuous_at_light_cone():
    below = rapidity(Boost(Branch.SUBLUMINAL, 1.0 - 1e-9))
    above = rapidity(Boost(Branch.SUPERLUMINAL, 1.0 + 1e-9))
    assert below == APPROX(math.pi / 4, abs=1e-9)
    assert above - below == APPROX(0.0, abs=1e-8)


def test_rapidity_monotone_across_branches():
    speeds = [0.1, 0.5, 0.9, 0.999, 1.001, 1.5, 3.0, 10.0, 1e6]
    values = [
        rapidity(
            Boost(Branch.SUBLUMINAL if s < 1 else Branch.SUPERLUMINAL, s)
        )
        for s in speeds
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# General transform family and K extraction


def test_galilean_transform_leaves_time_alone():
    out = general_boost_1p1(Event1p1(1.0, 0.0), galilean_family(), 2.0)
    assert (out.t, out.x) == APPROX((1.0, -2.0), rel=1e-15)


def test_euclidean_member_rotates():
    # K = -1 at V = 1 is a rotation by 45 degrees
    fam = lorentz_family(K=-1.0)
    out = general_boost_1p1(Event1p1(1.0, 0.0), fam, 1.0)
    r2 = 1.0 / math.sqrt(2.0)
    assert (out.t, out.x) == APPROX((r2, -r2), rel=1e-14)


def test_a_result_beyond_a_float_names_the_event_and_the_transform():
    """Each transform's result is checked by the one kernel: a non-finite input
    is a ValueError, a result beyond a float a NonfiniteResult."""
    e, e3 = Event1p1(1e308, -1e308), Event1p3(1e308, (-1e308, 0.0, 0.0))
    size = r"has a coordinate of magnitude 10\*\*310\.151, beyond a float"
    with pytest.raises(NonfiniteResult, match=r"event Event1p1\(t=1e\+308, x=-1e\+308\) "
                                              r"boosted to superluminal speed 1\.0001 \(K=1\.0\) "
                                              + size):
        boost_1p1(e, Boost(Branch.SUPERLUMINAL, 1.0001))
    with pytest.raises(NonfiniteResult, match=r"boosted by the symmetric family at V=0\.9999"):
        general_boost_1p1(e, lorentz_family(), 0.9999)
    with pytest.raises(NonfiniteResult, match=r"r=\(-1e\+308, 0\.0, 0\.0\)\) boosted to "
                                              r"subluminal speed \(0\.9999, 0\.0, 0\.0\)"):
        boost_1p3_subluminal(e3, (0.9999, 0.0, 0.0))
    with pytest.raises(NonfiniteResult, match=r"speed \(1\.0001, 0\.0, 0\.0\) \(K=1\.0\) "
                                              + size):
        boost_1p3_superluminal(e3, (1.0001, 0.0, 0.0))
    # the 1+1 image fits; the perpendicular part of r divided by c does not
    with pytest.raises(NonfiniteResult, match=r"e\+19\) has a coordinate, beyond a float"):
        boost_1p3_superluminal(Event1p3(0.0, (0.0, 1e300, 0.0)), (1.0, 0.0, 0.0), c=1e-10)
    t, r = np.array([0.0, 1e308]), np.array([[0.0, 0.0, 0.0], [-1e308, 0.0, 0.0]])
    with pytest.raises(NonfiniteResult, match=r"event 1 boosted to superluminal speed "
                                              r"\(1\.0001, 0\.0, 0\.0\)"):
        kin.boost_1p3_superluminal_columns(t, r, np.array([[2.0, 0.0, 0.0], [1.0001, 0.0, 0.0]]))
    with pytest.raises(NonfiniteResult, match=r"event 1 boosted to subluminal speed 0\.9999"):
        kin.boost_1p1_columns(kin.EventColumns(t, -t), np.array([False, True]),
                              np.array([2.0, 0.9999]))
    with pytest.raises(ValueError, match="x must be finite, got inf"):
        kin.boost_1p1_columns(kin.EventColumns(t, np.array([0.0, math.inf])),
                              Branch.SUBLUMINAL, t * 0.0)
    with pytest.raises(ValueError, match="r component must be finite, got nan"):
        kin.boost_1p3_superluminal_columns(t, r * np.nan, np.array([[2.0, 0.0, 0.0]] * 2))


def test_general_transform_degenerate_cases():
    with pytest.raises(ZeroVelocity):
        general_boost_1p1(Event1p1(1.0, 0.0), galilean_family(), 0.0)
    vanishing = GeneralTransformFamily(A=lambda v: v - 1.0, parity=Parity.SYMMETRIC)
    with pytest.raises(DegenerateA):
        general_boost_1p1(Event1p1(1.0, 0.0), vanishing, 1.0)


@pytest.mark.parametrize("call, V", [
    (lambda: extract_K(lorentz_family(1.0), [1.0, 0.3]), "1.0"),
    (lambda: general_boost_1p1(Event1p1(1, 0), lorentz_family(1.0), 1.0), "1.0"),
    (lambda: lorentz_family(1.0).parity_deviation([1.0]), "1.0"),
    (lambda: extract_K(lorentz_family(1.0), [5e-324, 0.3]), "5e-324"),
    (lambda: extract_K(lorentz_family(1.0), [1e308, 0.3]), "1e+308"),
    (lambda: general_boost_1p1(Event1p1(1, 0), lorentz_family(1.0), 2.0), "2.0"),
    (lambda: extract_K(superluminal_family(), [0.5, 2.0]), "0.5"),
], ids=["pole extract_K", "pole general_boost", "pole parity", "V*V underflow",
        "domain extract_K", "domain general_boost", "domain superluminal"])
def test_a_family_scale_that_is_undefined_or_underflows_names_V(call, V):
    """A pole of A raised ZeroDivisionError, V*V underflowing to 0 did too,
    and A beyond the family's light speed raised `math domain error`."""
    with pytest.raises(DegenerateA, match=rf"at V={re.escape(V)}\b"):
        call()


@pytest.mark.parametrize(
    "fam,expected",
    [
        (lorentz_family(1.0), 1.0),
        (galilean_family(), 0.0),
        (lorentz_family(-1.0), -1.0),
        (superluminal_family(1.0), 1.0),
    ],
)
def test_extract_K_known_families(fam, expected):
    samples = [0.1, 0.17, 0.23, 0.31] if expected >= 0 else [0.3, 0.7, 1.4]
    if fam.parity is Parity.ANTISYMMETRIC:
        samples = [1.5, 2.0, 3.0, 7.0]
    assert extract_K(fam, samples) == APPROX(expected, abs=1e-9)


def test_extract_K_rejects_varying_expression():
    fam = GeneralTransformFamily(A=lambda v: 1.0 + v * v, parity=Parity.SYMMETRIC)
    with pytest.raises(NotConstant):
        extract_K(fam, [0.3, 0.7])


def test_extract_K_sample_validation():
    with pytest.raises(ZeroVelocity):
        extract_K(galilean_family(), [0.0, 0.5])
    with pytest.raises(ValueError):
        extract_K(galilean_family(), [0.5, 0.5])


def test_parity_deviation_flags_a_mislabeled_family():
    assert lorentz_family().parity_deviation([0.1, 0.5]) == 0.0
    assert superluminal_family().parity_deviation([2.0, 5.0]) == 0.0
    mislabeled = GeneralTransformFamily(
        A=lambda v: 1.0 + v, parity=Parity.SYMMETRIC
    )
    assert mislabeled.parity_deviation([0.5]) > 0.1


# ---------------------------------------------------------------------------
# 1+3 transforms


def test_1p3_subluminal_matches_1p1_along_axis():
    out = boost_1p3_subluminal(Event1p3(1.0, (0.0, 0.0, 0.0)), (0.6, 0.0, 0.0))
    assert out.t == APPROX(1.25, rel=1e-15)
    assert out.r == APPROX((-0.75, 0.0, 0.0), abs=1e-15)


def test_1p3_subluminal_zero_velocity_is_identity():
    e = Event1p3(0.3, (1.0, -2.0, 0.5))
    out = boost_1p3_subluminal(e, (0.0, 0.0, 0.0))
    assert out == e


def test_1p3_subluminal_leaves_perpendicular_alone(rng):
    for _ in range(20):
        v = rng.uniform(-0.6, 0.6, 3)
        e = Event1p3(rng.normal(), tuple(rng.normal(size=3)))
        out = boost_1p3_subluminal(e, tuple(v))
        r, rp = np.array(e.r), np.array(out.r)
        perp = r - (r @ v) / (v @ v) * v
        perp_after = rp - (rp @ v) / (v @ v) * v
        assert perp_after == APPROX(perp, abs=1e-12)


def test_1p3_superluminal_matches_1p1_along_axis():
    out = boost_1p3_superluminal(Event1p3(2.0, (1.0, 0.0, 0.0)), (3.0, 0.0, 0.0))
    a = 1.0 / math.sqrt(8.0)
    assert out.x == APPROX(5 * a, rel=1e-14)
    assert out.tvec == APPROX((a, 0.0, 0.0), abs=1e-14)


def test_1p3_superluminal_perpendicular_position_becomes_time():
    out = boost_1p3_superluminal(Event1p3(0.0, (0.0, 1.0, 0.0)), (2.0, 0.0, 0.0))
    assert out.x == APPROX(0.0, abs=1e-15)
    assert out.tvec == APPROX((0.0, 1.0, 0.0), abs=1e-15)


def test_1p3_superluminal_interval_flips(rng):
    for _ in range(50):
        w = rng.uniform(1.2, 5.0) * _random_unit(rng)
        e = Event1p3(rng.normal(), tuple(rng.normal(size=3)))
        out = boost_1p3_superluminal(e, tuple(w))
        before = interval_nm([e.t], e.r)
        after = interval_nm(out.tvec, [out.x])
        assert after == APPROX(-before, rel=1e-10, abs=1e-12)


def test_1p3_superluminal_rejects_slow_and_infinite_w():
    e = Event1p3(0.0, (0.0, 0.0, 0.0))
    with pytest.raises(BranchSpeedViolation):
        boost_1p3_superluminal(e, (0.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        boost_1p3_superluminal(e, (math.inf, 0.0, 0.0))


def test_1p3_large_w_approaches_axis_swap():
    e = Event1p3(0.7, (0.3, -0.2, 0.5))
    out = boost_1p3_superluminal(e, (1e9, 0.0, 0.0))
    # x' -> c*t and tvec' -> r/c for every direction of W
    assert out.x == APPROX(0.7, abs=1e-8)
    assert out.tvec == APPROX((0.3, -0.2, 0.5), abs=1e-8)


def test_interval_nm_quadratic_form():
    assert interval_nm([1.0], [2.0, 3.0]) == APPROX(-12.0)
    assert interval_nm([1.0, 2.0], [1.0], c=2.0) == APPROX(19.0)


def test_intervals_that_overflow_in_floats_are_exactly_rounded_or_raise():
    """Where the float formula overflows for finite events, the interval is
    the exactly rounded value, or NonfiniteResult naming the events and c
    when that is beyond a float; finite rows keep the formula's bits."""
    near = float(np.nextafter(2e154, 0.0))  # (2e154)**2 and near**2 overflow; their difference fits
    exact = float(Fraction(2e154) ** 2 - Fraction(near) ** 2)
    assert 0.0 < exact < 1e300
    assert interval_1p1(Event1p1(1e308, 1e308), Event1p1(-1e308, -1e308)) == 0.0
    assert interval_1p1(Event1p1(-1e154, 0.0), Event1p1(1e154, near)) == exact
    assert interval_nm([1e200], [1e200]) == 0.0 and type(interval_nm([1e200], [1e200])) is float
    assert interval_nm([2e154], [near]) == exact
    t1, x1 = np.array([0.0, 1e308, -1e154]), np.array([0.0, 1e308, 0.0])
    t2, x2 = np.array([0.3, -1e308, 1e154]), np.array([0.1, -1e308, near])
    rows = interval_1p1(kin.EventColumns(t1, x1), kin.EventColumns(t2, x2))
    assert rows.tolist() == [0.3 * 0.3 - 0.1 * 0.1, 0.0, exact]
    dts = np.array([[0.3], [1e200], [2e154]])
    drs = np.array([[0.1, 0.2], [1e200, 0.0], [near, 0.0]])
    assert interval_nm(dts, drs).tolist() == [0.3 * 0.3 - (0.1 * 0.1 + 0.2 * 0.2), 0.0, exact]
    with pytest.raises(NonfiniteResult, match=r"events \(t, x\) = \(0\.0, 0\.0\) and "
                                              r"\(10000000000\.0, 0\.0\) with c=1e\+150 .*10\*\*320"):
        interval_1p1(Event1p1(0, 0), Event1p1(1e10, 0), c=1e150)
    with pytest.raises(NonfiniteResult, match=r"increments dt=\[1e\+200\] and dr=\[0\.0\]"):
        interval_nm([1e200], [0.0])


def test_a_kinematics_input_that_is_not_finite_raises_nonfinite_input():
    """The one finiteness check of events and columns raises the named
    error, a ValueError, where it raised a plain ValueError."""
    with pytest.raises(NonfiniteInput, match=r"^t must be finite, got nan$"):
        Event1p1(math.nan, 0.0)
    with pytest.raises(NonfiniteInput, match=r"^x must be finite, got inf$"):
        kin.boost_1p1_columns(kin.EventColumns(np.zeros(2), np.array([0.0, math.inf])),
                              Branch.SUBLUMINAL, np.zeros(2))


@pytest.mark.parametrize("call, shown", [
    (lambda: Event1p1(1j, 0.0), "t must be real, got 1j"),
    (lambda: Event1p3(0.0, (0.0, 1 + 0j, 0.0)), "r component must be real, got (1+0j) at entry 1"),
    (lambda: Boost(Branch.SUBLUMINAL, 0.5 + 0.5j), "speed must be real, got (0.5+0.5j)"),
    (lambda: Boost(Branch.SUBLUMINAL, 0.5, 1j), "K must be real, got 1j"),
    (lambda: kin.K_from_c(np.complex128(1)), "light speed c must be real"),
    (lambda: compose_velocities_1p1(0.5, 1j), "V2 must be real, got 1j"),
    (lambda: lorentz_family(1j), "K must be real, got 1j"),
    (lambda: superluminal_family(1 + 0j), "K must be real, got (1+0j)"),
    (lambda: velocity_of_matrix(np.array([[1, 0.5j], [0.1 + 0.2j, 1]])),
     r"matrix entry must be real, got 0.5j at entry 1"),
    (lambda: branch_of_matrix(np.array([[1, 0], [0, 1]], complex)),
     r"matrix entry must be real, got (1+0j) at entry 0"),
])
def test_a_complex_value_where_a_real_number_is_required_is_named(call, shown):
    """One real-number rule (_input.real): a complex value, whatever its
    imaginary part, raises InvalidInput naming it, where it raised a builtin
    TypeError or, as a complex array, lost its imaginary part to a
    ComplexWarning (velocity_of_matrix returned -0.1)."""
    with pytest.raises(InvalidInput, match=re.escape(shown)):
        call()


def test_intervals_name_an_input_or_a_light_speed_that_is_not_finite():
    """A non-finite increment raises NonfiniteInput naming the row's inputs,
    where it came back as an inf or a NaN, and c is checked by K_from_c."""
    with pytest.raises(NonfiniteInput, match=r"increments dt=\[inf\] and dr=\[0\.0\]"):
        interval_nm([math.inf], [0.0])
    with pytest.raises(NonfiniteInput, match=r"increments dt=\[1\.0\] and dr=\[nan\]"):
        interval_nm([[0.5], [1.0]], [[0.1], [math.nan]])
    with pytest.raises(NonfiniteInput, match=r"events \(t, x\) = \(0\.0, inf\) and "
                                             r"\(1\.0, 0\.0\)"):
        interval_1p1(kin.EventColumns(np.array([0.0, 0.0]), np.array([0.0, math.inf])),
                     kin.EventColumns(np.array([1.0, 1.0]), np.array([0.0, 0.0])))
    for c in (math.nan, math.inf, 0.0, -1.0, 1e300):
        with pytest.raises(NonpositiveK, match=re.escape(f"c={c!r}")):
            interval_1p1(Event1p1(0, 0), Event1p1(1, 0), c=c)
        with pytest.raises(NonpositiveK, match=re.escape(f"c={c!r}")):
            interval_nm([1.0], [0.0], c=c)


def _random_unit(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# One kernel behind every 1+1 result, and one light-speed check


@pytest.mark.parametrize(
    "b",
    [
        Boost(Branch.SUBLUMINAL, 0.6),
        Boost(Branch.SUBLUMINAL, -0.93, K=0.25),
        Boost(Branch.SUPERLUMINAL, 3.0),
        Boost(Branch.SUPERLUMINAL, -1.2, K=4.0),
        Boost.infinite(),
        Boost.infinite(K=0.25),
    ],
)
def test_boost_1p1_agrees_with_its_matrix(b, rng):
    M = boost_matrix_1p1(b)
    for _ in range(50):
        t, x = rng.uniform(-3, 3, 2)
        out = boost_1p1(Event1p1(t, x), b)
        want = M @ np.array([t, x])
        scale = np.abs(M) @ np.abs([t, x])
        assert np.all(np.abs([out.t, out.x] - want) <= 1e-15 * scale)


def test_1p3_subluminal_rejects_light_speed_and_above():
    e = Event1p3(1.0, (0.0, 0.0, 0.0))
    for v in [(1.0, 0.0, 0.0), (0.0, 0.6, 0.8), (2.0, 0.0, 0.0), (0.0, 0.0, -5.0)]:
        with pytest.raises(BranchSpeedViolation):
            boost_1p3_subluminal(e, v)
    with pytest.raises(BranchSpeedViolation):
        boost_1p3_subluminal(e, (2.0, 0.0, 0.0), c=2.0)
    assert boost_1p3_subluminal(e, (1.2, 0.0, 0.0), c=2.0).t == APPROX(1.25, rel=1e-15)


@pytest.mark.parametrize("c", [0.0, -1.0, math.inf, math.nan, 1e-200, 1e200])
def test_bad_light_speed_is_named_in_1p3(c):
    e = Event1p3(1.0, (0.0, 0.0, 0.0))
    with pytest.raises(NonpositiveK, match="light speed"):
        boost_1p3_subluminal(e, (0.0, 0.0, 0.0), c=c)
    with pytest.raises(NonpositiveK, match="light speed"):
        boost_1p3_superluminal(e, (3.0, 0.0, 0.0), c=c)


# ---------------------------------------------------------------------------
# Speeds far above c: the superluminal scale is formed as s = a*W =
# sign/sqrt(K - 1/W**2) and a = s/W, so nothing overflows for any |W| > c.


@pytest.mark.parametrize("W", [1e155, -1e155, 1e200, -1e200, 1e308, -1e308])
def test_huge_w_matrix_is_the_swap_to_one_ulp(W):
    M = boost_matrix_1p1(Boost(Branch.SUPERLUMINAL, W))
    want = [[-1.0 / W, 1.0], [1.0, -1.0 / W]]
    for i in range(2):
        for j in range(2):
            assert abs(M[i, j] - want[i][j]) <= math.ulp(want[i][j])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    assert abs(det + 1.0) <= math.ulp(1.0)


@pytest.mark.parametrize("W", [1.7976931348623157e308, 1e308, 7.7e307, -1.3e308])
def test_speeds_whose_reciprocal_is_subnormal_keep_their_precision(W):
    # 1/W is subnormal and 4/W normal, so both laws must agree with W/4 scaled
    assert compose_velocities_1p1(W, 0.0) == 4.0 * compose_velocities_1p1(W / 4.0, 0.0)
    rest = Boost(Branch.SUBLUMINAL, 0.0)
    assert compose_boosts_1p1(Boost(Branch.SUPERLUMINAL, W), rest).speed == (
        4.0 * compose_boosts_1p1(Boost(Branch.SUPERLUMINAL, W / 4.0), rest).speed)
    M, M4 = (boost_matrix_1p1(Boost(Branch.SUPERLUMINAL, w, 1e-200)) for w in (W, W / 4.0))
    assert 4.0 * M[0, 0] == M4[0, 0] and 4.0 * M[1, 1] == M4[1, 1]
    assert (M[0, 1], M[1, 0]) == (M4[0, 1], M4[1, 0])


def test_huge_w_boost_1p1_is_the_swap():
    out = boost_1p1(Event1p1(1.0, 2.0), Boost(Branch.SUPERLUMINAL, 1e200))
    assert (out.t, out.x) == (2.0, 1.0)


def test_huge_w_composes_with_a_subluminal_boost():
    # the near-swap followed by V = 1/2 is the superluminal boost at W = 2
    for b1, b2 in [
        (Boost(Branch.SUPERLUMINAL, 1e200), Boost(Branch.SUBLUMINAL, 0.5)),
        (Boost(Branch.SUBLUMINAL, 0.5), Boost(Branch.SUPERLUMINAL, 1e200)),
    ]:
        composed = compose_boosts_1p1(b1, b2)
        assert composed.branch is Branch.SUPERLUMINAL
        assert composed.speed == APPROX(2.0, rel=1e-15)


@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
def test_1p3_superluminal_at_huge_w_is_the_swap(c):
    e = Event1p3(0.7, (0.3, -0.2, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in [(1e160, 0.0, 0.0), (0.0, -1e160, 0.0), (6e159, 0.0, 8e159),
                  (1.5e308, -1.5e308, 0.0)]:  # |W| overflows to inf
            out = boost_1p3_superluminal(e, w, c=c)
            assert out.x == APPROX(c * e.t, rel=1e-15)
            assert out.tvec == APPROX(tuple(r / c for r in e.r), rel=1e-15)


def test_rapidity_of_huge_vector_speed():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rapidity(Boost(Branch.SUPERLUMINAL, (1e200, 1e200, 0.0))) == math.pi / 2


# ---------------------------------------------------------------------------
# 1+3 oracle: the closed forms the 1+3 transforms had before they ran on the
# 1+1 kernel, frozen here.  Each returns the value and the sum of the
# magnitudes of its terms, the scale the comparison is made against.


def _closed_1p3_subluminal(t, r, vel, c):
    r, vel = np.asarray(r), np.asarray(vel)
    speed = float(np.linalg.norm(vel))
    g = 1.0 / math.sqrt(1.0 - (speed / c) ** 2)
    vr = float(vel @ r)
    rp = r - (vr / speed**2) * vel + ((vr / speed**2 - t) * g) * vel
    tp = g * (t - vr / c**2)
    rn = math.hypot(*r)
    return (tp, rp), (g * (abs(t) + speed * rn / c**2), rn + g * (rn + speed * abs(t)))


def _closed_1p3_superluminal(t, r, wvec, c):
    r, wvec = np.asarray(r), np.asarray(wvec)
    w = float(np.linalg.norm(wvec))
    g = 1.0 / math.sqrt((w / c) ** 2 - 1.0)
    wr = float(wvec @ r)
    xp = (w * t - wr / w) * g
    tvec = (r - (wr / w**2) * wvec + ((wr / (w * c) - c * t / w) * g) * wvec) / c
    rn = math.hypot(*r)
    return (xp, tvec), (g * (w * abs(t) + rn), 2 * rn / c + g * (w * rn / c**2 + abs(t)))


_coord = st.floats(-10.0, 10.0)
TINY = 1e-300  # below the normal range, rounding is absolute
_direction = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@given(
    t=_coord,
    r=st.tuples(_coord, _coord, _coord),
    direction=_direction,
    c=st.sampled_from([0.5, 1.0, 3.0]),
    v_over_c=st.floats(1e-6, 0.999),
    log_w_over_c=st.floats(math.log(1.001), math.log(1e6)),
)
def test_1p3_transforms_match_the_closed_forms(t, r, direction, c, v_over_c, log_w_over_c):
    """Speeds stay 1e-3 away from c: closer, the two forms round 1 - (v/c)**2
    differently, and their gammas part by about eps*gamma**2, which is the
    conditioning of the problem, not a fault of either form."""
    n = np.asarray(direction)
    assume(np.linalg.norm(n) > 0.1)
    n = n / np.linalg.norm(n)
    e = Event1p3(t, r)

    vel = tuple(v_over_c * c * n)
    (tp, rp), (st_, sr) = _closed_1p3_subluminal(t, r, vel, c)
    out = boost_1p3_subluminal(e, vel, c=c)
    assert abs(out.t - tp) <= 1e-12 * st_ + TINY
    assert np.max(np.abs(np.subtract(out.r, rp))) <= 1e-12 * sr + TINY

    wvec = tuple(math.exp(log_w_over_c) * c * n)
    (xp, tvec), (sx, stv) = _closed_1p3_superluminal(t, r, wvec, c)
    sup = boost_1p3_superluminal(e, wvec, c=c)
    assert abs(sup.x - xp) <= 1e-12 * sx + TINY
    assert np.max(np.abs(np.subtract(sup.tvec, tvec))) <= 1e-12 * stv + TINY


# ---------------------------------------------------------------------------
# Composition on projective points: a speed V is (p, q) with V = p/q, (V, 1)
# up to c and (1, 1/V) beyond it, so +/-inf is the ordinary point (1, +/-0).


@pytest.mark.parametrize("W", [1e15, 1e300, -1e300])
def test_compose_far_above_c_keeps_the_speed(W):
    sup, rest = Boost(Branch.SUPERLUMINAL, W), Boost(Branch.SUBLUMINAL, 0.0)
    for composed in (compose_boosts_1p1(sup, rest), compose_boosts_1p1(rest, sup)):
        assert composed.branch is Branch.SUPERLUMINAL
        assert composed.speed == APPROX(W, rel=1e-15)


def test_velocity_composition_with_an_infinite_speed():
    assert compose_velocities_1p1(0.5, math.inf) == 2.0
    assert compose_velocities_1p1(math.inf, 0.5) == 2.0
    assert compose_velocities_1p1(-math.inf, 0.5) == 2.0  # one infinite frame
    assert compose_velocities_1p1(0.5, math.inf, K=0.25) == 8.0


@pytest.mark.parametrize("V1,V2,name", [(math.nan, 0.5, "V1"), (0.5, math.nan, "V2")])
def test_velocity_composition_rejects_nan(V1, V2, name):
    with pytest.raises(ValueError, match=name):
        compose_velocities_1p1(V1, V2)


def test_opposite_speeds_compose_to_rest_exactly():
    for V in (0.3, -0.77, 0.999, 1.001, 3.0, -1e15, 1e300):
        b = Boost(Branch.SUBLUMINAL if abs(V) < 1 else Branch.SUPERLUMINAL, V)
        assert compose_velocities_1p1(V, -V) == 0.0
        rest = compose_boosts_1p1(b, b.inverse())
        assert rest.branch is Branch.SUBLUMINAL and rest.speed == 0.0


def _rapidity_before(b):
    """rapidity as it was written before it read the projective point."""
    c = 1.0 / math.sqrt(b.K)
    v = float(b.speed)
    if b.branch is Branch.SUBLUMINAL:
        return math.atan(v / c)
    return math.pi / 2.0 - math.atan(c / v)


@given(
    K=st.sampled_from([0.25, 1.0, 4.0]),
    v_over_c=st.floats(-(1.0 - 1e-11), 1.0 - 1e-11),
    log_w_over_c=st.floats(math.log(1.0 + 1e-11), 700.0),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_rapidity_within_one_ulp_of_the_branch_formulas(K, v_over_c, log_w_over_c, sign):
    c = 1.0 / math.sqrt(K)
    for b in (Boost(Branch.SUBLUMINAL, v_over_c * c, K),
              Boost(Branch.SUPERLUMINAL, sign * math.exp(log_w_over_c) * c, K)):
        before = _rapidity_before(b)
        assert abs(rapidity(b) - before) <= math.ulp(before)


def test_rapidity_is_exactly_half_pi_at_infinite_speed():
    for K in (1e-200, 0.25, 1.0, 4.0, 1e200):
        for W in (math.inf, -math.inf):
            assert rapidity(Boost(Branch.SUPERLUMINAL, W, K)) == math.pi / 2


ORACLE_K = [1e-200, 0.25, 1.0, 4.0, 1e200]
EPS = np.finfo(float).eps
FLOAT_MAX = np.finfo(float).max
ETA = Fraction(2) ** -1074  # absolute rounding below the normal range


@st.composite
def _oracle_speed(draw, K, gap=0.0):
    """A speed for K: an absolute special (+/-inf, +/-1e15, +/-1e300, 0),
    one within 1e-9 of c, or an ordinary multiple of c.  gap > 0 keeps the
    speed at least that far from c, relative."""
    c = 1.0 / math.sqrt(K)
    sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["special", "near_c", "ordinary"] if gap == 0.0
                                else ["special", "ordinary"]))
    if kind == "special":
        v = sign * draw(st.sampled_from([math.inf, 1e15, 1e300, 0.0]))
    elif kind == "near_c":
        v = sign * c * (1.0 + draw(st.floats(-1e-9, 1e-9)))
    else:
        v = sign * c * draw(st.floats(0.0, 50.0))
    assume(abs(abs(v) / c - 1.0) >= gap)
    return v


def _exact_point(V, K):
    """The point of V as the law forms it, with exact rational entries."""
    if math.isinf(V):
        return Fraction(1), Fraction(0)
    if K * V * V <= 1.0:
        return Fraction(V), Fraction(1)
    return Fraction(1), 1 / Fraction(V)


@given(data=st.data(), K=st.sampled_from(ORACLE_K))
@settings(max_examples=400)
def test_composed_speed_matches_exact_arithmetic(data, K):
    """Against the law evaluated in exact rationals on the same float inputs.

    With P = p1*q2 + p2*q1, Q = q1*q2 + K*p1*p2, v = P/Q and Sp, Sq the sums
    of the magnitudes of their terms, the computed speed must lie within
    4*eps*kappa*|v| of v, kappa = Sp/|P| + Sq/|Q| the condition number of the
    two sums: |v_hat - v| <= 4*eps*(Sp + |v|*Sq)/|Q|, plus the absolute
    rounding ETA of each operation below the normal range.  PoleError is allowed
    only where Q lies within that rounding of 0 or v beyond the float range
    (q underflows), an infinite result only where v may exceed that range."""
    V1, V2 = data.draw(_oracle_speed(K)), data.draw(_oracle_speed(K))
    (p1, q1), (p2, q2) = _exact_point(V1, K), _exact_point(V2, K)
    k = Fraction(K)
    P, Q = p1 * q2 + p2 * q1, q1 * q2 + k * p1 * p2
    Sp, Sq = abs(p1 * q2) + abs(p2 * q1), abs(q1 * q2) + k * abs(p1 * p2)
    tol = 4 * Fraction(EPS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LightSpeedResult)
        try:
            v_hat = compose_velocities_1p1(V1, V2, K)
        except PoleError:
            assert abs(Q) <= tol * Sq + 4 * ETA or abs(P) >= Fraction(FLOAT_MAX) * abs(Q)
            return
    assert not math.isnan(v_hat)
    if Q == 0:
        return  # the exact pole; any rounding of q leaves a huge speed
    v = P / Q
    bound = (tol * (Sp + abs(v) * Sq) + 4 * ETA * (1 + abs(v))) / abs(Q) + ETA
    if math.isinf(v_hat):
        assert abs(v) + bound >= Fraction(FLOAT_MAX)
    else:
        assert abs(Fraction(v_hat) - v) <= bound


def _as_boost(V, K):
    mag = abs(V) * math.sqrt(K)
    return Boost(Branch.SUBLUMINAL if mag < 1.0 else Branch.SUPERLUMINAL, V, K)


@given(data=st.data(), K=st.sampled_from(ORACLE_K))
@settings(max_examples=400)
def test_composed_boost_matrix_is_the_matrix_product(data, K):
    """boost_matrix_1p1(compose(b1, b2)) equals M2 @ M1 entrywise to 1e-12 of
    |M2| @ |M1|, where both operands and the result lie at least 1e-3
    (relative) away from c; below the normal range rounding is absolute.  A
    composed speed beyond the float range rounds to +/-inf, the axis swap,
    or makes q underflow to 0, a PoleError; the product's own speed,
    -M[1, 0]/M[1, 1], must then lie beyond that range too."""
    b1 = _as_boost(data.draw(_oracle_speed(K, gap=1e-3)), K)
    b2 = _as_boost(data.draw(_oracle_speed(K, gap=1e-3)), K)
    M1, M2 = boost_matrix_1p1(b1), boost_matrix_1p1(b2)
    product, scale = M2 @ M1, np.abs(M2) @ np.abs(M1)
    beyond = abs(product[1, 1]) * (1 - 1e-12) <= abs(product[1, 0]) / FLOAT_MAX
    try:
        composed = compose_boosts_1p1(b1, b2)
    except PoleError:  # the product is the axis swap: no diagonal
        assert beyond or np.all(np.abs(np.diag(product)) <= 1e-12 * np.diag(scale) + TINY)
        return
    assert composed.branch is (Branch.SUBLUMINAL if b1.branch is b2.branch
                               else Branch.SUPERLUMINAL)
    assume(abs(abs(composed.speed) * math.sqrt(K) - 1.0) >= 1e-3)
    if math.isinf(composed.speed):
        assert beyond
        return
    direct = boost_matrix_1p1(composed)
    assert np.all(np.abs(direct - product) <= 1e-12 * scale + TINY)
    # one law: the boost and the raw-speed compositions give the same number
    assert composed.speed == compose_velocities_1p1(b1.speed, b2.speed, K)


# ---------------------------------------------------------------------------
# Columns: the kernels on float64 columns equal their scalar calls bit for bit


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _column_speeds(branch, K):
    """Speeds of one branch for K: ordinary ones, ones near c, and above c
    ones whose reciprocal is subnormal (|W| > 2**1022) and +/-inf."""
    c = 1.0 / math.sqrt(K)
    if branch is Branch.SUBLUMINAL:
        return [0.0, -0.0, 0.3 * c, -0.95 * c, c * (1 - 1e-9), -c * (1 - 1e-9)]
    return [1.05 * c, -19.5 * c, c * (1 + 1e-9), 1e15 * c, -1e300, 7.7e307, 1e308,
            -1.7976931348623157e308, math.inf, -math.inf]


@pytest.mark.parametrize("K", ORACLE_K)
@pytest.mark.parametrize("branch", list(Branch))
@pytest.mark.parametrize("antisymmetric_term", [True, False])
@pytest.mark.parametrize("positive_convention", [False, True])
def test_entries_on_a_column_equal_the_scalar_entries(K, branch, antisymmetric_term,
                                                      positive_convention):
    speeds = [v for v in _column_speeds(branch, K)
              if antisymmetric_term or branch is Branch.SUBLUMINAL or not math.isinf(v)]
    kw = dict(positive_convention=positive_convention, antisymmetric_term=antisymmetric_term)
    V = np.array(speeds)
    column = kin._entries(kin.column_boost(branch, V, K), V, **kw)
    scalar = [kin._entries(Boost(branch, v, K), **kw) for v in speeds]
    for j in range(4):
        assert _bits(column[j]) == _bits([m[j] for m in scalar])


def test_the_broken_variant_rejects_a_column_with_an_infinite_speed():
    V = np.array([2.0, math.inf])
    with pytest.raises(ValueError, match="infinite-speed"):
        kin.column_entries(Branch.SUPERLUMINAL, V, antisymmetric_term=False)


@pytest.mark.parametrize("K", ORACLE_K)
def test_compose_on_columns_equals_the_scalar_law(K):
    speeds = (_column_speeds(Branch.SUBLUMINAL, K) + _column_speeds(Branch.SUPERLUMINAL, K))
    pairs = [(v1, v2) for v1 in speeds for v2 in speeds]
    expected, keep = [], []
    for v1, v2 in pairs:
        try:
            expected.append(kin._compose(v1, v2, K))
            keep.append((v1, v2))
        except PoleError:
            pass
    V1, V2 = (np.array(col) for col in zip(*keep))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(kin._compose(V1, V2, K)) == _bits(expected)


def test_compose_on_columns_names_the_first_pole():
    with pytest.raises(PoleError, match=r"V1=2\.0, V2=-0\.5"):
        kin._compose(np.array([0.5, 2.0, 3.0]), np.array([0.5, -0.5, -1 / 3]), 1.0)


@pytest.mark.parametrize("branch,bad", [
    (Branch.SUBLUMINAL, 1.0), (Branch.SUBLUMINAL, math.nan),
    (Branch.SUPERLUMINAL, -1.0), (Branch.SUPERLUMINAL, math.nan),
])
def test_a_column_is_validated_by_its_extreme_speed(branch, bad):
    """A NaN speed is no speed on either branch: NonfiniteInput, as for a
    NaN component of a vector speed."""
    good = 0.5 if branch is Branch.SUBLUMINAL else 2.0
    error = NonfiniteInput if math.isnan(bad) else BranchSpeedViolation
    with pytest.raises(error):
        kin.column_entries(branch, np.array([good, bad, good]))
    with pytest.raises(error):
        kin.column_entries(np.array([True, branch is Branch.SUBLUMINAL]), np.array([0.5, bad]))


def test_boost_columns_equal_the_one_event_boosts():
    rng = np.random.default_rng(7)
    t, x = rng.uniform(-3, 3, (2, 64))
    sub = rng.random(64) < 0.5
    V = np.where(sub, rng.uniform(-0.99, 0.99, 64), rng.uniform(1.01, 30, 64) * np.sign(t))
    out = kin.boost_1p1_columns(kin.EventColumns(t, x), sub, V)
    boosted = [boost_1p1(Event1p1(a, b), Boost(Branch.SUBLUMINAL if s else Branch.SUPERLUMINAL, v))
               for a, b, s, v in zip(t.tolist(), x.tolist(), sub.tolist(), V.tolist())]
    assert _bits(out.t) == _bits([e.t for e in boosted])
    assert _bits(out.x) == _bits([e.x for e in boosted])
    assert _bits(interval_1p1(out, out)) == _bits(np.zeros(64))


def test_boost_columns_reject_an_image_beyond_the_float_range():
    e = kin.EventColumns(np.array([0.0, 1e308]), np.array([0.0, -1e308]))
    with pytest.raises(NonfiniteResult, match=r"event 1 boosted to superluminal speed 1\.0001"):
        kin.boost_1p1_columns(e, Branch.SUPERLUMINAL, np.array([1.0001, 1.0001]))


@pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
def test_1p3_boost_columns_equal_the_one_event_boosts(c):
    rng = np.random.default_rng(11)
    t, r = rng.uniform(-2, 2, 32), rng.uniform(-2, 2, (32, 3))
    W = rng.uniform(-1, 1, (32, 3))
    W *= (rng.uniform(1.1, 8.0, 32) * c / np.sqrt((W * W).sum(axis=1)))[:, None]
    W[0] = (1.5e308, -1.5e308, 0.0)  # |W| overflows to inf
    tvec, x = kin.boost_1p3_superluminal_columns(t, r, W, c)
    boosted = [boost_1p3_superluminal(Event1p3(a, tuple(b)), tuple(w), c)
               for a, b, w in zip(t.tolist(), r.tolist(), W.tolist())]
    assert _bits(tvec) == _bits([e.tvec for e in boosted])
    assert _bits(x) == _bits([e.x for e in boosted])
    with pytest.raises(ValueError, match="speed component"):
        kin.boost_1p3_superluminal_columns(t[:1], r[:1], np.array([[math.inf, 0.0, 0.0]]))


@pytest.mark.parametrize("branch", list(Branch))
def test_rapidity_columns_equal_the_one_boost_rapidities(branch):
    speeds = _column_speeds(branch, 1.0)
    expected = [rapidity(Boost(branch, v)) for v in speeds]
    assert _bits(kin.rapidity_columns(branch, np.array(speeds))) == _bits(expected)


def test_velocity_of_a_matrix_stack_and_interval_rows():
    rng = np.random.default_rng(5)
    M = rng.uniform(-2, 2, (16, 2, 2))
    assert _bits(velocity_of_matrix(M)) == _bits([velocity_of_matrix(m) for m in M])
    assert type(velocity_of_matrix(M[0])) is float
    M[3, 1, 1] = 0.0
    with pytest.raises(PoleError):
        velocity_of_matrix(M)
    dts, drs = rng.uniform(-2, 2, (16, 1)), rng.uniform(-2, 2, (16, 3))
    assert _bits(interval_nm(dts, drs)) == _bits([interval_nm(a, b) for a, b in zip(dts, drs)])
    assert type(interval_nm(dts[0], drs[0])) is float


def test_a_matrix_speed_beyond_a_float_is_a_pole():
    with pytest.raises(PoleError, match="^the speed of the matrix lies beyond the float range$"):
        velocity_of_matrix([[1, 0], [1e308, 1e-10]])


def test_a_number_with_only_a_complex_form_is_not_real():
    """A number that converts to complex but not to float is no real number,
    as a value of a complex type is not."""
    class OnlyComplex:
        def __complex__(self):
            return 1 + 0j

    with pytest.raises(InvalidInput, match="^t must be real, got "):
        Event1p1(OnlyComplex(), 0.0)
