"""Power sums, expansion coefficients, and the identities tying them together."""

import math

import pytest

from superlum import (
    CoefficientTensor,
    NonfiniteResult,
    TruncationInsufficient,
    alpha_coefficient,
    amplitude_invariant,
    cauchy_condition_check,
    closed_product,
    closure_checks,
    expansion_reconstruction_check,
    invariant_P,
    newton_convolution_check,
    power_sum,
)
from superlum.invariants import InvariantSpec

APPROX = pytest.approx


# ---------------------------------------------------------------------------
# Power sums and the binomial convolution


def test_power_sum_basics():
    assert power_sum(0, (0.3, 0.7, -0.1)) == 3.0
    assert power_sum(2, (1.0, 2.0)) == 5.0
    with pytest.raises(ValueError):
        power_sum(-1, (1.0,))


def test_newton_convolution_exact_cases(rng):
    a = rng.uniform(-2.0, 2.0, 9)
    b = rng.uniform(-2.0, 2.0, 13)
    for r in range(9):
        rep = newton_convolution_check(r, a, b)
        assert rep.passed, (r, rep.deviation)
    with pytest.raises(ValueError):
        newton_convolution_check(9, a, b)


# ---------------------------------------------------------------------------
# Coefficient tensor


def test_tensor_validation_and_order():
    with pytest.raises(ValueError):
        CoefficientTensor(())
    assert CoefficientTensor((1j, -1j)).order == 2


def test_time_symmetry_requires_plus_minus_pairs():
    assert CoefficientTensor((0.5, -0.5)).is_time_symmetric()
    assert CoefficientTensor((1j, -1j, 0.25, -0.25)).is_time_symmetric()
    assert not CoefficientTensor((0.5, -0.5, 0.3)).is_time_symmetric()
    assert not CoefficientTensor((0.5,)).is_time_symmetric()
    near = CoefficientTensor((0.5 + 1e-12, -0.5))
    assert not near.is_time_symmetric()
    assert near.is_time_symmetric(tol=1e-9)


def test_alpha_coefficient_single_alpha_closed_form():
    ct = CoefficientTensor((2.0,), beta_prime=1.0)
    # n**-1 * alpha**3 / 3!
    assert alpha_coefficient(ct, (3,), 4) == APPROX(8.0 / 24.0, rel=1e-15)


def test_alpha_coefficient_pair_closed_forms():
    ct = CoefficientTensor((1.0, -1.0))
    # odd total order cancels for a +/- pair
    assert alpha_coefficient(ct, (1, 0), 3) == 0.0
    assert alpha_coefficient(ct, (2, 0), 3) == APPROX(0.5, rel=1e-15)
    assert alpha_coefficient(ct, (1, 1), 3) == APPROX(-1.0, rel=1e-15)


def test_alpha_coefficient_symmetric_in_indices():
    ct = CoefficientTensor((0.3 + 0.1j, -0.3 - 0.1j, 0.7, -0.7))
    a = alpha_coefficient(ct, (2, 1, 0, 3), 5)
    b = alpha_coefficient(ct, (3, 2, 1, 0), 5)
    assert a == APPROX(b, rel=1e-15)


def test_alpha_coefficient_validation():
    ct = CoefficientTensor((1.0, -1.0))
    with pytest.raises(ValueError):
        alpha_coefficient(ct, (1,), 2)
    with pytest.raises(ValueError):
        alpha_coefficient(ct, (1, -1), 2)
    with pytest.raises(ValueError):
        alpha_coefficient(ct, (1, 1), 0)


# ---------------------------------------------------------------------------
# The factorial product condition


def test_cauchy_condition_holds_for_pair_tensor():
    ct = CoefficientTensor((0.8j, -0.8j), beta_prime=1.0)
    for k, s, n, m in [
        ((1, 0), (0, 1), 2, 3),
        ((1, 1), (1, 1), 2, 2),
        ((2, 1), (1, 2), 3, 4),
    ]:
        rep = cauchy_condition_check(ct, k, s, n, m)
        assert rep.passed, rep.deviation


def test_cauchy_condition_holds_for_quadruple_tensor():
    ct = CoefficientTensor((0.6, -0.6, 0.4, -0.4), beta_prime=0.5)
    rep = cauchy_condition_check(ct, (1, 0, 0, 0), (0, 1, 0, 0), 2, 2)
    assert rep.passed, rep.deviation


def test_cauchy_condition_breaks_under_perturbation():
    ct = CoefficientTensor((0.8j, -0.8j), beta_prime=1.0)
    rep = cauchy_condition_check(ct, (1, 1), (1, 1), 2, 2, perturb=0.1)
    assert not rep.passed
    assert rep.deviation > 1e-3


def test_cauchy_condition_validation():
    ct = CoefficientTensor((1.0, -1.0))
    with pytest.raises(ValueError):
        cauchy_condition_check(ct, (1,), (0, 1), 2, 2)
    with pytest.raises(ValueError):
        cauchy_condition_check(ct, (1, 5), (0, 1), 2, 2)
    big = CoefficientTensor((0.1, -0.1, 0.2, -0.2, 0.3))
    with pytest.raises(ValueError):
        cauchy_condition_check(big, (0,) * 5, (0,) * 5, 2, 2)


# ---------------------------------------------------------------------------
# Resummation


def test_closed_product_frozen_value():
    ct = CoefficientTensor((1.0,), beta_prime=1.0)
    val = closed_product(ct, (0.0, math.log(2.0)))
    assert val == APPROX(1.5, rel=1e-15)
    assert closed_product(ct, (0.0, math.log(2.0)), n_override=4) == APPROX(0.75)


def test_closed_product_multiplies_factors_past_exp_range():
    # (e**300 + e**900) * (e**-300 + e**-900) = e**600 + 2 + e**-600: the
    # first factor alone overflows; the log of the product is about 600,
    # whose ulp (1.1e-13) bounds the relative error of exp
    val = closed_product(CoefficientTensor((300.0, -300.0)), (1.0, 3.0))
    assert val.imag == 0.0
    assert val.real == APPROX(math.exp(600.0) + 2.0, rel=1e-12)
    with pytest.raises(NonfiniteResult, match=r"10\*\*390"):
        closed_product(CoefficientTensor((300.0,)), (0.0, 3.0))


def test_closed_product_matches_invariant_on_pair_tensor(rng):
    # alphas (a, -a) reproduce the two-sided invariant with beta' = beta
    ct = CoefficientTensor((0.8j, -0.8j), beta_prime=1.0)
    spec = InvariantSpec(0.8j, 1.0, 1.0)
    phases = rng.uniform(-1.0, 1.0, 6)
    assert closed_product(ct, phases) == APPROX(
        invariant_P(spec, phases), rel=1e-13
    )


def test_expansion_reconstruction_small_orders(rng):
    phases = rng.uniform(-1.0, 1.0, 5)
    for ct in (
        CoefficientTensor((0.9,), beta_prime=0.0),
        CoefficientTensor((0.8j, -0.8j), beta_prime=1.0),
    ):
        rep = expansion_reconstruction_check(ct, phases)
        assert rep.passed, rep.deviation
        assert rep.deviation < 1e-10


def test_expansion_reconstruction_order_four(rng):
    ct = CoefficientTensor((0.6, -0.6, 0.3j, -0.3j), beta_prime=1.0)
    phases = rng.uniform(-1.0, 1.0, 4)
    rep = expansion_reconstruction_check(ct, phases, truncation=12)
    assert rep.passed, rep.deviation


def test_expansion_truncation_guard():
    ct = CoefficientTensor((3.0,))
    with pytest.raises(TruncationInsufficient):
        expansion_reconstruction_check(ct, (2.0,), truncation=12)


# ---------------------------------------------------------------------------
# Closure under products, powers, ratios; failure under sums


def test_closure_checks_split_pass_and_fail(rng):
    f1 = amplitude_invariant(InvariantSpec(0.5, 1.0, 1.0))
    f2 = amplitude_invariant(InvariantSpec(0.9, 0.5, 1.0))
    a = rng.uniform(0.2, 1.0, 4)
    b = rng.uniform(0.2, 1.0, 3)
    reports = {r.name: r for r in closure_checks((f1, f2), a, b)}
    assert reports["closure_product"].passed
    assert reports["closure_power"].passed
    assert reports["closure_ratio"].passed
    assert reports["closure_sum"].passed  # records that the sum deviates
    assert reports["closure_sum"].deviation > 1e-3
