"""Power sums, expansion coefficients, and the identities tying them together."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from superlum import (
    CoefficientTensor,
    InvalidInput,
    NonfiniteInput,
    NonfiniteResult,
    TruncationInsufficient,
    alpha_coefficient,
    amplitude_invariant,
    cauchy_condition_check,
    check_multiplicativity,
    closed_product,
    closure_checks,
    expansion_reconstruction_check,
    invariant_P,
    newton_convolution_check,
    power_sum,
)
from superlum import sympoly
from superlum.invariants import InvariantSpec, _log_sums
from superlum.report import relative_deviation
from superlum.sympoly import (
    ORDER_BOUND,
    _coefficient_box,
    _newton_columns,
    _newton_deviations,
    _tail_bound,
)

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


PHASE_SET = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=20).map(np.array)


@given(st.lists(st.tuples(PHASE_SET, PHASE_SET), min_size=1, max_size=6))
def test_newton_deviations_of_many_instances_are_the_checks_bit_for_bit(instances):
    """One power table for every instance, summed by length with no padding:
    sets of 1 to 20 phases, and pairwise sums of up to 400, on both sides of
    numpy's eight-value pairwise summation block."""
    got = _newton_deviations(instances)
    want = [[newton_convolution_check(r, a, b).deviation for r in range(9)]
            for a, b in instances]
    assert [[d.hex() for d in row] for row in got] == [[d.hex() for d in row] for row in want]


def _scalar_newton(Ea, Eb, direct, scale, r):
    """The deviation of one instance at order r, formed on Python floats."""
    convolved = sum(math.comb(r, t) * Ea[t] * Eb[r - t] for t in range(r + 1))
    return relative_deviation(direct, convolved, scale)


_SUMS = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16])


@given(st.integers(1, 5), st.integers(1, 12), st.integers(1, 12), st.data())
def test_newton_columns_are_the_scalar_formula_bit_for_bit(rows, size, k, data):
    """Every (instance, order) cell, and the last k orders alone as the
    check asks for them, with terms that cancel and signed zeros."""
    k = min(k, size)
    Ea, Eb, direct = (np.array(data.draw(st.lists(st.lists(_SUMS, min_size=size, max_size=size),
                                                    min_size=rows, max_size=rows)))
                      for _ in range(3))
    scale = np.abs(data.draw(st.sampled_from([direct, direct * 0.0, direct * 3.0])))
    got = _newton_columns(Ea, Eb, direct[:, size - k:], scale[:, size - k:])
    want = [[_scalar_newton(Ea[i], Eb[i], direct[i, r], scale[i, r], r)
             for r in range(size - k, size)] for i in range(rows)]
    assert [[d.hex() for d in row] for row in got] == [[d.hex() for d in row] for row in want]


@pytest.mark.parametrize("call", [
    lambda: power_sum(8, [1e300]),
    lambda: newton_convolution_check(8, [1e300], [1e300]),
    lambda: newton_convolution_check(3, [1e120], [-1e120]),
    lambda: newton_convolution_check(1, [1e308], [1e308]),
    lambda: _newton_deviations([([0.5], [0.25]), ([1e300], [1.0])]),
])
def test_a_power_sum_beyond_a_float_is_named(call):
    """A power sum of finite phases that overflows was an inf presented as a
    result, or a NaN deviation."""
    with pytest.raises(NonfiniteResult, match=r"power sum E_\d does not fit in a float "
                                                r"\(largest \|phase\| (1e\+\d+|2e\+300|inf)\)"):
        call()


def test_a_convolution_beyond_a_float_is_named():
    """Each power sum fits, and so do the direct sums (the pairwise sums are
    0), but C(8, 4) * E_4(a) * E_4(b) = 70e308 does not: the deviation was NaN."""
    with pytest.raises(NonfiniteResult, match="binomial convolution of order 8"):
        newton_convolution_check(8, [1e38] * 100, [-1e38] * 100)


def test_an_order_zero_newton_check_of_sums_beyond_a_float_holds():
    """E_0 counts the pairwise sums, so an inf among them is no fault."""
    assert newton_convolution_check(0, [1e308], [1e308]).deviation == 0.0


# ---------------------------------------------------------------------------
# Coefficient tensor


def test_tensor_validation_and_order():
    with pytest.raises(ValueError):
        CoefficientTensor(())
    assert CoefficientTensor((1j, -1j)).order == 2


@pytest.mark.parametrize("alphas, beta_prime, named", [
    ((0.5,), math.inf, "beta_prime must be finite, got inf"),
    ((0.5,), math.nan, "beta_prime must be finite, got nan"),
    ((0.5, complex(0.0, math.nan)), 1.0, r"alpha 1 must be finite, got nanj"),
    ((0.5, -math.inf), 1.0, "alpha 1 must be finite, got -inf"),
    ((10**400, 0.5), 1.0, "alpha 0 must be finite, got 1000"),
], ids=["inf beta'", "nan beta'", "nan alpha", "inf alpha", "int alpha beyond a float"])
def test_a_tensor_part_that_is_not_finite_is_named(alphas, beta_prime, named):
    """An infinite beta' made closed_product return 0j, and a NaN alpha or
    beta' raised NonfiniteResult blaming the result."""
    with pytest.raises(NonfiniteInput, match=named):
        CoefficientTensor(alphas, beta_prime)


@pytest.mark.parametrize("n_override", [0, -3, math.inf, math.nan])
def test_closed_product_names_an_n_override_that_is_not_a_positive_count(n_override):
    """0 raised `ValueError: math domain error`."""
    with pytest.raises(NonfiniteInput, match="n_override must be positive and finite"):
        closed_product(CoefficientTensor((0.5,)), [0.1], n_override=n_override)


@pytest.mark.parametrize("n, m, named", [
    (10**200, 10**200, r"n\*m = 1000.* is not a finite float"),
    (10**400, 2, "n = 1000.* is not a finite float"),
    (2, math.nan, "m = nan is not a finite float"),
], ids=["n*m", "n", "m"])
def test_cauchy_condition_names_a_count_beyond_a_float(n, m, named):
    """n*m = 10**400 raised a builtin OverflowError."""
    with pytest.raises(NonfiniteInput, match=named):
        cauchy_condition_check(CoefficientTensor((0.5, -0.5), 2.0), (1, 0), (0, 1), n, m)


def test_cauchy_condition_names_a_count_power_beyond_a_float():
    """n*m fits in a float, but (n*m)**2 at beta' = -2 does not."""
    with pytest.raises(NonfiniteResult, match=r"a count\*\*2.0 does not fit in a float"):
        cauchy_condition_check(CoefficientTensor((0.5, -0.5), -2.0), (1, 0), (0, 1), 10**160, 2)


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


def test_alpha_coefficient_rejects_an_order_above_the_bound_before_any_permutation(monkeypatch):
    """The order is checked first, as in the Cauchy and expansion checks: at
    N = 12 the permutation sum would take 12! terms, hours; at N = 9 it took
    0.79 s."""
    def started(*args):
        raise AssertionError("a permutation sum started")

    monkeypatch.setattr(sympoly, "_permutation_sum_sorted", started)
    with pytest.raises(InvalidInput, match=f"order N <= {ORDER_BOUND} required, got N=12"):
        alpha_coefficient(CoefficientTensor((0.1,) * 12), (0,) * 12, 3)


@pytest.mark.parametrize("call, shown", [
    (lambda ct: alpha_coefficient(ct, (1, 2.5), 2),
     "indices[1] must be a whole number >= 0, got indices[1]=2.5"),
    (lambda ct: alpha_coefficient(ct, (1, "2"), 2), "got indices[1]='2'"),
    (lambda ct: alpha_coefficient(ct, 5, 2), "indices must hold N=2 indices, got 5"),
    (lambda ct: cauchy_condition_check(ct, (1, 0), (0, 5), 2, 3),
     "s[1] must be a whole number in [0, 4], got s[1]=5"),
    (lambda ct: cauchy_condition_check(ct, (1, math.nan), (0, 1), 2, 3), "got k[1]=nan"),
    (lambda ct: expansion_reconstruction_check(ct, [0.1], 2.5), "got truncation=2.5"),
    (lambda ct: power_sum(1j, [0.1]), "k must be a whole number >= 0, got k=1j"),
    (lambda ct: newton_convolution_check(2.5, [0.1], [0.2]),
     "r must be a whole number in [0, 8], got r=2.5"),
])
def test_an_index_or_order_that_is_no_whole_number_in_range_is_named(call, shown):
    """One whole-number rule (_input.whole) for every index, order and
    truncation, where a float, a string or a complex value raised a builtin
    TypeError or was cut to an int."""
    with pytest.raises(InvalidInput, match=re.escape(shown)):
        call(CoefficientTensor((0.5, -0.5)))


@pytest.mark.parametrize("alphas", [0.5, None])
def test_a_tensor_needs_a_sequence_of_alphas(alphas):
    """A number raised enumerate()'s TypeError."""
    with pytest.raises(InvalidInput, match=re.escape(f"alphas must be a sequence, got {alphas}")):
        CoefficientTensor(alphas)


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


def _cauchy_per_coefficient(ct, k, s, n, m, perturb):
    """The check's deviation as one alpha_coefficient call per coefficient
    forms it."""
    fac, N = math.factorial, ct.order
    lhs = (fac(N) * math.prod(fac(v) for v in k) * math.prod(fac(v) for v in s)
           * (alpha_coefficient(ct, k, n) + perturb) * alpha_coefficient(ct, s, m))
    rhs, scale = 0.0 + 0.0j, 0.0
    for pi in itertools.permutations(range(N)):
        merged = tuple(k[i] + s[pi[i]] for i in range(N))
        term = math.prod(fac(v) for v in merged) * alpha_coefficient(ct, merged, n * m)
        rhs += term
        scale += abs(term)
    return relative_deviation(lhs, rhs, scale)


_PART = st.floats(-2.0, 2.0) | st.just(0.0)


@given(st.integers(1, ORDER_BOUND).flatmap(lambda N: st.tuples(
           st.lists(st.builds(complex, _PART, _PART), min_size=N, max_size=N),
           st.lists(st.integers(0, 4), min_size=N, max_size=N),
           st.lists(st.integers(0, 4), min_size=N, max_size=N))),
       st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 2.0),
       st.sampled_from([0.0, 1e-3]) | st.floats(-1.0, 1.0))
@example(([0.6, -0.6, 0.4, -0.4], [2, 1, 1, 0], [1, 0, 2, 1]), 5, 7, 0.5, 0.0)
@example(([0.8j, -0.8j], [1, 1], [1, 1]), 2, 2, 1.0, 0.1)
def test_cauchy_condition_is_its_per_coefficient_formula_bit_for_bit(case, n, m, beta_prime,
                                                                     perturb):
    alphas, k, s = case
    ct = CoefficientTensor(tuple(alphas), beta_prime)
    rep = cauchy_condition_check(ct, k, s, n, m, perturb=perturb)
    want = _cauchy_per_coefficient(ct, tuple(k), tuple(s), n, m, perturb)
    assert rep.deviation.hex() == want.hex()
    assert rep.params == {"k": k, "s": s, "n": n, "m": m, "perturb": perturb}


def test_cauchy_condition_validation():
    ct = CoefficientTensor((1.0, -1.0))
    with pytest.raises(ValueError):
        cauchy_condition_check(ct, (1,), (0, 1), 2, 2)
    with pytest.raises(ValueError):
        cauchy_condition_check(ct, (1, 5), (0, 1), 2, 2)
    big = CoefficientTensor((0.1, -0.1, 0.2, -0.2, 0.3))
    with pytest.raises(ValueError):
        cauchy_condition_check(big, (0,) * 5, (0,) * 5, 2, 2)
    for n, m in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="must be positive"):
            cauchy_condition_check(ct, (1, 0), (0, 1), n, m)


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


def test_expansion_rejects_an_order_above_the_bound():
    ct = CoefficientTensor((0.1, -0.1, 0.2, -0.2, 0.3))
    assert ct.order == ORDER_BOUND + 1
    with pytest.raises(ValueError, match="N=5"):
        expansion_reconstruction_check(ct, (0.1, 0.2), truncation=2)


@pytest.mark.parametrize("truncation", [-1, -12])
def test_expansion_rejects_a_negative_truncation(truncation):
    ct = CoefficientTensor((0.5, -0.5))
    with pytest.raises(ValueError, match=f"truncation={truncation}"):
        expansion_reconstruction_check(ct, (0.1, 0.2), truncation=truncation)


def test_expansion_rejects_a_box_whose_normalisation_overflows():
    """At N = 4 the last cell's N! * T!**4 fits in a float up to T = 57; one
    more raises before any of the 59**4 cells is allocated."""
    ct = CoefficientTensor((0.1, -0.1, 0.1j, -0.1j))
    with pytest.raises(ValueError, match="truncation=58"):
        expansion_reconstruction_check(ct, (0.1,), truncation=58)
    assert math.factorial(4) * math.factorial(57) ** 4 < 1.7976931348623157e308


def test_the_tail_bound_takes_a_complex_beta_prime_by_its_real_part():
    """|n**-beta'| = n**-Re(beta'): a complex beta_prime raised a TypeError
    from math.exp."""
    ct = CoefficientTensor((0.5, -0.5), 1j)
    rep = expansion_reconstruction_check(ct, [0.1, 0.2])
    assert rep.passed and rep.deviation < 1e-15
    assert _tail_bound(ct, np.array([0.1, 0.2]), 12) == _tail_bound(
        CoefficientTensor((0.5, -0.5), 0.0), np.array([0.1, 0.2]), 12)


@pytest.mark.parametrize("alphas", [(0.0, 0.0), (1e-40, -1e-40)])
def test_expansion_leaves_out_power_sums_that_meet_only_zero_coefficients(alphas):
    """E_12 of these phases overflows, but every coefficient that multiplies
    it is exactly 0 (alpha**12 underflows), so it is never formed."""
    ct = CoefficientTensor(alphas, beta_prime=1.0)
    rep = expansion_reconstruction_check(ct, (1e30, 2.0), truncation=12)
    assert rep.passed and rep.deviation <= 1e-15


# ---------------------------------------------------------------------------
# The coefficient box against its per-index oracle

BOX_TENSORS = [
    CoefficientTensor((0.9,), beta_prime=0.5),
    CoefficientTensor((0.8, -0.8), beta_prime=1.0),
    CoefficientTensor((0.8j, -0.8j), beta_prime=1.0),
    CoefficientTensor((0.6, -0.6, 0.3j), beta_prime=0.7),
    CoefficientTensor((0.5 + 0.2j, -0.3, 0.7j), beta_prime=-0.4),
    CoefficientTensor((0.6, -0.6, 0.3j, -0.3j), beta_prime=1.0),
    CoefficientTensor((0.9j, -0.4, 0.2 - 0.5j, 0.7), beta_prime=0.3),
]


def _cell_scale(ct, k, n):
    """The coefficient with every alpha replaced by its modulus: the
    cancellation-free scale of the permutation sum, nonzero where the
    printed coefficient cancels to 0."""
    return abs(alpha_coefficient(
        CoefficientTensor(tuple(abs(a) for a in ct.alphas), ct.beta_prime), k, n))


@pytest.mark.parametrize("ct", [ct for ct in BOX_TENSORS if ct.order <= 3])
def test_coefficient_box_equals_alpha_coefficient_in_every_cell(ct):
    truncation, n = 10, 5
    box = _coefficient_box(ct, truncation, n)
    assert box.shape == (truncation + 1,) * ct.order
    for k in itertools.product(range(truncation + 1), repeat=ct.order):
        ref = alpha_coefficient(ct, k, n)
        assert abs(box[k] - ref) <= 1e-14 * _cell_scale(ct, k, n), (k, box[k], ref)


@pytest.mark.parametrize("ct", [ct for ct in BOX_TENSORS if ct.order == 4])
def test_coefficient_box_matches_sampled_cells_at_order_four(ct, rng):
    truncation, n = 12, 7
    box = _coefficient_box(ct, truncation, n)
    cells = {tuple(int(v) for v in k)
             for k in rng.integers(0, truncation + 1, size=(260, 4))}
    cells |= {(0, 0, 0, 0), (12, 12, 12, 12), (0, 12, 3, 7)}
    assert len(cells) >= 200
    for k in cells:
        ref = alpha_coefficient(ct, k, n)
        assert abs(box[k] - ref) <= 1e-14 * _cell_scale(ct, k, n), (k, box[k], ref)


@pytest.mark.parametrize("ct", BOX_TENSORS)
def test_contracted_box_equals_the_factorised_series(ct, rng):
    """Summed against the power sums, the box factorises:
    n**-beta' * prod_i sum_t alpha_i**t E_t / t!."""
    truncation = 12
    phases = rng.uniform(-1.0, 1.0, 6)
    powers = np.array([power_sum(t, phases) for t in range(truncation + 1)])
    contracted = _coefficient_box(ct, truncation, phases.size)
    for _ in range(ct.order):
        contracted = contracted @ powers
    factorised = phases.size ** -ct.beta_prime * math.prod(
        sum(a**t * powers[t] / math.factorial(t)
            for t in range(truncation + 1))
        for a in ct.alphas)
    assert abs(complex(contracted) - factorised) <= 1e-13 * abs(factorised)


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


def test_closure_checks_name_a_pairwise_sum_beyond_a_float():
    """The sum 1e308 + 1e308 overflowed with a RuntimeWarning."""
    f = amplitude_invariant(InvariantSpec(0.5, 1.0, 1.0))
    with pytest.raises(NonfiniteResult, match=r"a\[0\] = 1e\+308 and b\[0\] = 1e\+308"):
        closure_checks((f, f), [1e308], [1e308])


def test_closure_checks_call_each_invariant_once_on_each_set(rng):
    """Once on the pairwise sums and once on each set: 3 calls, not the 12
    and 9 of a multiplicativity check per combination."""
    calls = {"f1": 0, "f2": 0}

    def counted(name, spec):
        def f(phi):
            calls[name] += 1
            return invariant_P(spec, phi)
        return f

    closure_checks((counted("f1", InvariantSpec(0.7, 0.4, 1.0)),
                    counted("f2", InvariantSpec(0.3, 1.1, 2.0))),
                   rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3))
    assert calls == {"f1": 3, "f2": 3}


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.7, 0.3j, 0.5 + 0.2j]))
def test_closure_checks_keep_the_bits_of_a_multiplicativity_check_per_combination(seed, alpha):
    rng = np.random.default_rng(seed)
    f1 = amplitude_invariant(InvariantSpec(alpha, 0.4, 1.0))
    f2 = amplitude_invariant(InvariantSpec(0.3, 1.1, 2.0))
    a, b = rng.uniform(-1, 1, rng.integers(1, 6)), rng.uniform(-1, 1, rng.integers(1, 6))
    combos = [lambda p: f1(p) * f2(p), lambda p: f1(p) ** 1.5,
              lambda p: f1(p) / f2(p), lambda p: f1(p) + f2(p)]
    expected = [check_multiplicativity(fn, a, b).deviation for fn in combos]
    reports = closure_checks((f1, f2), a, b)
    assert [r.deviation for r in reports] == expected
    assert [r.passed for r in reports] == [d <= 1e-9 for d in expected[:3]] + [expected[3] > 1e-3]


# ---------------------------------------------------------------------------
# The series tail bound is formed from logs


def test_truncation_guard_raises_without_overflow_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationInsufficient):
            expansion_reconstruction_check(CoefficientTensor((300.0,)), (3.0,))


def _direct_tail_bound(ct, phi, truncation):
    """The bound's formula evaluated as written, with exp of every term."""
    mags = [np.abs(a) * np.abs(phi) for a in ct.alphas]
    ceilings = [float(np.sum(np.exp(m))) for m in mags]
    total = 0.0
    for i, m in enumerate(mags):
        delta = float(
            np.sum(m ** (truncation + 1) * np.exp(m)) / math.factorial(truncation + 1)
        )
        total += delta * math.prod(c for j, c in enumerate(ceilings) if j != i)
    return phi.size ** (-ct.beta_prime) * total


_scaled = st.builds(lambda x, p: x * 10.0**p, st.floats(-1.0, 1.0), st.floats(-3.0, 2.0))


@given(
    alphas=st.lists(st.builds(complex, _scaled, _scaled), min_size=1, max_size=4),
    phases=st.lists(_scaled, min_size=1, max_size=12),
    truncation=st.integers(1, 20),
    beta_prime=st.floats(-1.0, 2.0),
)
def test_tail_bound_matches_its_direct_formula(alphas, phases, truncation, beta_prime):
    ct = CoefficientTensor(tuple(alphas), beta_prime)
    phi = np.asarray(phases)
    with np.errstate(over="ignore", under="ignore"):
        direct = _direct_tail_bound(ct, phi, truncation)
    assume(math.isfinite(direct))
    assert _tail_bound(ct, phi, truncation) == APPROX(direct, rel=1e-12, abs=1e-300)


def _tail_bound_per_alpha(ct, phi, truncation):
    """The bound with one pair of _log_sums calls per alpha."""
    abs_phi = np.abs(phi)
    log_ceilings = [float(_log_sums(abs(a), abs_phi)[0]) for a in ct.alphas]
    log_terms = []
    for i, a in enumerate(ct.alphas):
        m = abs(a) * abs_phi
        m = m[m > 0]
        if m.size:
            log_delta = float(_log_sums(1.0, m + (truncation + 1) * np.log(m))[0])
            log_terms.append(log_delta + sum(log_ceilings[:i] + log_ceilings[i + 1:]))
    if not log_terms:
        return 0.0
    top = max(log_terms)
    log_total = top + math.log(math.fsum(math.exp(x - top) for x in log_terms))
    try:
        return math.exp(log_total - math.log(math.factorial(truncation + 1))
                        - ct.beta_prime * math.log(phi.size))
    except OverflowError:
        return math.inf


# alphas that share a magnitude: repeated, opposite, rotated by i, and 0
_ALPHA = st.builds(lambda mag, turn: mag * (1, -1, 1j, -1j)[turn],
                   st.sampled_from([0.0, 0.3, 0.8]) | _scaled, st.integers(0, 3))


@given(alphas=st.lists(_ALPHA, min_size=1, max_size=4),
       phases=st.lists(_scaled | st.just(0.0), min_size=1, max_size=12),
       truncation=st.integers(1, 20), beta_prime=st.floats(-1.0, 2.0))
@example(alphas=[0.8, -0.8], phases=[0.5, -0.25, 0.0], truncation=12, beta_prime=1.0)
@example(alphas=[0.0, 0.0j], phases=[0.5], truncation=12, beta_prime=1.0)
def test_tail_bound_is_its_per_alpha_formula_bit_for_bit(alphas, phases, truncation,
                                                         beta_prime):
    ct = CoefficientTensor(tuple(alphas), beta_prime)
    phi = np.asarray(phases)
    assert _tail_bound(ct, phi, truncation).hex() == _tail_bound_per_alpha(
        ct, phi, truncation).hex()


@pytest.mark.parametrize("alphas, distinct", [
    ((0.8, -0.8), 1), ((0.8j, -0.8j), 1), ((0.6, -0.6, 0.3, -0.3), 2),
    ((0.6, -0.6, 0.6j, -0.6j), 1), ((0.5, -0.5, 0.3), 2), ((0.9, 0.2j, -0.4), 3)])
def test_tail_bound_takes_one_pair_of_log_sums_per_distinct_magnitude(monkeypatch, alphas,
                                                                       distinct):
    """A ceiling and a delta per distinct |alpha|: 2 calls, not 4, for the
    +/- pairs that verify and phase_scan check."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return _log_sums(*args, **kwargs)

    monkeypatch.setattr(sympoly, "_log_sums", counted)
    _tail_bound(CoefficientTensor(alphas, 1.0), np.array([0.3, -0.7, 0.1]), 12)
    assert len(calls) == 2 * distinct
