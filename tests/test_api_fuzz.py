"""One rule across the numeric public API: every call of a kinematics,
invariants or sympoly function on edge-case numbers, complex ones among
them, returns a result with no NaN (and no inf but an infinite speed), or
raises a SuperlumError.  Never a builtin exception, and no warning but
LightSpeedResult."""

import dataclasses
import math
import warnings
from enum import Enum

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import superlum as sl

BIG = 10**400  # an int beyond a float

EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, BIG, -BIG]
COMPLEX = [1j, 0.5 + 0.5j, 1 + 0j]  # an error where a real number is required
reals = st.one_of(st.sampled_from(EDGES[:-2] + COMPLEX), st.floats(-4.0, 4.0))
numbers = st.one_of(reals, st.sampled_from(EDGES[-2:]), st.integers(-3, 3))
# empty and ragged sequences, and a bare number, among the sets
sets = st.one_of(st.lists(numbers, max_size=4), st.just([[0.1], [0.2, 0.3]]), numbers)
triples = st.one_of(st.lists(numbers, min_size=3, max_size=3), sets)
# a 2x2 matrix, and arrays of other shapes (a stack of two among them)
matrices = st.sampled_from([(2, 2), (), (2,), (3, 3), (2, 2, 2)]).flatmap(
    lambda shape: st.lists(reals, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda entries: np.array(entries).reshape(shape)))
points = st.tuples(numbers, numbers)  # a (t, x) tuple where an event is required
branches = st.sampled_from(sl.Branch)
families = st.tuples(st.sampled_from(["lorentz", "superluminal", "galilean"]), numbers)


def whole(low, high):
    """Whole numbers in [low, high], and values that are no whole number."""
    return st.one_of(st.integers(low, high), st.sampled_from([2.5, 1j, math.nan]))


small = whole(-1, 5)
indices = st.lists(small, min_size=1, max_size=3).map(tuple)


def _family(kind, K):
    if kind == "galilean":
        return sl.galilean_family()
    return (sl.lorentz_family if kind == "lorentz" else sl.superluminal_family)(K)


def _matrix(*entries):
    return np.array(entries).reshape(2, 2)


def _tensor(alphas, beta_prime):
    return sl.CoefficientTensor(alphas, beta_prime)


def _path(vertices):
    return sl.Path(tuple(sl.Event1p1(t, x) for t, x in vertices))


def _invariant(alpha, beta, gamma):
    return sl.amplitude_invariant(sl.InvariantSpec(alpha, beta, gamma))


# name: (call, strategies of its arguments)
CALLS = {
    "Event1p1": (sl.Event1p1, (numbers, numbers)),
    "Event1p3": (sl.Event1p3, (numbers, triples)),
    "SuperluminalEvent1p3": (sl.SuperluminalEvent1p3, (triples, numbers)),
    "Boost": (sl.Boost, (branches, st.one_of(numbers, triples), numbers)),
    "Boost.infinite": (sl.Boost.infinite, (numbers,)),
    "Boost.inverse": (lambda *a: sl.Boost(*a).inverse(), (branches, numbers, numbers)),
    "boost_1p1": (lambda t, x, *b: sl.boost_1p1(sl.Event1p1(t, x), sl.Boost(*b)),
                  (numbers, numbers, branches, numbers, numbers)),
    "boost_1p3_subluminal": (lambda t, r, V, c: sl.boost_1p3_subluminal(sl.Event1p3(t, r), V, c),
                             (numbers, triples, triples, numbers)),
    "boost_1p3_superluminal": (
        lambda t, r, W, c: sl.boost_1p3_superluminal(sl.Event1p3(t, r), W, c),
        (numbers, triples, triples, numbers)),
    "boost_matrix_1p1": (lambda *b: sl.boost_matrix_1p1(sl.Boost(*b)), (branches, numbers, numbers)),
    "subluminal_matrix": (sl.subluminal_matrix, (numbers, numbers)),
    "superluminal_matrix": (sl.superluminal_matrix, (numbers, numbers)),
    "velocity_of_matrix": (sl.velocity_of_matrix, (matrices,)),
    "branch_of_matrix": (sl.branch_of_matrix, (matrices,)),
    "compose_boosts_1p1": (lambda b1, v1, b2, v2, K: sl.compose_boosts_1p1(
        sl.Boost(b1, v1, K), sl.Boost(b2, v2, K)),
        (branches, st.one_of(numbers, triples), branches, st.one_of(numbers, triples), numbers)),
    "compose_velocities_1p1": (sl.compose_velocities_1p1, (numbers, numbers, numbers)),
    "rapidity": (lambda *b: sl.rapidity(sl.Boost(*b)), (branches, st.one_of(numbers, triples),
                                                          numbers)),
    "interval_1p1": (lambda t1, x1, t2, x2, c: sl.interval_1p1(
        sl.Event1p1(t1, x1), sl.Event1p1(t2, x2), c), (numbers,) * 5),
    "interval_1p1 (t, x)": (sl.interval_1p1, (st.one_of(points, numbers),
                                              st.one_of(points, numbers), numbers)),
    "interval_nm": (sl.interval_nm, (sets, sets, numbers)),
    "extract_K": (lambda fam, samples: sl.extract_K(_family(*fam), samples), (families, sets)),
    "general_boost_1p1": (lambda t, x, fam, V: sl.general_boost_1p1(
        sl.Event1p1(t, x), _family(*fam), V), (numbers, numbers, families, numbers)),
    "parity_deviation": (lambda fam, samples: _family(*fam).parity_deviation(samples),
                         (families, sets)),
    "InvariantSpec": (sl.InvariantSpec, (numbers, numbers, numbers)),
    "invariant_P": (lambda a, b, g, phases: sl.invariant_P(sl.InvariantSpec(a, b, g), phases),
                    (numbers, numbers, numbers, sets)),
    "amplitude": (sl.amplitude, (sets, numbers)),
    "path_phase": (lambda vertices, scale, c: sl.path_phase(_path(vertices), scale, c),
                   (st.lists(points, max_size=3), numbers, numbers)),
    "path_phase (t, x)": (lambda vertices, scale, c: sl.path_phase(sl.Path(vertices), scale, c),
                          (st.one_of(st.lists(points, max_size=3).map(tuple), numbers), numbers,
                           numbers)),
    "pairwise_phase_sums": (sl.pairwise_phase_sums, (sets, sets)),
    "check_symmetry": (lambda a, b, g, phases, trials: sl.check_symmetry(
        _invariant(a, b, g), phases, trials), (numbers, numbers, numbers, sets, whole(0, 2))),
    "check_time_reversal": (lambda a, b, g, phases: sl.check_time_reversal(
        _invariant(a, b, g), phases), (numbers, numbers, numbers, sets)),
    "check_multiplicativity": (lambda a, b, g, pa, pb: sl.check_multiplicativity(
        _invariant(a, b, g), pa, pb), (numbers, numbers, numbers, sets, sets)),
    "finiteness_scan": (lambda a, b, g, ns, low, high, trials: sl.finiteness_scan(
        sl.InvariantSpec(a, b, g), ns, sl.uniform_phase_sampler(low, high), trials),
        (numbers, numbers, numbers, st.one_of(st.lists(st.one_of(small, numbers), max_size=3),
                                              numbers), numbers, numbers, whole(0, 3))),
    "uniform_phase_sampler": (lambda low, high: sl.uniform_phase_sampler(low, high)(
        np.random.default_rng(0), 3), (numbers, numbers)),
    "power_sum": (sl.power_sum, (small, sets)),
    "newton_convolution_check": (sl.newton_convolution_check, (whole(-1, 9), sets, sets)),
    "CoefficientTensor": (_tensor, (sets, numbers)),
    "alpha_coefficient": (lambda alphas, bp, k, n: sl.alpha_coefficient(_tensor(alphas, bp), k, n),
                          (sets, numbers, indices, st.one_of(small, numbers))),
    "cauchy_condition_check": (lambda alphas, bp, k, s, n, m: sl.cauchy_condition_check(
        _tensor(alphas, bp), k, s, n, m), (sets, numbers, indices, indices,
                                           st.one_of(small, numbers), st.one_of(small, numbers))),
    "closed_product": (lambda alphas, bp, phases, n: sl.closed_product(
        _tensor(alphas, bp), phases, n), (sets, numbers, sets, st.one_of(st.none(), numbers))),
    "expansion_reconstruction_check": (lambda alphas, bp, phases, truncation: (
        sl.expansion_reconstruction_check(_tensor(alphas, bp), phases, truncation)),
        (sets, numbers, sets, small)),
    "closure_checks": (lambda a, b, g, pa, pb: sl.closure_checks(
        (_invariant(a, b, g), _invariant(b, a, g)), pa, pb), (numbers, numbers, numbers, sets, sets)),
}

cases = st.sampled_from(sorted(CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(*CALLS[name][1])))


def _numbers_in(value, speed=False):
    """(number, whether an inf is allowed there) for each number of a
    result: an inf is allowed only as a speed."""
    if value is None or isinstance(value, (int, str, Enum)) or callable(value):
        return  # an int (or bool) is always finite
    if isinstance(value, (float, complex, np.number)):
        yield value, speed
    elif isinstance(value, np.ndarray):
        for v in value.ravel().tolist():
            yield v, speed
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _numbers_in(getattr(value, field.name), field.name == "speed")
    elif isinstance(value, dict):
        for v in value.values():
            yield from _numbers_in(v, speed)
    else:
        for v in value:
            yield from _numbers_in(v, speed)


def _outcome(name, args):
    call = CALLS[name][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", sl.LightSpeedResult)
        try:
            result = call(*args)
        except sl.SuperlumError:
            return
    for v, speed in _numbers_in(result, name == "compose_velocities_1p1"):
        assert not np.isnan(v), (name, args, result)
        assert speed or np.isfinite(v), (name, args, result)


AA = [("pairwise_phase_sums", ([1e308], [1e308])),
      ("check_multiplicativity", (0.5, 1.0, 1.0, [1e308], [1e308])),
      ("closure_checks", (0.5, 1.0, 1.0, [1e308], [1e308]))]
AB = [("extract_K", (("lorentz", 1.0), [1.0, 0.3])),
      ("general_boost_1p1", (1, 0, ("lorentz", 1.0), 1.0)),
      ("parity_deviation", (("lorentz", 1.0), [1.0])),
      ("extract_K", (("lorentz", 1.0), [5e-324, 0.3])),
      ("extract_K", (("lorentz", 1.0), [1e308, 0.3])),
      ("general_boost_1p1", (1, 0, ("lorentz", 1.0), 2.0)),
      ("extract_K", (("superluminal", 1.0), [0.5, 2.0]))]
# Further leaks, each found at the parent of the one input-check module
LEAKS = [
    # an int beyond a float: OverflowError from math.isfinite, float() or 1.0/(c*c)
    ("Event1p1", (BIG, 0.0)),
    ("InvariantSpec", (0.5, BIG, 1.0)),
    ("Boost", (sl.Branch.SUPERLUMINAL, BIG, 1.0)),
    ("interval_1p1", (0.0, 0.0, 1.0, 0.0, 10**200)),
    ("interval_1p1", (0, 0, 1, -10**20, 139)),  # an int beyond int64, kept by the event
    ("interval_nm", ([1.0, BIG], [0.0], 1.0)),
    ("compose_velocities_1p1", (2, -1e308, -BIG)),
    ("alpha_coefficient", ([0.0], 0.0, (2,), BIG)),
    ("cauchy_condition_check", ([2], -5e-324, (2,), (2,), -0.09, BIG)),
    # a ragged or empty sequence: a TypeError or ValueError of Python or numpy
    ("CoefficientTensor", ([[0.1], [0.2, 0.3]], 1.0)),
    ("parity_deviation", (("galilean", 2), [[0.1], [0.2, 0.3]])),
    ("interval_nm", ([[0.1], [0.2, 0.3]], [0.0], 1.0)),
    ("interval_nm", ([], [0.0, 3.0, math.nan], 3.0)),
    # a non-finite or overflowing count: int(nan), int(inf), n**-beta'
    ("finiteness_scan", (0.5, 1.0, 1.0, [math.inf, math.nan], -1.0, 1.0, 3)),
    ("alpha_coefficient", ([-0.0], -1e308, (5,), 5)),
    # a K that is not a positive float: a NaN result, a math domain error
    ("compose_velocities_1p1", (0.5, 0.5, math.nan)),
    ("compose_velocities_1p1", (-5e-324, -5e-324, -5e-324)),
    ("compose_velocities_1p1", (1e308, 0.0, 1e308)),
    # a matrix entry that is not finite, or a ratio or product beyond a float
    ("velocity_of_matrix", (_matrix(1.0, 0.0, math.nan, 1.0),)),
    ("velocity_of_matrix", (_matrix(math.inf, 0.0, -1.5, -5e-324),)),
    ("branch_of_matrix", (_matrix(5e-324, 2.0, -1e308, 2.0),)),
    # alpha * phi_k, gamma * log S or alpha**k beyond a float: a RuntimeWarning,
    # an OverflowError or a NaN deviation
    ("invariant_P", (-1e308, 0.0, -3.0, [0.5, -3.5])),
    ("invariant_P", (1e308, 1e308, 0.9, [1.07, -1.0, -1.0])),
    ("check_multiplicativity", (-2.5, 0.0, 1e308, [-1.0, 0.0], [-1.0, 0.0])),
    ("closure_checks", (3.0, 0.0, -1e308, [3.0, 0.0, 1.0, -2.0], [3.0, 0.0, 1.0, -2.0])),
    ("expansion_reconstruction_check", ([1e308, 1.0], 3.0, [1e308, 1.0], 4)),
    ("expansion_reconstruction_check", ([1e308], 0.0, [0.0], 2)),
    ("alpha_coefficient", ([1e308, 1.0], 0.0, (5, 3), 3.5)),
    ("cauchy_condition_check", ([1e308, 1.0], 0.0, (4, 4), (4, 4), 2, 3)),
]
# Builtins that escaped before every bad input raised InvalidInput
BUILTINS = [
    # a complex value where a real number is required: float(), >, numpy's conversion
    ("Event1p1", (1j, 0.0)),
    ("closed_product", ([0.5], 0.0, [0.1], 1j)),
    ("amplitude", ([0.1, 1j], 1.0)),
    ("Boost", (sl.Branch.SUBLUMINAL, 0.5, 1j)),
    ("Boost", (sl.Branch.SUBLUMINAL, 0.5 + 0.5j, 1.0)),
    ("interval_1p1", (0.0, 0.0, 1.0, 0.0, 1j)),
    ("compose_velocities_1p1", (1j, 0.5, 1.0)),
    ("extract_K", (("lorentz", 1j), [0.5, 0.3])),
    ("extract_K", (("superluminal", 1 + 0j), [2.0, 3.0])),
    # a complex array cast to float, its imaginary part dropped with a ComplexWarning
    ("velocity_of_matrix", (_matrix(1.0, 0.5j, 0.1 + 0.2j, 1.0),)),
    ("invariant_P", (0.5, 1.0, 1.0, np.array([0.1, 0.2 + 3j]))),
    # a complex beta_prime in the tail bound's math.exp
    ("expansion_reconstruction_check", ([0.5, -0.5], 1j, [0.1, 0.2], 12)),
    # an order past ORDER_BOUND, which alpha_coefficient ran for N! permutations
    ("alpha_coefficient", ([0.1] * 12, 0.0, (0,) * 12, 3)),
    # an index, order, truncation or trial count that is no whole number
    ("power_sum", (1j, [0.1])),
    ("newton_convolution_check", (2.5, [0.1], [0.2])),
    ("expansion_reconstruction_check", ([0.5, -0.5], 0.0, [0.1], 2.5)),
    ("cauchy_condition_check", ([0.5, -0.5], 0.0, (1, math.nan), (0, 1), 2, 3)),
    ("check_symmetry", (0.5, 1.0, 1.0, [0.1, 0.2], 1.5)),
    ("finiteness_scan", (0.5, 1.0, 1.0, [2, 3], 0.0, 1.0, 2.5)),
]
# A number or a (t, x) tuple where a sequence or an event is required, an
# array of another shape where a matrix is, or a vector speed where a 1+1
# operation needs a scalar: a TypeError, ValueError, IndexError or
# AttributeError of Python or numpy
SHAPES = [
    ("CoefficientTensor", (0.5, 1.0)),
    ("compose_boosts_1p1", (sl.Branch.SUBLUMINAL, [0.1, 0.0, 0.0], sl.Branch.SUBLUMINAL, 0.2,
                            1.0)),
    ("boost_1p3_subluminal", (0.0, [1.0, 2.0, 3.0], 0.5, 1.0)),
    ("boost_1p3_superluminal", (0.0, [1.0, 2.0, 3.0], 5.0, 1.0)),
    ("extract_K", (("lorentz", 1.0), 5)),
    ("parity_deviation", (("lorentz", 1.0), 5)),
    ("finiteness_scan", (0.5, 1.0, 1.0, 5, 0.0, 1.0, 2)),
    ("velocity_of_matrix", (np.ones(2),)),
    ("branch_of_matrix", (np.array(0.5),)),
    ("branch_of_matrix", (np.eye(3),)),
    ("interval_1p1 (t, x)", (1, 2, 1.0)),
    ("interval_1p1 (t, x)", ((0.0, 0.0), (1.0, 0.0), 1.0)),
    ("path_phase (t, x)", (5, 1.0, 1.0)),
    ("path_phase (t, x)", (((0.0, 0.0), (1.0, 0.0)), 1.0, 1.0)),
]


def _with_examples(test):
    for case in AA + AB + LEAKS + BUILTINS + SHAPES:
        test = example(case)(test)
    return test


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@_with_examples
@given(cases)
def test_every_public_call_returns_a_finite_result_or_a_named_error(case):
    _outcome(*case)

