"""Power sums and the permutation-sum coefficient family behind the invariants.

The invariant family has a power-series expansion in power sums
E_k = sum_j phi_j**k whose coefficients are fixed, up to normalization, by a
product condition on pairwise phase sums.  This module evaluates the printed
coefficient solution

    a^(n)_{k_1..k_N} = n**(-beta') * (sum over permutations pi of
                       prod_i alpha_i**k_{pi(i)}) / (N! * prod_i k_i!)

and numerically verifies the identities it must satisfy: the Newton-style
binomial convolution of power sums over pairwise sums, the factorial product
condition coupling n, m and n*m coefficients, and the resummation of the
truncated expansion to the closed product of exponential sums.

alpha_coefficient evaluates one coefficient by enumerating the N!
permutations.  The resummation check needs every coefficient of the index
box [0, T]**N at once and builds them as one numpy tensor: with
A[i, t] = alpha_i**t / t!, the box is the sum over permutations pi of the
outer products A[pi(0)] x ... x A[pi(N-1)], so it costs N! outer products of
(T+1)**N cells.  Both paths accept N <= ORDER_BOUND; binomial coefficients
and factorials are exact integers for the index ranges used (r <= 8,
k_i <= truncation).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import TruncationInsufficient
from .invariants import (
    _log_sums,
    _magnitude,
    _pairwise_sums,
    _row_sums,
    as_phases,
    pairwise_phase_sums,
)
from .report import CheckReport, relative_deviation


def power_sum(k: int, phases) -> float:
    """E_k = sum_j phi_j**k; E_0 is the number of phases."""
    if k < 0:
        raise ValueError("power sums need k >= 0")
    phi = as_phases(phases)
    return float(np.sum(phi**k))


def newton_convolution_check(
    r: int, phases_a, phases_b, r_max: int = 8, tol: float = 1e-9
) -> CheckReport:
    """E_r over the n*m pairwise sums vs the binomial convolution.

    Direct enumeration of sum_{ij} (phi_i + xi_j)**r is compared with
    sum_t C(r, t) * E_t(phi) * E_{r-t}(xi).  The deviation is measured
    relative to the cancellation-free scale sum_{ij} |phi_i + xi_j|**r.
    """
    if not 0 <= r <= r_max:
        raise ValueError(f"r must satisfy 0 <= r <= {r_max}")
    a, b = as_phases(phases_a), as_phases(phases_b)
    sums = pairwise_phase_sums(a, b)
    dev = _newton_deviation(
        r, [power_sum(t, a) for t in range(r + 1)], [power_sum(t, b) for t in range(r + 1)],
        float(np.sum(sums**r)), float(np.sum(np.abs(sums) ** r)))
    return CheckReport(
        "newton_convolution",
        dev,
        tol,
        dev <= tol,
        {"r": r, "n": int(a.size), "m": int(b.size)},
    )


def _newton_deviation(r: int, Ea, Eb, direct: float, scale: float) -> float:
    """The deviation of newton_convolution_check from the power sums Ea and
    Eb of the two sets (E_t at index t, t <= r) and the direct and scale sums
    of order r over their pairwise sums."""
    convolved = sum(math.comb(r, t) * Ea[t] * Eb[r - t] for t in range(r + 1))
    return relative_deviation(direct, convolved, scale)


def _power_table(v: np.ndarray, r_max: int) -> np.ndarray:
    """The (r_max + 1, len(v)) stack of the powers v**r, each raised to one
    scalar r as power_sum raises it: numpy's power has fast paths for the
    scalar exponents 0, 1 and 2 that an array of exponents misses.  A row
    sum along the last axis is power_sum's sum, bit for bit."""
    return np.stack([v ** r for r in range(r_max + 1)])


def _newton_deviations(instances, r_max: int = 8) -> list[list[float]]:
    """newton_convolution_check(r, phases_a, phases_b).deviation for every r
    in 0..r_max, bit for bit, for each (phases_a, phases_b) instance.

    The two sets, the pairwise sums and their magnitudes of every instance
    are concatenated, and the concatenation takes one _power_table.  Each
    power sum is then the sum of its own stretch of a row, as that stretch
    sums alone (invariants._row_sums)."""
    sets = []
    for phases_a, phases_b in instances:
        a, b = as_phases(phases_a), as_phases(phases_b)
        sums = _pairwise_sums(a, b)
        sets += [a, b, sums, np.abs(sums)]
    table = _power_table(np.concatenate(sets), r_max)
    power_sums = _row_sums(table, np.array([len(v) for v in sets])).T.tolist()
    return [[_newton_deviation(r, Ea, Eb, direct[r], scale[r]) for r in range(r_max + 1)]
            for Ea, Eb, direct, scale in zip(*[iter(power_sums)] * 4)]


@dataclass(frozen=True)
class CoefficientTensor:
    """Expansion-coefficient family for a fixed tuple of alphas.

    alphas of a solution that also respects time reversal come in +/- pairs,
    which forces an even count; the constructor does not enforce this so that
    deliberately broken tensors remain expressible.
    """

    alphas: tuple[complex, ...]
    beta_prime: float = 0.0

    def __post_init__(self) -> None:
        alphas = tuple(complex(a) for a in self.alphas)
        if not alphas:
            raise ValueError("at least one alpha is required")
        object.__setattr__(self, "alphas", alphas)

    @property
    def order(self) -> int:
        return len(self.alphas)

    def is_time_symmetric(self, tol: float = 0.0) -> bool:
        remaining = list(self.alphas)
        while remaining:
            a = remaining.pop()
            for i, b in enumerate(remaining):
                if abs(a + b) <= tol:
                    remaining.pop(i)
                    break
            else:
                return False
        return True


# Bounded: verify's Cauchy check draws fresh alphas on every run, and their
# entries are never hit again; the fixed alphas' entries stay recent.
@functools.lru_cache(maxsize=256)
def _permutation_sum_sorted(
    alphas: tuple[complex, ...], indices: tuple[int, ...]
) -> complex:
    total = 0.0 + 0.0j
    for pi in itertools.permutations(range(len(alphas))):
        term = 1.0 + 0.0j
        for i, a in enumerate(alphas):
            term *= a ** indices[pi[i]]
        total += term
    return total


def _permutation_sum(alphas: tuple[complex, ...], indices: tuple[int, ...]) -> complex:
    # The sum over permutations is symmetric in the index tuple.
    return _permutation_sum_sorted(alphas, tuple(sorted(indices)))


def alpha_coefficient(
    ct: CoefficientTensor, indices: tuple[int, ...], n: int
) -> complex:
    """Coefficient of E_{k_1} * ... * E_{k_N} in the n-path expansion."""
    indices = tuple(int(k) for k in indices)
    if len(indices) != ct.order:
        raise ValueError(f"expected {ct.order} indices, got {len(indices)}")
    if any(k < 0 for k in indices):
        raise ValueError("indices must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    norm = math.factorial(ct.order) * math.prod(math.factorial(k) for k in indices)
    return n ** (-ct.beta_prime) * _permutation_sum(ct.alphas, indices) / norm


INDEX_BOUND = 4
ORDER_BOUND = 4
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def cauchy_condition_check(
    ct: CoefficientTensor,
    k: tuple[int, ...],
    s: tuple[int, ...],
    n: int,
    m: int,
    tol: float = 1e-10,
    perturb: float = 0.0,
) -> CheckReport:
    """Factorial product condition coupling the n, m and n*m coefficients.

    N! * prod(k_i!) * prod(s_i!) * a^(n)_k * a^(m)_s must equal
    sum over permutations pi of prod_i (k_i + s_pi(i))! * a^(nm)_{k + s_pi}.
    perturb is added to the a^(n)_k factor on the left; any nonzero value
    breaks the identity whenever a^(m)_s is nonzero.
    """
    k = tuple(int(v) for v in k)
    s = tuple(int(v) for v in s)
    N = ct.order
    if len(k) != N or len(s) != N:
        raise ValueError(f"index tuples must have length {N}")
    if N > ORDER_BOUND:
        raise ValueError(f"order N <= {ORDER_BOUND} required")
    if any(v < 0 or v > INDEX_BOUND for v in k + s):
        raise ValueError(f"indices must lie in [0, {INDEX_BOUND}]")
    fac = math.factorial
    lhs = (
        fac(N)
        * math.prod(fac(v) for v in k)
        * math.prod(fac(v) for v in s)
        * (alpha_coefficient(ct, k, n) + perturb)
        * alpha_coefficient(ct, s, m)
    )
    rhs = 0.0 + 0.0j
    scale = 0.0
    for pi in itertools.permutations(range(N)):
        merged = tuple(k[i] + s[pi[i]] for i in range(N))
        weight = math.prod(fac(v) for v in merged)
        term = weight * alpha_coefficient(ct, merged, n * m)
        rhs += term
        scale += abs(term)
    dev = relative_deviation(lhs, rhs, scale)
    return CheckReport(
        "cauchy_condition",
        dev,
        tol,
        dev <= tol,
        {"k": list(k), "s": list(s), "n": n, "m": m, "perturb": perturb},
    )


def closed_product(ct: CoefficientTensor, phases, n_override: int | None = None) -> complex:
    """n**(-beta') * prod_i sum_j exp(alpha_i * phi_j), the resummed series.

    The factors are multiplied as logs and exponentiated once; raises
    NonfiniteResult when the magnitude does not fit in a float.
    """
    phi = as_phases(phases)
    n = phi.size if n_override is None else n_override
    log_value = -ct.beta_prime * math.log(n) + sum(complex(_log_sums(a, phi)[0])
                                                   for a in ct.alphas)
    mag = _magnitude(log_value.real, lambda log10: (
        f"|closed product| = 10**{log10} does not fit in a float "
        f"(alphas={ct.alphas!r}, beta_prime={ct.beta_prime!r}, n={n})"))
    return complex(mag * math.cos(log_value.imag), mag * math.sin(log_value.imag))


def _tail_bound(ct: CoefficientTensor, phi: np.ndarray, truncation: int) -> float:
    """Upper bound on the truncated-minus-closed difference, inf beyond a float.

    Per factor i the truncated exponential sum differs from the full one by
    at most delta_i = sum_j m_ij**(T+1) * exp(m_ij) / (T+1)! with
    m_ij = |alpha_i*phi_j|; the product difference is bounded by a telescoping
    sum with the remaining factors at their absolute-value ceilings
    sum_j exp(m_ij).  Both sums come from _log_sums and are combined as logs.
    """
    abs_phi = np.abs(phi)
    log_ceilings = [float(_log_sums(abs(a), abs_phi)[0]) for a in ct.alphas]
    log_terms = []
    for i, a in enumerate(ct.alphas):
        m = abs(a) * abs_phi
        m = m[m > 0]  # zero terms add nothing to delta_i
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


def _coefficient_box(ct: CoefficientTensor, truncation: int, n: int) -> np.ndarray:
    """Every coefficient a^(n)_k of the index box [0, truncation]**N, as an
    array of shape (m,) * N indexed by k.

    With A[i, t] = alpha_i**t / t!, the cell k of the outer product
    A[s(0)] x ... x A[s(N-1)] is prod_j alpha_{s(j)}**k_j / prod_j k_j!, and
    summing it over all permutations s sums the printed formula's
    prod_i alpha_i**k_{pi(i)} over pi = s**-1.  m is truncation + 1 unless
    every A[i, t] is 0 from some t on (all alphas 0, or powers that
    underflow); the cells from there on are exactly 0 and are left out.
    """
    t = np.arange(truncation + 1)
    inverse_factorials = 1.0 / np.array([math.factorial(v) for v in t], float)
    A = np.array(ct.alphas)[:, None] ** t * inverse_factorials
    A = A[:, :np.flatnonzero(A.any(axis=0))[-1] + 1]
    box = np.zeros((A.shape[1],) * ct.order, complex)
    for s in itertools.permutations(range(ct.order)):
        box += functools.reduce(np.multiply.outer, A[list(s)])
    box *= n ** (-ct.beta_prime) / math.factorial(ct.order)
    return box


def expansion_reconstruction_check(
    ct: CoefficientTensor, phases, truncation: int = 12, tol: float = 1e-8
) -> CheckReport:
    """Truncated coefficient expansion vs the closed exponential product.

    Sums a^(n)_{k_1..k_N} * E_{k_1} * ... * E_{k_N} over the full index box
    [0, truncation]**N and compares with closed_product.  Raises
    TruncationInsufficient when the series tail bound exceeds tol; keep
    |alpha_i * phi_j| <= 1 with truncation 12 for comfortable headroom.
    Raises ValueError for N > ORDER_BOUND, for a negative truncation, and
    for a truncation whose last cell's normalisation N! * truncation!**N
    exceeds the float range (truncation > 57 at N = 4); the box holds up to
    (truncation + 1)**N complex cells.
    """
    if ct.order > ORDER_BOUND:
        raise ValueError(f"order N <= {ORDER_BOUND} required, got N={ct.order}")
    if truncation < 0:
        raise ValueError(f"truncation must be >= 0, got truncation={truncation!r}")
    if ct.order * math.lgamma(truncation + 1) + math.lgamma(ct.order + 1) > _LOG_FLOAT_MAX:
        raise ValueError(
            f"truncation={truncation!r} at order N={ct.order}: the last cell's "
            "normalisation N! * truncation!**N does not fit in a float")
    phi = as_phases(phases)
    n = phi.size
    bound = _tail_bound(ct, phi, truncation)
    if bound > tol:
        raise TruncationInsufficient(
            f"series tail bound {bound!r} exceeds tol={tol!r}; raise the "
            "truncation or shrink |alpha*phi|"
        )
    truncated = _coefficient_box(ct, truncation, n)
    # a power sum past the box would only meet coefficients that are 0
    powers = _power_table(phi, truncated.shape[0] - 1).sum(axis=-1)
    for _ in range(ct.order):  # elementwise, so no BLAS kernel reorders the sums
        truncated = (truncated * powers).sum(axis=-1)
    closed = closed_product(ct, phi)
    dev = relative_deviation(complex(truncated), closed)
    return CheckReport(
        "expansion_reconstruction",
        dev,
        tol,
        dev <= tol,
        {"N": ct.order, "n": n, "truncation": truncation},
    )


def closure_checks(
    make_invariants, phases_a, phases_b, tol: float = 1e-9, fail_floor: float = 1e-3
) -> list[CheckReport]:
    """Products, powers and ratios of solutions stay multiplicative; sums fail.

    make_invariants is a pair of single-argument invariant callables.  Each
    returned report's passed field states whether the combination behaved as
    the algebra demands: near-zero deviation for product, power and ratio,
    deviation above fail_floor for the sum.
    """
    f1, f2 = make_invariants
    a, b = as_phases(phases_a), as_phases(phases_b)
    # each invariant once on each set, in the order the product's check calls them
    values = [(f1(phi), f2(phi)) for phi in (_pairwise_sums(a, b), a, b)]
    combos = {"closure_product": lambda u, v: u * v, "closure_power": lambda u, v: u ** 1.5,
              "closure_ratio": lambda u, v: u / v, "closure_sum": lambda u, v: u + v}
    out = []
    for name, fn in combos.items():
        both, on_a, on_b = (complex(fn(*pair)) for pair in values)
        dev = relative_deviation(both, on_a * on_b)  # check_multiplicativity's deviation
        out.append(CheckReport(name, dev, fail_floor, dev > fail_floor, {"expected": "failure"})
                   if name == "closure_sum" else CheckReport(name, dev, tol, dev <= tol, {}))
    return out
