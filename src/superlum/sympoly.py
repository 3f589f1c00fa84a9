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

Permutations are enumerated explicitly, so N is practically bounded by 4;
binomial coefficients and factorials are exact integers for the index ranges
used (r <= 8, k_i <= truncation).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationInsufficient
from .invariants import (
    _log_sums,
    _magnitude,
    as_phases,
    check_multiplicativity,
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
    direct = float(np.sum(sums**r))
    convolved = sum(
        math.comb(r, t) * power_sum(t, a) * power_sum(r - t, b) for t in range(r + 1)
    )
    scale = float(np.sum(np.abs(sums) ** r))
    dev = relative_deviation(direct, convolved, scale)
    return CheckReport(
        "newton_convolution",
        dev,
        tol,
        dev <= tol,
        {"r": r, "n": int(a.size), "m": int(b.size)},
    )


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


@functools.lru_cache(maxsize=None)
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
    """Upper bound on the truncated-minus-closed difference.

    Per factor i the truncated exponential sum differs from the full one by
    at most sum_j |alpha_i*phi_j|**(T+1) * exp(|alpha_i*phi_j|) / (T+1)!;
    the product difference is bounded by a telescoping sum with the remaining
    factors at their absolute-value ceilings.
    """
    mags = [np.abs(a) * np.abs(phi) for a in ct.alphas]
    ceilings = [float(np.sum(np.exp(m))) for m in mags]
    total = 0.0
    for i, m in enumerate(mags):
        delta = float(
            np.sum(m ** (truncation + 1) * np.exp(m)) / math.factorial(truncation + 1)
        )
        rest = math.prod(c for j, c in enumerate(ceilings) if j != i)
        total += delta * rest
    n = phi.size
    return n ** (-ct.beta_prime) * total


def expansion_reconstruction_check(
    ct: CoefficientTensor, phases, truncation: int = 12, tol: float = 1e-8
) -> CheckReport:
    """Truncated coefficient expansion vs the closed exponential product.

    Sums a^(n)_{k_1..k_N} * E_{k_1} * ... * E_{k_N} over the full index box
    [0, truncation]**N and compares with closed_product.  Raises
    TruncationInsufficient when the series tail bound exceeds tol; keep
    |alpha_i * phi_j| <= 1 with truncation 12 for comfortable headroom.
    """
    phi = as_phases(phases)
    n = phi.size
    bound = _tail_bound(ct, phi, truncation)
    if bound > tol:
        raise TruncationInsufficient(
            f"series tail bound {bound!r} exceeds tol={tol!r}; raise the "
            "truncation or shrink |alpha*phi|"
        )
    powers = [power_sum(t, phi) for t in range(truncation + 1)]
    truncated = 0.0 + 0.0j
    for indices in itertools.product(range(truncation + 1), repeat=ct.order):
        coeff = alpha_coefficient(ct, indices, n)
        if coeff == 0:
            continue
        truncated += coeff * math.prod(powers[t] for t in indices)
    closed = closed_product(ct, phi)
    dev = relative_deviation(truncated, closed)
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
    combos = {
        "closure_product": lambda phi: f1(phi) * f2(phi),
        "closure_power": lambda phi: f1(phi) ** 1.5,
        "closure_ratio": lambda phi: f1(phi) / f2(phi),
        "closure_sum": lambda phi: f1(phi) + f2(phi),
    }
    out = []
    for name, fn in combos.items():
        rep = check_multiplicativity(fn, phases_a, phases_b, tol=tol)
        if name == "closure_sum":
            out.append(
                CheckReport(
                    name, rep.deviation, fail_floor, rep.deviation > fail_floor,
                    {"expected": "failure"},
                )
            )
        else:
            out.append(CheckReport(name, rep.deviation, tol, rep.passed, {}))
    return out
