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
(T+1)**N cells.  Both paths, and the Cauchy check, accept N <= ORDER_BOUND,
checked first, with the index tuples, by _indices; binomial coefficients
and factorials are exact integers for the index ranges used
(r <= NEWTON_R_MAX, k_i <= truncation).  Each bad input raises InvalidInput
naming it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
import reprlib
import sys
from dataclasses import dataclass

import numpy as np

from ._input import as_phases, finite, finite_count, sequence, whole
from .errors import InvalidInput, NonfiniteResult, TruncationInsufficient
from .invariants import _log_sums, _pairwise_sums, _polar, _row_sums, pairwise_phase_sums
from .report import CheckReport, _relative, relative_deviation


def power_sum(k: int, phases) -> float:
    """E_k = sum_j phi_j**k; E_0 is the number of phases.  Raises
    NonfiniteResult when the sum does not fit in a float."""
    k = whole("k", k)
    return float(_power_sums(as_phases(phases), range(k, k + 1))[0])


# The highest order of the Newton convolution checks: verify's row checks
# every r up to it, and newton_convolution_check accepts r up to it by default.
NEWTON_R_MAX = 8


def newton_convolution_check(
    r: int, phases_a, phases_b, r_max: int = NEWTON_R_MAX, tol: float = 1e-9
) -> CheckReport:
    """E_r over the n*m pairwise sums vs the binomial convolution.

    Direct enumeration of sum_{ij} (phi_i + xi_j)**r is compared with
    sum_t C(r, t) * E_t(phi) * E_{r-t}(xi).  The deviation is measured
    relative to the cancellation-free scale sum_{ij} |phi_i + xi_j|**r.
    Each set is checked once and gives E_0..E_r from one power table; the
    pairwise sums are raised to the power r alone.  Raises NonfiniteResult
    when a power sum or the convolution does not fit in a float.
    """
    r = whole("r", r, 0, r_max)
    a, b = as_phases(phases_a), as_phases(phases_b)
    with np.errstate(over="ignore"):  # a sum beyond a float fails its power sums
        sums = _pairwise_sums(a, b)
    Ea, Eb = (_power_sums(v, range(r + 1))[None] for v in (a, b))
    direct, scale = (_power_sums(v, range(r, r + 1))[None] for v in (sums, np.abs(sums)))
    dev = float(_newton_columns(Ea, Eb, direct, scale)[0, 0])
    return CheckReport(
        "newton_convolution",
        dev,
        tol,
        dev <= tol,
        {"r": r, "n": int(a.size), "m": int(b.size)},
    )


def _convolution(size: int) -> tuple[np.ndarray, np.ndarray]:
    """For t, r < size: C(r, t) at [t, r], rounded to a float as the
    int * float of the scalar formula rounds it (exact up to r = 56), and
    the index r - t, clipped to 0 where t > r and C(r, t) is 0."""
    t, r = np.indices((size, size))
    combs = np.array([[math.comb(j, i) for j in range(size)] for i in range(size)], float)
    return combs, np.maximum(r - t, 0)


_CONVOLUTION = _convolution(NEWTON_R_MAX + 1)


def _newton_columns(Ea, Eb, direct, scale) -> np.ndarray:
    """The relative deviation of direct from the binomial convolution
    sum_t C(r, t) * Ea[t] * Eb[r - t], for each instance (row) and order r
    (column).  Ea and Eb hold E_0..E_R of each instance's two sets, R + 1
    columns; direct and scale hold the direct and the cancellation-free sums
    over its pairwise sums at the last k orders, R - k + 1..R, and so does
    the result.

    Each term is formed as the two multiplies of C(r, t) * Ea[t] * Eb[r - t],
    all of them at once, and each convolution adds its terms for t = 0, 1,
    ... in order to 0.0, as Python's sum adds them to the int 0.  The terms
    past t = r are 0 (C(r, t) = 0 times finite power sums) and leave a sum
    as it is.  The deviation is report._relative, which is
    relative_deviation on finite values, so each cell has the bits of the
    scalar formula.  Raises NonfiniteResult when a convolution does not fit
    in a float: its power sums are finite, so only an overflowing term makes
    it inf or NaN."""
    size, low = Ea.shape[-1], Ea.shape[-1] - direct.shape[-1]
    combs, shifts = _CONVOLUTION if size <= len(_CONVOLUTION[0]) else _convolution(size)
    convolved = np.zeros(direct.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        terms = combs[:size, low:size] * Ea[:, :, None] * Eb[:, shifts[:size, low:size]]
        for t in range(size):
            convolved += terms[:, t]
    if not np.isfinite(convolved).all():
        row, col = np.argwhere(~np.isfinite(convolved))[0].tolist()
        raise NonfiniteResult(
            f"the binomial convolution of order {low + col} does not fit in a float "
            f"(power sums of the two sets up to {float(np.abs(Ea[row]).max())!r} "
            f"and {float(np.abs(Eb[row]).max())!r})")
    return _relative(direct, convolved, scale)


def _power_table(v: np.ndarray, orders: range) -> np.ndarray:
    """The (len(orders), *v.shape) stack of the powers v**r for r in orders,
    each raised to one scalar r as power_sum raises it: numpy's power has
    fast paths for the scalar exponents 0, 1 and 2 that an array of
    exponents misses.  A row sum along the last axis is power_sum's sum,
    bit for bit.  One order is a view of its powers, not a copy."""
    if len(orders) == 1:
        return (v ** orders[0])[None]
    return np.stack([v ** r for r in orders])


def _power_sums(v: np.ndarray, orders: range, lengths: np.ndarray | None = None) -> np.ndarray:
    """E_r of every row of v for r in orders, with the orders on the first
    axis: the row sums (invariants._row_sums, rows as there) of one
    _power_table.  This is where every power sum is formed, and so where a
    sum that does not fit in a float raises NonfiniteResult, naming its
    order and the largest |phase| of its row."""
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _row_sums(_power_table(v, orders), lengths)
    if not np.isfinite(sums).all():
        order, *row = np.argwhere(~np.isfinite(sums))[0].tolist()
        if lengths is None:
            phases = v[tuple(row)]
        else:
            start = int(lengths[:row[0]].sum())
            phases = v[start:start + int(lengths[row[0]])]
        raise NonfiniteResult(
            f"the power sum E_{orders[order]} does not fit in a float "
            f"(largest |phase| {float(np.abs(phases).max())!r})")
    return sums


def _newton_deviations(instances) -> np.ndarray:
    """newton_convolution_check(r, phases_a, phases_b).deviation for every r
    in 0..NEWTON_R_MAX, bit for bit, for each (phases_a, phases_b) instance,
    as the rows of an (instances, NEWTON_R_MAX + 1) array.

    The two sets, the pairwise sums and their magnitudes of every instance
    are concatenated in order of length, and the concatenation takes one
    _power_table.  Each power sum is then the sum of its own stretch of a
    row, as that stretch sums alone (invariants._row_sums, one view per
    length), and is put back in instance order; one _newton_columns call
    forms every convolution and deviation.  Where several power sums do
    not fit in a float, the one named is the first in order of length."""
    sets = []
    with np.errstate(over="ignore"):  # a sum beyond a float fails its power sums
        for phases_a, phases_b in instances:
            a, b = as_phases(phases_a), as_phases(phases_b)
            sums = _pairwise_sums(a, b)
            sets += [a, b, sums, np.abs(sums)]
    lengths = np.array([len(v) for v in sets])
    order = np.argsort(lengths, kind="stable")
    power_sums = np.empty((NEWTON_R_MAX + 1, len(sets)))
    power_sums[:, order] = _power_sums(np.concatenate([sets[i] for i in order.tolist()]),
                                       range(NEWTON_R_MAX + 1), lengths[order])
    Ea, Eb, direct, scale = power_sums.T.reshape(-1, 4, NEWTON_R_MAX + 1).transpose(1, 0, 2)
    return _newton_columns(Ea, Eb, direct, scale)


@dataclass(frozen=True)
class CoefficientTensor:
    """Expansion-coefficient family for a fixed tuple of alphas.

    alphas of a solution that also respects time reversal come in +/- pairs,
    which forces an even count; the constructor does not enforce this so that
    deliberately broken tensors remain expressible.  Each alpha and
    beta_prime must be finite (_input.finite).
    """

    alphas: tuple[complex, ...]
    beta_prime: float = 0.0

    def __post_init__(self) -> None:
        alphas = tuple(finite(f"alpha {i}", a, complex)
                       for i, a in enumerate(sequence("alphas", self.alphas)))
        if not alphas:
            raise InvalidInput("at least one alpha is required")
        finite("beta_prime", self.beta_prime, complex)
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
    """The sum over permutations pi of prod_i alphas[i]**indices[pi(i)].  It
    is symmetric in the index tuple, so callers pass the indices sorted and
    each multiset takes one cache entry."""
    total = 0.0 + 0.0j
    for pi in itertools.permutations(range(len(alphas))):
        term = 1.0 + 0.0j
        for i, a in enumerate(alphas):
            term *= a ** indices[pi[i]]
        total += term
    return total


def alpha_coefficient(
    ct: CoefficientTensor, indices: tuple[int, ...], n: int
) -> complex:
    """Coefficient of E_{k_1} * ... * E_{k_N} in the n-path expansion, n a
    count (_input.finite_count), indices N whole numbers >= 0 and N at most
    ORDER_BOUND (_indices); NonfiniteResult where it is beyond a float."""
    (indices,) = _indices(ct, indices=indices)
    finite_count("n", n)
    norm = math.factorial(ct.order) * math.prod(math.factorial(k) for k in indices)
    try:
        value = (n ** (-ct.beta_prime) * _permutation_sum_sorted(ct.alphas, tuple(sorted(indices)))
                 / norm)
    except OverflowError:  # an n**-beta' or an alpha**k beyond a float
        value = math.inf
    if not cmath.isfinite(value):
        raise NonfiniteResult(f"the coefficient of indices {indices} at n={n!r} does not fit "
                              f"in a float (alphas={ct.alphas!r}, beta_prime={ct.beta_prime!r})")
    return value


INDEX_BOUND = 4
ORDER_BOUND = 4
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# k_i + s_i <= 2 * INDEX_BOUND, and N <= ORDER_BOUND
_FACTORIALS = [math.factorial(v) for v in range(2 * INDEX_BOUND + 1)]


def _indices(ct: CoefficientTensor, bound: int | None = None,
             **tuples) -> list[tuple[int, ...]]:
    """Each index tuple of tuples, by its name, as a tuple of N = ct.order
    whole numbers in [0, bound] (no upper bound where bound is None), once
    N <= ORDER_BOUND: the order and index checks of the coefficient, Cauchy
    and expansion checks, each fault an InvalidInput naming it.  The order
    comes first, so that no check starts the N! permutations of an order
    past the bound."""
    N = ct.order
    if N > ORDER_BOUND:
        raise InvalidInput(f"order N <= {ORDER_BOUND} required, got N={N}")
    out = []
    rule = f"hold N={N} indices"
    for name, given in tuples.items():
        given = sequence(name, given, rule=rule)
        if len(given) != N:
            raise InvalidInput(f"{name} must {rule}, got {reprlib.repr(given)}")
        out.append(tuple(whole(f"{name}[{i}]", k, 0, bound) for i, k in enumerate(given)))
    return out


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

    k, s, n and m are checked once, and n**-beta', m**-beta' and
    (n*m)**-beta' taken once each.  Every coefficient is formed as
    alpha_coefficient forms it, with the same float operations in the same
    order: its scale, times the cached permutation sum of its sorted
    indices, over the int N! * prod_i idx_i!.  A term of the sum depends on
    its merged indices only as a multiset, so each distinct one is formed
    once and added wherever it recurs, in permutation order.  n, m and n*m
    are counts (_input.finite_count); a count**-beta' or a term beyond a
    float raises NonfiniteResult.
    """
    k, s = _indices(ct, INDEX_BOUND, k=k, s=s)
    N = ct.order
    finite_count("n*m", finite_count("n", n) * finite_count("m", m))
    try:
        n_scale, m_scale, nm_scale = (count ** (-ct.beta_prime) for count in (n, m, n * m))
    except OverflowError:
        raise NonfiniteResult(f"a count**{-ct.beta_prime!r} does not fit in a float "
                              f"(n={n!r}, m={m!r})") from None
    fac, alphas = _FACTORIALS, ct.alphas
    rhs, scale = 0.0 + 0.0j, 0.0

    def coefficient(indices, weight, scale):
        return scale * _permutation_sum_sorted(alphas, tuple(sorted(indices))) / (fac[N] * weight)

    try:
        k_weight, s_weight = math.prod(fac[v] for v in k), math.prod(fac[v] for v in s)
        lhs = (
            fac[N]
            * k_weight
            * s_weight
            * (coefficient(k, k_weight, n_scale) + perturb)
            * coefficient(s, s_weight, m_scale)
        )
        terms = {}  # a term depends on its merged indices only as a multiset
        for permuted in itertools.permutations(s):
            merged = tuple(sorted(map(operator.add, k, permuted)))
            if merged not in terms:
                weight = math.prod(fac[v] for v in merged)
                terms[merged] = weight * coefficient(merged, weight, nm_scale)
            term = terms[merged]
            rhs += term
            scale += abs(term)
        dev = relative_deviation(lhs, rhs, scale)
    except OverflowError:  # an alpha**k, or the magnitude of a term, beyond a float
        scale = math.inf
    if not math.isfinite(scale):
        raise NonfiniteResult(f"a term of the Cauchy condition does not fit in a float "
                              f"(alphas={alphas!r}, k={k}, s={s}, n={n!r}, m={m!r})")
    return CheckReport(
        "cauchy_condition",
        dev,
        tol,
        dev <= tol,
        {"k": list(k), "s": list(s), "n": n, "m": m, "perturb": perturb},
    )


def closed_product(ct: CoefficientTensor, phases, n_override: int | None = None) -> complex:
    """n**(-beta') * prod_i sum_j exp(alpha_i * phi_j), the resummed series.

    The factors are multiplied as logs and exponentiated once (_polar);
    n_override is a count (_input.finite_count).
    """
    phi = as_phases(phases)
    n = phi.size if n_override is None else finite_count("n_override", n_override)
    log_value = -ct.beta_prime * math.log(n) + sum(complex(_log_sums(a, phi)[0])
                                                   for a in ct.alphas)
    return _polar(log_value.real, log_value.imag, "closed product", lambda: (
        f"alphas={ct.alphas!r}, beta_prime={ct.beta_prime!r}, n={n}"))


def _tail_bound(ct: CoefficientTensor, phi: np.ndarray, truncation: int) -> float:
    """Upper bound on the truncated-minus-closed difference, inf beyond a float.

    Per factor i the truncated exponential sum differs from the full one by
    at most delta_i = sum_j m_ij**(T+1) * exp(m_ij) / (T+1)! with
    m_ij = |alpha_i*phi_j|; the product difference is bounded by a telescoping
    sum with the remaining factors at their absolute-value ceilings
    sum_j exp(m_ij).  Both sums come from _log_sums and are combined as logs.
    Both depend on alpha_i only through |alpha_i|, so each distinct |alpha_i|
    takes one pair of _log_sums calls: the +/- pairs of a time-symmetric
    tensor take half the calls, with the same terms in the same order.
    """
    abs_phi = np.abs(phi)
    logs = {}  # |alpha| -> (log ceiling, log delta or None when delta is 0)
    for a in map(abs, ct.alphas):
        if a not in logs:
            ceiling = float(_log_sums(a, abs_phi)[0])  # names an a*|phi_j| beyond a float
            m = a * abs_phi
            m = m[m > 0]  # zero terms add nothing to delta_i
            logs[a] = (ceiling, float(_log_sums(1.0, m + (truncation + 1) * np.log(m))[0])
                       if m.size else None)
    pairs = [logs[abs(a)] for a in ct.alphas]
    log_ceilings = [ceiling for ceiling, _ in pairs]
    log_terms = [log_delta + sum(log_ceilings[:i] + log_ceilings[i + 1:])
                 for i, (_, log_delta) in enumerate(pairs) if log_delta is not None]
    if not log_terms:
        return 0.0
    top = max(log_terms)
    if top == math.inf:  # a product of ceilings beyond a float
        return math.inf
    log_total = top + math.log(math.fsum(math.exp(x - top) for x in log_terms))
    try:
        # |n**-beta'| = n**-Re(beta')
        return math.exp(log_total - math.log(math.factorial(truncation + 1))
                        - ct.beta_prime.real * math.log(phi.size))
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
    Raises InvalidInput for N > ORDER_BOUND, for a negative truncation, and
    for a truncation whose last cell's normalisation N! * truncation!**N
    exceeds the float range (truncation > 57 at N = 4); the box holds up to
    (truncation + 1)**N complex cells.  A truncated sum beyond a float
    raises NonfiniteResult.
    """
    _indices(ct)
    truncation = whole("truncation", truncation)
    if ct.order * math.lgamma(truncation + 1) + math.lgamma(ct.order + 1) > _LOG_FLOAT_MAX:
        raise InvalidInput(
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
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # relative_deviation names it
            truncated = _coefficient_box(ct, truncation, n)
            # a power sum past the box would only meet coefficients that are 0
            powers = _power_sums(phi, range(truncated.shape[0]))
            for _ in range(ct.order):  # elementwise, so no BLAS kernel reorders the sums
                truncated = (truncated * powers).sum(axis=-1)
        truncated = complex(truncated)
    except OverflowError:  # an n**-beta' beyond a float
        truncated = math.inf
    dev = relative_deviation(truncated, closed_product(ct, phi))  # names one beyond a float
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
    values = [(f1(phi), f2(phi)) for phi in (pairwise_phase_sums(a, b), a, b)]
    combos = {"closure_product": lambda u, v: u * v, "closure_power": lambda u, v: u ** 1.5,
              "closure_ratio": lambda u, v: u / v, "closure_sum": lambda u, v: u + v}
    out = []
    for name, fn in combos.items():
        try:
            both, on_a, on_b = (complex(fn(*pair)) for pair in values)
        except (OverflowError, ZeroDivisionError):  # a power, or a ratio over 0, beyond a float
            raise NonfiniteResult(f"{name} of the two invariants does not fit in a float") from None
        dev = relative_deviation(both, on_a * on_b)  # check_multiplicativity's deviation
        out.append(CheckReport(name, dev, fail_floor, dev > fail_floor, {"expected": "failure"})
                   if name == "closure_sum" else CheckReport(name, dev, tol, dev <= tol, {}))
    return out
