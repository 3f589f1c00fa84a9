"""Path phases, the two-sided exponential invariant family, and amplitudes.

A phase set is any 1-D array of real numbers, one phase per path.  The
invariant family

    P = n**(-beta) * (sum_k exp(alpha*phi_k))**gamma
                   * (sum_k exp(-alpha*phi_k))**gamma

is permutation symmetric and even under phi -> -phi for every (alpha, beta,
gamma), and multiplicative over pairwise phase sums.  Only purely imaginary
alpha keeps |P| bounded as the number of paths grows when the normalization
matches the coherent scaling.

Every phase sum S(a) = sum_k exp(a*phi_k) comes from one kernel, _log_sums,
which works in the log domain; a value is exponentiated once, at the end,
and one whose magnitude does not fit in a float raises NonfiniteResult.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._input import as_phases, finite, is_number, sequence, whole
from .errors import InvalidInput, NonfiniteResult, SuperluminalSegment
from .kinematics import Event1p1, K_from_c
from .report import CheckReport, relative_deviation, verdict


@dataclass(frozen=True)
class Path:
    """Piecewise-straight trajectory with strictly increasing coordinate time."""

    vertices: tuple[Event1p1, ...]

    def __post_init__(self) -> None:
        verts = sequence("path vertices", self.vertices, Event1p1)
        if len(verts) < 2:
            raise InvalidInput("a path needs at least two vertices")
        for a, b in zip(verts, verts[1:]):
            if not b.t > a.t:
                raise InvalidInput("path vertices must have strictly increasing t")
        object.__setattr__(self, "vertices", verts)


def path_phase(p: Path, scale: float = 1.0, c: float = 1.0) -> float:
    """Dimensionless phase of a timelike path: scale times its proper time.

    Each segment contributes dt*sqrt(1 - v**2/c**2).  Segments at or above c
    raise SuperluminalSegment; the phase is additive over concatenation and
    unchanged by subluminal boosts.  A phase beyond a float raises
    NonfiniteResult.  c must pass K_from_c, and scale _input.finite.
    """
    K_from_c(c)
    finite("scale", scale)
    t = np.array([[v.t for v in p.vertices]])
    x = np.array([[v.x for v in p.vertices]])
    return float(_path_phases(t, x, np.array([0]), np.array([t.size]), c, scale)[0])


def _path_phases(t: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 c: float = 1.0, scale: float = 1.0) -> np.ndarray:
    """scale times the proper time of each row's path through its vertices
    lo..hi-1, given the (n, k) vertex times t and positions x.

    Vertices outside a row's range may hold any finite values.  Each total
    adds its segments in path order starting from 0.0, one column at a
    time, with exactly 0.0 for a segment outside the range, and is then
    multiplied by scale, so a row's phase is path_phase's bit for bit.
    v**2 is v * v, and np.sqrt is correctly rounded like math.sqrt, so the
    bits do not depend on the CPU.  The first segment at or above c, by row
    and then by segment, raises SuperluminalSegment.

    A row whose phase is not finite, or on one of whose segments c*dt
    overflowed, is run once more on its coordinates scaled by 2**-k, the
    least power that keeps every c*dt and dx of finite coordinates in range,
    and its phase is scaled back by 2**k; a phase still beyond a float
    raises NonfiniteResult naming the path's span, c and scale.  A segment
    whose c*dt and dx both overflowed is checked against c on that run.
    """
    tk, xk, a, b, k = t, x, lo, hi, 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            dt, dx = tk[:, 1:] - tk[:, :-1], xk[:, 1:] - xk[:, :-1]
            ct = c * dt
            j = np.arange(dt.shape[1])
            live = (a[:, None] <= j) & (j < b[:, None] - 1)
            fast = live & (np.abs(dx) >= ct)
            if fast.any():
                fast &= ct < np.inf  # where c*dt and dx both overflowed, the scaled run checks
                if fast.any():
                    i, s = np.argwhere(fast)[0]
                    raise SuperluminalSegment(
                        f"segment speed |{float(dx[i, s] / dt[i, s])!r}| is not below c={c!r}")
            term = np.zeros(dt.shape)
            v = dx[live] / ct[live]
            term[live] = dt[live] * np.sqrt(1.0 - v * v)
            total = np.zeros(len(term))
            for col in term.T:
                total += col
            if k:
                phase[rows] = total * scale * 2.0**k
                break
            phase = total * scale
        if np.isfinite(phase).all() and np.isfinite(ct).all():
            return phase
        rows = np.flatnonzero(~np.isfinite(phase) | (live & np.isinf(ct)).any(axis=1))
        k = 1 + max(0, math.frexp(c)[1])
        tk, xk, a, b = t[rows] * 2.0**-k, x[rows] * 2.0**-k, lo[rows], hi[rows]
    bad = np.flatnonzero(~np.isfinite(phase[rows]))
    if not len(bad):
        return phase
    r = int(bad[0])
    i, first, last = rows[r], a[r], b[r] - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        size = np.log10(abs(total[r])) + np.log10(abs(scale)) + k * np.log10(2.0)
    raise NonfiniteResult(
        f"path from (t, x) = ({float(t[i, first])!r}, {float(x[i, first])!r}) to "
        f"({float(t[i, last])!r}, {float(x[i, last])!r}) with c={c!r} and scale={scale!r} "
        f"has a phase{f' of magnitude 10**{size:.6g}' if np.isfinite(size) else ''}, "
        "beyond a float")


@dataclass(frozen=True)
class InvariantSpec:
    """The parameters of one member of the family, stored as checked: alpha
    a finite complex, beta and gamma finite floats (_input.finite)."""

    alpha: complex
    beta: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", finite("alpha", self.alpha, complex))
        object.__setattr__(self, "beta", finite("beta", self.beta))
        object.__setattr__(self, "gamma", finite("gamma", self.gamma))


class _Columns(NamedTuple):
    """The parameters of k specs, valued by _log_P on k rows of phases of
    any lengths (see _row_sums): alpha, beta and gamma are (k,) arrays, one
    value per row.  The alphas are of one kind (real, purely imaginary or
    general complex), so that the first stands for all (_lead), and a caller
    passes the reach of all the rows, so that every row takes the branch of
    _log_sums that it takes alone."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray


def _all(test) -> bool:
    """A test on a scalar parameter, or on every value of an array of them."""
    return bool(test.all()) if isinstance(test, np.ndarray) else test


def _lead(alpha) -> complex:
    """alpha, or the first alpha of an array, which is of its array's kind."""
    return complex(alpha.flat[0]) if isinstance(alpha, np.ndarray) else alpha


def _row_sums(x: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
    """The sum of each row of x along its last axis, bit for bit as numpy
    sums that row alone as a contiguous array: the whole axis is one row,
    or, given lengths, a 1-D int array, the axis holds rows of those lengths
    laid end to end.  No row is padded to a common length: a padded 0 would
    change numpy's pairwise summation order, which unrolls by 8 values and
    splits blocks of 128.  Each run of consecutive rows of one length is
    summed as the rows of one reshape view of x, so rows laid out in order
    of length take one view per length; when every row has one length, the
    whole of x is one view, with no copy."""
    if lengths is None:
        return x.sum(axis=-1)
    sizes, lead = lengths.tolist(), x.shape[:-1]
    cuts = [0, *(np.flatnonzero(np.diff(lengths)) + 1).tolist(), len(sizes)]
    pieces, at = [], 0
    for a, b in zip(cuts, cuts[1:]):
        n = sizes[a]
        pieces.append(x[..., at:at + (b - a) * n].reshape(*lead, b - a, n).sum(axis=-1))
        at += (b - a) * n
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=-1)


def _stretches(starts, lengths: np.ndarray) -> np.ndarray:
    """The indices start, start + 1, ..., start + length - 1 of each stretch
    of the given starts (an array, or one int for all) and lengths, laid end
    to end."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def _row_reduce(ufunc: np.ufunc, x: np.ndarray, lengths: np.ndarray | None = None):
    """ufunc (np.maximum or np.minimum) over each row of x, the rows as in
    _row_sums, and those values spread over the elements of their rows:
    broadcast against x, or, given lengths, repeated along its last axis."""
    if lengths is None:
        out = ufunc.reduce(x, axis=-1, keepdims=True)
        return out[..., 0], out
    out = ufunc.reduceat(x, np.cumsum(lengths) - lengths, axis=-1)
    return out, np.repeat(out, lengths, axis=-1)


_QUIET = contextlib.nullcontext()  # no half angle overflows: nothing to silence

# Below this |Re(alpha*phi)|, exp(+/-alpha*phi) and any realistic count of
# them sum without overflow, and no term underflows, so no shift is needed.
SAFE_EXPONENT = 600.0


def _phasor_sum(omega, phi: np.ndarray, name: str, coefficient,
                scratch: np.ndarray | None = None, lengths: np.ndarray | None = None):
    """sum_k exp(i*omega*phi_k) over each row of phi, the rows as in
    _row_sums, from one tan pass; omega is a float or an array of them
    broadcast against phi (one per phase of ragged rows).

    With t = tan(x/2) and r = 1/(1 + t**2), cos x = 2r - 1 and sin x = 2tr.
    numpy 2 vectorises float64 tan on x86-64 but not cos and sin: on 10**6
    phases this pass took 10 ms against 45 ms for a cos and a sin pass.  Each
    term is off by about 2 ulp of 1 (0.5 for cos and sin).  t*t cannot
    overflow: no double comes close enough to a pole for |t| to reach 1e19.
    So a sum that is not finite means a half angle omega*phi/2 beyond a
    float, which needs |omega| > 2.  That raises NonfiniteResult naming the
    first such phase and the coefficient whose product with it overflows:
    name, and its value (_unfit).  For |omega| <= 2 the pass skips
    np.errstate and the check, which cost about 5 us a call.

    Given scratch (as in _log_sums), the pass overwrites phi and scratch
    and makes no array of phi's size, with the same bits.  It then cannot
    name the phase whose half angle overflows: the caller names it from
    phi formed again.
    """
    may_overflow = not _all(abs(omega) <= 2.0)
    with np.errstate(over="ignore", invalid="ignore") if may_overflow else _QUIET:
        t = np.multiply(0.5 * omega, phi, out=None if scratch is None else phi)
        np.tan(t, out=t)
    r = np.multiply(t, t, out=scratch)
    r += 1.0
    np.divide(1.0, r, out=r)
    t *= r
    count = phi.shape[-1] if lengths is None else lengths
    total = (2.0 * _row_sums(r, lengths) - count) + 2j * _row_sums(t, lengths)
    if may_overflow and not np.isfinite(total).all():
        _unfit(name, 0.5 * omega, None if scratch is not None else phi, coefficient)
    return total


def _unfit(name: str, factor, phi: np.ndarray | None, coefficient):
    """NonfiniteResult naming the first phase whose product with factor is
    beyond a float, and name, of value coefficient (the phase's own for an
    array); phi None (overwritten) names no phase, so the caller does."""
    if phi is None:
        raise NonfiniteResult(f"{name} * a phase does not fit in a float")
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.unravel_index(np.argmin(np.isfinite(factor * phi)), phi.shape)
    where = int(k[0]) if len(k) == 1 else tuple(map(int, k))
    if isinstance(coefficient, np.ndarray):
        coefficient = complex(coefficient.flat[k[0]])
    raise NonfiniteResult(
        f"{name} * phase {where} = {coefficient!r} * {float(phi[k])!r} = "
        f"10**{math.log10(abs(coefficient)) + math.log10(abs(phi[k])):.6g} "
        f"does not fit in a float")


def _reach(alpha: complex, phi: np.ndarray) -> float:
    """The largest |Re(alpha*phi_k)| over all of phi, or inf: rounding a
    product is monotone and symmetric in sign, so this is |Re alpha| times
    the largest |phi_k|, the same float, with no pass over the products."""
    return abs(alpha.real) * float(max(phi.max(), -phi.min()))


def _log_sums(alpha, phi: np.ndarray, reach: float | None = None,
              scratch: np.ndarray | None = None, lengths: np.ndarray | None = None):
    """log S(alpha) and log S(-alpha) of each row of phi, where
    S(a) = sum_k exp(a*phi_k), without forming a value that can overflow.
    The rows are as in _row_sums: phi's last axis, or, given lengths, the
    stretches of those lengths of a flat phi, each summed as it is alone.
    alpha is a complex number, or an array of them of one kind broadcast
    against phi, such as the alpha of each phase's row (_log_P).

    Purely imaginary alpha: one pass of _phasor_sum, since S(-alpha) =
    conj S(alpha).  Real alpha: real exp, so real logs.  General complex
    alpha: complex exp.  For the last two, exp(alpha*phi) is formed once and
    S(-alpha) summed from its reciprocals while |Re(alpha*phi)| stays below
    SAFE_EXPONENT; beyond it, each sign gets its own exp pass shifted by the
    largest real part of its exponents (logsumexp).  The branch is taken by
    reach, the _reach of phi unless given: rows of a larger array valued
    apart pass that array's reach, so that they keep its branch and bits,
    and an array of alphas is given the reach of its rows.  Complex logs are
    principal; a sum that vanishes exactly gives a real part of -inf, and an
    alpha*phi_k beyond a float raises NonfiniteResult (_unfit).  Given
    scratch, a float64 array of phi's shape, with phi a writeable float64
    array, both in C order, a real or purely imaginary alpha overwrites phi
    and scratch and makes no array of phi's size, with the same bits; a
    general complex alpha ignores scratch, since its exponents are complex.
    """
    lead = _lead(alpha)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # named below
        if lead.real == 0.0 and lead.imag != 0.0:
            lp = np.log(_phasor_sum(alpha.imag, phi, "alpha", alpha, scratch, lengths))
            return lp, np.conj(lp)
        if lead.imag:
            x, scratch = alpha * phi, None
            if not np.isfinite(x).all():
                _unfit("alpha", alpha, phi, alpha)
        else:
            x = np.multiply(alpha.real, phi, out=None if scratch is None else phi)
        re = x.real
        reach = _reach(alpha, phi) if reach is None else reach
        if reach <= SAFE_EXPONENT:
            np.exp(x, out=x)
            sp = _row_sums(x, lengths)
            np.divide(1.0, x, out=x)
            return np.log(sp), np.log(_row_sums(x, lengths))
        # Each shifted sum is >= 1.  Exponents are raised to -SAFE_EXPONENT,
        # which changes a sum by less than n*1e-260 and keeps numpy off its
        # slow path for results that underflow.
        top, hi = _row_reduce(np.maximum, re, lengths)
        bottom, lo = _row_reduce(np.minimum, re, lengths)
        # a finite reach bounds every |Re(alpha*phi_k)|, so none overflowed
        if not reach < math.inf and not (np.isfinite(top).all() and np.isfinite(bottom).all()):
            _unfit("alpha", alpha, phi if scratch is None else None, alpha)
        logs = []
        # with scratch, lo - x overwrites x, which it is the last to read
        shifted = ((np.subtract(x, hi, out=scratch), top),
                   (np.subtract(lo, x, out=None if scratch is None else x), -bottom))
        for y, shift in shifted:
            np.maximum(y, -SAFE_EXPONENT, out=y)
            np.exp(y, out=y)
            logs.append(np.log(_row_sums(y, lengths)) + shift)
        return tuple(logs)


def _log_P(spec: InvariantSpec | _Columns, phi: np.ndarray, reach: float | None = None,
           scratch: np.ndarray | None = None, lengths: np.ndarray | None = None):
    """log|P| and arg P of each row of phi, for one spec or for the _Columns
    of one spec per row; the rows, reach and scratch as in _log_sums.  A
    _Columns comes with lengths, and each row's alpha is repeated over its
    phases.  The -beta*log(n) term takes math.log of each row's length.

    arg P is gamma times the argument of S(alpha) * S(-alpha) wrapped to
    (-pi, pi], so the power keeps the principal branch of
    (S(alpha) * S(-alpha))**gamma.  It is exactly 0 for real and for purely
    imaginary alpha, where the product is positive.  A gamma of 0 raises
    the product to a power of exactly 0, also where a sum vanishes, where
    gamma * log would be 0 * -inf = nan.
    """
    alpha = np.repeat(spec.alpha, lengths) if isinstance(spec, _Columns) else spec.alpha
    lp, lm = _log_sums(alpha, phi, reach, scratch, lengths)
    gamma = spec.gamma
    log_n = (math.log(phi.shape[-1]) if lengths is None
             else np.array([math.log(n) for n in lengths.tolist()]))
    with np.errstate(over="ignore", invalid="ignore"):  # _polar names a value beyond a float
        total = lp + lm
        theta = total.imag
        lead = _lead(alpha)
        if lead.real and lead.imag:
            theta = theta - 2 * math.pi * np.ceil((theta - math.pi) / (2 * math.pi))
        power = gamma * total.real if _all(gamma != 0.0) else np.multiply(
            gamma, total.real, out=np.zeros_like(total.real), where=gamma != 0.0)
        return power - spec.beta * log_n, gamma * theta


def _magnitude(log_abs: float, describe: Callable[[str], str]) -> float:
    """exp(log_abs), or NonfiniteResult naming the value when it does not fit
    in a float; describe turns log10 of the magnitude into the message."""
    try:
        value = math.exp(log_abs)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonfiniteResult(describe(f"{log_abs / math.log(10):.6g}"))
    return value


def _spec_text(spec: InvariantSpec) -> str:
    return f"alpha={spec.alpha!r}, beta={spec.beta!r}, gamma={spec.gamma!r}"


def _polar(log_abs: float, theta: float, name: str, given: Callable[[], str]) -> complex:
    """exp(log_abs + i*theta) on Python floats; a magnitude beyond a float,
    or a nonzero one at an argument beyond a float, names name and given()."""
    mag = _magnitude(log_abs, lambda log10: (
        f"|{name}| = 10**{log10} does not fit in a float ({given()})"))
    if not math.isfinite(theta):
        if mag:
            raise NonfiniteResult(f"arg {name} = {theta!r} does not fit in a float ({given()})")
        theta = 0.0
    return complex(mag * math.cos(theta), mag * math.sin(theta))


def invariant_P(spec: InvariantSpec, phases) -> complex:
    """Evaluate the invariant on a phase set.

    The two exponential sums come from _log_sums and are combined in the log
    domain, which keeps the value exactly real for real alpha (both sums
    positive) and for purely imaginary alpha (the product is |sum|**2 >= 0),
    and exponentiated once.  Raises NonfiniteResult when |P| does not fit in
    a float.
    """
    phi = as_phases(phases)
    log_abs, theta = _log_P(spec, phi)
    return _polar(float(log_abs), float(theta), "P", lambda: f"{_spec_text(spec)}, n={phi.size}")


def _invariant_Ps(specs: Sequence[InvariantSpec], phi: np.ndarray,
                  lengths: np.ndarray) -> list[complex]:
    """invariant_P(specs[i], row i) of each row of the flat float64 phi,
    whose rows have the given lengths and lie end to end, bit for bit.  The
    rows are valued by one _log_P per kind of alpha (real, purely imaginary
    or general complex) and branch of _log_sums present, whatever their
    specs and lengths: one gather lays the rows out by group and, within a
    group, in order of length (so that _row_sums sums each length as one
    view), and the rows of a group are the ragged rows of one call, their
    specs its _Columns.  Each row must be a valid phase set (as_phases).  P
    is formed per row on Python floats (_polar), and a row that overflows
    raises NonfiniteResult as invariant_P does: a group that raises is
    valued again row by row, so that the error names the row's own spec."""
    alpha = np.array([s.alpha for s in specs])
    beta = np.array([s.beta for s in specs], float)
    gamma = np.array([s.gamma for s in specs], float)
    starts = np.cumsum(lengths) - lengths
    # each row's own _reach, so that it keeps the branch it takes alone
    reach = np.abs(alpha.real) * np.maximum.reduceat(np.abs(phi), starts)
    # the kind of each alpha (0 real, 1 purely imaginary, 2 general complex)
    # and its branch
    kind = np.where(alpha.imag == 0.0, 0, np.where(alpha.real == 0.0, 1, 2))
    group = 2 * kind + (reach <= SAFE_EXPONENT)
    order = np.argsort(group * (lengths.max() + 1) + lengths, kind="stable")
    laid = phi[_stretches(starts[order], lengths[order])]
    cuts = [0, *(np.flatnonzero(np.diff(group[order])) + 1).tolist(), len(order)]
    out, at = [None] * len(specs), 0
    for a, b in zip(cuts, cuts[1:]):
        rows = order[a:b]
        sizes = lengths[rows]
        part = laid[at:at + sizes.sum()]
        at += len(part)
        try:
            log_abs, theta = _log_P(_Columns(alpha[rows], beta[rows], gamma[rows]), part,
                                    float(reach[rows].max()), lengths=sizes)
        except NonfiniteResult:
            for i in rows.tolist():  # raises again, naming the row's own spec
                _log_P(specs[i], phi[starts[i]:starts[i] + lengths[i]])
            raise
        for i, la, th, n in zip(rows.tolist(), log_abs.tolist(), theta.tolist(),
                                sizes.tolist()):
            out[i] = _polar(la, th, "P", lambda: f"{_spec_text(specs[i])}, n={n}")
    return out


def amplitude_invariant(spec: InvariantSpec) -> Callable[[Sequence[float]], complex]:
    """The invariant as a single-argument callable, for the check helpers."""
    return lambda phases: invariant_P(spec, phases)


# ---------------------------------------------------------------------------
# Axiom checks.  Each returns a CheckReport with the worst relative deviation.


def check_symmetry(
    f: Callable,
    phases,
    trials: int = 20,
    rng: np.random.Generator | None = None,
    tol: float = 1e-12,
) -> CheckReport:
    """f must be invariant under random permutations of the phase set."""
    rng = rng or np.random.default_rng(0)
    trials = whole("trials", trials)
    phi = as_phases(phases)
    base = complex(f(phi))
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, relative_deviation(complex(f(rng.permutation(phi))), base))
    return verdict("symmetry", worst, tol, {"n": int(phi.size), "trials": trials})


def check_time_reversal(f: Callable, phases, tol: float = 1e-12) -> CheckReport:
    """f must agree on the phase set and its negation."""
    phi = as_phases(phases)
    dev = relative_deviation(complex(f(phi)), complex(f(-phi)))
    return verdict("time_reversal", dev, tol, {"n": int(phi.size)})


def pairwise_phase_sums(phases_a, phases_b) -> np.ndarray:
    """Every sum a[i] + b[j] of two phase sets, i major.  A sum beyond a
    float raises NonfiniteResult naming its two phases."""
    a, b = as_phases(phases_a), as_phases(phases_b)
    with np.errstate(over="ignore"):  # named below
        sums = _pairwise_sums(a, b)
    if not np.isfinite(sums).all():
        i, j = divmod(int(np.argmin(np.isfinite(sums))), b.size)
        raise NonfiniteResult(f"the sum of phases a[{i}] = {float(a[i])!r} and "
                              f"b[{j}] = {float(b[j])!r} does not fit in a float")
    return sums


def _pairwise_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """pairwise_phase_sums of two phase sets already checked by as_phases,
    unchecked."""
    return np.add.outer(a, b).ravel()


def check_multiplicativity(
    f: Callable, phases_a, phases_b, tol: float = 1e-9
) -> CheckReport:
    """f over all pairwise sums (pairwise_phase_sums) must factor into
    f(a) * f(b).

    For complex alpha the gamma powers use the principal branch, so the
    comparison is meaningful while |Im(alpha) * phi| stays well below pi;
    keep desk-scale inputs in that regime.
    """
    a, b = as_phases(phases_a), as_phases(phases_b)
    lhs = complex(f(pairwise_phase_sums(a, b)))
    rhs = complex(f(a)) * complex(f(b))
    dev = relative_deviation(lhs, rhs)
    return verdict("multiplicativity", dev, tol, {"n": int(a.size), "m": int(b.size)})


# ---------------------------------------------------------------------------
# Finiteness scan.


def uniform_phase_sampler(low: float, high: float) -> Callable:
    """i.i.d. uniform phases on [low, high), the draws of rng.uniform bit for
    bit: numpy forms low + (high - low) * u from rng.random's u, and so do
    the in-place passes here, with no call per element.  low and high
    must be numbers (_input.is_number: no bool, string or int beyond a float),
    finite, with low <= high and a finite width high - low.

    finiteness_scan calls the sampler once per row block, in row order.  It
    draws only from rng, one double per phase, so the blocks of a draw hold
    the bits of one rng.uniform call over all rows, leave rng in the same
    state, and can be drawn again from a saved state."""
    numbers = is_number(low) and is_number(high)
    if numbers:
        low, high = float(low), float(high)
    if not (numbers and high >= low and math.isfinite(high - low)):  # false for nan or inf too
        raise InvalidInput(f"a uniform phase sampler needs numbers low <= high with a "
                           f"finite width high - low, got low={low!r}, high={high!r}")

    def sample(rng: np.random.Generator, size) -> np.ndarray:
        phi = rng.random(size)
        phi *= high - low
        if low:  # adding a low of +0 or -0 to phases >= +0 keeps their bits
            phi += low
        return phi

    return sample


@dataclass(frozen=True)
class ScanResult:
    n_values: tuple[int, ...]
    median_abs: tuple[float, ...]
    slope: float
    classification: str

    def rows(self) -> list[tuple[int, float, str]]:
        return [
            (n, med, self.classification)
            for n, med in zip(self.n_values, self.median_abs)
        ]


# The scan draws and values a (trials, n) array _BLOCK phases at a time, so
# that a block and the scratch block _log_P works in stay in a core's 4 MB
# L2 cache.
# Timed on scans at n = 100, 1000 and 10**4 with 100 trials, the time was
# flat from 2**15 to 2**17, 1.1-1.2x that at 2**12 and 2**18 and 1.6x
# unblocked (BENCH_15.json).
_BLOCK = 2**16


def _blocked_log_P(spec: InvariantSpec, phase_sampler: Callable,
                   rng: np.random.Generator, shape: tuple[int, int],
                   scratch: np.ndarray | None = None):
    """_log_P(spec, phase_sampler(rng, shape)) of a (trials, n) draw bit for
    bit, drawn and valued one block of max(1, _BLOCK // n) rows at a time:
    phase_sampler(rng, (rows, n)) is called once per block, in row order,
    and _log_P values the block while it is in cache.  It works in the
    block and one scratch block where that keeps the bits.  Each row is
    reduced along its own axis, and every block takes the branch of the
    whole draw's reach.  A running reach decides it: when a block lifts it
    past SAFE_EXPONENT after earlier blocks took the unshifted branch, rng
    goes back to its state before the first block, and every block is drawn
    and valued again on the shifted branch.  A half angle that overflows
    raises NonfiniteResult naming its trial among all trials, from the whole
    draw made again from that state.

    scratch, a flat float64 array of at least max(_BLOCK, n) values, holds
    the scratch block, as a view of each block's shape; finiteness_scan
    passes one for all its n values, so that they reuse its pages.  Without
    it, the call makes one of rows * n values."""
    trials, n = shape
    rows = min(trials, max(1, _BLOCK // n))
    sizes = [(min(rows, trials - i), n) for i in range(0, trials, rows)]
    alpha = spec.alpha
    # a purely imaginary alpha takes neither branch, so it needs no reach
    track, reach = bool(alpha.real or not alpha.imag), 0.0
    if scratch is None:
        scratch = np.empty(rows * n)
    start = rng.bit_generator.state
    try:
        while True:  # a second time when a later block crosses SAFE_EXPONENT
            parts = []
            for i, size in enumerate(sizes):
                phi = phase_sampler(rng, size)
                if track and not _reach(alpha, phi) <= SAFE_EXPONENT:  # also for a nan
                    track, reach = False, math.inf
                    if i:
                        break
                # the kernel keeps its bits in a writeable float64 block in C order
                own = phi.dtype == np.float64 and phi.flags.writeable and phi.flags.c_contiguous
                block = scratch[:phi.size].reshape(phi.shape) if own else None
                parts.append(_log_P(spec, phi, reach, block))
                del phi  # so that the next block can take its memory
            else:
                return tuple(np.concatenate(column) for column in zip(*parts))
            rng.bit_generator.state = start
    except NonfiniteResult:
        rng.bit_generator.state = start
        phi = np.concatenate([phase_sampler(rng, size) for size in sizes])
        _log_P(spec, phi)  # raises again, naming the trial by its row in phi
        raise


def _log_median(logs: np.ndarray) -> float:
    """log of the median of exp(logs), formed from logs: like np.median,
    the mean of the two middle values (one value twice for an odd count)."""
    k = logs.size
    part = np.partition(logs, ((k - 1) // 2, k // 2))
    return float(np.logaddexp(part[(k - 1) // 2], part[k // 2]) - math.log(2))


# The growth slope of log median |P| against log n past which finiteness_scan
# classifies a spec as diverging, or below its negative as vanishing
SLOPE_THRESHOLD = 0.2


def finiteness_scan(
    spec: InvariantSpec,
    n_values: Sequence[int],
    phase_sampler: Callable,
    trials: int = 100,
    rng: np.random.Generator | None = None,
) -> ScanResult:
    """Monte-Carlo growth scan of |P| with the number of paths.

    For each n the median of |P| over the trials is recorded; the
    least-squares slope of log median against log n classifies the spec as
    diverging (slope > SLOPE_THRESHOLD), vanishing (slope < -SLOPE_THRESHOLD)
    or bounded.
    This is a finite-n statement only, not a limit claim.  Each n's trials
    are drawn and valued in cache-sized row blocks: phase_sampler(rng,
    (rows, n)) is called once per block, in row order, and returns a new
    (rows, n) array of phases, which the scan may overwrite.  The sampler
    must draw only from rng, so that a block can be drawn again from a saved
    state of rng; the scan does so when a later block moves the whole
    draw's branch of the kernel, or to name a phase whose half angle does not
    fit in a float by its trial among all trials.  For uniform_phase_sampler
    the values have the bits of one (trials, n) draw valued in one pass, and
    rng ends in the same state.  The medians and the fit are formed in the
    log domain; a median that does not fit in a float raises NonfiniteResult
    naming n, the slope and the class.  Each n value is a whole number >= 1
    (_input.whole).
    """
    rng = rng or np.random.default_rng(0)
    ns = [whole("n value", n, 1) for n in sequence("n_values", n_values)]
    if len(set(ns)) < 2:  # one n value fits no slope
        raise InvalidInput(f"need at least two distinct positive n values, got n_values={ns}")
    trials = whole("trials", trials, 1, 100)  # the scan's budget
    if max(ns) > 10**4:
        raise InvalidInput(f"scan budget: n must be <= 10**4, got n={max(ns)!r}")
    scratch = np.empty(max(_BLOCK, max(ns)))  # one for every n
    log_medians = []
    for n in ns:
        log_medians.append(_log_median(
            _blocked_log_P(spec, phase_sampler, rng, (trials, n), scratch)[0]))
    slope = float(np.polyfit(np.log(ns), log_medians, 1)[0])
    if not math.isfinite(slope):  # a median |P| of exactly 0 or inf
        raise NonfiniteResult(
            f"the growth slope is {slope!r} ({_spec_text(spec)}, n={ns})")
    if slope > SLOPE_THRESHOLD:
        label = "diverging"
    elif slope < -SLOPE_THRESHOLD:
        label = "vanishing"
    else:
        label = "bounded"
    medians = [
        _magnitude(log_med, lambda log10, n=n: (
            f"median |P| = 10**{log10} at n={n} does not fit in a float "
            f"({_spec_text(spec)}); slope={slope!r}, class {label}"))
        for n, log_med in zip(ns, log_medians)
    ]
    return ScanResult(tuple(ns), tuple(medians), slope, label)


# ---------------------------------------------------------------------------
# Amplitudes.


@dataclass(frozen=True)
class Amplitude:
    value: complex
    n_paths: int


def amplitude(phases, alpha_mag: float = 1.0) -> Amplitude:
    """Equal-weight sum over paths of exp(i*|alpha|*phi), normalized by n.

    |value| <= 1 always.  For two paths with phases (0, delta) the detection
    probability |value|**2 equals cos(delta/2)**2.  A phase whose half
    angle 0.5*alpha_mag*phi does not fit in a float raises NonfiniteResult
    naming alpha_mag and the first such phase.
    """
    phi = as_phases(phases)
    finite("alpha_mag", alpha_mag)
    total = _phasor_sum(alpha_mag, phi, "alpha_mag", alpha_mag)
    return Amplitude(complex(total) / phi.size, int(phi.size))
