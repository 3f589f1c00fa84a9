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

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonfiniteResult, SuperluminalSegment
from .kinematics import Event1p1
from .report import CheckReport, relative_deviation


def as_phases(phases) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(phases, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("a phase set is a non-empty 1-D array of reals")
    if not np.all(np.isfinite(arr)):
        raise ValueError("phases must be finite")
    return arr


@dataclass(frozen=True)
class Path:
    """Piecewise-straight trajectory with strictly increasing coordinate time."""

    vertices: tuple[Event1p1, ...]

    def __post_init__(self) -> None:
        verts = tuple(self.vertices)
        if len(verts) < 2:
            raise ValueError("a path needs at least two vertices")
        for a, b in zip(verts, verts[1:]):
            if not b.t > a.t:
                raise ValueError("path vertices must have strictly increasing t")
        object.__setattr__(self, "vertices", verts)


def path_phase(p: Path, scale: float = 1.0, c: float = 1.0) -> float:
    """Dimensionless phase of a timelike path: scale times its proper time.

    Each segment contributes dt*sqrt(1 - v**2/c**2).  Segments at or above c
    raise SuperluminalSegment; the phase is additive over concatenation and
    unchanged by subluminal boosts.
    """
    total = 0.0
    for a, b in zip(p.vertices, p.vertices[1:]):
        dt = b.t - a.t
        dx = b.x - a.x
        if abs(dx) >= c * dt:
            raise SuperluminalSegment(
                f"segment speed |{dx/dt!r}| is not below c={c!r}"
            )
        total += dt * math.sqrt(1.0 - (dx / (c * dt)) ** 2)
    return scale * total


@dataclass(frozen=True)
class InvariantSpec:
    alpha: complex
    beta: float
    gamma: float

    def __post_init__(self):
        if not (cmath.isfinite(complex(self.alpha)) and math.isfinite(self.beta)
                and math.isfinite(self.gamma)):
            raise ValueError(f"invariant parameters must be finite ({_spec_text(self)})")


# Below this |Re(alpha*phi)|, exp(+/-alpha*phi) and any realistic count of
# them sum without overflow, and no term underflows, so no shift is needed.
SAFE_EXPONENT = 600.0


def _phasor_sum(omega: float, phi: np.ndarray):
    """sum_k exp(i*omega*phi_k) along the last axis, from one tan pass.

    With t = tan(x/2) and r = 1/(1 + t**2), cos x = 2r - 1 and sin x = 2tr.
    numpy 2 vectorises float64 tan on x86-64 but not cos and sin: on 10**6
    phases this pass took 10 ms against 45 ms for a cos and a sin pass.  Each
    term is off by about 2 ulp of 1 (0.5 for cos and sin).  t*t cannot
    overflow: no double comes close enough to a pole for |t| to reach 1e19.
    """
    t = (0.5 * omega) * phi
    np.tan(t, out=t)
    r = t * t
    r += 1.0
    np.divide(1.0, r, out=r)
    t *= r
    return (2.0 * r.sum(axis=-1) - phi.shape[-1]) + 2j * t.sum(axis=-1)


def _log_sums(alpha: complex, phi: np.ndarray):
    """log S(alpha) and log S(-alpha) along the last axis of phi, where
    S(a) = sum_k exp(a*phi_k), without forming a value that can overflow.

    Purely imaginary alpha: one pass of _phasor_sum, since S(-alpha) =
    conj S(alpha).  Real alpha: real exp, so real logs.  General complex
    alpha: complex exp.  For the last two, exp(alpha*phi) is formed once and
    S(-alpha) summed from its reciprocals while |Re(alpha*phi)| stays below
    SAFE_EXPONENT; beyond it, each sign gets its own exp pass shifted by the
    largest real part of its exponents (logsumexp).  Complex logs are
    principal; a sum that vanishes exactly gives a real part of -inf.
    """
    with np.errstate(divide="ignore"):
        if alpha.real == 0.0 and alpha.imag != 0.0:
            lp = np.log(_phasor_sum(alpha.imag, phi))
            return lp, np.conj(lp)
        x = (alpha if alpha.imag else alpha.real) * phi
        re = x.real
        if max(re.max(), -re.min()) <= SAFE_EXPONENT:
            np.exp(x, out=x)
            sp = x.sum(axis=-1)
            np.divide(1.0, x, out=x)
            return np.log(sp), np.log(x.sum(axis=-1))
        # Each shifted sum is >= 1.  Exponents are raised to -SAFE_EXPONENT,
        # which changes a sum by less than n*1e-260 and keeps numpy off its
        # slow path for results that underflow.
        hi = re.max(axis=-1, keepdims=True)
        lo = re.min(axis=-1, keepdims=True)
        logs = []
        for y, shift in ((x - hi, hi[..., 0]), (lo - x, -lo[..., 0])):
            np.maximum(y, -SAFE_EXPONENT, out=y)
            np.exp(y, out=y)
            logs.append(np.log(y.sum(axis=-1)) + shift)
        return tuple(logs)


def _log_P(spec: InvariantSpec, phi: np.ndarray):
    """log|P| and arg P along the last axis of phi.

    arg P is gamma times the argument of S(alpha) * S(-alpha) wrapped to
    (-pi, pi], so the power keeps the principal branch of
    (S(alpha) * S(-alpha))**gamma.  It is exactly 0 for real and for purely
    imaginary alpha, where the product is positive.
    """
    alpha = complex(spec.alpha)
    lp, lm = _log_sums(alpha, phi)
    total = lp + lm
    theta = total.imag
    if alpha.real and alpha.imag:
        theta = theta - 2 * math.pi * np.ceil((theta - math.pi) / (2 * math.pi))
    power = spec.gamma * total.real if spec.gamma else np.zeros_like(total.real)
    return power - spec.beta * math.log(phi.shape[-1]), spec.gamma * theta


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
    return f"alpha={complex(spec.alpha)!r}, beta={spec.beta!r}, gamma={spec.gamma!r}"


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
    mag = _magnitude(float(log_abs), lambda log10: (
        f"|P| = 10**{log10} does not fit in a float ({_spec_text(spec)}, "
        f"n={phi.size})"))
    theta = float(theta)
    return complex(mag * math.cos(theta), mag * math.sin(theta))


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
    phi = as_phases(phases)
    base = complex(f(phi))
    worst = 0.0
    for _ in range(trials):
        worst = max(worst, relative_deviation(complex(f(rng.permutation(phi))), base))
    return CheckReport(
        "symmetry", worst, tol, worst <= tol, {"n": int(phi.size), "trials": trials}
    )


def check_time_reversal(f: Callable, phases, tol: float = 1e-12) -> CheckReport:
    """f must agree on the phase set and its negation."""
    phi = as_phases(phases)
    dev = relative_deviation(complex(f(phi)), complex(f(-phi)))
    return CheckReport("time_reversal", dev, tol, dev <= tol, {"n": int(phi.size)})


def pairwise_phase_sums(phases_a, phases_b) -> np.ndarray:
    a, b = as_phases(phases_a), as_phases(phases_b)
    return np.add.outer(a, b).ravel()


def check_multiplicativity(
    f: Callable, phases_a, phases_b, tol: float = 1e-9
) -> CheckReport:
    """f over all pairwise sums must factor into f(a) * f(b).

    For complex alpha the gamma powers use the principal branch, so the
    comparison is meaningful while |Im(alpha) * phi| stays well below pi;
    keep desk-scale inputs in that regime.
    """
    a, b = as_phases(phases_a), as_phases(phases_b)
    lhs = complex(f(pairwise_phase_sums(a, b)))
    rhs = complex(f(a)) * complex(f(b))
    dev = relative_deviation(lhs, rhs)
    return CheckReport(
        "multiplicativity", dev, tol, dev <= tol, {"n": int(a.size), "m": int(b.size)}
    )


# ---------------------------------------------------------------------------
# Finiteness scan.


def uniform_phase_sampler(low: float, high: float) -> Callable:
    """i.i.d. uniform phases on [low, high)."""

    def sample(rng: np.random.Generator, size) -> np.ndarray:
        return rng.uniform(low, high, size)

    sample.low, sample.high = low, high
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


def _log_median(logs: np.ndarray) -> float:
    """log of the median of exp(logs), formed from logs: like np.median,
    the mean of the two middle values (one value twice for an odd count)."""
    k = logs.size
    part = np.partition(logs, ((k - 1) // 2, k // 2))
    return float(np.logaddexp(part[(k - 1) // 2], part[k // 2]) - math.log(2))


def finiteness_scan(
    spec: InvariantSpec,
    n_values: Sequence[int],
    phase_sampler: Callable,
    trials: int = 100,
    rng: np.random.Generator | None = None,
    slope_threshold: float = 0.2,
) -> ScanResult:
    """Monte-Carlo growth scan of |P| with the number of paths.

    For each n the median of |P| over the trials is recorded; the
    least-squares slope of log median against log n classifies the spec as
    diverging (slope > threshold), vanishing (slope < -threshold) or bounded.
    This is a finite-n statement only, not a limit claim.  The medians and
    the fit are formed in the log domain; a median that does not fit in a
    float raises NonfiniteResult naming n, the slope and the class.
    """
    rng = rng or np.random.default_rng(0)
    ns = [int(n) for n in n_values]
    if len(ns) < 2 or any(n < 1 for n in ns):
        raise ValueError("need at least two positive n values")
    if trials < 1 or max(ns) > 10**4 or trials > 100:
        raise ValueError("scan budget: n <= 10**4 and trials <= 100")
    log_medians = []
    for n in ns:
        phi = phase_sampler(rng, (trials, n))
        log_medians.append(_log_median(_log_P(spec, phi)[0]))
    slope = float(np.polyfit(np.log(ns), log_medians, 1)[0])
    if not math.isfinite(slope):  # a median |P| of exactly 0 or inf
        raise NonfiniteResult(
            f"the growth slope is {slope!r} ({_spec_text(spec)}, n={ns})")
    if slope > slope_threshold:
        label = "diverging"
    elif slope < -slope_threshold:
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
    probability |value|**2 equals cos(delta/2)**2.
    """
    phi = as_phases(phases)
    return Amplitude(complex(_phasor_sum(alpha_mag, phi)) / phi.size, int(phi.size))
