"""Velocity-parametrized linear spacetime transforms, both branches.

The subluminal branch is the familiar Lorentz boost.  The superluminal branch
is the second solution of the same linearity + relativity requirements: it is
antisymmetric in the velocity, carries an overall sign convention (negative by
default), and flips the sign of the spacetime interval.  Everything works in
natural units, K = 1/c**2 with c = 1 by default; operations that take raw
coordinates accept an optional c instead.

All value types are immutable and all functions are pure.  Randomness never
enters this module.
"""

from __future__ import annotations

import contextlib
import math
import reprlib
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ._input import (
    finite,
    finite_column,
    instance,
    is_finite,
    is_label,
    real,
    real_array,
    sequence,
)
from .errors import (
    BranchSpeedViolation,
    DegenerateA,
    InvalidInput,
    LightSpeedResult,
    MixedK,
    NonfiniteInput,
    NonfiniteResult,
    NonpositiveK,
    NotConstant,
    PoleError,
    ZeroVelocity,
)

# Speeds within this relative band of c belong to neither branch.
BOUNDARY_BAND = 1e-12


class Branch(Enum):
    SUBLUMINAL = "subluminal"
    SUPERLUMINAL = "superluminal"


class Parity(Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"


@dataclass(frozen=True, slots=True)
class Event1p1:
    """Event with one time and one space coordinate, finite floats.  Slotted,
    so it has no __dict__; diagrams._filled builds it from checked columns."""

    t: float
    x: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", finite("t", self.t))
        object.__setattr__(self, "x", finite("x", self.x))


@dataclass(frozen=True)
class Event1p3:
    """Event with one time coordinate and a spatial 3-vector."""

    t: float
    r: tuple[float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "t", finite("t", self.t))
        object.__setattr__(self, "r", finite_column("r component", self.r, 3))


@dataclass(frozen=True)
class SuperluminalEvent1p3:
    """Image of an Event1p3 under a superluminal transform.

    The roles of time and space are exchanged: tvec is a triple of temporal
    coordinates and x is the single remaining spatial one.  tvec is a
    coordinate triple only; no dynamical meaning is attached to it here.
    """

    tvec: tuple[float, float, float]
    x: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tvec", finite_column("tvec component", self.tvec, 3))
        object.__setattr__(self, "x", finite("x", self.x))


@dataclass(frozen=True)
class Boost:
    """A branch-tagged boost with one shared constant K = 1/c**2.

    speed is a signed scalar for 1+1 work or a 3-vector for 1+3 work.  K > 0
    and the branch bound are checked here, at construction, and nowhere else:
    subluminal needs |V| < c and superluminal needs |W| > c, with speeds
    inside a 1e-12 relative band of c rejected by both.  math.inf is a valid
    superluminal speed and denotes the exact infinite-speed transform (time
    and space axes exchanged).  K and the speed are stored as checked: K and
    a scalar speed as floats, a vector speed as a tuple of three.
    """

    branch: Branch
    speed: float | tuple[float, float, float]
    K: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "K", real("K", self.K))
        if not 0 < self.K < math.inf:
            raise NonpositiveK(f"boosts require K > 0, got K={self.K!r}")
        if isinstance(self.speed, (tuple, list, np.ndarray)):
            object.__setattr__(self, "speed", finite_column("speed component", self.speed, 3))
            mag = math.hypot(*self.speed)
        else:
            object.__setattr__(self, "speed", finite("speed", self.speed, infinite=True))
            mag = abs(self.speed)
        c = 1.0 / math.sqrt(self.K)
        if self.branch is Branch.SUBLUMINAL:
            if not mag < c * (1.0 - BOUNDARY_BAND):
                raise BranchSpeedViolation(
                    f"subluminal branch requires |V| < c: |V|={mag!r}, c={c!r}"
                )
        else:
            if not mag > c * (1.0 + BOUNDARY_BAND):
                raise BranchSpeedViolation(
                    f"superluminal branch requires |W| > c: |W|={mag!r}, c={c!r}"
                )

    @classmethod
    def infinite(cls, K: float = 1.0) -> "Boost":
        return cls(Branch.SUPERLUMINAL, math.inf, K)

    def inverse(self) -> "Boost":
        if isinstance(self.speed, tuple):
            return Boost(self.branch, tuple(-v for v in self.speed), self.K)
        return Boost(self.branch, -self.speed, self.K)


@dataclass(frozen=True)
class GeneralTransformFamily:
    """A candidate transform family given by its velocity scale function A.

    The family fixes the map (t, x) -> (A(V)*(t - kappa(V)*V*x), A(V)*(x - V*t))
    where kappa is the K expression computed from A itself.  parity declares
    whether A is even or odd under V -> -V.
    """

    A: Callable[[float], float]
    parity: Parity

    def parity_deviation(self, samples: Sequence[float]) -> float:
        """Worst relative parity violation of A over the sample velocities (_scales)."""
        worst = 0.0
        for v in sequence("samples", samples):
            a, am = _scales(self, v)
            diff = a - am if self.parity is Parity.SYMMETRIC else a + am
            scale = max(abs(a), abs(am), 1e-300)
            worst = max(worst, abs(diff) / scale)
        return worst


def lorentz_family(K: float = 1.0) -> GeneralTransformFamily:
    """Symmetric family A(V) = 1/sqrt(1 - K*V**2); K may be <= 0 here, but
    must be real (_input.real)."""
    K = real("K", K)
    return GeneralTransformFamily(
        A=lambda v: 1.0 / math.sqrt(1.0 - K * v * v), parity=Parity.SYMMETRIC
    )


def galilean_family() -> GeneralTransformFamily:
    return GeneralTransformFamily(A=lambda v: 1.0, parity=Parity.SYMMETRIC)


def superluminal_family(
    K: float = 1.0, positive_convention: bool = False
) -> GeneralTransformFamily:
    """Antisymmetric family A(W) = -(W/|W|)/sqrt(K*W**2 - 1), K real."""
    K = real("K", K)
    sign = 1.0 if positive_convention else -1.0

    def scale(w: float) -> float:
        return sign * math.copysign(1.0, w) / math.sqrt(K * w * w - 1.0)

    return GeneralTransformFamily(A=scale, parity=Parity.ANTISYMMETRIC)


# ---------------------------------------------------------------------------
# 1+1 matrices and boosts.  Every boost has the one form
# (t, x) -> (a*(t - K*V*x), a*(x - V*t)); the branches differ only in the
# scale a = A(V).  Matrices act on column vectors (t, x).


def K_from_c(c: float) -> float:
    """K = 1/c**2 for a light speed c, which must be positive and finite, and
    neither so small that K overflows nor so large that it underflows to 0."""
    if not 0 < real("light speed c", c) < math.inf:
        raise NonpositiveK(f"light speed c must be positive and finite, got c={c!r}")
    c2 = float(c) * c
    K = 1.0 / c2 if c2 else math.inf
    if math.isinf(K):
        raise NonpositiveK(f"K = 1/c**2 does not fit in a float for light speed c={c!r}")
    if not K:
        raise NonpositiveK(f"K = 1/c**2 underflows to 0 for light speed c={c!r}")
    return K


def _form(a: float, s: float, K: float) -> tuple[float, float, float, float]:
    """Matrix entries, row by row, of (t, x) -> (a*t - K*s*x, a*x - s*t),
    the boost law with s = a*V."""
    return a, -K * s, -s, a


def _reciprocal(V):
    """The pair (w, r) with r/w = 1/V: w = 1, except where 1/V would be
    subnormal and lose precision (2**1022 < |V| < inf); there w = 4 keeps r
    normal.  V may be a column of speeds, w then a column too."""
    if isinstance(V, np.ndarray):
        mag = np.abs(V)
        w = np.where((2.0**1022 < mag) & (mag < math.inf), 4.0, 1.0)
    else:
        w = 4.0 if 2.0**1022 < abs(V) < math.inf else 1.0
    return w, w / V


def _scalar_speed(b: Boost) -> float:
    """b's speed, which a 1+1 operation requires to be a scalar."""
    if isinstance(b.speed, tuple):
        raise InvalidInput("1+1 operations require a scalar-speed boost")
    return b.speed


def _entries(
    b: Boost, V: float | None = None, *, positive_convention: bool = False,
    antisymmetric_term: bool = True,
) -> tuple[float, float, float, float]:
    """Matrix entries of the boost law for an already validated boost.

    V defaults to the boost's speed, which must then be a scalar; the 1+3
    transforms pass the magnitude of their vector speed.  Below c the scale
    is a = 1/sqrt(1 - K*V**2).  Above it, s = a*W = sign/sqrt(K - 1/W**2),
    the sign negative by default, and a = s/W: no intermediate overflows for
    any |W| > c, and W = +/-inf gives the exact axis swap.
    antisymmetric_term=False drops the factor W/|W| from a: the deliberately
    broken variant, for which boost(-W) followed by boost(W) is -identity.

    V may also be a float64 column of speeds on b's branch, b then the Boost
    that validates the column (column_boost).  The same operations run in
    the same order, elementwise, and np.sqrt is correctly rounded like
    math.sqrt, so each entry equals the scalar call's bit for bit.
    """
    if V is None:
        V = _scalar_speed(b)
    K = b.K
    column = isinstance(V, np.ndarray)
    sqrt = np.sqrt if column else math.sqrt
    if b.branch is Branch.SUBLUMINAL:
        a = 1.0 / sqrt(1.0 - K * V * V)
        return _form(a, a * V, K)
    w, r = _reciprocal(V)
    s = (1.0 if positive_convention else -1.0) / sqrt(K - r * r)
    if not antisymmetric_term:
        if np.any(r == 0.0):  # an infinite speed
            raise InvalidInput("the broken variant has no infinite-speed limit")
        s = (np.copysign if column else math.copysign)(s, V)
    return _form(s * r / w, s, K)


_FLOATS = contextlib.nullcontext()  # Python floats overflow to inf without a warning


def _image(m, t, x, boost, names=None, then=None):
    """The boost law with entries m, (t, x) -> (m0*t + m1*x, m2*t + m3*x), on
    floats or float64 columns, m four floats or columns, carried on to a 1+3
    result by then where given; the tuple of result components.  Every
    transform's result is checked here and only here: a component beyond a
    float raises NonfiniteResult naming the first such event, names[i] (a
    label cut by reprlib) or else its row i, and boost, the Boost or text of
    the transform or a function of the row giving it; where the 1+1 image
    overflows, also log10 of its magnitude, from the law re-run on the
    events scaled by 2**-64."""
    column = isinstance(x, np.ndarray)
    with np.errstate(over="ignore", invalid="ignore") if column else _FLOATS:
        out = (m[0] * t + m[1] * x, m[2] * t + m[3] * x)
        if then is not None:
            out = then(*out)
    if column or not all(map(math.isfinite, out)):
        bad = np.flatnonzero(~np.logical_and.reduce([np.isfinite(v) for v in out]))
        if len(bad):
            i = int(bad[0])
            with np.errstate(over="ignore", invalid="ignore"):
                t, x = t * 2.0**-64, x * 2.0**-64
                size = float(np.ravel(np.maximum(abs(m[0] * t + m[1] * x),
                                                 abs(m[2] * t + m[3] * x)))[i])
            big = (f" of magnitude 10**{math.log10(size) + 64 * math.log10(2.0):.6g}"
                   if math.isinf(size * 2.0**64) else "")
            b = boost(i) if callable(boost) else boost
            how = b if isinstance(b, str) else (
                f"to {b.branch.value} speed {b.speed!r} (K={b.K!r})")
            name = i if names is None else names[i]
            raise NonfiniteResult(f"event {reprlib.repr(name) if is_label(name) else repr(name)} "
                                  f"boosted {how} has a coordinate{big}, beyond a float")
    return out


def boost_matrix_1p1(
    b: Boost, *, positive_convention: bool = False, antisymmetric_term: bool = True
) -> np.ndarray:
    m = _entries(b, positive_convention=positive_convention,
                 antisymmetric_term=antisymmetric_term)
    return np.array([m[:2], m[2:]])


def subluminal_matrix(V: float, K: float = 1.0) -> np.ndarray:
    return boost_matrix_1p1(Boost(Branch.SUBLUMINAL, V, K))


def superluminal_matrix(
    W: float, K: float = 1.0, *, positive_convention: bool = False,
    antisymmetric_term: bool = True,
) -> np.ndarray:
    """Matrix of the superluminal boost, determinant -1.

    The default convention takes the overall sign negative; see _entries for
    antisymmetric_term.
    """
    return boost_matrix_1p1(Boost(Branch.SUPERLUMINAL, W, K),
                            positive_convention=positive_convention,
                            antisymmetric_term=antisymmetric_term)


def boost_1p1(e: Event1p1, b: Boost) -> Event1p1:
    """Transform an event into the frame moving at b.speed."""
    return Event1p1(*_image(_entries(b), e.t, e.x, b, (e,)))


def _matrix(M, stack: bool = False) -> np.ndarray:
    """M as a float64 2x2 array of finite entries (_input.finite_column), or
    with stack also an (n, 2, 2) stack of them; InvalidInput naming the shape
    of any other array."""
    M = finite_column("matrix entry", M)
    if M.shape[-2:] != (2, 2) or M.ndim > 2 + stack:
        raise InvalidInput(f"a boost matrix must have shape (2, 2){' or (n, 2, 2)' * stack}, "
                           f"got an array of shape {M.shape}")
    return M


def velocity_of_matrix(M: np.ndarray) -> float:
    """Velocity of the frame a boost matrix maps into.

    Read off as minus the ratio of the x-row coefficients (t column over
    x column); the overall scale of the matrix cancels.  An x-x entry of
    exactly 0 means the matrix is the axis swap of the infinite-speed frame,
    which has no velocity, and raises PoleError, as does a speed beyond the
    float range.  M is a 2x2 matrix or a stack of them, (n, 2, 2), read one
    by one (_matrix).
    """
    M = _matrix(M, stack=True)
    if (M[..., 1, 1] == 0.0).any():
        raise PoleError("matrix maps onto the infinite-speed frame")
    with np.errstate(over="ignore"):
        v = -M[..., 1, 0] / M[..., 1, 1]
    if not np.isfinite(v).all():
        raise PoleError("the speed of the matrix lies beyond the float range")
    return float(v) if M.ndim == 2 else v


def branch_of_matrix(M: np.ndarray) -> Branch:
    """The branch of a 2x2 matrix by the sign of its determinant, taken exactly."""
    (a, b), (c, d) = ([*map(Fraction, row)] for row in _matrix(M).tolist())
    return Branch.SUBLUMINAL if a * d - b * c > 0 else Branch.SUPERLUMINAL


def _point(V: float, K: float) -> tuple[float, float]:
    """Speed V as the projective point (p, q), V = p/q: (V, 1) up to c and
    (1, 1/V) beyond it, so +/-inf is the ordinary point (1, +/-0); (4, 4/V)
    where 1/V would be subnormal.  V may be a column, each speed then its own
    point."""
    if isinstance(V, np.ndarray):
        with np.errstate(over="ignore"):
            near = K * V * V <= 1.0
        w, r = _reciprocal(np.where(near, 1.0, V))
        return np.where(near, V, w), np.where(near, 1.0, r)
    return (V, 1.0) if K * V * V <= 1.0 else _reciprocal(V)


def _compose(V1, V2, K: float):
    """The composition law, written once: V1 then V2 is the point
    (p1*q2 + p2*q1, q1*q2 + K*p1*p2), the Moebius form of (V1 + V2)/(1 + K*V1*V2),
    and its speed p/q.  PoleError only where q is exactly 0: the axis swap, or
    a speed beyond the float range where q underflows.  V1 and V2 may be two
    columns of one length, composed pair by pair; the first pole is named."""
    (p1, q1), (p2, q2) = _point(V1, K), _point(V2, K)
    q = q1 * q2 + K * p1 * p2
    if isinstance(q, np.ndarray):
        if not q.all():
            i = int(np.argmin(q != 0.0))
            return _compose(float(V1[i]), float(V2[i]), K)
    elif q != q:  # K*p1 beyond a float, times a p2 of 0
        q = q1 * q2
    elif q == 0.0:
        if (q1 * q2 == 0.0 and q1 and q2) or (K * p1 * p2 == 0.0 and p1 and p2):
            # a product of nonzero factors underflowed: q is tiny, not 0
            raise PoleError(f"composed speed of V1={V1!r} and V2={V2!r} at "
                            f"K={K!r} lies beyond the float range")
        raise PoleError(f"composition pole 1 + K*V1*V2 = 0 at V1={V1!r}, "
                        f"V2={V2!r}, K={K!r}")
    return (p1 * q2 + p2 * q1) / q


def compose_boosts_1p1(b1: Boost, b2: Boost) -> Boost:
    """Single boost equivalent to applying b1 and then b2.

    Within one branch the result is subluminal, across branches superluminal
    (determinants multiply).  Raises MixedK when the operands disagree on K,
    PoleError when the composition is the infinite-speed axis swap, and
    BranchSpeedViolation, naming both operands, when the composed speed
    rounds into the band around c that Boost rejects."""
    if b1.K != b2.K:
        raise MixedK(f"operands carry different K: {b1.K!r} vs {b2.K!r}")
    branch = Branch.SUBLUMINAL if b1.branch is b2.branch else Branch.SUPERLUMINAL
    try:
        return Boost(branch, _compose(_scalar_speed(b1), _scalar_speed(b2), b1.K), b1.K)
    except BranchSpeedViolation as exc:
        exc.args = (f"{exc}, composing the {b1.branch.value} boost at speed {b1.speed!r} "
                    f"with the {b2.branch.value} boost at speed {b2.speed!r}",)
        raise


def compose_velocities_1p1(V1: float, V2: float, K: float = 1.0) -> float:
    """Relative velocity (V1 + V2)/(1 + K*V1*V2) of frame 2 with respect to
    the rest frame, by the law above; each operand is a real number, finite
    or +/-inf (_input.finite).  Raises PoleError at 1 + K*V1*V2 = 0 and warns
    LightSpeedResult within BOUNDARY_BAND of the light cone."""
    Boost.infinite(K)  # checks K as every boost does
    v = _compose(finite("V1", V1, infinite=True), finite("V2", V2, infinite=True), K)
    if abs(abs(v) * math.sqrt(K) - 1.0) <= BOUNDARY_BAND:
        warnings.warn(f"composed velocity {v!r} lies on the light cone",
                      LightSpeedResult)
    return v


def rapidity(b: Boost) -> float:
    """Hyperbolic-rotation angle atan2(sqrt(K)*p, q) of the point (p, q) of
    the speed, or of its magnitude for a vector speed: in (-pi/4, pi/4) below
    c, in (pi/4, 3*pi/4) above it, continuous at the light cone, and exactly
    pi/2 at W = +/-inf, the direction-independent infinite-speed frame."""
    v = math.hypot(*b.speed) if isinstance(b.speed, tuple) else b.speed
    p, q = _point(v, b.K)
    return math.atan2(math.sqrt(b.K) * p, q)


def interval_1p1(e1: Event1p1, e2: Event1p1, c: float = 1.0) -> float:
    """c**2 * dt**2 - dx**2 from e1 to e2, two Event1p1 or the rows of two
    EventColumns; exactly rounded where this float formula is not finite
    (_exact_forms).  c must pass K_from_c."""
    for name, e in (("e1", e1), ("e2", e2)):
        instance(name, e, (Event1p1, EventColumns))
    K_from_c(c)
    with np.errstate(over="ignore", invalid="ignore"):
        dt = e2.t - e1.t
        dx = e2.x - e1.x
        s2 = c * c * dt * dt - dx * dx

    def inputs(i: int) -> list[float]:  # row i's t1, x1, t2, x2
        return [float(np.broadcast_to(v, np.shape(s2)).flat[i])
                for v in (e1.t, e1.x, e2.t, e2.x)]

    def increments(i: int):
        t1, x1, t2, x2 = map(Fraction, inputs(i))
        return [t2 - t1], [x2 - x1]

    return _exact_forms(s2, c, increments, lambda i: "events (t, x) = ({!r}, {!r}) and "
                        "({!r}, {!r})".format(*inputs(i)))


def _exact_forms(s2, c: float, increments: Callable, named: Callable):
    """s2, the float values of the form c**2 * sum(dt**2) - sum(dr**2), a
    float or an array, with each value that is not finite replaced by the
    form's exactly rounded value, from Fractions: increments(i) gives the
    temporal and spatial increments of row i as Fractions, and named(i)
    names its inputs.  c is finite (K_from_c).  A row with an input that is
    not finite raises NonfiniteInput, and a value beyond a float raises
    NonfiniteResult, each naming the row's inputs."""
    if np.isfinite(s2).all():
        return s2
    out, C = np.array(s2, float), Fraction(c)
    for i in np.flatnonzero(~np.isfinite(out)).tolist():
        try:
            dts, drs = increments(i)
        except (OverflowError, ValueError):  # an input that is not finite has no exact value
            raise NonfiniteInput(f"the interval of {named(i)} has an input that is not "
                                 "finite") from None
        value = C * C * sum(d * d for d in dts) - sum(d * d for d in drs)
        try:
            out.flat[i] = float(value)
        except OverflowError:
            size = math.log10(abs(value.numerator)) - math.log10(value.denominator)
            raise NonfiniteResult(f"the interval of {named(i)} with c={c!r} has magnitude "
                                  f"10**{size:.6g}, beyond a float") from None
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# General transform family: apply and extract K.


def _scales(fam: GeneralTransformFamily, V: float) -> tuple[float, float]:
    """A(V) and A(-V) at a finite V, the one evaluation of a family's A; or
    DegenerateA naming V where A raises an ArithmeticError or a ValueError,
    or where A(V)*A(-V) is not finite or vanishes or V*V*A(V)*A(-V) underflows."""
    V = finite("V", V)
    try:
        a, am = fam.A(V), fam.A(-V)
        degenerate = not is_finite(a * am) or abs(a * am) < 1e-300 or (V and not V * V * a * am)
    except (ArithmeticError, ValueError) as exc:  # a pole, or beyond the family's light speed
        raise DegenerateA(f"A is not defined at V={V!r} or -V: {exc!r}") from None
    if degenerate:
        raise DegenerateA(f"A(V)*A(-V) degenerate at V={V!r}: A(V)={a!r}, A(-V)={am!r}")
    return a, am


def _k_expression(fam: GeneralTransformFamily, V: float) -> tuple[float, float]:
    """The K expression at V, and A(V), from _scales."""
    a, am = _scales(fam, V)
    return (a * am - 1.0) / (V * V * a * am), a


def general_boost_1p1(e: Event1p1, fam: GeneralTransformFamily, V: float) -> Event1p1:
    """Apply the family's transform at velocity V without assuming a branch.

    t' = A(V)*(t - kappa*V*x) and x' = A(V)*(x - V*t), with kappa the K
    expression computed from A at this V.
    """
    if V == 0:
        raise ZeroVelocity("the general transform is undefined at V = 0")
    kappa, a = _k_expression(fam, V)
    return Event1p1(*_image(_form(a, a * V, kappa), e.t, e.x,
                            f"by the {fam.parity.value} family at V={V!r}", (e,)))


# The spread of the K expression over the samples that extract_K takes for
# a constant: K_ATOL + K_RTOL * max(1, max|value|)
K_RTOL, K_ATOL = 1e-8, 1e-10


def extract_K(fam: GeneralTransformFamily, samples: Sequence[float]) -> float:
    """Evaluate the K expression on the samples, which must be finite, and
    require it constant.

    Returns the shared value; raises NotConstant when the spread exceeds
    K_ATOL + K_RTOL * max(1, max|value|), and ZeroVelocity for a zero
    sample.
    """
    sam = [finite("sample velocity", v) for v in sequence("samples", samples)]
    if len(set(sam)) < 2:
        raise InvalidInput("need at least two distinct sample velocities")
    if any(v == 0 for v in sam):
        raise ZeroVelocity("K extraction samples must be nonzero")
    values = [_k_expression(fam, v)[0] for v in sam]
    spread = max(values) - min(values)
    scale = max(abs(v) for v in values)
    if spread > K_ATOL + K_RTOL * max(1.0, scale):
        raise NotConstant(
            f"K expression varies over samples: spread={spread!r}, values={values!r}"
        )
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# 1+3 transforms.


def _along(r, speed, w):
    """n, the direction of the vector speed of magnitude w > 0, and r.n, the
    x of the 1+1 law; r and speed are three components, floats or columns
    alike.  A w that overflows to inf gives n = 0, which the law at
    infinite speed, the axis swap, does not need."""
    n = tuple(v / w for v in speed)
    return n, r[0] * n[0] + r[1] * n[1] + r[2] * n[2]


def _superluminal_along(t, r, speed, w, m, c: float, boost, names=None):
    """The superluminal 1+3 law, entries m, on (t, r) as _along takes them:
    the three components of tvec', and x'."""
    n, r_par = _along(r, speed, w)
    return _image(m, t, r_par, boost, names, lambda t1, x1: (
        *(t1 * u + (ri - r_par * u) / c for ri, u in zip(r, n)), x1))


def boost_1p3_subluminal(e: Event1p3, V, c: float = 1.0) -> Event1p3:
    """Boost along an arbitrary direction; the component of r along V mixes
    with t and the perpendicular part is untouched.  V = 0 is the identity."""
    b = Boost(Branch.SUBLUMINAL, finite_column("speed component", V, 3), K_from_c(c))
    v = math.hypot(*b.speed)
    if v == 0.0:
        return Event1p3(e.t, e.r)
    n, r_par = _along(e.r, b.speed, v)
    t, *r = _image(_entries(b, v), e.t, r_par, b, (e,), lambda t1, x1: (
        t1, *(ri + (x1 - r_par) * u for ri, u in zip(e.r, n))))
    return Event1p3(t, tuple(r))


def boost_1p3_superluminal(e: Event1p3, W, c: float = 1.0) -> SuperluminalEvent1p3:
    """Superluminal transform along an arbitrary direction.

    The component of r along W mixes with t into one spatial coordinate x';
    the time t' of that pair lies along W in the temporal triple tvec', and
    the perpendicular part of r enters tvec' divided by c.  As |W| grows the
    result approaches x' = c*t, tvec' = r/c for every direction of W.
    """
    b = Boost(Branch.SUPERLUMINAL, finite_column("speed component", W, 3), K_from_c(c))
    w = math.hypot(*b.speed)
    *tvec, x = _superluminal_along(e.t, e.r, b.speed, w, _entries(b, w), c, b, (e,))
    return SuperluminalEvent1p3(tuple(tvec), x)


def interval_nm(dts: Sequence[float], drs: Sequence[float], c: float = 1.0):
    """Quadratic form with n temporal and m spatial increments:
    c**2 * sum(dt**2) - sum(dr**2).  Given (k, n) and (k, m) arrays it
    returns the k forms of their rows.  Exactly rounded where this float
    formula is not finite (_exact_forms).  c must pass K_from_c."""
    K_from_c(c)
    dts = np.atleast_1d(real_array("dt", dts))
    drs = np.atleast_1d(real_array("dr", drs))
    with np.errstate(over="ignore", invalid="ignore"):
        s2 = c * c * np.sum(dts * dts, axis=-1) - np.sum(drs * drs, axis=-1)

    def row(v: np.ndarray, i: int) -> list[float]:  # row i of the increments v, broadcast
        return np.broadcast_to(v, s2.shape + v.shape[-1:]).reshape(s2.size, -1)[i].tolist()

    s2 = _exact_forms(s2, c, lambda i: [[*map(Fraction, row(v, i))] for v in (dts, drs)],
                      lambda i: f"increments dt={row(dts, i)} and dr={row(drs, i)}")
    return float(s2) if np.ndim(s2) == 0 else s2


# ---------------------------------------------------------------------------
# Columns: many boosts at once, for seeded sweeps.  A column of speeds is
# validated by the Boost of its extreme speed, and the law runs elementwise
# through the kernels above, so each result equals the one-boost call's bit
# for bit.  A branch is one Branch for the whole column, or a boolean column
# that is True where the speed is subluminal.


class EventColumns(NamedTuple):
    """n 1+1 events as two float64 columns; interval_1p1 reads them as it
    reads two Event1p1."""

    t: np.ndarray
    x: np.ndarray


def column_boost(branch: Branch, V: np.ndarray, K: float = 1.0) -> Boost:
    """The Boost of the column's extreme speed: the largest |V| below c, the
    smallest |W| above it, or the first NaN.  Constructing it checks the
    branch bound of every speed in the column."""
    mag = np.abs(V)
    i = np.argmax(mag) if branch is Branch.SUBLUMINAL else np.argmin(mag)
    return Boost(branch, float(V[i]), K)


def column_entries(branch, V: np.ndarray, K: float = 1.0, *,
                   antisymmetric_term: bool = True) -> np.ndarray:
    """The boost-law entries of each speed of the column V, a (4, n) array,
    row by row as _entries returns them."""
    if isinstance(branch, Branch):
        return np.array(_entries(column_boost(branch, V, K), V,
                                 antisymmetric_term=antisymmetric_term))
    m = np.empty((4, len(V)))
    for one, mask in ((Branch.SUBLUMINAL, branch), (Branch.SUPERLUMINAL, ~branch)):
        if mask.any():
            m[:, mask] = column_entries(one, V[mask], K,
                                        antisymmetric_term=antisymmetric_term)
    return m


def boost_1p1_columns(e: EventColumns, branch, V, K: float = 1.0) -> EventColumns:
    """boost_1p1 on columns: event i moved by the boost of speed V[i]."""
    finite_column("t", e.t)
    finite_column("x", e.x)

    def boost(i):
        one = branch if isinstance(branch, Branch) else (
            Branch.SUBLUMINAL if branch[i] else Branch.SUPERLUMINAL)
        return Boost(one, float(V[i]), K)

    return EventColumns(*_image(column_entries(branch, V, K), e.t, e.x, boost))


def boost_1p3_superluminal_columns(t: np.ndarray, r: np.ndarray, W: np.ndarray,
                                   c: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """boost_1p3_superluminal on columns: t is (n,), r and W are (n, 3).
    Returns tvec, (n, 3), and x, (n,).  |W| is math.hypot of each speed, on
    Python floats, mapped over the three component lists with no Python
    frame per speed: hypot has no bit-exact numpy twin."""
    K = K_from_c(c)
    for name, col in (("speed component", W), ("t", t), ("r component", r)):
        finite_column(name, col)
    w = np.array(list(map(math.hypot, *W.T.tolist())))
    m = column_entries(Branch.SUPERLUMINAL, w, K)
    with np.errstate(over="ignore", invalid="ignore"):
        *tvec, x = _superluminal_along(t, r.T, W.T, w, m, c, lambda i: Boost(
            Branch.SUPERLUMINAL, tuple(W[i].tolist()), K))
    return np.stack(tvec, axis=1), x


def rapidity_columns(branch: Branch, V: np.ndarray, K: float = 1.0) -> np.ndarray:
    """rapidity of each speed of a column on one branch.  atan2 runs per
    speed on Python floats: math.atan2 has no bit-exact numpy twin."""
    column_boost(branch, V, K)
    p, q = _point(V, K)
    return np.array(list(map(math.atan2, (math.sqrt(K) * p).tolist(), q.tolist())))
