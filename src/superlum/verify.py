"""Seeded verification suite spanning kinematics, invariants and sympoly.

The suite is one table, SUITE.  Each row draws the inputs of all its trials
and returns one deviation per trial and report; run_suite keeps the worst
deviation of each report (the largest against a tolerance, the smallest
against the floor of an expected failure, NaN wherever a trial gave NaN)
and builds the CheckReports.  All randomness comes from one seeded
generator, consumed in table order, so a fixed seed gives a bit-identical
report.

The eleven kinematics rows draw only uniform doubles.  Each draws all its
trials in one rng.random block, and maps a column u of it to
lo + (hi - lo) * u, which is what rng.uniform(lo, hi) returns, bit for bit.
A trial that draws a random boost uses two or three doubles, by its branch
draw; those rows walk an upper-bound block of raw words (_Raw, below),
which leaves the generator advanced by exactly the doubles used, where one
draw at a time would leave it.  The trials then run as numpy operations
on columns, through the column twins of the kinematics kernels, each
kernel called once per row on every column it moves (_boost_both, one
_matrices call for both speeds of a matrix product): the kernels are
elementwise, so each part has the bits of its own call.  The few calls with
no bit-exact numpy twin (math.hypot, math.atan2, x ** 2, which is libm pow)
run per trial on Python floats, and the BLAS dots of the norms and of
dr @ dr run per trial, as one stacked np.matmul (_dots).  Each deviation is
the one a per-trial evaluation gives.

The six rows after them draw integers, permutations and arrays of drawn
sizes.  Each of the five among them that draw (the two invariant rows, the
two phase rows and newton_convolution) reads one block of raw PCG64 words
through _Raw, which gives what the Generator's random, uniform, integers
and permutation give, bit for bit.  The row walks the block trial by trial
in the order those calls ran, then gathers the doubles it took as columns,
so it makes no Generator call per trial and leaves the generator where
the calls would.  What the draws produce is then valued on columns, by
private twins of the public kernels that give their bits: the phase rows
boost every vertex in one call and sum the proper times of all their
paths and parts of paths in one _path_phases call, the
two invariant rows gather the phase sets of all their instances kind by
kind from the drawn block, with no array per instance (_sets), and value
them, whatever their specs and sizes, as the ragged rows of one _log_P per
kind of alpha and branch (_invariant_Ps), newton_convolution raises the
sets of all its instances to each power in one pass and forms every
convolution and deviation in one kernel call (_newton_deviations), and
two_path_interference takes one _phasor_sum over all its deltas.  The
remaining rows draw little and run trial by trial through per_trial.

The two sabotage switches exist to demonstrate that the suite actually
bites: break_antisymmetric_term drops the W/|W| factor from superluminal
matrices (the inverse law then fails for every W), and perturb_cauchy shifts
one expansion coefficient (the factorial product condition then fails).
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

import numpy as np

from . import kinematics as kin
from ._input import whole
from .invariants import (
    InvariantSpec,
    _invariant_Ps,
    _path_phases,
    _phasor_sum,
    _stretches,
    amplitude_invariant,
    check_time_reversal,
    invariant_P,
)
from .kinematics import Boost, Branch, EventColumns
from .report import CheckReport, _relative, relative_deviation
from .sympoly import (
    NEWTON_R_MAX,
    CoefficientTensor,
    _newton_deviations,
    cauchy_condition_check,
    closed_product,
    closure_checks,
    expansion_reconstruction_check,
)

IDENTITY = np.eye(2)
INFINITE_LIMIT_SPEED = 1e9
TWO_PATH_DELTAS = np.linspace(0.0, 2 * math.pi, 100)


class Opts(NamedTuple):  # the sabotage switches, as the trials see them
    antisymmetric_term: bool
    perturb: float


class Check(NamedTuple):
    name: str
    bound: float  # the default tol, a model-gap bound, or an expected failure's floor
    kind: str  # "tol", "gap" or "floor"
    params: dict  # values may be callables of Opts


def tol(name: str, bound: float, **params) -> Check:
    """A report that passes when its worst (largest) deviation is <= bound."""
    return Check(name, bound, "tol", params)


def gap(name: str, bound: float, **params) -> Check:
    """Like tol, but the deviation is a gap the check's own model leaves (a
    speed standing in for the light cone or for infinity, a series cut after
    a fixed number of terms), not rounding, so run_suite's tolerance does not
    replace the bound."""
    return Check(name, bound, "gap", params)


def floor(name: str, bound: float, **params) -> Check:
    """An expected failure: passes when its smallest deviation is > bound."""
    return Check(name, bound, "floor", params)


class Row(NamedTuple):
    checks: tuple[Check, ...]
    trials: int
    # trial(rng, opts, n) draws the inputs of n trials and returns their
    # deviations: n of them for one check, an (n, checks) array for several.
    trial: Callable
    unit: str | None = "trials"  # params key that reports the trial count

    @property
    def name(self) -> str:
        return "+".join(c.name for c in self.checks)


def per_trial(body: Callable) -> Callable:
    """The row trial of body(rng, opts, i), which draws and evaluates trial i
    alone and returns its deviation, or a tuple of them for several checks."""
    def trial(rng, opts, n):
        return [body(rng, opts, i) for i in range(n)]
    return trial


# ---------------------------------------------------------------------------
# Draws.


def _uniform(u, lo: float, hi: float):
    """rng.uniform(lo, hi) from the doubles u that rng.random() drew."""
    return lo + (hi - lo) * u


class _Raw:
    """A row's draws from rng, read from one block of raw PCG64 words.

    The row walks the block in the order its samplers would have run, and
    each draw gives what the Generator's sampler gives, bit for bit:
    take(k) the k doubles of rng.random(k), as numpy's next_double reads a
    word w, (w >> 11) * 2**-53; integer(lo, hi) rng.integers(lo, hi), by
    Lemire's multiply-and-reject on a 32-bit half; permutation(k) the order
    in which rng.permutation(k) leaves k items, by a Fisher-Yates shuffle
    from the last item down with random_interval's mask-and-reject.  A
    32-bit draw takes the low half of a fresh word and keeps its high half
    for the next one, as next_uint32 does, across doubles and rows (the
    state's has_uint32 and uinteger).  The block grows when rejections use
    it up.  close() leaves the generator where the samplers would have: the
    saved state, advanced by the words used, with the kept half-word set
    again.  It returns the doubles of the whole block, whose words past
    those used were never drawn as far as the generator goes.
    """

    def __init__(self, rng, words: int):
        self.bitgen = rng.bit_generator
        self.state = self.bitgen.state
        assert self.state["bit_generator"] == "PCG64"
        self.raw = self.bitgen.random_raw(words)
        self.pos = 0
        self.has_half, self.half = self.state["has_uint32"], self.state["uinteger"]

    def _grow(self, need: int) -> None:
        more = self.bitgen.random_raw(max(need, self.raw.size))
        self.raw = np.concatenate([self.raw, more])

    def take(self, k: int) -> slice:
        """The place of the next k doubles in close()'s array."""
        start = self.pos
        self.pos += k
        if self.pos > self.raw.size:
            self._grow(self.pos - self.raw.size)
        return slice(start, self.pos)

    def _uint32(self) -> int:
        if self.has_half:
            self.has_half = 0
            return self.half
        if self.pos == self.raw.size:
            self._grow(1)
        word = self.raw.item(self.pos)
        self.pos += 1
        self.has_half, self.half = 1, word >> 32
        return word & 0xFFFFFFFF

    def integer(self, lo: int, hi: int) -> int:
        span = hi - lo
        assert 0 < span < 1 << 32
        if span == 1:
            return lo
        least, m = (1 << 32) % span, self._uint32() * span
        while m & 0xFFFFFFFF < least:
            m = self._uint32() * span
        return lo + (m >> 32)

    def permutation(self, k: int) -> list[int]:
        order, draw = list(range(k)), self._uint32
        for i in range(k - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = draw() & mask
            while j > i:
                j = draw() & mask
            order[i], order[j] = order[j], order[i]
        return order

    def close(self) -> np.ndarray:
        self.bitgen.state = self.state
        self.bitgen.advance(self.pos)
        state = self.bitgen.state
        state["has_uint32"], state["uinteger"] = self.has_half, self.half
        self.bitgen.state = state
        return (self.raw >> 11) * 2.0**-53


def _subluminal(u):
    return _uniform(u, -0.95, 0.95)


def _superluminal(u, sign):
    """|W| in [1.05, 20) from u, negative where the sign draw is >= 0.5."""
    w = _uniform(u, 1.05, 20.0)
    return np.where(sign < 0.5, w, -w)


def _boost_draws(rng, n: int, boosts: int, rest: int):
    """The draws of n trials that each draw `boosts` random boosts and then
    `rest` doubles, taken in one block.

    A random boost draws its branch (below 0.5: subluminal), then a speed,
    and above c also the speed's sign: two or three doubles.  So the block
    holds the most the trials can use, and the walk reads each branch draw
    from its word's top bit, which is 0 for a double below 0.5.  Returns the
    (subluminal mask, speed) columns of each boost and the (n, rest) doubles.
    """
    raw = _Raw(rng, n * (3 * boosts + rest))
    top, starts, pos = (raw.raw >> 63).tolist(), [], 0
    for _ in range(n):
        for _ in range(boosts):
            starts.append(pos)
            pos += 2 + top[pos]
        starts.append(pos)
        pos += rest
    raw.take(pos)
    block = raw.close()
    at = np.array(starts).reshape(n, boosts + 1)
    drawn = []
    for j in range(boosts):
        sub = block[at[:, j]] < 0.5
        speed = np.where(sub, _subluminal(block[at[:, j] + 1]),
                         _superluminal(block[at[:, j] + 1], block[at[:, j] + 2]))
        drawn.append((sub, speed))
    return drawn, block[at[:, [boosts]] + np.arange(rest)]


def _events(u) -> EventColumns:
    """Events with t and x in [-2, 2) from two columns of doubles."""
    return EventColumns(_uniform(u[:, 0], -2, 2), _uniform(u[:, 1], -2, 2))


def _random_spec(u: list[float]) -> InvariantSpec:
    """From the doubles u, alpha's real part in [-1, 1) and, given a fourth
    double, its imaginary part in [-0.3, 0.3); beta in [0, 2) and gamma in
    [-2, 2)."""
    im = _uniform(u[1], -0.3, 0.3) if len(u) == 4 else 0.0
    return InvariantSpec(complex(_uniform(u[0], -1.0, 1.0), im),
                         _uniform(u[-2], 0.0, 2.0), _uniform(u[-1], -2.0, 2.0))


def _timelike_paths(rng, n: int, extra: int = 0):
    """n random timelike paths of 2 to 5 segments, each slower than 0.9.

    A path draws its start x, its segment count, then (dt, v) for each
    segment and `extra` more doubles for its trial.  Returns the (n, 6)
    vertex times and positions, finite but meaningless past each path's
    last vertex, the vertex counts, and the (n, extra) extra doubles.
    """
    raw = _Raw(rng, n * (12 + extra))
    starts, counts = [], []
    for _ in range(n):
        x0 = raw.take(1).start
        k = raw.integer(2, 6)
        starts.append((x0, raw.take(2 * k + extra).start))
        counts.append(k + 1)
    u = np.append(raw.close(), 0.0)
    x0, seg = np.array(starts).T
    count = np.array(counts)
    j = np.arange(10)
    # a segment past the path's last reads the appended 0.0, as dt 0.2 and v -0.9
    cols = np.where(j < 2 * count[:, None] - 2, seg[:, None] + j, -1)
    dt, v = _uniform(u[cols[:, 0::2]], 0.2, 1.0), _uniform(u[cols[:, 1::2]], -0.9, 0.9)
    t, x = np.zeros((n, 6)), np.zeros((n, 6))
    x[:, 0] = _uniform(u[x0], -1, 1)
    for j in range(5):
        t[:, j + 1] = t[:, j] + dt[:, j]
        x[:, j + 1] = x[:, j] + v[:, j] * dt[:, j]
    return t, x, count, u[(seg + 2 * count - 2)[:, None] + np.arange(extra)]


# ---------------------------------------------------------------------------
# Column helpers: the per-trial operations with no bit-exact numpy twin, and
# the elementwise forms of the scalar ones.


def _dots(rows: np.ndarray) -> np.ndarray:
    """Each row's dot with itself as row @ row and row.dot(row) compute it
    for a 1-D real row: np.matmul of the (n, 1, k) and (n, k, 1) stacks
    makes the same BLAS dot for each item, in one call."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def _norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row as np.linalg.norm computes it for a
    1-D real row, the square root of the row's BLAS dot with itself (_dots);
    np.sqrt is correctly rounded like math.sqrt."""
    return np.sqrt(_dots(rows))


def _matrices(branch, V, antisymmetric_term: bool = True) -> np.ndarray:
    """The (n, 2, 2) stack of boost matrices; np.matmul multiplies such
    stacks pair by pair exactly as it multiplies two 2x2 matrices."""
    m = kin.column_entries(branch, V, antisymmetric_term=antisymmetric_term)
    return m.T.reshape(-1, 2, 2)


def _boost_both(e1: EventColumns, e2: EventColumns, branch, V):
    """e1 and e2 each boosted by the speeds V on branch (a Branch or a mask),
    from one boost_1p1_columns call on their stacked columns: the law is
    elementwise, so each half has the bits of its own call."""
    n = len(V)
    out = kin.boost_1p1_columns(
        EventColumns(np.concatenate([e1.t, e2.t]), np.concatenate([e1.x, e2.x])),
        branch if isinstance(branch, Branch) else np.tile(branch, 2), np.tile(V, 2))
    return EventColumns(out.t[:n], out.x[:n]), EventColumns(out.t[n:], out.x[n:])


# ---------------------------------------------------------------------------
# Trials.  Each draws and evaluates the n trials of its row.


def _inverse_law(branch, V, antisymmetric_term: bool = True) -> np.ndarray:
    """M(-V) @ M(V) against the identity; the matrices of -V and V come
    from one _matrices call."""
    m = _matrices(branch, np.concatenate([-V, V]), antisymmetric_term)
    product = np.matmul(m[:len(V)], m[len(V):])
    return np.abs(product - IDENTITY).max(axis=(1, 2))


def _subluminal_inverse(rng, opts, n):
    return _inverse_law(Branch.SUBLUMINAL, _subluminal(rng.random(n)))


def _superluminal_inverse(rng, opts, n):
    u = rng.random((n, 2))
    return _inverse_law(Branch.SUPERLUMINAL, _superluminal(u[:, 0], u[:, 1]),
                        opts.antisymmetric_term)


def _light_cone(rng, opts, n):
    ((sub, V),), u = _boost_draws(rng, n, 1, 4)
    e1 = _events(u)
    dt = _uniform(u[:, 2], 0.1, 2.0)
    e2 = EventColumns(e1.t + dt, e1.x + np.copysign(dt, _uniform(u[:, 3], -1, 1)))
    return np.abs(kin.interval_1p1(*_boost_both(e1, e2, sub, V)))


def _interval_1p1(branch, V, u, sign: float) -> np.ndarray:
    """Deviation of the boosted interval from sign * the original one,
    relative to the cancellation-free scale dt**2 + dx**2 (c = 1), for the
    events drawn as the four columns of u."""
    e1, e2 = _events(u[:, :2]), _events(u[:, 2:])
    s2 = kin.interval_1p1(e1, e2)
    s2p = kin.interval_1p1(*_boost_both(e1, e2, branch, V))
    scale = kin._squares(e2.t - e1.t) + kin._squares(e2.x - e1.x)
    return _relative(s2p, sign * s2, scale)


def _sign_flip_1p1(rng, opts, n):
    u = rng.random((n, 6))
    return _interval_1p1(Branch.SUPERLUMINAL, _superluminal(u[:, 0], u[:, 1]),
                         u[:, 2:], -1.0)


def _sign_flip_1p3(rng, opts, n):
    u = rng.random((n, 12))
    w = _uniform(u[:, :3], -1, 1)
    w *= (_uniform(u[:, 3], 1.1, 8.0) / _norms(w))[:, None]
    t1, r1 = _uniform(u[:, 4], -2, 2), _uniform(u[:, 5:8], -2, 2)
    t2, r2 = _uniform(u[:, 8], -2, 2), _uniform(u[:, 9:12], -2, 2)
    dt, dr = t2 - t1, r2 - r1
    s2 = kin.interval_nm(dt[:, None], dr)
    # both events in one call, each row by its own w, as the law is elementwise
    tvec, x = kin.boost_1p3_superluminal_columns(np.concatenate([t1, t2]),
                                                 np.concatenate([r1, r2]), np.tile(w, (2, 1)))
    s2p = kin.interval_nm(tvec[n:] - tvec[:n], (x[n:] - x[:n])[:, None])
    return _relative(s2p, -s2, dt * dt + _dots(dr))


def _sub_invariance(rng, opts, n):
    u = rng.random((n, 5))
    return _interval_1p1(Branch.SUBLUMINAL, _subluminal(u[:, 0]), u[:, 1:], 1.0)


def _branch_closure(rng, opts, n):
    """The composed boost is subluminal exactly where its operands share a
    branch; validating it on that branch checks the XOR."""
    ((sub1, V1), (sub2, V2)), u = _boost_draws(rng, n, 2, 2)
    e = _events(u)
    direct = kin.boost_1p1_columns(kin.boost_1p1_columns(e, sub1, V1), sub2, V2)
    via = kin.boost_1p1_columns(e, sub1 == sub2, kin._compose(V1, V2, 1.0))
    scale = np.maximum(np.maximum(np.abs(direct.t), np.abs(direct.x)), 1.0)
    return np.maximum(np.abs(direct.t - via.t) / scale, np.abs(direct.x - via.x) / scale)


def _velocity_antisymmetry(rng, opts, n):
    u = rng.random((n, 2))
    v1, v2 = _subluminal(u[:, 0]), _subluminal(u[:, 1])
    return np.abs(kin._compose(v1, v2, 1.0) + kin._compose(-v2, -v1, 1.0))


def _velocity_matrix_agreement(rng, opts, n):
    ((sub1, V1), (sub2, V2)), _ = _boost_draws(rng, n, 2, 0)
    m = _matrices(np.concatenate([sub2, sub1]), np.concatenate([V2, V1]))
    m = np.matmul(m[:n], m[n:])
    return _relative(kin.velocity_of_matrix(m), kin._compose(V1, V2, 1.0), 1.0)


def _rapidity_band(rng, opts, n):
    """inf where a drawn boost leaves its band; the first trial also measures
    the gap between the bands at the light cone."""
    u = rng.random((n, 3))
    sub = kin.rapidity_columns(Branch.SUBLUMINAL, _subluminal(u[:, 0]))
    sup = kin.rapidity_columns(Branch.SUPERLUMINAL, _superluminal(u[:, 1], u[:, 2]))
    qpi = math.pi / 4
    dev = np.where((-qpi < sub) & (sub < qpi) & (qpi < sup) & (sup < 3 * qpi),
                   0.0, math.inf)
    if n and dev[0] == 0.0:
        if kin.rapidity(Boost.infinite()) != math.pi / 2:
            dev[0] = math.inf
        else:
            near = kin.rapidity(Boost(Branch.SUBLUMINAL, 1 - 1e-9))
            above = kin.rapidity(Boost(Branch.SUPERLUMINAL, 1 + 1e-9))
            dev[0] = abs(above - near)
    return dev


def _k_extraction(rng, opts, i):
    low, high = [0.05, 0.1, 0.2, 0.4], [3.0, 4.0, 5.0]
    return max(
        abs(kin.extract_K(fam, samples) - k_true)
        for k_true, fam, samples in (
            (1.0, kin.lorentz_family(1.0), low),
            (0.0, kin.galilean_family(), low),
            (-1.0, kin.lorentz_family(-1.0), low),
            (1.0, kin.superluminal_family(1.0), high),
        )
    )


def _infinite_limit(rng, opts, n):
    u = rng.random((n, 10))
    e = _events(u)
    w = np.where(u[:, 2] < 0.5, INFINITE_LIMIT_SPEED, -INFINITE_LIMIT_SPEED)
    out = kin.boost_1p1_columns(e, Branch.SUPERLUMINAL, w)
    scale = np.maximum(np.maximum(np.abs(e.t), np.abs(e.x)), 1.0)
    t3, r3 = _uniform(u[:, 3], -2, 2), _uniform(u[:, 4:7], -2, 2)
    direction = _uniform(u[:, 7:], -1, 1)
    direction /= _norms(direction)[:, None]
    tvec, x3 = kin.boost_1p3_superluminal_columns(t3, r3, direction * INFINITE_LIMIT_SPEED)
    scale3 = np.maximum(np.maximum(np.abs(t3), np.abs(r3).max(axis=1)), 1.0)
    return np.maximum.reduce([
        np.abs(out.t - e.x) / scale,
        np.abs(out.x - e.t) / scale,
        np.abs(x3 - t3) / scale3,
        np.abs(tvec - r3).max(axis=1) / scale3,
    ])


def _sets(v: np.ndarray, a: np.ndarray, k: np.ndarray, b: np.ndarray, m: np.ndarray):
    """The phase sets of instances that each drew a set of k_i phases at a_i
    of v and a second set of m_i at b_i: the first sets, the second sets,
    and the pairwise sums of each pair in the order of _pairwise_sums, each
    kind laid end to end by one gather from v.  So every set has the bits of
    the array an instance would build for it alone."""
    km = k * m
    j = _stretches(0, km)  # each sum's place in its set
    per = np.repeat(m, km)
    sums = v[np.repeat(a, km) + j // per] + v[np.repeat(b, km) + j % per]
    return v[_stretches(a, k)], v[_stretches(b, m)], sums


def _invariant_axioms(rng, opts, n):
    """The nine phase sets of every instance (the set, five permutations,
    its negation, the second set and the pairwise sums) are gathered from
    the block kind by kind (_sets), laid end to end and valued by one
    _invariant_Ps call, one _log_P per kind of alpha and branch."""
    raw, drawn, perms = _Raw(rng, 40 * n), [], []
    for i in range(n):
        spec = raw.take(4 if i % 2 == 0 else 3)  # complex alpha on even instances
        k, m = raw.integer(1, 7), raw.integer(1, 7)
        drawn.append((spec, raw.take(k).start, k, raw.take(m).start, m))
        for _ in range(5):
            perms += raw.permutation(k)
    u = raw.close()
    spec, a, k, b, m = zip(*drawn)
    specs = [_random_spec(u[s].tolist()) for s in spec]
    a, k, b, m = map(np.array, (a, k, b, m))
    v = _uniform(u, -1, 1)
    phi, xi, sums = _sets(v, a, k, b, m)
    moved = v[np.repeat(a, 5 * k) + perms]
    values = _invariant_Ps(specs + [s for s in specs for _ in range(5)] + specs * 3,
                           np.concatenate([phi, moved, -phi, xi, sums]),
                           np.concatenate([k, np.repeat(k, 5), k, m, k * m]))
    base, back, f_xi, f_pairs = (values[j * n:(j + 1) * n] for j in (0, 6, 7, 8))
    devs = []
    for i in range(n):
        worst = 0.0  # as check_symmetry folds its trials
        for value in values[n + 5 * i:n + 5 * i + 5]:
            worst = max(worst, relative_deviation(value, base[i]))
        devs.append((worst, relative_deviation(base[i], back[i]),
                     relative_deviation(f_pairs[i], base[i] * f_xi[i])))
    return devs


def _sum_fails(rng, opts, n):
    """f1 + f2 for two invariants that share beta in [0, 1) and gamma in
    [0.5, 2), with alpha1 in [0.2, 1) and alpha2 in [1.2, 2); the two doubles
    drawn for a beta and gamma of f2's own are discarded.  The sets of every
    instance, under both specs, are gathered kind by kind (_sets) and
    valued by one _invariant_Ps call.

    Each f_i is multiplicative, so on the sets a and b the deviation is
    (r_a + r_b) / ((1 + r_a) * (1 + r_b)), with r = f1/f2 = (Q1/Q2)**gamma
    and Q(alpha) = S(alpha) * S(-alpha) = sum_jk cosh(alpha*(phi_j - phi_k)).
    Q grows with |alpha|, so r <= 1, and for phases in [-1, 1),
    r >= cosh(2*alpha2)**-gamma >= cosh(4)**-2.  The deviation grows with
    each r <= 1, so every instance deviates by at least 2r/(1 + r)**2 at
    r = cosh(4)**-2, 2.67e-3, above the floor of 1e-3.
    """
    raw, drawn = _Raw(rng, 20 * n), []
    for _ in range(n):
        spec = raw.take(6)
        k = raw.integer(2, 7)
        a = raw.take(k).start
        m = raw.integer(2, 7)
        drawn.append((spec, a, k, raw.take(m).start, m))
    u = raw.close()
    spec, a, k, b, m = zip(*drawn)
    s1, s2 = [], []
    for d in (u[s].tolist() for s in spec):
        s1.append(InvariantSpec(_uniform(d[0], 0.2, 1.0), _uniform(d[1], 0.0, 1.0),
                                _uniform(d[2], 0.5, 2.0)))
        s2.append(InvariantSpec(_uniform(d[3], 0.2, 1.0) + 1.0, s1[-1].beta, s1[-1].gamma))
    a, k, b, m = map(np.array, (a, k, b, m))
    phi, xi, sums = _sets(_uniform(u, -1, 1), a, k, b, m)
    values = _invariant_Ps(s1 * 3 + s2 * 3, np.concatenate([phi, xi, sums] * 2),
                           np.concatenate([k, m, k * m] * 2))
    a1, b1, ab1, a2, b2, ab2 = (values[j * n:(j + 1) * n] for j in range(6))
    return [relative_deviation(ab1[i] + ab2[i], (a1[i] + a2[i]) * (b1[i] + b2[i]))
            for i in range(n)]


def _two_path(rng, opts, n):
    """One _phasor_sum over the rows (0, delta): each row's tan and sum are
    the ones amplitude([0.0, delta]) computes."""
    deltas = TWO_PATH_DELTAS[:n]
    sums = _phasor_sum(1.0, np.stack([np.zeros(n), deltas], axis=1),
                       "alpha_mag", 1.0).tolist()
    return [abs(abs(s / 2) ** 2 - math.cos(d / 2) ** 2)
            for s, d in zip(sums, deltas.tolist())]


def _phase_invariance(rng, opts, n):
    t, x, count, u = _timelike_paths(rng, n, 1)
    speed = np.repeat(_subluminal(u[:, 0]), t.shape[1])
    moved = kin.boost_1p1_columns(EventColumns(t.ravel(), x.ravel()),
                                  Branch.SUBLUMINAL, speed)
    phases = _path_phases(np.concatenate([moved.t.reshape(t.shape), t]),
                          np.concatenate([moved.x.reshape(t.shape), x]),
                          np.zeros(2 * n, int), np.tile(count, 2))
    return _relative(phases[:n], phases[n:], 0.0)


def _phase_additivity(rng, opts, n):
    """Each path of 3 to 6 vertices is cut at its middle vertex, so both
    parts have a segment.  The two parts and the whole path are the rows of
    one _path_phases call, over the paths stacked three times."""
    t, x, count, _ = _timelike_paths(rng, n)
    cut, lo = count // 2, np.zeros(n, int)
    first, second, whole = _path_phases(np.tile(t, (3, 1)), np.tile(x, (3, 1)),
                                        np.concatenate([lo, cut, lo]),
                                        np.concatenate([cut + 1, count, count])).reshape(3, n)
    return _relative(first + second, whole, 0.0)


def _newton(rng, opts, n):
    """Every instance's deviations come from one _newton_deviations call."""
    raw, drawn = _Raw(rng, 25 * n), []
    for _ in range(n):
        k, m = raw.integer(9, 13), raw.integer(9, 13)
        drawn.append((raw.take(k), raw.take(m)))
    v = _uniform(raw.close(), -1, 1)
    return _newton_deviations([(v[a], v[b]) for a, b in drawn]).max(axis=1)


def _cauchy(rng, opts, i):
    a = float(rng.uniform(0.4, 1.0))
    ct2 = CoefficientTensor((a, -a))
    ct4 = CoefficientTensor((0.6, -0.6, 0.4, -0.4), beta_prime=0.5)
    return max(
        cauchy_condition_check(ct, k, s, n, m, perturb=opts.perturb).deviation
        for ct, k, s, n, m in (
            (ct2, (1, 0), (0, 1), 5, 6),
            (ct2, (1, 1), (1, 1), 5, 6),
            (ct2, (2, 1), (1, 2), 7, 5),
            (ct4, (1, 1, 0, 0), (0, 1, 0, 1), 6, 5),
            (ct4, (2, 1, 1, 0), (1, 0, 2, 1), 5, 7),
        )
    )


def _expansion(rng, opts, i):
    phi = rng.uniform(-1, 1, 5)
    real_ct = CoefficientTensor((0.8, -0.8), beta_prime=1.0)
    imag_ct = CoefficientTensor((0.8j, -0.8j), beta_prime=1.0)
    cross = relative_deviation(
        closed_product(imag_ct, phi),
        invariant_P(InvariantSpec(0.8j, 1.0, 1.0), phi),
    )
    return (
        expansion_reconstruction_check(real_ct, phi).deviation,
        max(expansion_reconstruction_check(imag_ct, phi).deviation, cross),
    )


def _odd_tensor(rng, opts, i):
    ct = CoefficientTensor((0.5, -0.5, 0.3))
    phi = np.array([0.3, 0.7, -0.2, 0.5])
    return check_time_reversal(lambda p: closed_product(ct, p), phi).deviation


def _closure(rng, opts, i):
    f1 = amplitude_invariant(InvariantSpec(0.7, 0.4, 1.0))
    f2 = amplitude_invariant(InvariantSpec(0.3, 1.1, 2.0))
    phi = rng.uniform(-1, 1, 4)
    xi = rng.uniform(-1, 1, 3)
    return tuple(r.deviation for r in closure_checks((f1, f2), phi, xi))


# ---------------------------------------------------------------------------
# The table, in draw order.

SUITE: tuple[Row, ...] = (
    Row((tol("subluminal_inverse_law", 1e-10, antisymmetric_term=True),),
        200, _subluminal_inverse),
    Row((tol("superluminal_inverse_law", 1e-10,
             antisymmetric_term=lambda o: o.antisymmetric_term),),
        200, _superluminal_inverse),
    Row((tol("light_cone_preservation", 1e-10),), 400, _light_cone),
    Row((tol("interval_sign_flip_1p1", 1e-10),), 200, _sign_flip_1p1),
    Row((tol("interval_sign_flip_1p3", 1e-10),), 200, _sign_flip_1p3),
    Row((tol("subluminal_interval_invariance", 1e-10),), 200, _sub_invariance),
    Row((tol("branch_closure_xor", 1e-10),), 200, _branch_closure),
    Row((tol("velocity_composition_antisymmetry", 1e-12),), 200, _velocity_antisymmetry),
    Row((tol("velocity_matrix_agreement", 1e-10),), 200, _velocity_matrix_agreement),
    Row((gap("rapidity_band", 1e-6),), 200, _rapidity_band),
    Row((tol("k_extraction", 1e-10),), 1, per_trial(_k_extraction), unit=None),
    Row((gap("infinite_speed_limit", 1e-8, speed=INFINITE_LIMIT_SPEED),),
        100, _infinite_limit),
    Row((tol("invariant_symmetry", 1e-9), tol("invariant_time_reversal", 1e-9),
         tol("invariant_multiplicativity", 1e-9)),
        25, _invariant_axioms, unit="instances"),
    Row((floor("sum_fails_multiplicativity", 1e-3),), 10, _sum_fails,
        unit="instances"),
    Row((tol("two_path_interference", 1e-12),), len(TWO_PATH_DELTAS),
        _two_path, unit="deltas"),
    Row((tol("phase_boost_invariance", 1e-10),), 100, _phase_invariance),
    Row((tol("phase_additivity", 1e-12),), 100, _phase_additivity),
    Row((tol("newton_convolution", 1e-9, r_max=NEWTON_R_MAX),), 10, _newton,
        unit="instances"),
    Row((tol("cauchy_condition", 1e-10, perturb=lambda o: o.perturb, orders=[2, 4]),),
        1, per_trial(_cauchy), unit=None),
    Row((gap("expansion_reconstruction_real", 1e-8, alphas="+/-0.8"),
         gap("expansion_matches_invariant", 1e-8, alphas="+/-0.8i")),
        1, per_trial(_expansion), unit=None),
    Row((floor("odd_tensor_breaks_time_reversal", 1e-3, alphas=3),), 1,
        per_trial(_odd_tensor), unit=None),
    Row((tol("closure_product", 1e-9), tol("closure_power", 1e-9),
         tol("closure_ratio", 1e-9), floor("closure_sum", 1e-3)),
        1, per_trial(_closure), unit=None),
)


def run_suite(
    seed: int = 0,
    tolerance: float | None = None,
    break_antisymmetric_term: bool = False,
    perturb_cauchy: float = 0.0,
    timings: dict[str, float] | None = None,
) -> list[CheckReport]:
    """Run every row of SUITE; a fixed seed gives a bit-identical report list.

    tolerance, when given, replaces the default pass tolerance of every
    deviation-style check.  It leaves alone the expected-failure floors and
    the model-gap bounds of rapidity_band (the bands at V = c -/+ 1e-9),
    infinite_speed_limit (W = 1e9 standing in for infinite speed), whose
    deviations of about 1e-9 no tolerance on rounding can shrink, and the two
    expansion checks, whose deviations (up to a few 1e-12) are the
    truncation of the series at 12 terms, within their tail bound.

    The worst deviation of a report is NaN when any of its trials gave NaN,
    and the report then fails, against a tolerance and a floor alike.
    timings, when given, receives the seconds of each row under Row.name.
    """
    rng = np.random.default_rng(whole("seed", seed))
    opts = Opts(not break_antisymmetric_term, perturb_cauchy)
    reports: list[CheckReport] = []
    for row in SUITE:
        start = time.perf_counter()
        devs = np.asarray(row.trial(rng, opts, row.trials), float).reshape(row.trials, -1)
        if timings is not None:
            timings[row.name] = time.perf_counter() - start
        for check, col in zip(row.checks, devs.T):
            # argmax and argmin pick the first NaN, else the first worst trial
            dev = float(col[np.argmin(col) if check.kind == "floor" else np.argmax(col)])
            params = {row.unit: row.trials} if row.unit else {}
            params.update({k: v(opts) if callable(v) else v
                           for k, v in check.params.items()})
            if check.kind == "floor":
                params["expected"] = "failure"
                reports.append(CheckReport(check.name, dev, check.bound,
                                           dev > check.bound, params))
            else:
                fixed = tolerance is None or check.kind == "gap"
                bound = check.bound if fixed else tolerance
                reports.append(CheckReport(check.name, dev, bound, dev <= bound, params))
    return reports


def suite_report(reports: list[CheckReport], seed: int, **run_params) -> dict:
    return {
        "seed": seed,
        "run_params": run_params,
        "checks": [r.to_dict() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }
