"""The phase-sum kernel on single rows longer than _BLOCK: each row is valued
leaf by leaf along numpy's pairwise summation tree, in buffers of at most
_BLOCK values, with the bits of the one-shot sums.  The comparisons are
against one-shot numpy on the same SIMD dispatch, so they hold on every
dispatch (the CI runs this file a second time with AVX-512 disabled)."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from superlum import (
    CoefficientTensor,
    InvariantSpec,
    NonfiniteResult,
    amplitude,
    closed_product,
    expansion_reconstruction_check,
    invariant_P,
)
from superlum import invariants
from superlum.invariants import SAFE_EXPONENT, _added, _leaves, _log_sums, _long_row

BLOCKS = st.integers(64, 4096)


def _at_block(block: int, call):
    """call() with the kernel's _BLOCK set to block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "_BLOCK", block)
        return call()


def _outcome(call):
    """repr of call()'s value, which shows every bit of its floats, or the
    type and message of the NonfiniteResult it raises."""
    try:
        return repr(call())
    except NonfiniteResult as exc:
        return "NonfiniteResult", str(exc)


@st.composite
def _long_lengths(draw):
    """A block and a row length above it: near a multiple of the block,
    where the tree gains a level, on every residue mod 8 that moves numpy's
    split, or anywhere up to 16 blocks."""
    block = draw(BLOCKS)
    near = block * draw(st.sampled_from((1, 2, 3, 4, 8, 16))) + draw(st.integers(-17, 17))
    return block, draw(st.one_of(st.just(max(block + 1, near)),
                                 st.integers(block + 1, 16 * block)))


@given(_long_lengths(), st.sampled_from((np.float64, np.complex128)), st.integers(0, 2**32 - 1))
@example((64, 65), np.float64, 0)  # rows within numpy's block of 128: one leaf
@example((64, 129), np.float64, 0)
@example((64, 65), np.complex128, 0)
@example((4096, 4097), np.complex128, 1)
@example((4096, 3 * 4096 + 5), np.float64, 2)
def test_leaf_sums_added_along_the_tree_are_numpys_one_shot_sum(lengths, dtype, seed):
    """Values of widely spread magnitudes and both signs, so that another
    order of additions moves bits: the leaves tile the row, each fits in
    the block or in numpy's own block of 128 floats, and their sums added
    by _added have the bits of x.sum()."""
    block, n = lengths
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    if dtype is np.complex128:
        x = x + 1j * rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
    parts = _at_block(block, lambda: _leaves(x, dtype, 2))
    assert np.concatenate([part for part, *_ in parts]).tobytes() == x.tobytes()
    width = 2 if dtype is np.complex128 else 1
    for part, out, spare, _ in parts:
        assert part.size <= max(block, 128 // width)
        assert out.shape == spare.shape == part.shape and out.dtype == spare.dtype == dtype
        assert not np.shares_memory(out, x) and not np.shares_memory(out, spare)
    total = _added([((part.sum(),), depth) for part, _, _, depth in parts])[0]
    assert total.tobytes() == x.sum().tobytes()


def test_only_a_single_row_of_more_than_block_phases_is_walked():
    n = invariants._BLOCK
    assert _long_row(np.ones(n + 1), None)
    assert not _long_row(np.ones(n), None)
    assert not _long_row(np.ones((2, n + 1)), None)  # a block of scan rows
    assert not _long_row(np.ones(n + 1), np.array([n, 1]))  # ragged rows


KINDS = ("imaginary", "real", "real far", "complex", "complex far")


@st.composite
def _long_rows(draw):
    """A block, a spec of one kind of alpha and a row of more than block
    phases: with a reach |Re(alpha)| * max|phi| past SAFE_EXPONENT for the
    far kinds (so that the kernel takes its shifted branch) and below it
    otherwise; some rows hold exact zeros of either sign."""
    block = draw(BLOCKS)
    n = draw(st.integers(block + 1, 6 * block))
    kind = draw(st.sampled_from(KINDS))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    mag = draw(st.floats(0.1, 3.0))
    alpha = (complex(0.0, sign * mag) if kind == "imaginary"
             else complex(sign * mag, 0.0) if kind.startswith("real")
             else complex(sign * mag, draw(st.floats(-3.0, 3.0))))
    far = kind.endswith("far")
    top = (SAFE_EXPONENT * draw(st.floats(1.1, 3.0)) if far else 0.8 * SAFE_EXPONENT) / mag
    low = -top if draw(st.booleans()) else 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.uniform(low, top, n)
    if draw(st.booleans()):
        phi[rng.integers(0, n, 5)] = 0.0
        phi[rng.integers(0, n, 5)] = -0.0
    gamma = draw(st.floats(0.05, 0.2)) if far else draw(st.floats(0.5, 1.5))
    return block, InvariantSpec(alpha, draw(st.floats(0.0, 2.0)), gamma), phi


@given(_long_rows())
def test_the_kernel_on_a_long_row_is_the_one_shot_kernel_bit_for_bit(case):
    block, spec, phi = case
    want = _at_block(phi.size + 1, lambda: _log_sums(spec.alpha, phi))
    kept = phi.copy()
    got = _at_block(block, lambda: _log_sums(spec.alpha, phi, scratch=np.empty_like(phi)))
    assert phi.tobytes() == kept.tobytes()  # the walk never writes the caller's phases
    for a, b in zip(got, want, strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


@given(_long_rows())
def test_invariant_P_amplitude_and_closed_product_on_long_rows_are_one_shot(case):
    """Each call with _BLOCK below the row's length against the same call
    with _BLOCK above it, value or NonfiniteResult message alike."""
    block, spec, phi = case
    alpha = spec.alpha
    ct = CoefficientTensor((alpha, -alpha, 0.5 * alpha), spec.beta)
    for call in (lambda: invariant_P(spec, phi), lambda: amplitude(phi, abs(alpha)),
                 lambda: closed_product(ct, phi)):
        assert _at_block(block, lambda: _outcome(call)) == \
            _at_block(phi.size + 1, lambda: _outcome(call))


@given(BLOCKS, st.integers(1, 5), st.sampled_from(("real", "imaginary", "complex")),
       st.integers(0, 2**32 - 1))
def test_the_expansion_check_on_a_long_row_is_one_shot(block, blocks, kind, seed):
    """The check's closed product and series tail bound come from the
    kernel; small phases keep the tail within tol, so the report is valued."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(-0.05, 0.05, block * blocks + int(rng.integers(1, block)))
    a = float(rng.uniform(0.3, 1.0))
    alpha = {"real": a, "imaginary": 1j * a, "complex": complex(a, 0.5)}[kind]
    ct = CoefficientTensor((alpha, -alpha), 1.0)

    def call():
        return expansion_reconstruction_check(ct, phi, truncation=12, tol=1e-8)

    got = _at_block(block, lambda: _outcome(call))
    assert got == _at_block(phi.size + 1, lambda: _outcome(call))
    assert got.startswith("CheckReport(")


def _planted(n: int, value: float, *where: int) -> np.ndarray:
    phi = np.linspace(0.0, 3.0, n)
    phi[list(where)] = value
    return phi


@pytest.mark.parametrize("call, value, message", [
    (lambda phi: invariant_P(InvariantSpec(1e308j, 0, 1), phi), 1e308,
     r"alpha \* phase {k} = 1e\+308j \* 1e\+308 = 10\*\*616 does not fit in a float"),
    (lambda phi: amplitude(phi, 1e10), -3e300,
     r"alpha_mag \* phase {k} = 10000000000\.0 \* -3e\+300 = 10\*\*310\.477 does not fit"),
    (lambda phi: invariant_P(InvariantSpec(1e200 + 1e200j, 0, 1), phi), 1e200,
     r"alpha \* phase {k} = \(1e\+200\+1e\+200j\) \* 1e\+200 = 10\*\*400\.151 does not fit"),
    (lambda phi: invariant_P(InvariantSpec(1 + 1e200j, 0, 1), phi), 1e200,
     r"alpha \* phase {k} = \(1\+1e\+200j\) \* 1e\+200 = 10\*\*400 does not fit"),
    (lambda phi: invariant_P(InvariantSpec(1e200, 0, 1), phi), -1e200,
     r"alpha \* phase {k} = \(1e\+200\+0j\) \* -1e\+200 = 10\*\*400 does not fit"),
], ids=["half angle", "amplitude half angle", "complex product", "imaginary part", "real product"])
@pytest.mark.parametrize("where", [(0, 999), (500, 501), (999,)])
def test_a_long_row_names_the_phase_that_overflows_as_one_shot(call, value, message, where):
    """A half angle omega*phi/2 with |omega| > 2, or an alpha*phi, beyond a
    float, planted in the first, a middle or the last leaf (and a later
    one): the walk names the first such phase of the whole row, with the
    one-shot message, and no RuntimeWarning escapes."""
    phi = _planted(1000, value, *where)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _at_block(64, lambda: _outcome(lambda: call(phi)))
        assert got == _at_block(2000, lambda: _outcome(lambda: call(phi)))
    assert got[0] == "NonfiniteResult"
    assert re.search(message.format(k=where[0]), got[1])


@pytest.mark.parametrize("alpha, value", [(1e308j, 1e308), (1e200, -1e200)])
def test_a_long_row_given_scratch_is_not_written_and_names_its_phase(alpha, value):
    """A scratch array is for rows valued in one pass, which it lets
    overwrite: a long row is walked in the kernel's own buffers, so its
    phase beyond a float can still be named."""
    phi = _planted(1000, value, 700)
    kept = phi.copy()
    with pytest.raises(NonfiniteResult, match=rf"alpha \* phase 700 = \(?{re.escape(repr(alpha))}"):
        _at_block(64, lambda: _log_sums(alpha, phi, scratch=np.empty_like(phi)))
    assert phi.tobytes() == kept.tobytes()


@pytest.mark.parametrize("call", [
    lambda phi: invariant_P(InvariantSpec(1.1j, 2.0, 1.0), phi),
    lambda phi: invariant_P(InvariantSpec(0.6, 2.0, 1.0), phi),
    lambda phi: invariant_P(InvariantSpec(300.0, 2.0, 0.5), phi),
    lambda phi: amplitude(phi),
], ids=["imaginary", "real", "real past SAFE_EXPONENT", "amplitude"])
def test_a_long_row_is_valued_within_two_mb(call):
    """10**6 phases (8 MB): the kernel works in leaf buffers, and the input
    check makes no array of the phases' size.  One-shot passes peaked at
    15.3, 7.6, 22.9 and 15.3 MiB."""
    phi = np.random.default_rng(0).uniform(0.0, math.pi, 10**6)
    call(phi)
    tracemalloc.start()
    try:
        call(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
