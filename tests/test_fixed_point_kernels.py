"""Differential tests: the vectorised fixed-point kernels against the
loop and int64-einsum kernels they replaced.

The oracles below are the package's earlier implementation, kept
verbatim: shift_round looped over the unique shifts, rshift_round
negated through np.where, and the gamma MAC was one int64 einsum. Every
kernel is integer arithmetic, so the new kernels must agree with them
bit for bit, saturation counts included.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lic_hw_kit import (
    GdnParams,
    GdnStageFormats,
    Tensor,
    gdn_fixed_with_stats,
    igdn_fixed_with_stats,
    to_fixed,
)
from lic_hw_kit import fixed_point, gdn
from lic_hw_kit.errors import ParameterError, ShapeError
from lic_hw_kit.fixed_point import from_fixed, rshift_round, saturate_q, shift_round


def oracle_rshift_round(v, nbits: int):
    v = np.asarray(v, dtype=np.int64)
    if nbits <= 0:
        return v << (-nbits)
    a = np.abs(v)
    half = np.int64(1) << (nbits - 1)
    r = (a + half) >> nbits
    return np.where(v < 0, -r, r).astype(np.int64)


def oracle_shift_round(v, nbits):
    v = np.asarray(v, dtype=np.int64)
    nbits = np.asarray(nbits, dtype=np.int64)
    if nbits.ndim == 0:
        return oracle_rshift_round(v, int(nbits))
    out = np.empty_like(v)
    for n in np.unique(nbits):
        m = nbits == n
        out[m] = oracle_rshift_round(v[m], int(n))
    return out


@contextlib.contextmanager
def oracle_shifts():
    """Route the package's stage helpers (range-reduced sqrt, LUT,
    reciprocal) through the oracle shifts."""
    shifts = dict(rshift_round=oracle_rshift_round, shift_round=oracle_shift_round)
    with mock.patch.multiple(fixed_point, **shifts), mock.patch.multiple(gdn, **shifts):
        yield


def oracle_fixed_pipeline(x, params, formats, inverse):
    """The fixed-point pipeline with the int64 einsum MAC and the oracle
    shifts."""
    sat = dict.fromkeys(gdn.STAGES, 0)
    f_in, f_sq, f_acc = formats.input, formats.square, formats.accum
    f_root, f_rec, f_out = formats.root, formats.recip, formats.output
    with oracle_shifts():
        x_q, n = to_fixed(x.data, f_in)
        sat["input"] = n
        sq = oracle_rshift_round(x_q * x_q, 2 * f_in.frac_bits - f_sq.frac_bits)
        sq, n = saturate_q(sq, f_sq)
        sat["square"] = n
        beta_q, gamma_q = gdn._quantize_params(params, formats)
        assert gdn._mac_headroom_ok(gamma_q, int(np.max(sq)) if sq.size else 0, x.c)
        acc_raw = np.einsum("ij,njhw->nihw", gamma_q, sq)
        acc = oracle_rshift_round(
            acc_raw, formats.param.frac_bits + f_sq.frac_bits - f_acc.frac_bits
        )
        acc = acc + beta_q[None, :, None, None]
        acc, n = saturate_q(acc, f_acc)
        sat["accum"] = n
        acc = np.maximum(acc, 1)
        lut = gdn._lut_for(f_root, formats.lut_segments)
        root, n = gdn._sqrt_range_reduced(acc, f_acc, lut, f_root)
        sat["root"] = n
        root = np.maximum(root, 1)
        if inverse:
            scale_q, scale_frac = root, f_root.frac_bits
        else:
            recip, n = gdn._recip_stage(root, f_root, f_rec)
            sat["recip"] = n
            scale_q, scale_frac = recip, f_rec.frac_bits
        out = oracle_rshift_round(
            x_q * scale_q, f_in.frac_bits + scale_frac - f_out.frac_bits
        )
        out, n = saturate_q(out, f_out)
        sat["output"] = n
    return Tensor(from_fixed(out, f_out).astype(np.float32)), sat


def _same(new, old):
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype == np.int64 and new.shape == old.shape \
        and np.array_equal(new, old)


# ---------------------------------------------------------------------------
# Shifts
# ---------------------------------------------------------------------------

_values = st.integers(min_value=-(2 ** 40), max_value=2 ** 40)
_shifts = st.integers(min_value=-20, max_value=40)
_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=9)


@st.composite
def _values_and_shifts(draw):
    shape = draw(_shapes)
    v = draw(hnp.arrays(np.int64, shape, elements=_values))
    n = draw(hnp.arrays(np.int64, shape, elements=_shifts))
    return v, n


@given(_values_and_shifts())
@settings(max_examples=300, deadline=None)
def test_shift_round_matches_loop_oracle(vn):
    v, n = vn
    assert _same(shift_round(v, n), oracle_shift_round(v, n))


@given(hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0),
                  elements=_values),
       _shifts)
@settings(max_examples=300, deadline=None)
def test_scalar_shifts_match_oracle(v, n):
    old = oracle_rshift_round(v, n)
    for new in (rshift_round(v, n), shift_round(v, n), shift_round(v, np.int64(n))):
        assert type(new) is type(old)
        assert _same(new, old)


@given(_values, _shifts)
@settings(max_examples=300, deadline=None)
def test_zero_d_inputs_match_oracle(x, n):
    v = np.asarray(x, dtype=np.int64)
    assert _same(rshift_round(v, n), oracle_rshift_round(v, n))
    assert _same(rshift_round(x, n), oracle_rshift_round(x, n))
    # a one-element shift array takes the per-element path
    assert _same(shift_round(v[None], np.array([n])), oracle_shift_round(v[None], [n]))


def test_zero_shift_is_identity():
    v = np.array([-(2 ** 40), -3, -1, 0, 1, 3, 2 ** 40], dtype=np.int64)
    assert _same(rshift_round(v, 0), v)
    assert _same(shift_round(v, np.zeros_like(v)), v)


def test_shift_extremes_match_oracle():
    v = np.array([-(2 ** 61), -5, -1, 0, 1, 5, 2 ** 61], dtype=np.int64)
    for n in (1, 2, 61, 62, 63):
        assert _same(shift_round(v, np.full(v.shape, n)), oracle_rshift_round(v, n))
        assert _same(rshift_round(v, n), oracle_rshift_round(v, n))


def test_shift_round_broadcasts():
    out = shift_round(np.array([5, -5]), np.array([1]))
    assert _same(out, np.array([3, -3]))
    out = shift_round(np.array([[5], [-6]]), np.array([1, 0, -1]))
    assert _same(out, np.array([[3, 5, 10], [-3, -6, -12]]))


def test_shift_round_rejects_shapes_that_do_not_broadcast():
    with pytest.raises(ShapeError, match="do not broadcast"):
        shift_round(np.array([1, 2, 3]), np.array([1, 2]))


# ---------------------------------------------------------------------------
# Gamma MAC
# ---------------------------------------------------------------------------


@st.composite
def _mac_operands(draw):
    """Non-negative gamma and squares inside the MAC's 2**62 headroom,
    with gamma magnitudes that need one to four limbs."""
    c = draw(st.integers(min_value=1, max_value=6))
    g_bits = draw(st.integers(min_value=0, max_value=46))
    s_bits = draw(st.integers(min_value=0, max_value=max(0, 59 - g_bits)))
    seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    gamma = rng.integers(0, 2 ** g_bits, (c, c), endpoint=True)
    sq = rng.integers(0, 2 ** s_bits, (draw(st.integers(1, 2)), c, 3, 5), endpoint=True)
    return gamma, sq


@given(_mac_operands())
@settings(max_examples=200, deadline=None)
def test_gamma_mac_matches_int64_einsum(ops):
    gamma, sq = ops
    assert gdn._mac_headroom_ok(gamma, int(sq.max()), gamma.shape[0])
    assert _same(gdn._gamma_mac(gamma, sq), np.einsum("ij,njhw->nihw", gamma, sq))


def test_gamma_mac_empty_operands_match_einsum():
    for gamma, sq in [(np.zeros((0, 0), np.int64), np.zeros((2, 0, 3, 4), np.int64)),
                      (np.ones((3, 3), np.int64), np.zeros((1, 3, 0, 4), np.int64))]:
        assert _same(gdn._gamma_mac(gamma, sq), np.einsum("ij,njhw->nihw", gamma, sq))


def test_unsplit_float64_gemm_is_not_exact_for_32_bit():
    """Negative control: one float64 GEMM over whole 32-bit squares rounds
    partial sums above 2**53, so the limb split is needed."""
    rng = np.random.default_rng(5)
    c = 128
    formats = GdnStageFormats.default(32)
    gamma_q, _ = to_fixed(rng.uniform(0.0, 1.0, (c, c)), formats.param)
    sq = rng.integers(2 ** 30, formats.square.qmax, (1, c, 8, 8), endpoint=True)
    oracle = np.einsum("ij,njhw->nihw", gamma_q, sq)
    unsplit = (gamma_q.astype(np.float64)
               @ sq.reshape(1, c, -1).astype(np.float64)).astype(np.int64)
    limb_bits = 53 - (int(gamma_q.max()) * c).bit_length()
    assert int(sq.max()).bit_length() > limb_bits
    assert not np.array_equal(unsplit.reshape(oracle.shape), oracle)
    assert _same(gdn._gamma_mac(gamma_q, sq), oracle)


# ---------------------------------------------------------------------------
# Whole pipeline
# ---------------------------------------------------------------------------


def _params(rng, c):
    gamma = rng.uniform(0.0, 1.0, (c, c)) * (0.5 / c) + np.diag(rng.uniform(0.0, 1.0, c))
    return GdnParams(beta=rng.uniform(0.5, 2.0, c), gamma=gamma)


@pytest.mark.parametrize("bits", [8, 16, 32])
@pytest.mark.parametrize("c", [1, 3, 128])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("inverse", [False, True], ids=["gdn", "igdn"])
def test_fixed_pipeline_matches_oracle(bits, c, batch, inverse):
    rng = np.random.default_rng([bits, c, batch])
    x = Tensor(np.clip(rng.laplace(0.0, 1.5, (batch, c, 6, 7)), -8.0, 8.0))
    params, formats = _params(rng, c), GdnStageFormats.default(bits)
    fn = igdn_fixed_with_stats if inverse else gdn_fixed_with_stats
    out, stats = fn(x, params, formats)
    ref, sat = oracle_fixed_pipeline(x, params, formats, inverse)
    assert np.array_equal(out.data, ref.data)
    assert stats.saturation == sat


@pytest.mark.parametrize("inverse", [False, True], ids=["gdn", "igdn"])
def test_saturating_8_bit_matches_oracle(inverse):
    rng = np.random.default_rng(8)
    c = 16
    x = Tensor(rng.uniform(-40.0, 40.0, (2, c, 5, 5)))
    params, formats = _params(rng, c), GdnStageFormats.default(8)
    fn = igdn_fixed_with_stats if inverse else gdn_fixed_with_stats
    out, stats = fn(x, params, formats)
    ref, sat = oracle_fixed_pipeline(x, params, formats, inverse)
    assert np.array_equal(out.data, ref.data)
    assert stats.saturation == sat
    assert sat["input"] > 0 and sat["square"] > 0 and sat["accum"] > 0
    assert sat["output" if inverse else "recip"] > 0


@pytest.mark.parametrize("dims", [(1, 0, 4, 4), (2, 3, 0, 4)])
def test_empty_maps_match_oracle(dims):
    c = dims[1]
    params = GdnParams(beta=np.ones(c), gamma=np.full((c, c), 0.1))
    x = Tensor(np.zeros(dims))
    for inverse, fn in ((False, gdn_fixed_with_stats), (True, igdn_fixed_with_stats)):
        out, stats = fn(x, params, GdnStageFormats.default(32))
        ref, sat = oracle_fixed_pipeline(x, params, GdnStageFormats.default(32), inverse)
        assert out.dims == ref.dims == dims
        assert stats.saturation == sat


def test_mac_headroom_error_kept():
    c = 4
    formats = GdnStageFormats.default(32)
    params = GdnParams(beta=np.ones(c), gamma=np.full((c, c), 100.0))
    x = Tensor(np.full((1, c, 2, 2), 100.0))
    with pytest.raises(ParameterError, match="overflow"):
        gdn_fixed_with_stats(x, params, formats)
