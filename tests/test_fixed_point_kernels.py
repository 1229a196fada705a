"""Differential tests: the vectorised fixed-point kernels against the
loop and int64-einsum kernels they replaced.

The oracles below are the package's earlier implementation, kept
verbatim: shift_round looped over the unique shifts, rshift_round
negated through np.where, the gamma MAC was one int64 einsum, the sqrt
LUT found its segment with np.searchsorted, and the pipeline ran each
stage once over the whole map. Every kernel is integer arithmetic, so
the new kernels must agree with them bit for bit, saturation counts
included.
"""

import contextlib
import math
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lic_hw_kit import (
    GdnParams,
    GdnStageFormats,
    Tensor,
    gdn_fixed_with_stats,
    QuantParams,
    igdn_fixed_with_stats,
    quantize_with_stats,
    reciprocal_fixed,
    to_fixed,
)
from lic_hw_kit import fixed_point, gdn
from lic_hw_kit.errors import DomainError, ParameterError, ShapeError
from lic_hw_kit.fixed_point import (
    FixedPointFormat,
    build_sqrt_lut,
    from_fixed,
    rshift_round,
    saturate_q,
    shift_round,
)
from lic_hw_kit.quantizer import int_dtype
from test_fixed_point import python_rshift_round


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


def oracle_eval_int(lut, m_int):
    m_int = np.asarray(m_int, dtype=np.int64)
    if m_int.size and (m_int.min() < lut.knots[0] or m_int.max() >= lut.knots[-1]):
        raise DomainError(
            f"sqrt lut input outside [{lut.lo}, {lut.hi}) after quantization"
        )
    idx = np.searchsorted(lut.knots, m_int, side="right") - 1
    idx = np.clip(idx, 0, lut.segments - 1)
    dx = m_int - lut.knots[idx]
    rise = oracle_rshift_round(lut.slopes[idx] * dx, lut.fmt.frac_bits)
    return lut.intercepts[idx] + rise


@contextlib.contextmanager
def oracle_kernels():
    """Route the package's stage helpers (range-reduced sqrt, LUT,
    reciprocal) through the oracle shifts and the searchsorted LUT."""
    shifts = dict(rshift_round=oracle_rshift_round, shift_round=oracle_shift_round)
    with mock.patch.multiple(fixed_point, **shifts), mock.patch.multiple(gdn, **shifts), \
            mock.patch.object(fixed_point.SqrtLut, "eval_int", oracle_eval_int):
        yield


def oracle_fixed_pipeline(x, params, formats, inverse):
    """The fixed-point pipeline in one pass over the whole map, with the
    int64 einsum MAC, the oracle shifts and the searchsorted LUT."""
    sat = dict.fromkeys(gdn.STAGES, 0)
    f_in, f_sq, f_acc = formats.input, formats.square, formats.accum
    f_root, f_rec, f_out = formats.root, formats.recip, formats.output
    with oracle_kernels():
        x_q, n = to_fixed(x.data, f_in)
        sat["input"] = n
        sq = oracle_rshift_round(x_q * x_q, 2 * f_in.frac_bits - f_sq.frac_bits)
        sq, n = saturate_q(sq, f_sq)
        sat["square"] = n
        beta_q, gamma_q = gdn._quantize_params(params, formats)
        assert not sq.size or int(gamma_q.max()) * int(sq.max()) * x.c < 1 << 62
        acc_raw = np.einsum("ij,njhw->nihw", gamma_q, sq)
        acc = oracle_rshift_round(
            acc_raw, formats.param.frac_bits + f_sq.frac_bits - f_acc.frac_bits
        )
        acc = acc + beta_q[None, :, None, None]
        acc, n = saturate_q(acc, f_acc)
        sat["accum"] = n
        acc = np.maximum(acc, 1)
        lut = gdn._lut_for(f_root)
        root, n = saturate_q(gdn._sqrt_unclamped(acc, f_acc, lut, f_root), f_root)
        sat["root"] = n
        root = np.maximum(root, 1)
        if inverse:
            scale_q, scale_frac = root, f_root.frac_bits
        else:
            recip, moved_in, moved_out = gdn._recip_clamps(root, f_root, f_rec)
            sat["recip"] = int(np.count_nonzero(moved_in)) + int(np.count_nonzero(moved_out))
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
    assert int(gamma.max()) * int(sq.max()) * gamma.shape[0] < 1 << 62
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


# ---------------------------------------------------------------------------
# Blocked pipeline
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _blocks(size):
    """Run the pipeline with _BLOCK = size and record each block's shape."""
    shapes = []

    def spy(x, *args):
        shapes.append(x.shape)
        return block(x, *args)

    block = gdn._fixed_block
    with mock.patch.object(gdn, "_BLOCK", size), mock.patch.object(gdn, "_fixed_block", spy):
        yield shapes


@pytest.mark.parametrize("size", [1, 40, 100])
@pytest.mark.parametrize("bits", [8, 16, 32])
@pytest.mark.parametrize("c", [1, 3, 128])
@pytest.mark.parametrize("inverse", [False, True], ids=["gdn", "igdn"])
def test_small_blocks_match_oracle(size, bits, c, inverse):
    rng = np.random.default_rng([size, bits, c])
    n, h, w = 2, 6, 7
    x = Tensor(np.clip(rng.laplace(0.0, 1.5, (n, c, h, w)), -8.0, 8.0))
    params, formats = _params(rng, c), GdnStageFormats.default(bits)
    fn = igdn_fixed_with_stats if inverse else gdn_fixed_with_stats
    with _blocks(size) as shapes:
        out, stats = fn(x, params, formats)
    ref, sat = oracle_fixed_pipeline(x, params, formats, inverse)
    assert np.array_equal(out.data, ref.data)
    assert stats.saturation == sat
    # every block holds all channels and at most max(size, C) elements,
    # and the blocks cover the map once
    assert all(b[1] == c and b[0] * b[1] * b[2] <= max(size, c) for b in shapes)
    assert sum(b[0] * b[2] for b in shapes) == n * h * w
    assert len(shapes) > 1 or n * c * h * w <= size


def test_blocks_group_whole_images():
    rng = np.random.default_rng(4)
    c = 2
    x = Tensor(rng.uniform(-4.0, 4.0, (5, c, 3, 3)))
    params, formats = _params(rng, c), GdnStageFormats.default(16)
    with _blocks(2 * c * 9) as shapes:
        out, stats = gdn_fixed_with_stats(x, params, formats)
    assert shapes == [(2, c, 9), (2, c, 9), (1, c, 9)]
    ref, sat = oracle_fixed_pipeline(x, params, formats, False)
    assert np.array_equal(out.data, ref.data)
    assert stats.saturation == sat


def test_mac_headroom_error_raised_by_a_later_block():
    c = 4
    formats = GdnStageFormats.default(32)
    params = GdnParams(beta=np.ones(c), gamma=np.full((c, c), 100.0))
    data = np.full((1, c, 4, 4), 0.1)
    data[0, :, 3, 3] = 100.0  # only the last position overflows the MAC
    with _blocks(c) as shapes:
        out, _ = gdn_fixed_with_stats(Tensor(data[:, :, :3]), params, formats)
    assert len(shapes) == 12 and np.isfinite(out.data).all()
    with _blocks(c) as shapes, pytest.raises(ParameterError, match="overflow"):
        gdn_fixed_with_stats(Tensor(data), params, formats)
    assert len(shapes) == 16


# ---------------------------------------------------------------------------
# Sqrt LUT index
# ---------------------------------------------------------------------------


@st.composite
def _luts(draw):
    """A LUT domain, segment count and format that build_sqrt_lut takes,
    with the table's grid span: positive, non-empty, sqrt(hi) in range and
    at least one grid step per segment. Spans reach 2**62, past the direct
    index's bound."""
    total = draw(st.sampled_from([8, 16, 32]))
    fmt = FixedPointFormat(total, draw(st.integers(0, total - 1)))
    one = 1 << fmt.frac_bits
    top = math.floor(fmt.max_value ** 2 * one)
    assume(top >= 3)
    lo = draw(st.integers(1, top - 2))
    hi = draw(st.integers(lo + 2, top))
    segments = draw(st.integers(2, min(hi - lo, 300)))
    domain = (lo / one, hi / one)
    span = int(fixed_point.round_half_away(domain[1] * one)) \
        - int(fixed_point.round_half_away(domain[0] * one))
    assume(segments <= span)
    assume(math.sqrt(domain[1]) <= fmt.max_value)
    return domain, segments, fmt, span


@given(_luts(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_lut_direct_index_matches_searchsorted(spec, seed):
    domain, segments, fmt, span = spec
    if span * segments >= 1 << 63:
        with pytest.raises(ParameterError, match="span"):
            build_sqrt_lut(domain, segments, fmt)
        return
    lut = build_sqrt_lut(domain, segments, fmt)
    k = lut.knots
    rng = np.random.default_rng(seed)
    pts = np.concatenate([k, k - 1, k + 1, rng.integers(k[0], k[-1], 64)])
    pts = pts[(pts >= k[0]) & (pts < k[-1])]
    assert _same(lut.eval_int(pts), oracle_eval_int(lut, pts))
    assert _same(lut.eval_int(pts[0]), oracle_eval_int(lut, pts[0]))
    for outside in (k[0] - 1, k[-1]):
        with pytest.raises(DomainError):
            lut.eval_int(np.array([k[0], outside]))


def test_stock_luts_match_searchsorted_on_every_point():
    for bits in (8, 16):
        formats = GdnStageFormats.default(bits)
        lut = gdn._lut_for(formats.root)
        pts = np.arange(lut.knots[0], lut.knots[-1])
        assert _same(lut.eval_int(pts), oracle_eval_int(lut, pts))


# ---------------------------------------------------------------------------
# Error attribution grid
# ---------------------------------------------------------------------------


def test_grid_q_matches_the_unclamped_cast_inside_int64():
    v = np.array([0.0, 1e-9, 0.75, 3.5, 2.0 ** 30, 2.0 ** 38 - 0.5])
    for f in (0, 8, 24):
        old = np.maximum(fixed_point.round_half_away(v * (1 << f)), 1)
        assert _same(gdn._grid_q(v, f, 1 << 62), old)
    huge = gdn._grid_q(np.array([1e30, 1e300]), 24, 1 << 62)
    assert huge.tolist() == [1 << 62, 1 << 62]


# ---------------------------------------------------------------------------
# Root and reciprocal stage table
# ---------------------------------------------------------------------------


def _helper_stages(acc, formats, inverse):
    """The root and reciprocal stages as the pipeline ran them element by
    element before the table: the root and reciprocal kernels on the
    oracle shifts and LUT, counted from saturate_q and the clamp masks.
    Returns (scale_q, saturation counts)."""
    lut = gdn._lut_for(formats.root)
    with oracle_kernels():
        root, n_root = saturate_q(
            gdn._sqrt_unclamped(acc, formats.accum, lut, formats.root), formats.root
        )
        root = np.maximum(root, 1)
        if inverse:
            return root, {"root": n_root, "recip": 0}
        recip, moved_in, moved_out = gdn._recip_clamps(root, formats.root, formats.recip)
        n_recip = int(np.count_nonzero(moved_in)) + int(np.count_nonzero(moved_out))
    return recip, {"root": n_root, "recip": n_recip}


def _table_stages(acc, formats, inverse):
    """The same two stages served from the per-format table."""
    scale, masks = gdn._stage_table(formats, inverse)
    counts = {"root": 0, "recip": 0}
    for stage, m in masks:
        counts[stage] += int(np.count_nonzero(m[acc]))
    return scale[acc], counts


def _assert_table_matches_helpers(formats, inverse, acc):
    scale, counts = _table_stages(acc, formats, inverse)
    ref, ref_counts = _helper_stages(acc, formats, inverse)
    assert _same(scale, ref)
    assert counts == ref_counts
    return counts


F = FixedPointFormat
# 16-bit accumulator: the root clamps above acc = 63, the shifted root
# clamps into recip above 3.97, and the reciprocal of acc <= 1/16 clamps
_SAT16 = GdnStageFormats(input=F(16, 8), square=F(16, 8), accum=F(16, 8), root=F(8, 4),
                         recip=F(8, 5), output=F(16, 8), param=F(16, 12))
# 8-bit accumulator on whole steps: the root and the shifted root clamp
_SAT8 = GdnStageFormats(input=F(8, 2), square=F(8, 1), accum=F(8, 0), root=F(8, 4),
                        recip=F(8, 5), output=F(8, 2), param=F(8, 5))


@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("inverse", [False, True], ids=["gdn", "igdn"])
def test_stock_stage_tables_match_helpers_on_every_accumulator(bits, inverse):
    formats = GdnStageFormats.default(bits)
    acc = np.arange(1, formats.accum.qmax + 1, dtype=np.int64)
    _assert_table_matches_helpers(formats, inverse, acc)


@pytest.mark.parametrize("formats", [_SAT16, _SAT8], ids=["accum16", "accum8"])
@pytest.mark.parametrize("inverse", [False, True], ids=["gdn", "igdn"])
def test_saturating_stage_tables_match_helpers(formats, inverse):
    acc = np.arange(1, formats.accum.qmax + 1, dtype=np.int64)
    counts = _assert_table_matches_helpers(formats, inverse, acc)
    assert counts["root"] > 0 and (inverse or counts["recip"] > 0)
    if formats is _SAT16 and not inverse:
        _, masks = gdn._stage_table(formats, inverse)
        assert [s for s, _ in masks] == ["root", "recip", "recip"]
    # counts over arbitrary multisets pin every entry's flags, not just the sums
    rng = np.random.default_rng(formats.accum.total_bits)
    for size in (1, 7, 500):
        _assert_table_matches_helpers(formats, inverse, rng.integers(1, acc[-1], size,
                                                                     endpoint=True))


@pytest.mark.parametrize("inverse", [False, True], ids=["gdn", "igdn"])
def test_saturating_stage_table_pipeline_matches_oracle(inverse):
    rng = np.random.default_rng(16)
    c = 4
    data = rng.uniform(-12.0, 12.0, (2, c, 6, 6))
    data[:, :, 0] = 0.0  # accumulators at the floor: the reciprocal clamps
    x = Tensor(data)
    params = GdnParams(beta=np.full(c, 1e-4), gamma=np.eye(c) + 0.01)
    fn = igdn_fixed_with_stats if inverse else gdn_fixed_with_stats
    out, stats = fn(x, params, _SAT16)
    ref, sat = oracle_fixed_pipeline(x, params, _SAT16, inverse)
    assert np.array_equal(out.data, ref.data)
    assert stats.saturation == sat
    assert sat["root"] > 0 and (inverse or sat["recip"] > 0)


@st.composite
def _narrow_formats(draw):
    """Stage formats with an accumulator of 8 or 16 bits and any root and
    recip format the root LUT and the reciprocal accept."""
    def fmt(totals):
        total = draw(st.sampled_from(totals))
        return FixedPointFormat(total, draw(st.integers(0, total - 1)))

    accum, root, recip = fmt([8, 16]), fmt([8, 16, 32]), fmt([8, 16, 32])
    assume(root.max_value >= 2.0 and recip.max_value >= 2.0)
    stock = GdnStageFormats.default(16)
    return GdnStageFormats(input=stock.input, square=stock.square, accum=accum,
                           root=root, recip=recip, output=stock.output,
                           param=stock.param)


@given(_narrow_formats(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_stage_tables_match_helpers_on_narrow_formats(formats, inverse, seed):
    top = formats.accum.qmax
    acc = np.random.default_rng(seed).integers(1, top, 256, endpoint=True)
    _assert_table_matches_helpers(formats, inverse, np.concatenate([[1, top], acc]))


def test_stage_table_built_only_for_narrow_accumulators():
    rng = np.random.default_rng(5)
    c = 3
    params = _params(rng, c)
    x = Tensor(rng.uniform(-4.0, 4.0, (1, c, 4, 4)))
    empty = Tensor(np.zeros((1, c, 0, 4)))
    with mock.patch.object(gdn, "_stage_table", wraps=gdn._stage_table) as spy:
        for bits in (8, 16, 32):
            for fn in (gdn_fixed_with_stats, igdn_fixed_with_stats):
                fn(x, params, GdnStageFormats.default(bits))
                fn(empty, params, GdnStageFormats.default(bits))
    assert [call.args for call in spy.call_args_list] == [
        (GdnStageFormats.default(bits), inverse) for bits in (8, 16) for inverse in (False, True)
    ]


# ---------------------------------------------------------------------------
# Elementwise units in blocks
# ---------------------------------------------------------------------------

# The units' whole-array bodies from before they ran in blocks, kept
# verbatim: each stage of the chain ran once over the whole input.


def whole_to_fixed(x, fmt):
    v, n_sat = fixed_point._round_saturate(np.asarray(x, dtype=np.float64)
                                           * (1 << fmt.frac_bits), fmt.qmin, fmt.qmax)
    return v.astype(np.int64), n_sat


def whole_quantize_with_stats(x, p):
    scaled = np.divide(x, p.scale, dtype=np.float64)
    q, n_sat = fixed_point._round_saturate(scaled, p.qmin, p.qmax)
    return q.astype(int_dtype(p.bits)), n_sat


def whole_shift_round(v, nbits):
    v = np.asarray(v, dtype=np.int64)
    nbits = np.asarray(nbits, dtype=np.int64)
    if nbits.ndim == 0:
        return rshift_round(v, int(nbits))
    shape = np.broadcast_shapes(v.shape, nbits.shape)
    right = np.maximum(nbits, 0)
    r = np.right_shift(v, 63, out=np.empty(shape, dtype=np.int64))
    r += np.int64(1) << right
    u = r.view(np.uint64)
    u >>= np.uint64(1)
    r += v
    r >>= right
    left = np.negative(nbits, out=right)
    r <<= np.maximum(left, 0, out=left)
    return r


def whole_eval_int(lut, m_int):
    m_int = np.asarray(m_int, dtype=np.int64)
    lo, hi = lut.knots[0], lut.knots[-1]
    if m_int.size and (m_int.min() < lo or m_int.max() >= hi):
        raise DomainError(
            f"sqrt lut input outside [{lut.lo}, {lut.hi}) after quantization"
        )
    idx = (m_int - lo) * lut.segments
    idx //= hi - lo
    idx += m_int >= lut.knots[1:][idx]
    dx = m_int - lut.knots[idx]
    rise = rshift_round(lut.slopes[idx] * dx, lut.fmt.frac_bits)
    return lut.intercepts[idx] + rise


def whole_eval(lut, x):
    scaled = np.asarray(x, dtype=np.float64) * (1 << lut.fmt.frac_bits)
    q, _ = fixed_point._round_saturate(scaled, lut.knots[0], lut.knots[-1] - 1)
    return from_fixed(whole_eval_int(lut, q.astype(np.int64)), lut.fmt)


def whole_reciprocal_fixed(d, fmt=FixedPointFormat(32, 24)):
    """Range reduction's shifts run whole-array too."""
    with mock.patch.object(fixed_point, "shift_round", whole_shift_round):
        arr = np.asarray(d, dtype=np.float64)
        d_int, _ = whole_to_fixed(arr, fmt)
        if arr.size and d_int.min() <= 0:
            raise DomainError("reciprocal requires input >= one format step")
        q, _ = saturate_q(fixed_point._reciprocal_unclamped(d_int, fmt), fmt)
        out = from_fixed(q, fmt)
    return float(out) if np.isscalar(d) or arr.ndim == 0 else out


_B = fixed_point._BLOCK
_SIZES = [0, 1, _B - 1, _B, _B + 1, 3 * _B + 7]
_LUT = build_sqrt_lut()
_Q8 = QuantParams(0.5, 0, 8)
_F16 = FixedPointFormat(16, 8)


# name: (blocked unit, whole-array oracle, input maker); each maker turns
# uniform values in [0, 1) into the unit's input, with values that
# saturate where the unit counts saturation
_UNITS = {
    "to_fixed": (lambda x: to_fixed(x, _F16), lambda x: whole_to_fixed(x, _F16),
                 lambda u: 400.0 * u - 200.0),
    "quantize_with_stats": (lambda x: quantize_with_stats(x, _Q8),
                            lambda x: whole_quantize_with_stats(x, _Q8),
                            lambda u: 400.0 * u - 200.0),
    "eval": (_LUT.eval, lambda x: whole_eval(_LUT, x), lambda u: 5.0 * u),
    "eval_int": (_LUT.eval_int, lambda m: whole_eval_int(_LUT, m),
                 lambda u: whole_to_fixed(1.0 + 2.999 * u, _LUT.fmt)[0]),
    "reciprocal_fixed": (reciprocal_fixed, whole_reciprocal_fixed,
                         lambda u: 1e-3 + 300.0 * u * u),
}


def _identical(new, old):
    """Equal type, dtype, shape and bytes; tuples element by element
    (a saturation count compares as an int)."""
    if isinstance(old, tuple):
        return type(new) is tuple and len(new) == len(old) \
            and all(_identical(a, b) for a, b in zip(new, old))
    if type(new) is not type(old):
        return False
    if isinstance(old, (int, float)):
        return new == old
    return new.dtype == old.dtype and new.shape == old.shape \
        and new.tobytes() == old.tobytes()


@pytest.mark.parametrize("name", _UNITS)
@pytest.mark.parametrize("shape", [(n,) for n in _SIZES] + [(3, 5, 4099)], ids=str)
def test_blocked_unit_matches_whole_array_body(name, shape):
    unit, whole, make = _UNITS[name]
    x = make(np.random.default_rng(len(shape) + shape[-1]).uniform(0.0, 1.0, shape))
    assert _identical(unit(x), whole(x))


def test_blocked_units_saturate_across_blocks():
    x = np.random.default_rng(1).uniform(0.0, 1.0, 3 * _B + 7)
    for name in ("to_fixed", "quantize_with_stats"):
        unit, whole, make = _UNITS[name]
        (q, n), (_, n_whole) = unit(make(x)), whole(make(x))
        assert n == n_whole and n > _B  # more saturate than one block holds
        assert type(n) is int


@pytest.mark.parametrize("name", _UNITS)
def test_blocked_unit_keeps_the_scalar_contract(name):
    unit, whole, make = _UNITS[name]
    x0 = make(np.array(0.37))
    for x in (x0, x0[()], x0.item()):
        assert _identical(unit(x), whole(x))


@pytest.mark.parametrize("name", _UNITS)
@pytest.mark.parametrize("shape", [(60, 50), (300, 250)], ids=["one-block", "blocks"])
def test_blocked_unit_casts_other_layouts_and_dtypes(name, shape):
    unit, whole, make = _UNITS[name]
    u = np.random.default_rng(2).uniform(0.0, 1.0, shape)
    for x in (make(u).T, make(u)[::2, ::3], np.asfortranarray(make(u)),
              make(u).astype(np.float32), make(u)[:4].tolist()):
        assert _identical(unit(x), whole(x))


def test_blocked_shift_round_matches_whole_array_body():
    rng = np.random.default_rng(3)
    for shape in [(n,) for n in _SIZES] + [(3, 5, 4099)]:
        v = rng.integers(-(2 ** 61), 2 ** 61, shape)
        n = rng.integers(-63, 64, shape)
        v >>= np.maximum(-n, 0)  # so that each left shift stays inside int64
        assert _identical(shift_round(v, n), whole_shift_round(v, n))
    # broadcast values and counts: every count against every value, in
    # one block and in several; |v| <= 2**40 shifts left by 23 inside int64
    n = np.arange(-23, 64)
    for size in (100, 1000):
        v = rng.integers(-(2 ** 40), 2 ** 40, size)
        assert _identical(shift_round(v[:, None], n[None, :]),
                          whole_shift_round(v[:, None], n[None, :]))
    assert _identical(shift_round(np.int64(-7), n), whole_shift_round(np.int64(-7), n))
    assert _identical(shift_round(v.T, n[:1]), whole_shift_round(v.T, n[:1]))


@pytest.mark.parametrize("name, bad", [
    ("to_fixed", np.nan), ("quantize_with_stats", np.inf), ("eval", np.nan),
    ("eval_int", 1 << 40), ("reciprocal_fixed", np.nan), ("reciprocal_fixed", 0.0),
    ("reciprocal_fixed", -2.0),
])
def test_fault_in_the_last_block_raises_the_same_domain_error(name, bad):
    unit, whole, make = _UNITS[name]
    x = make(np.random.default_rng(4).uniform(0.0, 1.0, 3 * _B + 7))
    x = np.concatenate([x, np.array([bad], dtype=x.dtype)])
    with pytest.raises(DomainError) as old:
        whole(x)
    with pytest.raises(DomainError) as new:
        unit(x)
    assert str(new.value) == str(old.value)


def test_reciprocal_format_error_waits_for_every_block():
    """A format that cannot hold 2 raises ParameterError on good input,
    but a bad value in any block raises its DomainError first."""
    narrow = FixedPointFormat(8, 7)
    good = np.ones(3 * _B + 7)
    with pytest.raises(ParameterError, match="constant 2"):
        reciprocal_fixed(good, narrow)
    for bad in (np.nan, -1.0):
        with pytest.raises(DomainError) as old:
            whole_reciprocal_fixed(np.append(good, bad), narrow)
        with pytest.raises(DomainError) as new:
            reciprocal_fixed(np.append(good, bad), narrow)
        assert str(new.value) == str(old.value)
    assert reciprocal_fixed(np.ones(0), narrow).shape == (0,)


@pytest.mark.parametrize("name", [*_UNITS, "shift_round"])
def test_blocked_unit_peaks_within_its_output_plus_4_mb(name):
    """On 2**20 elements only the output is allocated at full size; the
    whole-array bodies peaked at 2x (to_fixed) to 9x (reciprocal_fixed)
    their output."""
    rng = np.random.default_rng(5)
    u = rng.uniform(0.0, 1.0, 1 << 20)
    if name == "shift_round":
        args = (rng.integers(-(2 ** 40), 2 ** 40, u.size), rng.integers(-20, 40, u.size))
        unit = shift_round
    else:
        unit, _, make = _UNITS[name]
        args = (make(u),)
    del u
    tracemalloc.start()
    try:
        out = unit(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = (out[0] if isinstance(out, tuple) else out).nbytes
    assert peak <= nbytes + (4 << 20), f"{name}: peak {peak / 2 ** 20:.1f} MB"


# ---------------------------------------------------------------------------
# Short paths: a block's min and max decide whether a rounding shift can
# wrap and whether a clamp can move anything. Each decision is checked on
# both sides of its limit, for the path taken and for the integers against
# oracles that share no code with either path.
# ---------------------------------------------------------------------------

_I64_MAX = (1 << 63) - 1


@contextlib.contextmanager
def decisions():
    """Record (caller, short path taken) for every min/max decision."""
    seen = []
    within = fixed_point._within

    def spy(v, lo, hi):
        ok = within(v, lo, hi)
        seen.append((sys._getframe(1).f_code.co_name, ok))
        return ok

    with mock.patch.object(fixed_point, "_within", spy):
        yield seen


def py_shift(v: int, n: int) -> int:
    return python_rshift_round(v, n) if n > 0 else v << -n


def _py_want(v, n):
    v, n = np.broadcast_arrays(np.asarray(v), np.asarray(n))
    want = [py_shift(int(a), int(b)) for a, b in zip(v.ravel(), n.ravel())]
    return np.array(want, dtype=np.int64).reshape(v.shape)


@pytest.mark.parametrize("n", [1, 2, 62, 63])
def test_rounding_shift_wrap_limit_picks_the_path(n):
    """2**63 - 1 - 2**(n - 1) is the largest value whose bias cannot wrap:
    it takes the short path and one more takes the general one, as does
    any block with a negative element."""
    limit = _I64_MAX - (1 << (n - 1))
    for values, short in [([0, 1, limit], True), ([0, 1, limit + 1], False),
                          ([0, 7, 1 << 40], True), ([-1, 7, 1 << 40], False),
                          ([limit], True), ([limit + 1], False)]:
        v = np.array(values, dtype=np.int64)
        want = _py_want(v, n)
        for shift in (lambda: rshift_round(v, n), lambda: shift_round(v, n)):
            with decisions() as seen:
                got = shift()
            assert seen == [("_round_right", short)], values
            assert _same(got, want) and _same(got, oracle_rshift_round(v, n) if short else got)
            assert not np.shares_memory(got, v)
        with decisions() as seen:
            got = rshift_round(np.int64(values[-1]), n)
        assert seen == [("_round_right", values[-1] <= limit)]
        assert got.shape == () and int(got) == py_shift(values[-1], n)


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63])
def test_array_count_wrap_limit_picks_the_path(n):
    """An array of counts bounds every bias by the widest, 2**62: blocks
    below 2**62 take the short path, from 2**62 the general one, and for
    n = 0 the short path adds no bias."""
    for values, short in [([0, 3, (1 << 62) - 1], True), ([0, 3, 1 << 62], False),
                          ([0, 3, _I64_MAX - (1 << n >> 1)], n == 63),
                          ([-1, 3, 5], False), ([0, 0], True)]:
        v = np.array(values, dtype=np.int64)
        counts = np.full(v.shape, n)
        with decisions() as seen:
            got = shift_round(v, counts)
        assert seen == [("_round_right", short)], values
        assert _same(got, _py_want(v, counts))
        if max(values) < 1 << 62:  # the whole-array body wraps past 2**62
            assert _same(got, whole_shift_round(v, counts))
        if n == 0:
            assert _same(got, v) and not np.shares_memory(got, v)


@pytest.mark.parametrize("signed", [False, True])
def test_mixed_counts_match_the_python_oracle(signed):
    """Counts that mix right shifts, zeros and left shifts in one block,
    on non-negative values (short path) and on signed ones (general)."""
    rng = np.random.default_rng(31)
    counts = np.concatenate([np.arange(-20, 41), rng.integers(-20, 41, 500), [0] * 50])
    v = rng.integers(-(1 << 40) if signed else 0, 1 << 40, counts.size)
    v[:3] = [0, 1, (1 << 40) - 1]
    with decisions() as seen:
        got = shift_round(v, counts)
    assert seen == [("_round_right", not signed)]
    assert _same(got, _py_want(v, counts))
    assert _same(got, oracle_shift_round(v, counts))
    assert _same(got, whole_shift_round(v, counts))


def test_zero_counts_keep_non_negative_values():
    """A bias of 2**(n - 1) taken at n = 0 (one, not zero) would add 1."""
    v = np.array([0, 5, 6, 7, (1 << 62) - 1], dtype=np.int64)
    assert shift_round(v, np.zeros(5, dtype=np.int64)).tolist() == v.tolist()
    assert shift_round(v, np.array([0, -1, 0, 1, 0])).tolist() == [0, 10, 6, 4, (1 << 62) - 1]
    assert shift_round(v[:4], np.array([[0], [1]])).tolist() == [[0, 5, 6, 7], [0, 3, 3, 4]]


def _py_clamp(q, fmt):
    q = [int(x) for x in np.ravel(q)]
    out = [min(max(x, fmt.qmin), fmt.qmax) for x in q]
    return out, [a != b for a, b in zip(out, q)]


@pytest.mark.parametrize("fmt", [FixedPointFormat(8, 2), FixedPointFormat(16, 8),
                                 FixedPointFormat(32, 24)], ids=str)
def test_clamp_limits_pick_the_path(fmt):
    """A block reaching exactly qmin and qmax moves nothing and skips the
    clip; one step past either limit takes the general path."""
    lo, hi = fmt.qmin, fmt.qmax
    for values, short in [([lo, 0, hi], True), ([lo], True), ([hi], True),
                          ([lo - 1, 0, hi], False), ([lo, 0, hi + 1], False),
                          ([lo - 1], False), ([hi + 1], False),
                          ([hi + 1, lo - 1, 3], False)]:
        q = np.array(values, dtype=np.int64)
        want, moved = _py_clamp(q, fmt)
        with decisions() as seen:
            clipped, mask = fixed_point._clamp(q, fmt)
            got, count = saturate_q(q, fmt)
        assert seen == [("_clamp", short)] * 2, values
        assert clipped.tolist() == got.tolist() == want
        assert got.dtype == np.int64 and not np.shares_memory(got, q)
        assert mask.dtype == bool and mask.shape == q.shape and mask.tolist() == moved
        assert type(count) is int and count == sum(moved)
        assert q.tolist() == values  # the input is left as it was


def test_clamp_keeps_the_scalar_contract():
    """0-d input returns numpy scalars on either side of the limits."""
    fmt = FixedPointFormat(8, 0)
    for value, want, moved in [(5, 5, False), (127, 127, False), (128, 127, True)]:
        clipped, mask = fixed_point._clamp(np.int64(value), fmt)
        assert type(clipped) is np.int64 and clipped == want
        assert type(mask) is np.bool_ and mask == moved
        q, n = saturate_q(np.array(value), fmt)
        assert type(q) is np.int64 and q == want and n == int(moved)


def _py_round_saturate(x, scale, qmin, qmax):
    """round(x * scale) half away from zero, clamped: (ints, count), in
    exact rationals."""
    out, n = [], 0
    for v in np.ravel(x):
        f = Fraction(float(v)) * Fraction(scale)
        r = math.floor(abs(f) + Fraction(1, 2))
        r = r if f >= 0 else -r
        c = min(max(r, qmin), qmax)
        out.append(c)
        n += c != r
    return out, n


@pytest.mark.parametrize("fmt", [FixedPointFormat(8, 2), FixedPointFormat(16, 8),
                                 FixedPointFormat(32, 24)], ids=str)
def test_rounding_saturation_limits_pick_the_path(fmt):
    """to_fixed: values rounding exactly onto qmin and qmax skip the
    compare, count and clip; one step past takes the general path. The
    tie -(qmax + 0.5) rounds away onto qmin and saturates nothing, and
    +(qmax + 0.5) rounds onto qmax + 1 and saturates."""
    lo, hi, u = fmt.qmin, fmt.qmax, fmt.ulp
    for steps, short in [([lo, 0, hi], True), ([lo - 1, hi], False), ([lo, hi + 1], False),
                         ([-(hi + 0.5)], True), ([hi + 0.5], False),
                         ([-(hi + 0.5), hi + 0.5], False), ([hi - 0.5, -(hi - 0.5)], True),
                         ([lo - 0.5], False), ([hi + 0.49], True)]:
        x = np.array(steps) * u
        want, n_want = _py_round_saturate(x, 1 << fmt.frac_bits, lo, hi)
        with decisions() as seen:
            q, n = to_fixed(x, fmt)
        assert seen == [("_round_saturate", short)], steps
        assert q.tolist() == want and n == n_want
        assert _identical((q, n), whole_to_fixed(x, fmt))


def test_quantize_limits_pick_the_path():
    p = QuantParams(0.25, 0, 8)
    for steps, short in [([-127, 0, 127], True), ([-127.5], False), ([127.49, -127.49], True),
                         ([128], False), ([-128], False)]:
        x = np.array(steps) * p.scale
        want, n_want = _py_round_saturate(x, 4, p.qmin, p.qmax)
        with decisions() as seen:
            q, n = quantize_with_stats(x, p)
        assert seen == [("_round_saturate", short)], steps
        assert q.tolist() == want and n == n_want and q.dtype == np.int8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 2])
def test_non_finite_values_still_raise_on_in_range_blocks(bad, at):
    """A NaN, or an infinity, among values that all lie in range fails
    the range test and reaches the general path's DomainError."""
    x = np.array([1.5, 2.0, 3.0])
    x[at] = bad
    units = [lambda: to_fixed(x, _F16), lambda: quantize_with_stats(x, _Q8),
             lambda: _LUT.eval(x), lambda: reciprocal_fixed(x),
             lambda: fixed_point._round_saturate(x.copy(), -10, 10)]
    for unit in units:
        with pytest.raises(DomainError, match="NaN or infinite|reciprocal"):
            unit()
    with decisions() as seen, pytest.raises(DomainError, match="NaN or infinite"):
        fixed_point._round_saturate(x.copy(), -10, 10)
    assert seen == [("_round_saturate", False)]


def _py_reduce(q, frac, out_frac, octaves):
    out = []
    for x in q:
        k = (int(x).bit_length() - 1 - frac) // octaves
        m = py_shift(int(x), frac + octaves * k - out_frac)
        out.append((min(max(m, 1 << out_frac), (1 << (out_frac + octaves)) - 1), k))
    return out


def test_range_reduction_clip_runs_only_when_rounding_leaves_the_range():
    """_reduce's rounding can reach 2**octaves, the one value outside
    [1, 2**octaves): a block without it skips the clip."""
    for q, short in [([900, 4, 7, 1 << 40], True), ([1023, 4], False), ([(1 << 44) - 1], False)]:
        q = np.array(q, dtype=np.int64)
        with decisions() as seen:
            m, k = fixed_point._reduce(q, 0, 2, 1)
        assert seen[-1] == ("_reduce", short)
        assert list(zip(m.tolist(), k.tolist())) == _py_reduce(q, 0, 2, 1)
    q = np.arange(1, 5000, dtype=np.int64)
    for frac, out_frac, octaves in [(0, 2, 1), (3, 5, 2), (8, 6, 2), (1, 8, 1)]:
        m, k = fixed_point._reduce(q, frac, out_frac, octaves)
        assert list(zip(m.tolist(), k.tolist())) == _py_reduce(q, frac, out_frac, octaves)


def frexp_reduce(q, frac, out_frac, octaves):
    """_reduce as it was: the bit length from np.frexp, k by floor
    division and the clip on every block."""
    bits = np.frexp(q.astype(np.float64))[1].astype(np.int64)
    k = (bits - 1 - frac) // octaves
    m = shift_round(q, frac + octaves * k - out_frac)
    one = np.int64(1) << out_frac
    return np.clip(m, one, (one << octaves) - 1), k


def test_range_reduction_reads_the_exponent_as_frexp_does():
    """Every bit length from 1 to 63, at 2**b - 2 .. 2**b + 2, where a
    float64 above 2**53 rounds up onto the next power of two, and a
    random sample of the positive int64 range."""
    edges = sorted({(1 << b) + d for b in range(64) for d in (-2, -1, 0, 1, 2)
                    if 1 <= (1 << b) + d <= _I64_MAX})
    rng = np.random.default_rng(32)
    q = np.concatenate([np.array(edges, dtype=np.int64), rng.integers(1, _I64_MAX, 4096),
                        rng.integers(1, 1 << 20, 4096)])
    for args in [(0, 2, 1), (24, 24, 1), (24, 24, 2), (26, 24, 1), (8, 10, 2), (0, 30, 2)]:
        m, k = fixed_point._reduce(q, *args)
        m_old, k_old = frexp_reduce(q, *args)
        assert _same(m, m_old) and _same(k, k_old), args


@pytest.mark.parametrize("bits, frac", [(8, 5), (16, 8), (16, 11), (32, 24), (32, 26)])
def test_reciprocal_seed_index_stays_in_the_table(bits, frac):
    """Reduced operands m in [1, 2) index the seed table inside its
    bounds, so the index needs no clip: checked on every grid point of
    [1, 2) for narrow formats and on both ends and a sample for wide."""
    fmt = FixedPointFormat(bits, frac)
    size, seeds = fixed_point._recip_seed_table(fmt)
    one = 1 << frac
    m = np.arange(one, 2 * one, dtype=np.int64) if frac <= 16 else np.concatenate(
        [np.arange(one, one + 4096), np.arange(2 * one - 4096, 2 * one),
         np.random.default_rng(7).integers(one, 2 * one, 4096)])
    idx = ((m - one) * size) >> frac
    assert idx.min() == 0 and idx.max() == size - 1 == len(seeds) - 1
