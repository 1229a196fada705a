"""Differential tests: the BLAS-backed float GDN pool against the einsum
pool it replaced.

einsum_pool below is the arithmetic of the package's earlier _pool, kept
verbatim on raw arrays as the oracle. Both accumulate in float64 and
round once to float32; only the order of the float64 additions over
channels differs, so gdn_float and igdn_float must agree with the oracle
to within one float32 spacing of each element plus 1e-9 of the largest
magnitude.

The error attribution's float64 pipeline with no stage quantized must be
the float reference's own arithmetic, pool included, bit for bit.
"""

import math
from unittest import mock

import numpy as np
import pytest

from lic_hw_kit import (GdnParams, GdnStageFormats, Tensor, gdn, gdn_error_report,
                        gdn_fixed_with_stats, gdn_float, igdn_float)
from conftest import within_float64_accumulation


def einsum_pool(x, beta, gamma):
    sq = x.astype(np.float64) ** 2
    acc = np.einsum("ij,njhw->nihw", gamma, sq)
    return acc + beta[None, :, None, None]


def einsum_gdn(x, params, inverse):
    scale = einsum_pool(x, params.beta, params.gamma) ** params.alpha
    x64 = x.astype(np.float64)
    return (x64 * scale if inverse else x64 / scale).astype(np.float32)


def float32_pool_gdn(x, params):
    """The pool as a float32 GEMM: the fault the tolerance must catch."""
    n, c, h, w = x.shape
    sq = (x * x).reshape(n, c, h * w)
    acc = params.gamma.astype(np.float32) @ sq
    base = acc.reshape(x.shape) + params.beta.astype(np.float32)[None, :, None, None]
    return x / np.sqrt(base)


def random_params(c, rng):
    return GdnParams(beta=rng.uniform(0.5, 2.0, c),
                     gamma=rng.uniform(0.0, 1.0, (c, c)) * (1.0 / max(c, 1)))


def check_gdn(x, params):
    for fn, inverse in ((gdn_float, False), (igdn_float, True)):
        got = fn(Tensor(x), params)
        assert got.data.dtype == np.float32
        assert got.data.flags.c_contiguous
        want = einsum_gdn(x, params, inverse)
        assert got.dims == want.shape
        assert within_float64_accumulation(got.data, want)


@pytest.mark.parametrize("c", [1, 3, 8, 128])
@pytest.mark.parametrize("n", [1, 2])
def test_float_gdn_matches_einsum_pool(c, n):
    rng = np.random.default_rng([c, n])
    params = random_params(c, rng)
    x = rng.normal(0.0, 2.0, (n, c, 5, 7)).astype(np.float32)
    check_gdn(x, params)


# The shapes above at alpha 1.0 and 0.25, so the power stage cannot pass
# as a square root, which is all alpha 0.5 (np.sqrt above) can show.
@pytest.mark.parametrize("alpha", [1.0, 0.25])
@pytest.mark.parametrize("c,h,w", [(c, e, e) for c in (1, 3, 8, 128, 160, 192) for e in (57, 15)]
                         + [(c, 1, 40000) for c in (1, 3, 8)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocked_float_gdn_power_is_the_whole_map_power(alpha, c, h, w, n):
    rng = np.random.default_rng([c, n, h, w])
    p = random_params(c, rng)
    params = GdnParams(beta=p.beta, gamma=p.gamma, alpha=alpha)
    x = rng.normal(0.0, 2.0, (n, c, h, w)).astype(np.float32)
    x64 = x.astype(np.float64)
    scale = whole_map_pool(x, params.beta, params.gamma) ** alpha
    for fn, want in ((gdn_float, x64 / scale), (igdn_float, x64 * scale)):
        assert fn(Tensor(x), params).data.tobytes() == want.astype(np.float32).tobytes()


@pytest.mark.parametrize("c,dims", [(0, (1, 0, 3, 4)), (0, (2, 0, 0, 5)),
                                    (3, (2, 3, 0, 5)), (3, (1, 3, 4, 0)),
                                    (3, (0, 3, 4, 4))])
def test_empty_maps_match_einsum_pool(c, dims):
    params = random_params(c, np.random.default_rng(c))
    x = np.zeros(dims, dtype=np.float32)
    for fn, inverse in ((gdn_float, False), (igdn_float, True)):
        got = fn(Tensor(x), params).data
        want = einsum_gdn(x, params, inverse)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_tolerance_rejects_float32_pool():
    """Negative control: at 128 channels a float32 pool misses the
    tolerance, so the differential tests would catch a kernel that
    dropped the float64 accumulator."""
    rng = np.random.default_rng(7)
    params = random_params(128, rng)
    x = rng.normal(0.0, 2.0, (1, 128, 5, 7)).astype(np.float32)
    want = einsum_gdn(x, params, inverse=False)
    bad = float32_pool_gdn(x, params)
    assert bad.shape == want.shape
    assert not within_float64_accumulation(bad, want)


@pytest.mark.parametrize("c", [8, 64, 128])
def test_unquantized_attribution_is_the_float_reference(c):
    rng = np.random.default_rng(c)
    params = random_params(c, rng)
    x = Tensor(rng.normal(0.0, 2.0, (2, c, 5, 7)).astype(np.float32))
    x64 = x.data.astype(np.float64)
    root = np.sqrt(gdn._blockwise(
        lambda xb: gdn._block_pool(xb.astype(np.float64) ** 2, params.gamma, params.beta),
        x.data,
    ))
    formats = GdnStageFormats.default(16)
    for fn, inverse, want in ((gdn_float, False, x64 / root),
                              (igdn_float, True, x64 * root)):
        got = gdn._hybrid_pipeline(x, params, formats, None, inverse)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert np.array_equal(fn(x, params).data, got.astype(np.float32))


# ---------------------------------------------------------------------------
# Blocked float GDN against the whole-map product
# ---------------------------------------------------------------------------


def whole_map_pool(x, beta, gamma):
    """The package's previous _pool: one float64 gamma @ sq product over
    each whole image."""
    n, c, h, w = x.shape
    sq = x.astype(np.float64) ** 2
    acc = (gamma @ sq.reshape(n, c, h * w)).reshape(x.shape)
    return acc + beta[None, :, None, None]


def check_blocked_float(x, params):
    """gdn_float and igdn_float must equal the whole-map arithmetic byte
    for byte. So must the error attribution's stage-free float64 pass at
    every position in a whole 8-position GEMM tile. A map's last P mod 8
    positions go through a BLAS remainder kernel whose order of additions
    depends on the product's size (and, for the whole-map product, on the
    BLAS thread count), so there the float64 pass must agree to float64
    rounding; the float32 outputs still match, as a pool one float64 ulp
    apart rounds to the same float32 unless it sits within that ulp of a
    float32 rounding boundary."""
    n, c, h, w = x.shape
    x64 = x.astype(np.float64)
    root = np.sqrt(whole_map_pool(x, params.beta, params.gamma))
    formats = GdnStageFormats.default(16)
    tiled = (h * w) - (h * w) % 8
    for fn, inverse, want in ((gdn_float, False, x64 / root),
                              (igdn_float, True, x64 * root)):
        got = fn(Tensor(x), params).data
        assert got.tobytes() == want.astype(np.float32).tobytes()
        hyb = gdn._hybrid_pipeline(Tensor(x), params, formats, None, inverse)
        assert hyb.dtype == np.float64 and hyb.shape == want.shape
        hyb, want = hyb.reshape(n, c, h * w), want.reshape(n, c, h * w)
        assert hyb[..., :tiled].tobytes() == want[..., :tiled].tobytes()
        assert np.all(np.abs(hyb - want) <= 1e-13 * np.abs(want))
        if c <= 8:
            assert hyb.tobytes() == want.tobytes()


# 57 x 57 and 15 x 15 leave one position past whole tiles; at C = 160 a
# panel of 2**19 // C**2 = 20 columns is cut to 16, at C = 192 blocks of
# 170 positions to 168; 1 x 40000 spans 10 blocks at C = 8.
@pytest.mark.parametrize("c,h,w", [(c, e, e) for c in (1, 3, 8, 128, 160, 192) for e in (57, 15)]
                         + [(c, 1, 40000) for c in (1, 3, 8)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocked_float_gdn_is_the_whole_map_product(c, h, w, n):
    rng = np.random.default_rng([c, n, h, w])
    params = random_params(c, rng)
    check_blocked_float(rng.normal(0.0, 2.0, (n, c, h, w)).astype(np.float32), params)


@pytest.mark.parametrize("c,dims", [(0, (1, 0, 3, 4)), (0, (2, 0, 0, 5)),
                                    (3, (2, 3, 0, 5)), (3, (1, 3, 4, 0)),
                                    (3, (0, 3, 4, 4))])
def test_blocked_float_gdn_on_empty_maps(c, dims):
    check_blocked_float(np.zeros(dims, dtype=np.float32),
                        random_params(c, np.random.default_rng(c)))


# ---------------------------------------------------------------------------
# GEMM shapes: every channel-mix product stays on the calling BLAS thread
# ---------------------------------------------------------------------------


def _gemm_inputs(kind):
    """A 128-channel 64 x 64 Laplacian map, or the 8-channel 1 x 12500
    corpus of the error reports, with GDN parameters for it."""
    rng = np.random.default_rng(11)
    if kind == "map128":
        x = np.clip(rng.laplace(0.0, 1.0, (1, 128, 64, 64)), -8.0, 8.0)
        return Tensor(x), random_params(128, rng)
    params = GdnParams(beta=rng.uniform(1.0, 2.0, 8),
                       gamma=rng.uniform(0.0, 1.0, (8, 8)) * (0.1 / 8))
    return Tensor(rng.uniform(-8.0, 8.0, (1, 8, 1, 12500))), params


# entry point -> (call, float pools it evaluates)
_ENTRIES = {
    "gdn_float": (lambda x, p: gdn_float(x, p), 1),
    "igdn_float": (lambda x, p: igdn_float(x, p), 1),
    **{f"fixed{b}": (lambda x, p, b=b: gdn_fixed_with_stats(x, p, GdnStageFormats.default(b)), 0)
       for b in (8, 16, 32)},
    # the float reference and the six one-stage hybrids
    **{f"report{b}": (lambda x, p, b=b: gdn_error_report(p, GdnStageFormats.default(b), x), 7)
       for b in (8, 16, 32)},
}


def _limbs(gamma_q, sq):
    """Limb GEMMs _gamma_mac runs for one block: ceil(top / b) for squares
    of top bits and limbs of b = 53 - bit_length(max(gamma_q) * C) bits."""
    b = 53 - (int(gamma_q.max()) * sq.shape[1]).bit_length()
    return max(1, math.ceil(int(sq.max()).bit_length() / b))


@pytest.mark.parametrize("entry", list(_ENTRIES))
@pytest.mark.parametrize("kind", ["map128", "corpus8"])
def test_channel_mix_gemms_stay_single_threaded(entry, kind):
    """Every np.matmul that gdn.py makes is a (C, C) @ (C, w) product of at
    most 2**19 multiply-adds per image, small enough for OpenBLAS to run on
    the calling thread; its column operand's C rows lie within one block;
    and the products cover C**2 multiply-adds per position per pool or
    limb, so no channel sum runs outside np.matmul."""
    x, params = _gemm_inputs(kind)
    call, float_pools = _ENTRIES[entry]
    c, positions = x.c, x.n * x.h * x.w
    with mock.patch.object(np, "matmul", wraps=np.matmul) as mm, \
            mock.patch.object(gdn, "_gamma_mac", wraps=gdn._gamma_mac) as mac:
        call(x, params)
    macs = 0
    for args, _ in mm.call_args_list:
        a, v = args[:2]
        assert a.shape == (c, c) and v.shape[-2] == c
        assert c * c * v.shape[-1] <= 1 << 19
        assert v.strides[-2] // v.itemsize * c <= gdn._BLOCK
        macs += math.prod(v.shape[:-2]) * c * c * v.shape[-1]
    limb_positions = sum(_limbs(*args) * (args[1].size // c)
                         for args, _ in mac.call_args_list)
    assert mm.call_count > 0
    assert macs == c * c * (float_pools * positions + limb_positions)
