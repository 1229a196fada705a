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

import numpy as np
import pytest

from lic_hw_kit import GdnParams, GdnStageFormats, Tensor, gdn, gdn_float, igdn_float
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
    root = np.sqrt(gdn._pool(x, params))
    formats = GdnStageFormats.default(16)
    for fn, inverse, want in ((gdn_float, False, x64 / root),
                              (igdn_float, True, x64 * root)):
        got = gdn._hybrid_pipeline(x, params, formats, None, inverse)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert np.array_equal(fn(x, params).data, got.astype(np.float32))
