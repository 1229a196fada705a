"""Differential tests: the BLAS-backed conv/deconv kernels against the
per-tap einsum kernels they replaced.

The einsum kernels below are the package's earlier implementation,
kept verbatim on raw arrays as the oracle. Both accumulate in float64
and round once to float32; only the order of the float64 additions
inside a tap differs, so results must agree to within one float32
spacing of each element plus 1e-9 of the largest magnitude. The grouped
deconv is also held byte for byte to the one-GEMM-per-tap deconv it
replaced.
"""

from unittest import mock

import numpy as np
import pytest

from lic_hw_kit import Tensor, conv2d_forward, deconv2d_forward, model
from conftest import make_conv, within_float64_accumulation


def einsum_conv(x, weights, bias, stride, padding):
    n, _, h, w = x.shape
    cout, _, k, _ = weights.shape
    s, p = stride, padding
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    padded = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (p, p), (p, p)))
    w64 = weights.astype(np.float64)
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            window = padded[:, :, ky:ky + s * oh:s, kx:kx + s * ow:s]
            out += np.einsum("nihw,oi->nohw", window, w64[:, :, ky, kx])
    out += bias.astype(np.float64)[None, :, None, None]
    return out.astype(np.float32)


def einsum_deconv(x, weights, bias, stride, padding):
    n, _, h, w = x.shape
    cout, _, k, _ = weights.shape
    s, p = stride, padding
    oh = (h - 1) * s - 2 * p + k
    ow = (w - 1) * s - 2 * p + k
    x64 = x.astype(np.float64)
    w64 = weights.astype(np.float64)
    full = np.zeros((n, cout, (h - 1) * s + k, (w - 1) * s + k),
                    dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            contrib = np.einsum("nihw,oi->nohw", x64, w64[:, :, ky, kx])
            full[:, :, ky:ky + s * h:s, kx:kx + s * w:s] += contrib
    out = full[:, :, p:p + oh, p:p + ow] \
        + bias.astype(np.float64)[None, :, None, None]
    return out.astype(np.float32)


def per_tap_deconv(x, layer):
    """The package's previous deconv2d_forward, one (C_out, C_in) GEMM
    per tap added in tap order: the tap groups must match it byte for
    byte, since stacking taps changes no row's dot product."""
    n, cin, h, w = x.shape
    cout, k, s, p = layer.out_channels, layer.kernel, layer.stride, layer.padding
    oh, ow = model.layer_output_dims(layer, h, w)
    xcols = x.transpose(1, 0, 2, 3).reshape(cin, -1).astype(np.float64)
    taps = model._tap_weights(layer)
    prod = np.empty((cout, n, h, w), dtype=np.float64)
    full = np.zeros((cout, n, (h - 1) * s + k, (w - 1) * s + k), dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            np.matmul(taps[ky, kx], xcols, out=prod.reshape(cout, -1))
            full[:, :, ky:ky + s * h:s, kx:kx + s * w:s] += prod
    out = full[:, :, p:p + oh, p:p + ow] \
        + layer.bias.astype(np.float64)[:, None, None, None]
    return out.transpose(1, 0, 2, 3).astype(np.float32)


def float32_gemm_conv(x, weights, bias, stride, padding):
    """The per-tap GEMM with a float32 accumulator: the fault the
    tolerance must catch."""
    n, cin, h, w = x.shape
    cout, _, k, _ = weights.shape
    s, p = stride, padding
    oh = (h + 2 * p - k) // s + 1
    ow = (w + 2 * p - k) // s + 1
    padded = np.pad(x.transpose(1, 0, 2, 3), ((0, 0), (0, 0), (p, p), (p, p)))
    acc = np.zeros((cout, n * oh * ow), dtype=np.float32)
    for ky in range(k):
        for kx in range(k):
            cols = padded[:, :, ky:ky + s * oh:s, kx:kx + s * ow:s]
            acc += weights[:, :, ky, kx] @ cols.reshape(cin, -1)
    acc += bias[:, None]
    return acc.reshape(cout, n, oh, ow).transpose(1, 0, 2, 3)


def conv_extent(k, s, p, base):
    """The first extent >= base whose conv span (h + 2p - k) is not a
    multiple of the stride, when the stride is above 1."""
    h = base
    while s > 1 and (h + 2 * p - k) % s == 0:
        h += 1
    return h


def check_kernel(fn, oracle, x, layer):
    got = fn(Tensor(x), layer)
    assert isinstance(got, Tensor)
    assert got.data.dtype == np.float32
    assert got.data.flags.c_contiguous
    want = oracle(x, layer.weights, layer.bias, layer.stride, layer.padding)
    assert got.dims == want.shape
    assert within_float64_accumulation(got.data, want)


GRID = [(k, s, p, n)
        for k in (1, 3, 5) for s in (1, 2, 3) for p in (0, 1, 2) for n in (1, 2)]


@pytest.mark.parametrize("k,s,p,n", GRID)
def test_conv_matches_einsum_oracle(k, s, p, n):
    rng = np.random.default_rng([k, s, p, n])
    h = conv_extent(k, s, p, 9)
    w = conv_extent(k, s, p, h + 2)
    layer = make_conv(3, 4, k=k, s=s, p=p, rng=rng)
    x = rng.normal(0.0, 1.0, (n, 3, h, w)).astype(np.float32)
    check_kernel(conv2d_forward, einsum_conv, x, layer)


@pytest.mark.parametrize("k,s,p,n", GRID)
def test_deconv_matches_einsum_oracle(k, s, p, n):
    rng = np.random.default_rng([k, s, p, n, 1])
    h = conv_extent(k, s, p, 5)
    w = conv_extent(k, s, p, h + 2)
    layer = make_conv(3, 4, k=k, s=s, p=p, rng=rng, kind="deconv")
    x = rng.normal(0.0, 1.0, (n, 3, h, w)).astype(np.float32)
    check_kernel(deconv2d_forward, einsum_deconv, x, layer)


def order_sensitive_deconv(layer, rng):
    """The layer with each tap's weights either a constant +-2**60 or
    noise scaled by 1e-20, at random, and no bias. On an all-ones input
    the huge taps cancel exactly only in some orders of the tap adds,
    and a tiny term survives only after they have, so a change in tap
    order shows in the float32 output."""
    cout, cin, k, _ = layer.weights.shape
    huge = rng.choice([-2.0**60, 2.0**60], (1, 1, k, k))
    tiny = rng.normal(0.0, 1.0, layer.weights.shape) * 1e-20
    weights = np.where(rng.random((k, k)) < 0.5, huge, tiny).astype(np.float32)
    return model.LayerSpec(kind="deconv", in_channels=cin, out_channels=cout, kernel=k,
                           stride=layer.stride, padding=layer.padding, weights=weights,
                           bias=np.zeros(cout, dtype=np.float32))


@pytest.mark.parametrize("cout", [1, 3, 5, 48, 64, 128, 192])
@pytest.mark.parametrize("cin", [1, 3, 128])
def test_deconv_tap_groups_match_per_tap_kernel(cin, cout):
    """Groups of min(K^2, 128 // C_out) taps, ragged last groups included,
    against the per-tap GEMMs byte for byte, at 1x1, 3x3 and 5x5 kernels,
    strides 1 and 2 and batches of 1 and 2, on random and on
    order-sensitive weights."""
    for k in (1, 3, 5):
        for s in (1, 2):
            for n in (1, 2):
                rng = np.random.default_rng([cin, cout, k, s, n])
                layer = make_conv(cin, cout, k=k, s=s, p=k // 2, rng=rng, kind="deconv")
                x = rng.normal(0.0, 1.0, (n, cin, 6, 9)).astype(np.float32)
                cases = ((layer, x), (order_sensitive_deconv(layer, rng), np.ones_like(x)))
                for case, inp in cases:
                    got = deconv2d_forward(Tensor(inp), case).data
                    assert got.tobytes() == per_tap_deconv(inp, case).tobytes()


@pytest.mark.parametrize("cout,gemms", [(3, 1), (5, 1), (48, 13), (128, 25)])
def test_deconv_tap_groups_run_one_gemm_per_group(cout, gemms):
    """The codec's 128 -> 3 last layer is one GEMM over all 25 taps."""
    rng = np.random.default_rng(cout)
    layer = make_conv(128, cout, k=5, s=2, p=2, rng=rng, kind="deconv")
    x = rng.normal(0.0, 1.0, (1, 128, 15, 13)).astype(np.float32)
    with mock.patch.object(np, "matmul", wraps=np.matmul) as spy:
        got = deconv2d_forward(Tensor(x), layer).data
    assert spy.call_count == gemms
    assert got.tobytes() == per_tap_deconv(x, layer).tobytes()


@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("cin,gemms", [(1, 1), (3, 1), (48, 13), (128, 25)])
def test_conv_tap_groups_match_einsum_oracle(cin, gemms, s):
    """5x5 taps in groups of min(25, 128 // C_in): one GEMM for thin
    inputs, 12 pairs plus a ragged single tap at 48 channels, and one
    GEMM per tap from 128 channels up."""
    rng = np.random.default_rng([cin, s])
    h = conv_extent(5, s, 2, 7)
    w = conv_extent(5, s, 2, h + 2)
    layer = make_conv(cin, 6, k=5, s=s, p=2, rng=rng)
    x = rng.normal(0.0, 1.0, (2, cin, h, w)).astype(np.float32)
    check_kernel(conv2d_forward, einsum_conv, x, layer)
    with mock.patch.object(np, "matmul", wraps=np.matmul) as spy:
        conv2d_forward(Tensor(x), layer)
    assert spy.call_count == gemms


def test_codec_first_layer_matches_einsum_oracle():
    """3 -> 128, 5x5, stride 2, padding 2 on an odd-sized input."""
    rng = np.random.default_rng(3)
    layer = make_conv(3, 128, k=5, s=2, p=2, rng=rng)
    x = rng.normal(0.0, 1.0, (1, 3, 33, 29)).astype(np.float32)
    check_kernel(conv2d_forward, einsum_conv, x, layer)


def paper_layer(kind, rng):
    """128 -> 128, 5x5, stride 2, padding 2: the codec's inner layer."""
    return make_conv(128, 128, k=5, s=2, p=2, rng=rng, kind=kind)


def test_paper_scale_conv_and_deconv():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 1.0, (1, 128, 17, 15)).astype(np.float32)
    check_kernel(conv2d_forward, einsum_conv, x, paper_layer("conv", rng))
    x = rng.normal(0.0, 1.0, (1, 128, 9, 7)).astype(np.float32)
    check_kernel(deconv2d_forward, einsum_deconv, x, paper_layer("deconv", rng))


def test_tolerance_rejects_float32_accumulation():
    """Negative control: at 128 channels x 25 taps a float32 accumulator
    misses the tolerance, so the differential tests would catch a kernel
    that dropped the float64 accumulator."""
    rng = np.random.default_rng(5)
    layer = paper_layer("conv", rng)
    x = rng.normal(0.0, 1.0, (1, 128, 17, 15)).astype(np.float32)
    want = einsum_conv(x, layer.weights, layer.bias, 2, 2)
    bad = float32_gemm_conv(x, layer.weights, layer.bias, 2, 2)
    assert bad.shape == want.shape
    assert not within_float64_accumulation(bad, want)


@pytest.mark.parametrize("cin,cout,k", [(3, 128, 5), (128, 3, 5), (3, 3, 1),
                                        (1, 1, 1), (7, 5, 3), (128, 128, 5)])
@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_tap_weights_match_transposed_float64_copy(cin, cout, k, kind):
    """The tap-major cast is byte for byte the float64 copy of the
    weights transposed to (K, K, C_out, C_in) that it replaced."""
    layer = make_conv(cin, cout, k=k, p=k // 2, rng=np.random.default_rng([cin, k]),
                      kind=kind)
    want = np.ascontiguousarray(layer.weights.astype(np.float64).transpose(2, 3, 0, 1))
    got = model._tap_weights(layer)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
