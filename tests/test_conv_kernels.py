"""Differential tests: the BLAS-backed conv/deconv kernels against the
per-tap einsum kernels they replaced.

The einsum kernels below are the package's earlier implementation,
kept verbatim on raw arrays as the oracle. Both accumulate in float64
and round once to float32; only the order of the float64 additions
inside a tap differs, so results must agree to within one float32
spacing of each element plus 1e-9 of the largest magnitude. The grouped
deconv is also held byte for byte to the one-GEMM-per-tap deconv it
replaced, and the panelled kernels byte for byte to the whole-layer
GEMM kernels they replaced (gemm_conv, gemm_deconv), at every layer
shape of the paper codec.
"""

import math
from unittest import mock

import numpy as np
import pytest

from lic_hw_kit import Tensor, conv2d_forward, deconv2d_forward, gdn, model, patching
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


def gemm_conv(x, layer):
    """The package's previous conv2d_forward: one whole-layer GEMM per tap
    group over an im2col buffer of every output position."""
    n, cin, h, w = x.shape
    k, s, p, cout = layer.kernel, layer.stride, layer.padding, layer.out_channels
    oh, ow = model.layer_output_dims(layer, h, w)
    padded = np.zeros((cin, n, h + 2 * p, w + 2 * p), dtype=np.float64)
    padded[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
    taps = model._tap_weights(layer).reshape(k * k, cout, cin)
    groups = model._tap_groups(k, cin)
    cols = np.empty((len(groups[0][1]), cin, n, oh, ow), dtype=np.float64)
    prod = np.empty((cout, n * oh * ow), dtype=np.float64)
    acc = np.zeros((cout, n * oh * ow), dtype=np.float64)
    for group, offsets in groups:
        for j, (ky, kx) in enumerate(offsets):
            cols[j] = padded[:, :, ky:ky + s * oh:s, kx:kx + s * ow:s]
        size = len(offsets)
        wg = taps[group].transpose(1, 0, 2).reshape(cout, size * cin)
        np.matmul(wg, cols[:size].reshape(size * cin, -1), out=prod)
        acc += prod
    acc += layer.bias.astype(np.float64)[:, None]
    return acc.reshape(cout, n, oh, ow).transpose(1, 0, 2, 3).astype(np.float32)


def gemm_deconv(x, layer):
    """The package's previous deconv2d_forward: one whole-layer GEMM per
    tap group, scatter-added in tap order."""
    n, cin, h, w = x.shape
    k, s, p, cout = layer.kernel, layer.stride, layer.padding, layer.out_channels
    oh, ow = model.layer_output_dims(layer, h, w)
    xcols = x.transpose(1, 0, 2, 3).reshape(cin, -1).astype(np.float64)
    taps = model._tap_weights(layer).reshape(k * k, cout, cin)
    groups = model._tap_groups(k, cout)
    prod = np.empty((len(groups[0][1]), cout, n, h, w), dtype=np.float64)
    full = np.zeros((cout, n, (h - 1) * s + k, (w - 1) * s + k), dtype=np.float64)
    for group, offsets in groups:
        size = len(offsets)
        np.matmul(taps[group].reshape(size * cout, cin), xcols,
                  out=prod[:size].reshape(size * cout, -1))
        for j, (ky, kx) in enumerate(offsets):
            full[:, :, ky:ky + s * h:s, kx:kx + s * w:s] += prod[j]
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


def use_cpus(monkeypatch, cpus):
    """Run as if cpus CPUs were usable, and fail if a thread pool
    starts."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a conv or deconv started a thread pool")

    monkeypatch.setattr(patching, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(patching, "ThreadPoolExecutor", no_pool)


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
# even kernels, K = 7, padding 3 and strides above the kernel, each small
# enough for a deconv of a 5-row input to keep an output row
GRID += [(k, s, p, n)
         for k, s, p in ((2, 1, 0), (2, 2, 1), (4, 2, 3), (4, 3, 1), (6, 1, 3), (6, 2, 2),
                         (7, 1, 3), (7, 2, 0), (7, 4, 3), (1, 3, 0), (1, 4, 1), (2, 3, 0),
                         (2, 4, 1), (2, 4, 3))
         for n in (1, 2)]


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


def order_sensitive(layer, rng):
    """The layer with each tap's weights either a constant +-2**60 or
    noise scaled by 1e-20, at random, and no bias. On an all-ones input
    the huge taps cancel exactly only in some orders of the tap adds,
    and a tiny term survives only after they have, so a change in tap
    order shows in the float32 output."""
    cout, cin, k, _ = layer.weights.shape
    huge = rng.choice([-2.0**60, 2.0**60], (1, 1, k, k))
    tiny = rng.normal(0.0, 1.0, layer.weights.shape) * 1e-20
    weights = np.where(rng.random((k, k)) < 0.5, huge, tiny).astype(np.float32)
    return model.LayerSpec(kind=layer.kind, in_channels=cin, out_channels=cout, kernel=k,
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
                cases = ((layer, x), (order_sensitive(layer, rng), np.ones_like(x)))
                for case, inp in cases:
                    got = deconv2d_forward(Tensor(inp), case).data
                    assert got.tobytes() == per_tap_deconv(inp, case).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("cout,gemms", [(3, 1), (5, 1), (48, 13), (128, 25)])
def test_deconv_tap_groups_run_one_gemm_per_group(cout, gemms, cpus, monkeypatch):
    """The codec's 128 -> 3 last layer is one batched product over all 25
    taps. The count does not depend on the number of usable CPUs."""
    use_cpus(monkeypatch, cpus)
    rng = np.random.default_rng(cout)
    layer = make_conv(128, cout, k=5, s=2, p=2, rng=rng, kind="deconv")
    x = rng.normal(0.0, 1.0, (1, 128, 15, 13)).astype(np.float32)
    with mock.patch.object(model, "_panel_matmul", wraps=model._panel_matmul) as spy:
        got = deconv2d_forward(Tensor(x), layer).data
    assert spy.call_count == gemms
    assert got.tobytes() == per_tap_deconv(x, layer).tobytes()


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("s", [1, 2])
@pytest.mark.parametrize("cin,gemms", [(1, 1), (3, 1), (48, 13), (128, 25)])
def test_conv_tap_groups_match_einsum_oracle(cin, gemms, s, cpus, monkeypatch):
    """5x5 taps in groups of min(25, 128 // C_in): one batched product per
    image for thin inputs, 12 pairs plus a ragged single tap at 48
    channels, and one product per tap from 128 channels up, for each of
    the 2 images, on 1 or 2 usable CPUs alike."""
    use_cpus(monkeypatch, cpus)
    rng = np.random.default_rng([cin, s])
    h = conv_extent(5, s, 2, 7)
    w = conv_extent(5, s, 2, h + 2)
    layer = make_conv(cin, 6, k=5, s=s, p=2, rng=rng)
    x = rng.normal(0.0, 1.0, (2, cin, h, w)).astype(np.float32)
    check_kernel(conv2d_forward, einsum_conv, x, layer)
    with mock.patch.object(model, "_panel_matmul", wraps=model._panel_matmul) as spy:
        conv2d_forward(Tensor(x), layer)
    assert spy.call_count == gemms * 2


# ---------------------------------------------------------------------------
# Panels keep every bit of the whole-layer GEMM kernels
# ---------------------------------------------------------------------------

# the paper codec's layers at the extents it meets them on a 128 x 128
# patch and the extents around them: (kind, C_in, C_out, input extent)
CODEC_LAYERS = ([("conv", cin, cout, e) for cin, cout in ((3, 128), (128, 128), (128, 192))
                 for e in (128, 64, 32, 16)]
                + [("deconv", cin, cout, e) for cin, cout in ((192, 128), (128, 128), (128, 3))
                   for e in (8, 15, 29, 57)])

# odd extents, batches of 2, ragged tap groups (48 channels: 12 pairs and
# one single tap), 1x1 and 3x3 kernels, stride 3, no padding, output
# rows of 1 and 3 positions (panels that span several rows) and empty
# batches:
# (kind, C_in, C_out, kernel, stride, padding, input dims)
ODD_LAYERS = [
    ("conv", 48, 6, 5, 2, 2, (2, 48, 19, 23)),
    ("conv", 3, 5, 3, 1, 1, (2, 3, 13, 11)),
    ("conv", 7, 9, 1, 1, 0, (2, 7, 5, 9)),
    ("conv", 128, 16, 3, 3, 0, (1, 128, 17, 41)),
    ("conv", 5, 4, 5, 2, 2, (2, 5, 1, 1)),
    ("conv", 6, 4, 3, 1, 1, (2, 6, 9, 1)),
    ("conv", 128, 128, 5, 2, 2, (1, 128, 41, 5)),
    ("conv", 3, 4, 3, 2, 1, (0, 3, 5, 5)),
    # even kernels, K = 7 and padding 3: a stride-phase plane has H_out +
    # (K-1)//S rows, and the K = 4, stride 2 and K = 2, stride 3 ones
    # leave an input row past the last plane row, which no tap reads
    ("conv", 5, 4, 2, 2, 0, (2, 5, 9, 10)),
    ("conv", 8, 6, 4, 1, 3, (1, 8, 7, 12)),
    ("conv", 48, 7, 6, 2, 3, (2, 48, 11, 13)),
    ("conv", 16, 5, 4, 2, 0, (1, 16, 15, 17)),
    ("conv", 3, 8, 7, 2, 3, (1, 3, 21, 17)),
    ("conv", 64, 5, 7, 3, 1, (1, 64, 16, 19)),
    # strides above the kernel: a phase past the last tap row is never read
    ("conv", 4, 3, 1, 3, 0, (2, 4, 10, 11)),
    ("conv", 6, 5, 2, 4, 1, (1, 6, 15, 14)),
    ("conv", 4, 3, 2, 3, 0, (2, 4, 10, 11)),
    ("conv", 2, 3, 2, 4, 3, (2, 2, 8, 7)),
    ("deconv", 3, 4, 3, 2, 1, (0, 3, 5, 5)),
    ("deconv", 64, 48, 5, 2, 2, (2, 64, 7, 9)),
    ("deconv", 5, 3, 3, 3, 0, (2, 5, 6, 5)),
    ("deconv", 128, 3, 5, 2, 2, (2, 128, 11, 13)),
    ("deconv", 3, 1, 1, 1, 0, (1, 3, 1, 1)),
]

ORACLES = {"conv": (conv2d_forward, gemm_conv), "deconv": (deconv2d_forward, gemm_deconv)}


def check_every_bit(layer, x):
    fn, oracle = ORACLES[layer.kind]
    want = oracle(x, layer).tobytes()
    got = fn(Tensor(x), layer).data
    assert got.flags.c_contiguous
    assert got.tobytes() == want


@pytest.mark.parametrize("kind,cin,cout,e", CODEC_LAYERS)
def test_codec_layers_keep_every_bit(kind, cin, cout, e):
    """Every codec layer shape, on random weights and on the
    order-sensitive ones."""
    rng = np.random.default_rng([cin, cout, e])
    layer = make_conv(cin, cout, k=5, s=2, p=2, rng=rng, kind=kind)
    x = rng.normal(0.0, 1.0, (1, cin, e, e)).astype(np.float32)
    check_every_bit(layer, x)
    check_every_bit(order_sensitive(layer, rng), np.ones_like(x))


@pytest.mark.parametrize("kind,cin,cout,k,s,p,dims", ODD_LAYERS)
def test_odd_layers_keep_every_bit(kind, cin, cout, k, s, p, dims):
    """Odd extents, batches of 2 and ragged tap groups. The
    order-sensitive weights run on the deconvs, whose products sum each
    tap on its own; a conv's thin-input product sums several taps in one
    BLAS dot product, whose order at a remainder column depends on the
    product's width."""
    rng = np.random.default_rng([cin, cout, k, s])
    layer = make_conv(cin, cout, k=k, s=s, p=p, rng=rng, kind=kind)
    x = rng.normal(0.0, 1.0, dims).astype(np.float32)
    check_every_bit(layer, x)
    if kind == "deconv":
        check_every_bit(order_sensitive(layer, rng), np.ones_like(x))


@pytest.mark.parametrize("kind,e", [("conv", 64), ("conv", 32), ("deconv", 29),
                                    ("deconv", 15)])
def test_codec_layers_run_on_the_calling_thread(kind, e, monkeypatch):
    """The codec's 128 -> 128 layers, the two largest (0.84 and 0.69
    GFLOP) among them, on 3 usable CPUs, start no thread pool."""
    use_cpus(monkeypatch, 3)
    rng = np.random.default_rng([kind == "conv", e])
    layer = paper_layer(kind, rng)
    check_every_bit(layer, rng.normal(0.0, 1.0, (1, 128, e, e)).astype(np.float32))


@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_zero_maps_keep_the_sign_of_zero(kind):
    """A zero map through negative weights and a -0.0 bias: the first tap
    group's product goes straight into the accumulator, which is the
    sum 0.0 + product only while no product is -0.0."""
    layer = make_conv(48, 5, k=3, s=2, p=1, kind=kind)
    layer = model.LayerSpec(kind=kind, in_channels=48, out_channels=5, kernel=3, stride=2,
                            padding=1, weights=-np.abs(layer.weights),
                            bias=np.full(5, -0.0, dtype=np.float32))
    check_every_bit(layer, np.zeros((2, 48, 7, 6), dtype=np.float32))


RECORDED = [(kind, cin, cout, 5, 2, 2, (1, cin, e, e)) for kind, cin, cout, e in CODEC_LAYERS
            if e in (16, 15, 8)] + ODD_LAYERS


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("kind,cin,cout,k,s,p,dims", RECORDED)
def test_conv_gemms_stay_single_threaded(kind, cin, cout, k, s, p, dims, cpus, monkeypatch):
    """Every np.matmul a conv or deconv makes reads a C-contiguous
    panel-major column buffer; each 2-D product's whole tiles are at most
    _PANEL multiply-adds, small enough for OpenBLAS to run on the calling
    thread (a last panel adds fewer than _TILE columns, and is never a
    lone column unless the layer has one position); and the products
    cover the layer's loop count of multiply-adds, so no tap runs outside
    np.matmul, on 1, 2 and 3 usable CPUs alike."""
    use_cpus(monkeypatch, cpus)
    rng = np.random.default_rng([cin, cout, k])
    layer = make_conv(cin, cout, k=k, s=s, p=p, rng=rng, kind=kind)
    x = Tensor(rng.normal(0.0, 1.0, dims).astype(np.float32))
    fn = ORACLES[kind][0]
    with mock.patch.object(np, "matmul", wraps=np.matmul) as mm:
        out = fn(x, layer)
    macs = 0
    for args, _ in mm.call_args_list:
        a, cols = args[:2]
        m, inner = a.shape
        width = cols.shape[-1]
        assert cols.flags.c_contiguous and cols.dtype == np.float64
        assert cols.shape[-2] == inner
        assert m * inner * (width - width % gdn._TILE) <= gdn._PANEL
        assert width > 1 or x.n * x.h * x.w == 1 or out.h * out.w == 1
        macs += math.prod(cols.shape[:-2]) * m * inner * width
    positions = x.n * (out.h * out.w if kind == "conv" else x.h * x.w)
    assert macs == positions * cin * cout * k * k


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
