"""Reference kernels and operation counts that do not depend on the code
being timed.

conv_oracle and deconv_oracle are the toolkit's per-tap einsum kernels
as they stood when this benchmark was written, kept here on raw arrays
so a later change to the package's kernels is compared against the
float64-accumulating original rather than against itself.
"""

from __future__ import annotations

import numpy as np


def conv_oracle(x, weights, bias, stride, padding):
    """Strided cross-correlation, float64 accumulate, one float32 round."""
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


def deconv_oracle(x, weights, bias, stride, padding):
    """Transposed convolution as a scatter-add of per-tap products."""
    n, _, h, w = x.shape
    cout, _, k, _ = weights.shape
    s, p = stride, padding
    oh = (h - 1) * s - 2 * p + k
    ow = (w - 1) * s - 2 * p + k
    x64 = x.astype(np.float64)
    w64 = weights.astype(np.float64)
    full = np.zeros((n, cout, (h - 1) * s + k, (w - 1) * s + k), dtype=np.float64)
    for ky in range(k):
        for kx in range(k):
            contrib = np.einsum("nihw,oi->nohw", x64, w64[:, :, ky, kx])
            full[:, :, ky:ky + s * h:s, kx:kx + s * w:s] += contrib
    out = full[:, :, p:p + oh, p:p + ow] + bias.astype(np.float64)[None, :, None, None]
    return out.astype(np.float32)


def within_float64_accumulation(got, want):
    """True when got differs from want by no more than a float64
    accumulation order can explain: one float32 step of each element plus
    1e-9 of the largest magnitude. A float32 accumulator misses this by
    orders of magnitude at paper channel counts."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    tol = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64)
    tol += 1e-9 * float(np.max(np.abs(want), initial=0.0))
    return bool(np.all(np.abs(got - want) <= tol))


def conv_ops(layer, h_in, w_in):
    """2 * H_out * W_out * C_in * C_out * K^2 for one image."""
    k, s, p = layer.kernel, layer.stride, layer.padding
    oh = (h_in + 2 * p - k) // s + 1
    ow = (w_in + 2 * p - k) // s + 1
    return 2 * oh * ow * layer.in_channels * layer.out_channels * k * k


def deconv_ops(layer, h_in, w_in):
    """2 * H_in * W_in * C_in * C_out * K^2: every input pixel meets every
    tap once, whatever the output extent."""
    k = layer.kernel
    return 2 * h_in * w_in * layer.in_channels * layer.out_channels * k * k
