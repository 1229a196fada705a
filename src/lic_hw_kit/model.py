"""Layer and model descriptions, their extents, and reference forward
passes. A layer's ops and bytes are counted in perf_model.layer_costs.

The forward passes are the golden output that other paths (quantized,
pruned) are measured against, so their contract is precision:
convolutions accumulate in float64 and round once to float32 at the end.
Within that contract they are lowered to BLAS. deconv computes its
K^2 kernel taps as float64 matrix products (C_out, C_in) @ (C_in,
N*H*W), stacking the taps of a thin output (few C_out rows each) into
one product, and accumulates the taps in a fixed order. conv stacks
small groups of taps into one im2col column buffer
(Chellapilla et al. 2006) and runs one product per group: enough taps
that a thin input still gives BLAS a deep inner dimension, few enough
that the buffer stays near the size of one wide tap's window. A single
product over all taps would need an im2col matrix K^2 times larger.
conv first copies its input twice: into a zero-padded array (when it
pads or the planes need more rows), then into stride-phase planes, in
which a tap's im2col rows for a run of output rows are one contiguous
slice; _panel_split cuts that slice into panels as it cuts deconv's
input.

Every product runs through gdn._panel_matmul, on column panels of at
most gdn._PANEL multiply-adds read from contiguous panel-major float64
buffers, so OpenBLAS keeps it on the calling thread: a whole-layer GEMM
wakes its helper thread, which then spins through the code between
GEMMs and nearly doubled the CPU time of a codec forward. conv and
deconv run on the calling thread; multi-core work lives at the patch
level, in patch extraction and reassembly.

None of this moves a bit. A GEMM sums each column in an order fixed by
the inner dimension alone, for every column in a whole gdn._TILE-column
tile of its kernel, so panels of whole tiles give those columns the
sums of one whole-layer product, added in the same tap order. The few
columns past the last whole tile of a panel sum in a remainder kernel,
as the last columns of a whole-layer product did, with an order that
can depend on the product's width: they agree to float64 rounding, so
their float32 outputs match unless a sum lies within a float64 step of
a float32 rounding boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, ShapeError, ToolkitError, integral_bits
from .gdn import (GdnParams, _panel_matmul, _panel_split, _panels, gdn_float,
                  igdn_float)
from .tensor import Tensor, _check_finite

__all__ = [
    "LayerSpec",
    "ModelSpec",
    "LAYER_KINDS",
    "MODEL_ROLES",
    "layer_output_dims",
    "layer_extents",
    "conv2d_forward",
    "deconv2d_forward",
    "relu_forward",
    "model_forward",
]

LAYER_KINDS = ("conv", "deconv", "gdn", "igdn", "relu")
MODEL_ROLES = (
    "main_encoder",
    "main_decoder",
    "hyper_encoder",
    "hyper_decoder",
    "entropy_params",
)

# Far above the stride 2 and the few pixels of padding a compression layer
# uses. A container's payload bounds a layer's channels and kernel, but
# nothing bounds these two, and the padded input and a deconv's output
# grow with them.
MAX_LAYER_STEP = 64


def _frozen(arr, dtype):
    out = np.array(arr, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LayerSpec:
    """One layer: kind plus whatever parameters that kind carries.

    conv/deconv hold weights (out, in, k, k) and bias (out,); gdn/igdn
    hold a GdnParams; relu holds nothing. kernel/stride/padding only
    matter for conv/deconv.
    """

    kind: str
    in_channels: int
    out_channels: int
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    gdn_params: GdnParams | None = None

    def __post_init__(self):
        for f, least, most in (("in_channels", 1, None), ("out_channels", 1, None),
                               ("kernel", 1, None), ("stride", 1, MAX_LAYER_STEP),
                               ("padding", 0, MAX_LAYER_STEP)):
            object.__setattr__(self, f, integral_bits(
                getattr(self, f), f"layer sizes ({f})", least, most))
        shapes = self.tensor_shapes(self.kind, self.in_channels,
                                    self.out_channels, self.kernel)
        if "weights" in shapes:
            if self.weights is None:
                raise ParameterError(f"{self.kind} layer needs weights")
            w = _frozen(self.weights, np.float32)
            # a default bias sized from the weights, not from out_channels,
            # so a huge out_channels fails the shape check, not an allocation
            b = _frozen(np.zeros(w.shape[:1]) if self.bias is None else self.bias,
                        np.float32)
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ParameterError(f"{self.kind} weights and bias must be finite")
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "bias", b)
        elif self.weights is not None or self.bias is not None:
            raise ParameterError(f"{self.kind} layer does not take weights")
        if ("beta" in shapes) != (self.gdn_params is not None):
            need = "needs" if "beta" in shapes else "does not take"
            raise ParameterError(f"{self.kind} layer {need} gdn params")
        for role, arr in self.tensors().items():
            if arr.shape != shapes[role]:
                raise ShapeError(f"{self.kind} {role} must have shape "
                                 f"{shapes[role]}; got {arr.shape}")

    @staticmethod
    def tensor_shapes(kind: str, in_channels: int, out_channels: int,
                      kernel: int = 1) -> dict:
        """{role: shape} of the tensors a layer of this kind carries, in
        the order tensors() lists them. It checks the kind, that the
        sizes are integers >= 1 and that a gdn, igdn or relu layer keeps
        its channel count; containers size their payload sections from
        it before the layer exists, and LayerSpec checks its tensors
        against it."""
        if kind not in LAYER_KINDS:
            raise ParameterError(f"unknown layer kind {kind!r}")
        c_in = integral_bits(in_channels, "layer sizes (in_channels)", 1)
        c_out = integral_bits(out_channels, "layer sizes (out_channels)", 1)
        k = integral_bits(kernel, "layer sizes (kernel)", 1)
        if kind in ("conv", "deconv"):
            return {"weights": (c_out, c_in, k, k), "bias": (c_out,)}
        if c_in != c_out:
            raise ShapeError(f"{kind} preserves channel count")
        if kind in ("gdn", "igdn"):
            return {"beta": (c_out,), "gamma": (c_out, c_out)}
        return {}

    def tensors(self) -> dict:
        """The parameter tensors as an ordered {role: array}: weights
        then bias for conv/deconv, beta then gamma for gdn/igdn, none
        for relu. Calibration, quantization, containers and pruning walk
        this table rather than the kinds."""
        if self.gdn_params is not None:
            return {"beta": self.gdn_params.beta, "gamma": self.gdn_params.gamma}
        if self.weights is not None:
            return {"weights": self.weights, "bias": self.bias}
        return {}

    def scalars(self) -> dict:
        """Every field but the tensors (alpha only for gdn/igdn); with
        tensors() it describes the layer, and from_tensors() rebuilds it."""
        out = {"kind": self.kind, "in_channels": self.in_channels,
               "out_channels": self.out_channels, "kernel": self.kernel,
               "stride": self.stride, "padding": self.padding}
        if self.gdn_params is not None:
            out["alpha"] = self.gdn_params.alpha
        return out

    @classmethod
    def from_tensors(cls, tensors: dict, alpha: float = 0.5,
                     **scalars) -> "LayerSpec":
        """Build a layer from a tensor table keyed like tensors() and the
        scalar fields; alpha only matters for gdn/igdn."""
        if scalars.get("kind") in ("gdn", "igdn"):
            return cls(**scalars, gdn_params=GdnParams(
                beta=tensors["beta"], gamma=tensors["gamma"], alpha=alpha))
        return cls(**scalars, **tensors)

    def param_count(self) -> int:
        return sum(int(t.size) for t in self.tensors().values())


@dataclass(frozen=True)
class ModelSpec:
    """Ordered layer stack with a pipeline role."""

    name: str
    layers: list
    role: str

    def __post_init__(self):
        if self.role not in MODEL_ROLES:
            raise ParameterError(
                f"role must be one of {MODEL_ROLES}; got {self.role!r}"
            )
        prev = None
        for i, layer in enumerate(self.layers):
            if prev is not None and layer.in_channels != prev:
                raise ShapeError(
                    f"layer {i} expects {layer.in_channels} input channels but "
                    f"layer {i - 1} produces {prev}"
                )
            prev = layer.out_channels

    def param_count(self) -> int:
        return sum(layer.param_count() for layer in self.layers)


def layer_output_dims(layer: LayerSpec, h: int, w: int):
    """Spatial extents after the layer."""
    k, s, p = layer.kernel, layer.stride, layer.padding
    if layer.kind == "conv":
        oh, ow = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    elif layer.kind == "deconv":
        oh, ow = (h - 1) * s - 2 * p + k, (w - 1) * s - 2 * p + k
    else:
        return h, w
    if oh < 1 or ow < 1:
        raise ShapeError(f"{layer.kind} maps {h}x{w} below 1x1 "
                         f"(kernel {k}, stride {s}, pad {p})")
    return oh, ow


def layer_extents(model: ModelSpec, input_hw):
    """Yield (layer, (h_in, w_in), (h_out, w_out)) for each layer of the
    stack, for one image of extent input_hw. perf_model.layer_costs is
    its one caller, so every per-layer op and byte count reads its
    extents from this walk."""
    hw = (integral_bits(input_hw[0], "input extents", 1),
          integral_bits(input_hw[1], "input extents", 1))
    for layer in model.layers:
        out = layer_output_dims(layer, *hw)
        yield layer, hw, out
        hw = out


def _tap_weights(layer: LayerSpec) -> np.ndarray:
    """float64 weights as (K, K, C_out, C_in): one contiguous matrix per
    tap.

    The float32 weights are put in tap-major order by the cast itself, so
    no float64 copy is transposed after it."""
    cout, cin, k, _ = layer.weights.shape
    taps = layer.weights.reshape(cout * cin, k * k).T.astype(np.float64, order="C")
    return taps.reshape(k, k, cout, cin)


_GROUP_ROWS = 128


def _tap_groups(k: int, thin: int) -> list:
    """The K^2 taps in row-major order, cut into groups of g = min(K^2,
    max(1, 128 // thin)) (the last may be shorter), each as (slice of the
    tap-major weights, [(ky, kx) of each tap]). Stacking g taps of the
    thin side (conv's C_in, deconv's C_out) gives BLAS about 128 inner
    terms or rows per product; from thin = 128 up, each tap is a
    product of its own."""
    g = min(k * k, max(1, _GROUP_ROWS // thin))
    offsets = [divmod(t, k) for t in range(k * k)]
    return [(slice(t, t + g), offsets[t:t + g]) for t in range(0, k * k, g)]


def conv2d_forward(x: Tensor, layer: LayerSpec) -> Tensor:
    """Strided 2-D cross-correlation with zero padding.

    The input is copied into a zero-padded array when it pads or S*H_s
    exceeds its height, and that array into stride-phase planes: plane
    (a, kx) of an image holds padded[S*y + a, S*x + kx] for y < H_s =
    H_out + (K-1)//S and x < W_out, row-major as (C_in, H_s*W_out). Tap
    (ky, kx) at output (oy, ox) reads plane (ky % S, kx) at flat index
    (oy + ky//S)*W_out + ox, so a tap's im2col rows for any run of
    output rows are one contiguous slice of a plane.

    Each image runs one _panel_matmul per _tap_groups(K, C_in) group of
    g taps: its flat output positions are cut by _panel_split, the taps'
    slices are copied into a panel-major float64 buffer of g*C_in rows
    (one copy per kernel row, whose taps read adjacent planes at one
    offset), and the group's (C_out, g*C_in) weights multiply it. The group
    products are summed in float64 in tap order, the bias is added, and
    the image is rounded once to float32 straight into the output. A
    3-channel first layer with a 5x5 kernel is one product per image with
    an inner dimension of 75, not 25 with an inner dimension of 3. Wide
    layers (g = 1) sum the taps exactly as a per-tap loop does.
    """
    if layer.kind != "conv":
        raise ParameterError(f"conv2d_forward got a {layer.kind} layer")
    if x.c != layer.in_channels:
        raise ShapeError(
            f"input has {x.c} channels, conv expects {layer.in_channels}"
        )
    k, s, p = layer.kernel, layer.stride, layer.padding
    oh, ow = layer_output_dims(layer, x.h, x.w)
    n, cin, cout = x.n, layer.in_channels, layer.out_channels
    hs = oh + (k - 1) // s
    padded = x.data
    if p or s * hs > x.h:
        # zero rows past the input give every plane its H_s rows; a
        # phase's last row there is never read
        padded = np.zeros((n, cin, max(x.h + 2 * p, s * hs), x.w + 2 * p), dtype=np.float32)
        padded[:, :, p:p + x.h, p:p + x.w] = x.data
    # (N, C_in, S*H_s, W_out, K) view, then (N, phase, kx, C_in, H_s*W_out)
    # planes; a phase past the last tap row (S > K) is dropped
    windows = sliding_window_view(padded[:, :, :s * hs], k, axis=3)[:, :, :, ::s]
    phases = windows.reshape(n, cin, hs, s, ow, k)[:, :, :, :k]
    planes = np.ascontiguousarray(phases.transpose(0, 3, 5, 1, 2, 4))
    planes = planes.reshape(*planes.shape[:3], cin, hs * ow)
    # (C_out, K^2 * C_in): a group's weights are a strided view, no copy
    taps = layer.weights.transpose(0, 2, 3, 1).astype(np.float64, order="C")
    taps = taps.reshape(cout, k * k * cin)
    groups = [(taps[:, group.start * cin:group.stop * cin], group.start, len(offsets))
              for group, offsets in _tap_groups(k, cin)]
    inner = groups[0][0].shape[1]
    bias = layer.bias.astype(np.float64)[:, None, None]
    out = np.empty((n, cout, oh, ow), dtype=np.float32)
    size = oh * ow
    w, q = _panel_split(cout, inner, size)
    buf = np.empty(size * inner)
    acc, prod = np.empty((cout, size)), np.empty((cout, size))
    sums = [_panels(acc, w, q), _panels(prod, w, q)]
    # per group size g: its panels, and the (g, C_in, q, w) and
    # (g, C_in, rest) views of them that its taps are copied into
    cols = {}
    for g in {g for _, _, g in groups}:
        head = buf[:q * w * g * cin].reshape(q, g * cin, w)
        rest = buf[q * w * g * cin:size * g * cin].reshape(g * cin, size - q * w)
        cols[g] = ((head, rest), (head.reshape(q, g, cin, w).transpose(1, 2, 0, 3),
                                  rest.reshape(g, cin, size - q * w)))
    for i in range(n):
        for gi, (wg, t, g) in enumerate(groups):
            panels, dst = cols[g]
            # taps t..t+g-1, one copy per kernel row ky
            for ky in range(t // k, (t + g - 1) // k + 1):
                t0, t1 = max(t, ky * k), min(t + g, ky * k + k)
                src = planes[i, ky % s, t0 - ky * k:t1 - ky * k, :, ky // s * ow:]
                dst[0][t0 - t:t1 - t] = src[..., :q * w].reshape(t1 - t0, cin, q, w)
                dst[1][t0 - t:t1 - t] = src[..., q * w:size]
            # a GEMM never returns -0.0, so the first group's product
            # is bit for bit the sum 0.0 + product
            _panel_matmul(wg, panels, sums[gi > 0])
            if gi:
                acc += prod
        # the float64 sum, rounded once to float32
        np.add(acc.reshape(cout, oh, ow), bias, out=out[i])
    _check_finite(out)  # a float32 cast can overflow
    return Tensor._adopt(out)


def deconv2d_forward(x: Tensor, layer: LayerSpec) -> Tensor:
    """Transposed convolution: scatter-add of stride-spaced kernel copies.

    The input is copied once to panel-major float64 columns, (C_in,
    N*H*W) cut by _panel_split. For each _tap_groups(K, C_out) group of g
    taps, one _panel_matmul of its (g*C_out, C_in) weights is written
    straight into a (g*C_out, N*H*W) product buffer, whose g tap slices
    are then added in tap order at their stride-spaced offsets into a
    float64 canvas. The canvas is cropped by the padding, the bias is
    added, and the result is rounded once to float32 into the output.
    Each output row of a product is the same C_in-term dot product
    whatever rows are stacked with it, so a thin 128 -> 3 layer runs one
    product instead of 25 and adds exactly what a per-tap loop adds.
    """
    if layer.kind != "deconv":
        raise ParameterError(f"deconv2d_forward got a {layer.kind} layer")
    if x.c != layer.in_channels:
        raise ShapeError(
            f"input has {x.c} channels, deconv expects {layer.in_channels}"
        )
    k, s, p = layer.kernel, layer.stride, layer.padding
    oh, ow = layer_output_dims(layer, x.h, x.w)
    n, h, w, cin, cout = x.n, x.h, x.w, layer.in_channels, layer.out_channels
    groups = _tap_groups(k, cout)
    g = len(groups[0][1])
    width, q = _panel_split(g * cout, cin, n * h * w)
    xcols = [part.astype(np.float64, order="C")
             for part in _panels(x.data.transpose(1, 0, 2, 3).reshape(cin, -1), width, q)]
    full = np.zeros((cout, n, (h - 1) * s + k, (w - 1) * s + k),
                    dtype=np.float64)
    bias = layer.bias.astype(np.float64)[:, None, None, None]
    out = np.empty((n, cout, oh, ow), dtype=np.float32)
    taps = _tap_weights(layer).reshape(k * k, cout, cin)
    prod = np.empty((g * cout, n * h * w))
    for group, offsets in groups:
        wg = taps[group].reshape(-1, cin)
        rows = prod[:len(wg)]
        _panel_matmul(wg, xcols, _panels(rows, width, q))
        for t, (ky, kx) in enumerate(offsets):
            full[:, :, ky:ky + s * h:s, kx:kx + s * w:s] += \
                rows[t * cout:(t + 1) * cout].reshape(cout, n, h, w)
    np.add(full[:, :, p:p + oh, p:p + ow], bias, out=out.transpose(1, 0, 2, 3))
    _check_finite(out)  # a float32 cast can overflow
    return Tensor._adopt(out)


def relu_forward(x: Tensor, layer: LayerSpec) -> Tensor:
    if layer.kind != "relu":
        raise ParameterError(f"relu_forward got a {layer.kind} layer")
    return Tensor(np.maximum(x.data, 0.0))


_FORWARD = {
    "conv": conv2d_forward,
    "deconv": deconv2d_forward,
    "relu": relu_forward,
    "gdn": lambda x, layer: gdn_float(x, layer.gdn_params),
    "igdn": lambda x, layer: igdn_float(x, layer.gdn_params),
}


def model_forward(model: ModelSpec, x: Tensor, on_layer=None) -> Tensor:
    """Run the stack and return the last layer's output.

    on_layer(index, layer, out), when given, runs after every layer on
    that layer's output; a Tensor it returns replaces the output passed
    on to the next layer, and None keeps it. Calibration observes
    activations through it and fake-quant rounds them, so this is the
    only loop over layers in the package.

    Layer failures are re-raised with the layer index prepended.
    """
    cur = x
    for i, layer in enumerate(model.layers):
        try:
            cur = _FORWARD[layer.kind](cur, layer)
        except ToolkitError as e:
            raise type(e)(f"layer {i} ({layer.kind}): {e}") from e
        if on_layer is not None:
            hooked = on_layer(i, layer, cur)
            if hooked is not None:
                cur = hooked
    return cur
