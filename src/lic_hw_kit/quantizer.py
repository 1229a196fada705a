"""Post-training quantization with mixed per-layer precision.

Symmetric scheme throughout: scale = max(|min|, |max|) / (2**(bits-1) - 1),
zero point pinned at 0, round half away from zero, clamp to
+-(2**(bits-1) - 1). Out-of-range inputs saturate by design and the clip
count is reported rather than raised. Normalization layers default to a
wider width than convolutions (they are the numerically fragile part of
the stack), which the precision policy encodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CalibrationError, ParameterError, ShapeError
from .fixed_point import _round_saturate
from .model import LayerSpec, ModelSpec, integral_bits, model_forward
from .tensor import Tensor

__all__ = [
    "INPUT_INDEX",
    "StatRange",
    "CalibrationStats",
    "calibrate",
    "QuantParams",
    "quant_params_from_stats",
    "quantize",
    "quantize_with_stats",
    "dequantize",
    "PrecisionPolicy",
    "QuantizedModel",
    "ptq",
    "dequantize_model",
    "fake_quant_forward",
    "ste_grad",
]

INPUT_INDEX = -1  # pseudo layer index for the model input's activation stats

SCALE_FLOOR = 2.0 ** -24


@dataclass
class StatRange:
    """Running min/max of one tensor role."""

    min_val: float
    max_val: float

    def update(self, arr) -> None:
        arr = np.asarray(arr)
        if arr.size:
            self.min_val = min(self.min_val, float(arr.min()))
            self.max_val = max(self.max_val, float(arr.max()))


@dataclass
class CalibrationStats:
    """Per-(layer, role) ranges; roles are weights/bias/beta/gamma/activation."""

    entries: dict = field(default_factory=dict)

    def observe(self, layer: int, role: str, arr) -> None:
        arr = np.asarray(arr)
        if not arr.size:
            return
        key = (layer, role)
        if key not in self.entries:
            self.entries[key] = StatRange(float(arr.min()), float(arr.max()))
        else:
            self.entries[key].update(arr)

    def get(self, layer: int, role: str) -> StatRange:
        try:
            return self.entries[(layer, role)]
        except KeyError:
            raise CalibrationError(
                f"no calibration range for layer {layer} role {role!r}"
            ) from None


def calibrate(model: ModelSpec, calibration_set) -> CalibrationStats:
    """Collect ranges for every parameter tensor and every activation.

    Parameter ranges come straight from the model; activation ranges are
    the running min/max over forward passes of the calibration tensors.
    The model input itself is tracked under INPUT_INDEX.
    """
    inputs = list(calibration_set)
    if not inputs:
        raise CalibrationError("calibration set is empty")
    stats = CalibrationStats()
    for li, layer in enumerate(model.layers):
        for role, arr in layer.tensors().items():
            stats.observe(li, role, arr)

    def observe(li, layer, out):
        stats.observe(li, "activation", out.data)

    for x in inputs:
        stats.observe(INPUT_INDEX, "activation", x.data)
        model_forward(model, x, on_layer=observe)
    return stats


@dataclass(frozen=True)
class QuantParams:
    """Symmetric affine parameters; zero_point is structurally zero."""

    scale: float
    zero_point: int
    bits: int
    degenerate: bool = False

    def __post_init__(self):
        if self.zero_point != 0:
            raise ParameterError("symmetric quantization pins zero_point at 0")
        object.__setattr__(self, "bits", _check_bits(self.bits))
        if not self.scale > 0:
            raise ParameterError("scale must be strictly positive")

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1

    @property
    def qmin(self) -> int:
        return -self.qmax


def _check_bits(bits) -> int:
    bits = integral_bits(bits)
    if not 2 <= bits <= 32:
        raise ParameterError(f"bits must lie in [2, 32]; got {bits}")
    return bits


def quant_params_from_stats(rng: StatRange, bits: int) -> QuantParams:
    """Scale from the observed range; degenerate all-zero ranges fall back
    to a floor scale and are flagged."""
    bits = _check_bits(bits)
    bound = max(abs(rng.min_val), abs(rng.max_val))
    levels = (1 << (bits - 1)) - 1
    if bound == 0.0:
        return QuantParams(scale=SCALE_FLOOR, zero_point=0, bits=bits,
                           degenerate=True)
    return QuantParams(scale=bound / levels, zero_point=0, bits=bits)


def int_dtype(bits: int) -> str:
    """Narrowest little-endian integer type that holds a bits-wide payload."""
    if bits <= 8:
        return "<i1"
    if bits <= 16:
        return "<i2"
    return "<i4"


def quantize_with_stats(x, p: QuantParams):
    """Quantize to integers; returns (q, n_saturated)."""
    scaled = np.divide(x, p.scale, dtype=np.float64)
    q, n_sat = _round_saturate(scaled, p.qmin, p.qmax)
    return q.astype(int_dtype(p.bits)), n_sat


def quantize(x, p: QuantParams):
    q, _ = quantize_with_stats(x, p)
    return q


def dequantize(q, p: QuantParams):
    # float64 so |dequantize(quantize(x)) - x| <= scale/2 holds exactly
    return np.asarray(q, dtype=np.float64) * p.scale


def _qdq(x: Tensor, p: QuantParams) -> Tensor:
    return Tensor(dequantize(quantize(x.data, p), p))


@dataclass(frozen=True)
class PrecisionPolicy:
    """Bit-width resolution: explicit override, else gdn width for
    normalization layers, else the default."""

    default_bits: int = 8
    gdn_bits: int = 32
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.overrides, dict):
            raise ParameterError(
                f"overrides must map layer index to bits; got {self.overrides!r}"
            )
        object.__setattr__(self, "default_bits", integral_bits(self.default_bits))
        object.__setattr__(self, "gdn_bits", integral_bits(self.gdn_bits))
        object.__setattr__(self, "overrides", {
            li: integral_bits(b) for li, b in self.overrides.items()})

    def resolve(self, layer_index: int, layer) -> int:
        if layer_index in self.overrides:
            return self.overrides[layer_index]
        if layer is not None and layer.kind in ("gdn", "igdn"):
            return self.gdn_bits
        return self.default_bits


@dataclass
class QuantizedModel:
    """Original model spec plus integer payloads and their parameters."""

    model: ModelSpec
    tensor_params: dict
    payloads: dict
    activation_params: dict
    saturation: dict

    def scale_report(self):
        rows = []
        for (li, role), p in sorted(self.tensor_params.items()):
            rows.append({
                "layer": li, "role": role, "bits": p.bits, "scale": p.scale,
                "saturation_count": self.saturation.get((li, role), 0),
            })
        for li, p in sorted(self.activation_params.items()):
            rows.append({
                "layer": li, "role": "activation", "bits": p.bits,
                "scale": p.scale, "saturation_count": 0,
            })
        return rows


def ptq(model: ModelSpec, stats: CalibrationStats,
        policy: PrecisionPolicy = PrecisionPolicy()) -> QuantizedModel:
    """Post-training quantization of every parameter tensor.

    Raises CalibrationError (naming the layer) when stats are missing.
    Deterministic: same model, stats, and policy give identical payloads.
    """
    tensor_params, payloads, saturation = {}, {}, {}
    activation_params = {}
    for li, layer in enumerate(model.layers):
        bits = policy.resolve(li, layer)
        for role, arr in layer.tensors().items():
            key = (li, role)
            p = quant_params_from_stats(stats.get(li, role), bits)
            q, saturation[key] = quantize_with_stats(arr, p)
            if role == "beta":
                # beta rounds up to at least one step: the pool must stay positive
                q = np.maximum(q, 1).astype(q.dtype)
            tensor_params[key], payloads[key] = p, q
        activation_params[li] = quant_params_from_stats(
            stats.get(li, "activation"), bits
        )
    if (INPUT_INDEX, "activation") in stats.entries:
        activation_params[INPUT_INDEX] = quant_params_from_stats(
            stats.get(INPUT_INDEX, "activation"), policy.default_bits
        )
    return QuantizedModel(
        model=model,
        tensor_params=tensor_params,
        payloads=payloads,
        activation_params=activation_params,
        saturation=saturation,
    )


def dequantize_tensors(layer_index: int, roles, tensor_params: dict,
                       payloads: dict) -> dict:
    """{role: float64 array} for one layer's integer payloads.

    Beta is floored at one step, as ptq stores it, so the pool stays
    positive even for a payload of 0 or below from a hand-built
    container.
    """
    out = {role: dequantize(payloads[(layer_index, role)],
                            tensor_params[(layer_index, role)])
           for role in roles}
    if "beta" in out:
        out["beta"] = np.maximum(out["beta"],
                                 tensor_params[(layer_index, "beta")].scale)
    return out


def dequantize_model(qm: QuantizedModel) -> ModelSpec:
    """Materialize the float model the integer payloads represent: every
    layer rebuilt from its dequantized tensor table, other fields kept."""
    layers = [
        LayerSpec.from_tensors(
            dequantize_tensors(li, layer.tensors(), qm.tensor_params, qm.payloads),
            **layer.scalars())
        for li, layer in enumerate(qm.model.layers)
    ]
    return ModelSpec(name=qm.model.name, layers=layers, role=qm.model.role,
                     bit_widths=qm.model.bit_widths)


def fake_quant_forward(model: ModelSpec, stats: CalibrationStats,
                       policy: PrecisionPolicy, x: Tensor) -> Tensor:
    """Integer inference emulated in float arithmetic: the reference
    forward of dequantize_model(ptq(model, stats, policy)), with
    quantize-dequantize on the input and on every layer's output.

    Each layer's parameters and output share the width the policy
    resolves for it, so normalization layers run at the gdn width. The
    input is the INPUT_INDEX activation, at the default width.
    """
    in_p = quant_params_from_stats(stats.get(INPUT_INDEX, "activation"),
                                   policy.default_bits)
    qm = ptq(model, stats, policy)

    def qdq_activation(li, layer, out):
        return _qdq(out, qm.activation_params[li])

    return model_forward(dequantize_model(qm), _qdq(x, in_p),
                         on_layer=qdq_activation)


def ste_grad(upstream, x, p: QuantParams):
    """Straight-through estimator: pass the gradient where x/scale sits
    strictly inside the clamp range, zero it where the value saturates."""
    up = np.asarray(upstream, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64)
    if up.shape != xv.shape:
        raise ShapeError(
            f"upstream shape {up.shape} does not match input shape {xv.shape}"
        )
    scaled = xv / p.scale
    mask = (scaled > p.qmin) & (scaled < p.qmax)
    return up * mask
