"""Binary containers for models.

Float container: 4-byte magic, little-endian uint32 version, uint64
header length, UTF-8 JSON header (name, role, per-layer scalar fields),
then one payload section per parameter tensor in layer
order (conv/deconv: weights then bias; gdn/igdn: beta then gamma). Every
section is an 8-byte little-endian length followed by little-endian
data: float32 for conv weights and bias, float64 for gdn beta and gamma,
matching their in-memory precision so round trips are bit-exact.

Quantized container: same layout under a different magic; payloads are
little-endian integers at the declared widths and the header carries the
per-tensor quantization parameters. Loading reconstructs the dequantized
float model alongside the raw integer payloads.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import (
    MalformedHeaderError,
    TruncatedPayloadError,
    VersionMismatchError,
    integral_bits,
)
from .model import LayerSpec, ModelSpec
from .quantizer import (
    QuantizedModel,
    QuantParams,
    dequantize_tensors,
    int_dtype,
)

__all__ = [
    "save_model",
    "load_model",
    "save_quantized_model",
    "load_quantized_model",
]

_MODEL_MAGIC = b"LICM"
_QUANT_MAGIC = b"LICQ"
_VERSION = 1
_LEN = struct.Struct("<Q")
_PREFIX = struct.Struct("<4sI Q")

_ROLE_DTYPE = {"weights": "<f4", "bias": "<f4", "beta": "<f8", "gamma": "<f8"}
_LAYER_FIELDS = ("kind", "in_channels", "out_channels", "kernel", "stride",
                 "padding")


def _pack(magic: bytes, header: dict, payloads) -> bytes:
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_PREFIX.pack(magic, _VERSION, len(head)), head]
    for arr in payloads:
        raw = np.ascontiguousarray(arr).tobytes()
        parts.append(_LEN.pack(len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _unpack(buf: bytes, magic: bytes):
    if len(buf) < _PREFIX.size:
        raise MalformedHeaderError("container shorter than its fixed prefix")
    got_magic, version, head_len = _PREFIX.unpack_from(buf)
    if got_magic != magic:
        raise MalformedHeaderError(
            f"bad magic {got_magic!r}; expected {magic!r}"
        )
    if version != _VERSION:
        raise VersionMismatchError(
            f"container version {version}; this build reads {_VERSION}"
        )
    off = _PREFIX.size
    if len(buf) < off + head_len:
        raise TruncatedPayloadError("header extends past end of buffer")
    try:
        header = json.loads(buf[off:off + head_len].decode("utf-8"))
    except ValueError as e:  # bad UTF-8, bad JSON or an over-long integer
        raise MalformedHeaderError(f"header is not valid JSON: {e}") from e
    if not isinstance(header, dict):
        raise MalformedHeaderError("header must be a JSON object")
    return header, off + head_len


def _read_sections(buf: bytes, off: int, shapes_dtypes):
    out = []
    for shape, dtype in shapes_dtypes:
        if len(buf) < off + _LEN.size:
            raise TruncatedPayloadError("missing payload length prefix")
        (nbytes,) = _LEN.unpack_from(buf, off)
        off += _LEN.size
        expect = math.prod(shape) * np.dtype(dtype).itemsize
        if nbytes != expect:
            raise MalformedHeaderError(
                f"payload declares {nbytes} bytes where layout needs {expect}"
            )
        if len(buf) < off + nbytes:
            raise TruncatedPayloadError("payload section ends past end of buffer")
        arr = np.frombuffer(buf, dtype=dtype, count=expect // np.dtype(dtype).itemsize,
                            offset=off).reshape(shape)
        out.append(arr)
        off += nbytes
    if off != len(buf):
        raise MalformedHeaderError(f"{len(buf) - off} trailing bytes after payloads")
    return out


def _model_header(model: ModelSpec) -> dict:
    return {"name": model.name, "role": model.role,
            "layers": [layer.scalars() for layer in model.layers]}


def _model_from(header: dict, layers) -> ModelSpec:
    return ModelSpec(name=header["name"], layers=layers, role=header["role"])


def _quant_params(entry: dict) -> QuantParams:
    return QuantParams(scale=entry["scale"], zero_point=entry["zero_point"],
                       bits=entry["bits"])


def save_model(model: ModelSpec) -> bytes:
    header = _model_header(model)
    payloads = [np.asarray(arr, dtype=_ROLE_DTYPE[role])
                for layer in model.layers
                for role, arr in layer.tensors().items()]
    return _pack(_MODEL_MAGIC, header, payloads)


def _tensor_shapes(entry: dict) -> dict:
    return LayerSpec.tensor_shapes(entry["kind"], entry["in_channels"],
                                   entry["out_channels"], entry["kernel"])


def _build_layer(entry: dict, tensors: dict) -> LayerSpec:
    return LayerSpec.from_tensors(tensors, alpha=entry.get("alpha", 0.5),
                                  **{f: entry[f] for f in _LAYER_FIELDS})


def load_model(buf: bytes) -> ModelSpec:
    header, off = _unpack(buf, _MODEL_MAGIC)
    try:
        entries = header["layers"]
        shapes = [_tensor_shapes(entry) for entry in entries]
        sections = iter(_read_sections(
            buf, off, [(shape, _ROLE_DTYPE[role])
                       for table in shapes for role, shape in table.items()]))
        layers = [_build_layer(entry, {role: next(sections) for role in table})
                  for entry, table in zip(entries, shapes)]
        return _model_from(header, layers)
    except (KeyError, TypeError) as e:
        raise MalformedHeaderError(f"model header missing field: {e}") from e


def save_quantized_model(qm) -> bytes:
    """Serialize a quantizer.QuantizedModel."""
    tensors = []
    payloads = []
    for li, layer in enumerate(qm.model.layers):
        for role in layer.tensors():
            p = qm.tensor_params[(li, role)]
            tensors.append({
                "layer": li,
                "role": role,
                "bits": p.bits,
                "scale": p.scale,
                "zero_point": p.zero_point,
                "saturated": qm.saturation.get((li, role), 0),
            })
            payloads.append(np.asarray(qm.payloads[(li, role)],
                                       dtype=int_dtype(p.bits)))
    activations = [
        {"layer": li, "bits": p.bits, "scale": p.scale, "zero_point": p.zero_point}
        for li, p in sorted(qm.activation_params.items())
    ]
    header = {**_model_header(qm.model),
              "quant": {"tensors": tensors, "activations": activations}}
    return _pack(_QUANT_MAGIC, header, payloads)


def load_quantized_model(buf: bytes):
    """Rebuild a quantizer.QuantizedModel; the embedded ModelSpec holds
    the dequantized parameters."""
    header, off = _unpack(buf, _QUANT_MAGIC)
    try:
        entries = header["layers"]
        tensors = header["quant"]["tensors"]
        shapes = [_tensor_shapes(entry) for entry in entries]
        shape_by_key = {(li, role): shape for li, table in enumerate(shapes)
                        for role, shape in table.items()}
        sections = _read_sections(buf, off, [
            (shape_by_key[(t["layer"], t["role"])], int_dtype(t["bits"]))
            for t in tensors])

        tensor_params, payloads, saturation = {}, {}, {}
        for t, arr in zip(tensors, sections):
            key = (t["layer"], t["role"])
            p = tensor_params[key] = _quant_params(t)
            # min and max, not abs, which wraps at the int16 minimum
            if arr.size and (arr.min() < p.qmin or arr.max() > p.qmax):
                raise MalformedHeaderError(
                    f"layer {key[0]} {key[1]} payload lies outside "
                    f"[{p.qmin}, {p.qmax}] of its {p.bits}-bit width")
            payloads[key] = arr
            saturation[key] = t.get("saturated", 0)

        layers = [_build_layer(entry, dequantize_tensors(li, table, tensor_params,
                                                         payloads))
                  for li, (entry, table) in enumerate(zip(entries, shapes))]
        model = _model_from(header, layers)
        activation_params = {integral_bits(a["layer"], "activation layers"):
                             _quant_params(a)
                             for a in header["quant"]["activations"]}
        return QuantizedModel(
            model=model,
            tensor_params=tensor_params,
            payloads=payloads,
            activation_params=activation_params,
            saturation=saturation,
        )
    except (KeyError, TypeError) as e:
        raise MalformedHeaderError(f"quantized header missing field: {e}") from e
