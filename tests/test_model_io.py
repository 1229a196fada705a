import json
import struct

import numpy as np
import pytest

from lic_hw_kit import (
    LayerSpec,
    MalformedHeaderError,
    ModelSpec,
    PrecisionPolicy,
    TruncatedPayloadError,
    VersionMismatchError,
    calibrate,
    load_model,
    load_quantized_model,
    ptq,
    save_model,
    save_quantized_model,
)
from conftest import make_conv, make_encoder, rand_tensor


def models_equal(a, b):
    if a.name != b.name or a.role != b.role or len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if (la.kind, la.in_channels, la.out_channels, la.kernel, la.stride,
                la.padding) != (lb.kind, lb.in_channels, lb.out_channels,
                                lb.kernel, lb.stride, lb.padding):
            return False
        if la.kind in ("conv", "deconv"):
            if not (np.array_equal(la.weights, lb.weights)
                    and np.array_equal(la.bias, lb.bias)):
                return False
        if la.kind in ("gdn", "igdn"):
            if not (np.array_equal(la.gdn_params.beta, lb.gdn_params.beta)
                    and np.array_equal(la.gdn_params.gamma,
                                       lb.gdn_params.gamma)):
                return False
    return True


def test_model_round_trip_bit_exact(rng):
    m = make_encoder(rng)
    blob = save_model(m)
    back = load_model(blob)
    assert models_equal(m, back)
    assert save_model(back) == blob


def test_gdn_params_round_trip_field_by_field(rng):
    m = make_encoder(rng)
    back = load_model(save_model(m))
    src = m.layers[1].gdn_params
    dst = back.layers[1].gdn_params
    assert np.array_equal(src.beta, dst.beta)
    assert np.array_equal(src.gamma, dst.gamma)
    assert src.alpha == dst.alpha


def test_model_blob_rejects_bad_magic(rng):
    blob = save_model(make_encoder(rng))
    with pytest.raises(MalformedHeaderError):
        load_model(b"XXXX" + blob[4:])


def test_model_blob_rejects_future_version(rng):
    blob = bytearray(save_model(make_encoder(rng)))
    blob[4:8] = (99).to_bytes(4, "little")
    with pytest.raises(VersionMismatchError):
        load_model(bytes(blob))


def test_model_blob_rejects_truncation(rng):
    blob = save_model(make_encoder(rng))
    for cut in (3, 10, len(blob) // 2, len(blob) - 1):
        with pytest.raises((TruncatedPayloadError, MalformedHeaderError)):
            load_model(blob[:cut])


def test_model_blob_rejects_trailing_garbage(rng):
    blob = save_model(make_encoder(rng))
    with pytest.raises(MalformedHeaderError):
        load_model(blob + b"\x00\x01")


def _quantized(rng):
    m = make_encoder(rng)
    calib = [rand_tensor(rng, (1, 3, 16, 16)) for _ in range(2)]
    stats = calibrate(m, calib)
    return ptq(m, stats, PrecisionPolicy())


def test_quantized_container_round_trip(rng):
    qm = _quantized(rng)
    blob = save_quantized_model(qm)
    back = load_quantized_model(blob)
    assert save_quantized_model(back) == blob
    # integer payloads survive exactly
    for key, payload in qm.payloads.items():
        assert np.array_equal(payload, back.payloads[key])
        assert qm.tensor_params[key].scale == back.tensor_params[key].scale
        assert qm.tensor_params[key].bits == back.tensor_params[key].bits


def test_quantized_container_keeps_every_quant_param(rng):
    # a zero bias takes the floor scale of an all-zero range; the loaded
    # parameters must equal ptq's, field for field
    conv = make_conv(2, 2, k=1, p=0, rng=rng)
    conv = LayerSpec(**conv.scalars(), weights=conv.weights,
                     bias=np.zeros(2, dtype=np.float32))
    m = ModelSpec(name="zero-bias", role="main_encoder", layers=[conv])
    qm = ptq(m, calibrate(m, [rand_tensor(rng, (1, 2, 4, 4))]), PrecisionPolicy())
    back = load_quantized_model(save_quantized_model(qm))
    assert back.tensor_params == qm.tensor_params
    assert back.activation_params == qm.activation_params


def test_quantized_container_distinct_magic(rng):
    qm = _quantized(rng)
    qblob = save_quantized_model(qm)
    mblob = save_model(qm.model)
    assert qblob[:4] != mblob[:4]
    with pytest.raises(MalformedHeaderError):
        load_model(qblob)
    with pytest.raises(MalformedHeaderError):
        load_quantized_model(mblob)


def test_quantized_load_floors_beta_at_one_step(rng):
    qm = _quantized(rng)
    key = (1, "beta")
    payload = qm.payloads[key].copy()
    payload[:2] = [0, -3]
    qm.payloads[key] = payload
    back = load_quantized_model(save_quantized_model(qm))
    step = qm.tensor_params[key].scale
    beta = back.model.layers[1].gdn_params.beta
    assert beta[0] == step and beta[1] == step
    assert np.array_equal(beta[2:], payload[2:] * step)
    assert np.array_equal(back.payloads[key], payload)


def test_quantized_load_reconstructs_runnable_model(rng):
    from lic_hw_kit import model_forward
    qm = _quantized(rng)
    back = load_quantized_model(save_quantized_model(qm))
    x = rand_tensor(rng, (1, 3, 16, 16))
    y = model_forward(back.model, x)
    assert y.dims == model_forward(qm.model, x).dims
    # reconstructed beta stays positive after integer flooring
    for layer in back.model.layers:
        if layer.kind in ("gdn", "igdn"):
            assert (layer.gdn_params.beta > 0).all()


_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length


def _without_layer_field(blob, field):
    """The container with `field` deleted from its first layer entry."""
    magic, version, head_len = _PREFIX.unpack_from(blob)
    header = json.loads(blob[_PREFIX.size:_PREFIX.size + head_len])
    if field is not None:
        del header["layers"][0][field]
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return (_PREFIX.pack(magic, version, len(head)) + head
            + blob[_PREFIX.size + head_len:])


@pytest.mark.parametrize("field", ["kind", "in_channels", "out_channels",
                                   "kernel", "stride", "padding"])
@pytest.mark.parametrize("container", ["float", "quantized"])
def test_layer_entry_missing_a_required_field_is_rejected(rng, container, field):
    qm = _quantized(rng)
    if container == "float":
        blob, load = save_model(qm.model), load_model
    else:
        blob, load = save_quantized_model(qm), load_quantized_model
    assert _without_layer_field(blob, None) == blob
    with pytest.raises(MalformedHeaderError, match=field):
        load(_without_layer_field(blob, field))


@pytest.mark.parametrize("bits,value", [(12, 32767), (12, -32768), (12, 2048),
                                        (12, -2048), (8, -128)])
def test_payload_outside_its_width_is_rejected(rng, bits, value):
    model = make_encoder(rng)
    qm = ptq(model, calibrate(model, [rand_tensor(rng, (1, 3, 16, 16))]),
             PrecisionPolicy(default_bits=bits))
    payload = np.array(qm.payloads[(0, "weights")])
    payload.reshape(-1)[0] = value
    qm.payloads[(0, "weights")] = payload
    with pytest.raises(MalformedHeaderError, match="layer 0 weights"):
        load_quantized_model(save_quantized_model(qm))


def test_payload_at_its_width_limits_loads(rng):
    model = make_encoder(rng)
    qm = ptq(model, calibrate(model, [rand_tensor(rng, (1, 3, 16, 16))]),
             PrecisionPolicy(default_bits=12))
    payload = np.array(qm.payloads[(0, "weights")])
    payload.reshape(-1)[:2] = (2047, -2047)
    qm.payloads[(0, "weights")] = payload
    back = load_quantized_model(save_quantized_model(qm))
    assert np.array_equal(back.payloads[(0, "weights")], payload)
