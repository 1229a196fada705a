import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lic_hw_kit import (
    CalibrationError,
    DomainError,
    ParameterError,
    PrecisionPolicy,
    QuantParams,
    StatRange,
    Tensor,
    calibrate,
    dequantize,
    dequantize_model,
    fake_quant_forward,
    model_forward,
    ptq,
    quant_params_from_stats,
    quantize,
    quantize_with_stats,
)
from lic_hw_kit.quantizer import INPUT_INDEX, SCALE_FLOOR
from conftest import make_encoder, rand_tensor


# ---------------------------------------------------------------------------
# Scale selection
# ---------------------------------------------------------------------------


def test_scale_covers_saturating_extreme():
    p = quant_params_from_stats(StatRange(-3.0, 5.0), bits=8)
    assert p.scale == 5.0 / 127
    assert p.zero_point == 0
    q, sat = quantize_with_stats(np.array([5.0, -3.0]), p)
    assert sat == 0
    assert q[0] == 127


def test_scale_uses_larger_magnitude_side():
    p = quant_params_from_stats(StatRange(-6.0, 2.0), bits=8)
    assert p.scale == 6.0 / 127


def test_all_zero_range_takes_the_floor_scale():
    p = quant_params_from_stats(StatRange(0.0, 0.0), bits=8)
    assert p.scale == SCALE_FLOOR
    q, _ = quantize_with_stats(np.zeros(4), p)
    assert np.array_equal(q, np.zeros(4, dtype=q.dtype))


def test_bits_out_of_range_rejected():
    with pytest.raises(ParameterError):
        quant_params_from_stats(StatRange(-1.0, 1.0), bits=1)
    with pytest.raises(ParameterError):
        quant_params_from_stats(StatRange(-1.0, 1.0), bits=33)


@pytest.mark.parametrize("bits", [8.5, "8", None, float("nan")])
def test_non_integral_bits_rejected(bits):
    with pytest.raises(ParameterError, match="integers"):
        quant_params_from_stats(StatRange(-1.0, 1.0), bits=bits)
    with pytest.raises(ParameterError, match="integers"):
        QuantParams(scale=0.5, zero_point=0, bits=bits)


def test_integral_float_bits_accepted():
    p = quant_params_from_stats(StatRange(-1.0, 1.0), bits=8.0)
    assert p == quant_params_from_stats(StatRange(-1.0, 1.0), bits=8)
    assert type(p.bits) is int


def test_nonzero_zero_point_rejected():
    with pytest.raises(ParameterError):
        QuantParams(scale=0.1, zero_point=3, bits=8)


# ---------------------------------------------------------------------------
# Quantize/dequantize properties
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_round_trip_within_half_scale(seed):
    rng = np.random.default_rng(seed)
    lim = float(rng.uniform(0.5, 20.0))
    x = rng.uniform(-lim, lim, 512).astype(np.float32)
    stats = StatRange(float(x.min()), float(x.max()))
    p = quant_params_from_stats(stats, bits=8)
    q, sat = quantize_with_stats(x, p)
    assert sat == 0
    assert np.abs(dequantize(q, p) - x.astype(np.float64)).max() <= p.scale / 2


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_negation_symmetry(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, 256).astype(np.float32)
    p = quant_params_from_stats(StatRange(-4.0, 4.0), bits=8)
    q_pos, _ = quantize_with_stats(x, p)
    q_neg, _ = quantize_with_stats(-x, p)
    assert np.array_equal(q_neg, -q_pos)


def test_clamp_is_symmetric():
    p = quant_params_from_stats(StatRange(-1.0, 1.0), bits=8)
    q, sat = quantize_with_stats(np.array([10.0, -10.0]), p)
    assert np.array_equal(q, np.array([127, -127]))
    assert sat == 2


@pytest.mark.parametrize("bits,dtype", [(2, np.int8), (8, np.int8),
                                        (16, np.int16), (32, np.int32)])
def test_payload_dtype_matches_width(bits, dtype):
    p = quant_params_from_stats(StatRange(-1.0, 1.0), bits=bits)
    q, _ = quantize_with_stats(np.array([0.5]), p)
    assert q.dtype == dtype



@pytest.mark.parametrize("bits,values", [
    (8, [200.0, -200.0]),
    (8, [1e30, -1e30]),
    (16, [1e30, -1e30]),
    (32, [1e30, -1e30]),
])
def test_quantize_saturates_to_the_limits(bits, values):
    p = quant_params_from_stats(StatRange(-1.0, 1.0), bits=bits)
    q, sat = quantize_with_stats(np.array(values + [0.5]), p)
    assert q.tolist() == [p.qmax, p.qmin, round(0.5 / p.scale)]
    assert sat == 2


@pytest.mark.parametrize("bits", [8, 16, 32])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite_values(bits, bad):
    p = quant_params_from_stats(StatRange(-1.0, 1.0), bits=bits)
    with pytest.raises(DomainError, match="NaN or infinite"):
        quantize_with_stats(np.array([0.5, bad, 200.0]), p)
    with pytest.raises(DomainError, match="NaN or infinite"):
        quantize(np.float32(bad), p)

# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_calibrate_tracks_params_and_activations(rng):
    model = make_encoder(rng)
    calib = [rand_tensor(rng, (1, 3, 16, 16)) for _ in range(3)]
    stats = calibrate(model, calib)
    assert stats.get(INPUT_INDEX, "activation") is not None
    assert stats.get(0, "weights") is not None
    assert stats.get(1, "beta") is not None
    assert stats.get(1, "gamma") is not None
    for li in range(len(model.layers)):
        assert stats.get(li, "activation") is not None
    with pytest.raises(CalibrationError):
        stats.get(99, "weights")


def test_calibrate_ranges_grow_monotonically(rng):
    model = make_encoder(rng)
    small = calibrate(model, [rand_tensor(rng, (1, 3, 16, 16), -0.1, 0.1)])
    big = calibrate(model, [rand_tensor(rng, (1, 3, 16, 16), -0.1, 0.1),
                            rand_tensor(rng, (1, 3, 16, 16), -2.0, 2.0)])
    s = small.get(INPUT_INDEX, "activation")
    b = big.get(INPUT_INDEX, "activation")
    assert b.min_val <= s.min_val and b.max_val >= s.max_val


def test_calibrate_requires_inputs(rng):
    with pytest.raises(CalibrationError):
        calibrate(make_encoder(rng), [])


# ---------------------------------------------------------------------------
# Whole-model PTQ
# ---------------------------------------------------------------------------


def test_policy_resolution_order(rng):
    model = make_encoder(rng)
    pol = PrecisionPolicy(default_bits=8, gdn_bits=32, overrides={0: 16})
    assert pol.resolve(0, model.layers[0]) == 16  # override beats default
    assert pol.resolve(1, model.layers[1]) == 32  # gdn pinned wide
    assert pol.resolve(2, model.layers[2]) == 8
    pinned = PrecisionPolicy(overrides={1: 8})
    assert pinned.resolve(1, model.layers[1]) == 8  # override beats gdn rule


@pytest.mark.parametrize("kwargs", [
    {"overrides": {0: 8.5}},
    {"overrides": {0: "a"}},
    {"default_bits": 7.5},
    {"gdn_bits": "16"},
    {"overrides": {"0": 16}},
    {"overrides": {0.5: 16}},
])
def test_policy_rejects_non_integral_widths(kwargs):
    with pytest.raises(ParameterError, match="integers"):
        PrecisionPolicy(**kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"default_bits": 33}, "default_bits must be at most 32; got 33"),
    ({"gdn_bits": 1}, "gdn_bits must be >= 2; got 1"),
    ({"overrides": {3: 64}}, "override bits of layer 3 must be at most 32; got 64"),
])
def test_policy_range_errors_name_the_setting(kwargs, name):
    with pytest.raises(ParameterError, match=f"^{name}$"):
        PrecisionPolicy(**kwargs)


@pytest.mark.parametrize("overrides", [None, [8]])
def test_policy_rejects_overrides_that_are_not_a_mapping(overrides):
    with pytest.raises(ParameterError, match="overrides"):
        PrecisionPolicy(overrides=overrides)


@pytest.mark.parametrize("layer", [INPUT_INDEX, 5, 99])
def test_ptq_rejects_overrides_naming_no_layer(rng, layer):
    model = make_encoder(rng)  # layers 0..4
    stats = calibrate(model, [rand_tensor(rng, (1, 3, 16, 16))])
    with pytest.raises(ParameterError, match=f"layers \\[{layer}\\]"):
        ptq(model, stats, PrecisionPolicy(overrides={0: 16, layer: 16}))


def test_policy_accepts_integral_float_widths(rng):
    model = make_encoder(rng)
    pol = PrecisionPolicy(default_bits=4.0, gdn_bits=16.0, overrides={2: 12.0})
    got = [pol.resolve(i, layer) for i, layer in enumerate(model.layers)]
    assert got == [4, 16, 12, 16, 4]
    assert all(type(b) is int for b in got)


def test_ptq_quantizes_every_tensor(rng):
    model = make_encoder(rng)
    stats = calibrate(model, [rand_tensor(rng, (1, 3, 16, 16))])
    qm = ptq(model, stats, PrecisionPolicy())
    for li, layer in enumerate(model.layers):
        if layer.kind in ("conv", "deconv"):
            assert (li, "weights") in qm.payloads
            assert (li, "bias") in qm.payloads
        if layer.kind in ("gdn", "igdn"):
            assert (li, "beta") in qm.payloads
            assert (li, "gamma") in qm.payloads
            assert qm.tensor_params[(li, "beta")].bits == 32
    rows = qm.scale_report()
    assert len(rows) == len(qm.payloads) + len(qm.activation_params)
    assert all(r["scale"] > 0 for r in rows)


def test_ptq_beta_never_quantizes_to_zero(rng):
    model = make_encoder(rng)
    stats = calibrate(model, [rand_tensor(rng, (1, 3, 16, 16))])
    qm = ptq(model, stats, PrecisionPolicy(gdn_bits=2))  # brutal width
    for li, layer in enumerate(model.layers):
        if layer.kind in ("gdn", "igdn"):
            assert (qm.payloads[(li, "beta")] >= 1).all()


def test_dequantize_model_is_runnable_and_close(rng):
    model = make_encoder(rng)
    x = rand_tensor(rng, (1, 3, 16, 16))
    stats = calibrate(model, [x])
    qm = ptq(model, stats, PrecisionPolicy(default_bits=16))
    deq = dequantize_model(qm)
    y_ref = model_forward(model, x)
    y_deq = model_forward(deq, x)
    assert y_deq.dims == y_ref.dims
    scale = max(np.abs(y_ref.data).max(), 1.0)
    assert np.abs(y_deq.data - y_ref.data).max() <= 0.05 * scale


def test_fake_quant_forward_matches_dims_and_determinism(rng):
    model = make_encoder(rng)
    x = rand_tensor(rng, (1, 3, 16, 16))
    stats = calibrate(model, [x])
    pol = PrecisionPolicy(default_bits=8)
    a = fake_quant_forward(model, stats, pol, x)
    b = fake_quant_forward(model, stats, pol, x)
    assert a.dims == model_forward(model, x).dims
    assert np.array_equal(a.data, b.data)


def test_fake_quant_error_shrinks_with_width(rng):
    model = make_encoder(rng)
    x = rand_tensor(rng, (1, 3, 16, 16))
    stats = calibrate(model, [x])
    ref = model_forward(model, x).data
    err8 = np.abs(fake_quant_forward(
        model, stats, PrecisionPolicy(default_bits=8), x).data - ref).max()
    err16 = np.abs(fake_quant_forward(
        model, stats, PrecisionPolicy(default_bits=16), x).data - ref).max()
    assert err16 <= err8
