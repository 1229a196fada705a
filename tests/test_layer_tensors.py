"""Differential tests: the layer-tensor table and the hooked forward pass
against the per-kind code they replaced.

The oracles below are the package's earlier implementation: a
fake-quant forward with its own loop over layers and its own weight,
bias, beta and gamma quantize-dequantize per kind; calibrate recording
every activation; dequantize_model and pruning's channel selection
each spelling out the tensors of every kind. The package now reads the
tensors from ``LayerSpec.tensors()`` and runs fake-quant as the
reference forward with an activation hook. Both sides do the same
float64 arithmetic in the same order, so every output must be bitwise
equal.
"""

import numpy as np
import pytest

from lic_hw_kit import (
    GdnParams,
    LayerSpec,
    ModelSpec,
    PrecisionPolicy,
    Tensor,
    calibrate,
    conv2d_forward,
    deconv2d_forward,
    dequantize,
    dequantize_model,
    fake_quant_forward,
    gdn_float,
    igdn_float,
    ptq,
    quant_params_from_stats,
    quantize,
    quantize_with_stats,
    relu_forward,
)
from lic_hw_kit.pruning import _apply_keeps
from lic_hw_kit.quantizer import INPUT_INDEX, CalibrationStats

from conftest import make_conv, make_gdn

POLICIES = {
    "default": PrecisionPolicy(),
    "narrow": PrecisionPolicy(default_bits=4, gdn_bits=8),
    "overrides": PrecisionPolicy(overrides={0: 3, 1: 16}),
}


def _relu(c):
    return LayerSpec(kind="relu", in_channels=c, out_channels=c)


def encoder(rng):
    return ModelSpec(name="enc", role="main_encoder", layers=[
        make_conv(3, 6, s=2, rng=rng), make_gdn(6, rng=rng), _relu(6),
        make_conv(6, 4, s=2, rng=rng),
    ])


def decoder(rng):
    return ModelSpec(name="dec", role="main_decoder", layers=[
        make_conv(4, 6, k=4, s=2, p=1, rng=rng, kind="deconv"),
        make_gdn(6, kind="igdn", rng=rng), _relu(6),
        make_conv(6, 3, k=4, s=2, p=1, rng=rng, kind="deconv"),
    ])


MODELS = {"encoder": (encoder, (3, 16, 16)), "decoder": (decoder, (4, 4, 4))}


# ---------------------------------------------------------------------------
# Oracles: the earlier per-kind implementation
# ---------------------------------------------------------------------------


def _layer_forward(x, layer):
    if layer.kind == "conv":
        return conv2d_forward(x, layer)
    if layer.kind == "deconv":
        return deconv2d_forward(x, layer)
    if layer.kind == "gdn":
        return gdn_float(x, layer.gdn_params)
    if layer.kind == "igdn":
        return igdn_float(x, layer.gdn_params)
    return relu_forward(x, layer)


def _qdq(x, p):
    return dequantize(quantize(x, p), p)


def _quantize_beta(beta, p):
    q, n = quantize_with_stats(beta, p)
    return np.maximum(q, 1).astype(q.dtype), n


def oracle_calibrate(model, inputs):
    stats = CalibrationStats()
    for li, layer in enumerate(model.layers):
        if layer.kind in ("conv", "deconv"):
            stats.observe(li, "weights", layer.weights)
            stats.observe(li, "bias", layer.bias)
        elif layer.kind in ("gdn", "igdn"):
            stats.observe(li, "beta", layer.gdn_params.beta)
            stats.observe(li, "gamma", layer.gdn_params.gamma)
    for x in inputs:
        stats.observe(INPUT_INDEX, "activation", x.data)
        acts, cur = [], x
        for layer in model.layers:
            cur = _layer_forward(cur, layer)
            acts.append(cur)
        for li, act in enumerate(acts):
            stats.observe(li, "activation", act.data)
    return stats


def oracle_fake_quant_forward(model, stats, policy, x, qdq_input=True):
    """qdq_input=False skips the input quantize-dequantize: a fault the
    bitwise check must catch."""
    cur = x
    if qdq_input:
        in_p = quant_params_from_stats(stats.get(INPUT_INDEX, "activation"),
                                       policy.default_bits)
        cur = Tensor(_qdq(x.data, in_p).reshape(x.dims))
    for li, layer in enumerate(model.layers):
        bits = policy.resolve(li, layer)
        if layer.kind in ("conv", "deconv"):
            wp = quant_params_from_stats(stats.get(li, "weights"), bits)
            bp = quant_params_from_stats(stats.get(li, "bias"), bits)
            qlayer = LayerSpec(
                kind=layer.kind,
                in_channels=layer.in_channels,
                out_channels=layer.out_channels,
                kernel=layer.kernel, stride=layer.stride, padding=layer.padding,
                weights=_qdq(layer.weights, wp),
                bias=_qdq(layer.bias, bp),
            )
            fwd = conv2d_forward if layer.kind == "conv" else deconv2d_forward
            cur = fwd(cur, qlayer)
        elif layer.kind in ("gdn", "igdn"):
            bp = quant_params_from_stats(stats.get(li, "beta"), bits)
            gp = quant_params_from_stats(stats.get(li, "gamma"), bits)
            beta_q, _ = _quantize_beta(layer.gdn_params.beta, bp)
            params = GdnParams(
                beta=dequantize(beta_q, bp),
                gamma=_qdq(layer.gdn_params.gamma, gp),
                alpha=layer.gdn_params.alpha,
            )
            op = gdn_float if layer.kind == "gdn" else igdn_float
            cur = op(cur, params)
        else:
            cur = relu_forward(cur, layer)
        ap = quant_params_from_stats(stats.get(li, "activation"), bits)
        cur = Tensor(_qdq(cur.data, ap).reshape(cur.dims))
    return cur


def oracle_dequantize_model(qm):
    layers = []
    for li, layer in enumerate(qm.model.layers):
        if layer.kind in ("conv", "deconv"):
            layers.append(LayerSpec(
                kind=layer.kind,
                in_channels=layer.in_channels,
                out_channels=layer.out_channels,
                kernel=layer.kernel, stride=layer.stride, padding=layer.padding,
                weights=dequantize(qm.payloads[(li, "weights")],
                                   qm.tensor_params[(li, "weights")]),
                bias=dequantize(qm.payloads[(li, "bias")],
                                qm.tensor_params[(li, "bias")]),
            ))
        elif layer.kind in ("gdn", "igdn"):
            beta_p = qm.tensor_params[(li, "beta")]
            beta = dequantize(qm.payloads[(li, "beta")], beta_p)
            gamma = dequantize(qm.payloads[(li, "gamma")],
                               qm.tensor_params[(li, "gamma")])
            params = GdnParams(beta=np.maximum(beta, beta_p.scale), gamma=gamma,
                               alpha=layer.gdn_params.alpha)
            layers.append(LayerSpec(
                kind=layer.kind,
                in_channels=layer.in_channels,
                out_channels=layer.out_channels,
                gdn_params=params,
            ))
        else:
            layers.append(layer)
    return ModelSpec(name=qm.model.name, layers=layers, role=qm.model.role)


def oracle_apply_keeps(model, keep_out):
    layers = []
    keep_in = np.arange(model.layers[0].in_channels)
    for li, layer in enumerate(model.layers):
        if layer.kind in ("conv", "deconv"):
            keep = keep_out.get(li, np.arange(layer.out_channels))
            layers.append(LayerSpec(
                kind=layer.kind,
                in_channels=len(keep_in),
                out_channels=len(keep),
                kernel=layer.kernel, stride=layer.stride, padding=layer.padding,
                weights=layer.weights[np.ix_(keep, keep_in)],
                bias=layer.bias[keep],
            ))
            keep_in = keep
        elif layer.kind in ("gdn", "igdn"):
            p = layer.gdn_params
            layers.append(LayerSpec(
                kind=layer.kind,
                in_channels=len(keep_in),
                out_channels=len(keep_in),
                gdn_params=GdnParams(
                    beta=p.beta[keep_in],
                    gamma=p.gamma[np.ix_(keep_in, keep_in)],
                    alpha=p.alpha,
                ),
            ))
        else:
            layers.append(LayerSpec(
                kind="relu",
                in_channels=len(keep_in),
                out_channels=len(keep_in),
            ))
    return ModelSpec(name=model.name, layers=layers, role=model.role)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _stats_dict(stats):
    return {k: (v.min_val, v.max_val) for k, v in stats.entries.items()}


def _assert_same_model(got, want):
    assert (got.name, got.role) == (want.name, want.role)
    assert len(got.layers) == len(want.layers)
    for a, b in zip(got.layers, want.layers):
        assert (a.kind, a.in_channels, a.out_channels, a.kernel, a.stride,
                a.padding) == (b.kind, b.in_channels, b.out_channels, b.kernel,
                               b.stride, b.padding)
        for x, y in ((a.weights, b.weights), (a.bias, b.bias)):
            assert (x is None) == (y is None)
            if x is not None:
                assert x.dtype == y.dtype and np.array_equal(x, y)
        assert (a.gdn_params is None) == (b.gdn_params is None)
        if a.gdn_params is not None:
            assert a.gdn_params.alpha == b.gdn_params.alpha
            for x, y in ((a.gdn_params.beta, b.gdn_params.beta),
                         (a.gdn_params.gamma, b.gdn_params.gamma)):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def _case(which, batch):
    rng = np.random.default_rng(20240817)
    build, dims = MODELS[which]
    model = build(rng)
    inputs = [Tensor(rng.uniform(-1.0, 1.0, (batch, *dims)).astype(np.float32))
              for _ in range(2)]
    return model, inputs


CASES = [(p, m, b) for p in sorted(POLICIES) for m in sorted(MODELS)
         for b in (1, 2)]


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", sorted(MODELS))
@pytest.mark.parametrize("batch", [1, 2])
def test_calibrate_matches_oracle(which, batch):
    model, inputs = _case(which, batch)
    got, want = calibrate(model, inputs), oracle_calibrate(model, inputs)
    assert list(got.entries) == list(want.entries)
    assert _stats_dict(got) == _stats_dict(want)


@pytest.mark.parametrize("policy,which,batch", CASES)
def test_fake_quant_forward_matches_oracle(policy, which, batch):
    model, inputs = _case(which, batch)
    stats = oracle_calibrate(model, inputs)
    pol = POLICIES[policy]
    for x in inputs:
        got = fake_quant_forward(model, stats, pol, x)
        want = oracle_fake_quant_forward(model, stats, pol, x)
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("policy,which,batch",
                         [c for c in CASES if c[0] != "overrides"])
def test_fake_quant_oracle_without_input_qdq_differs(policy, which, batch):
    """Negative control. Left out: the 3-bit first layer of "overrides",
    whose coarse activation grid can absorb the input's rounding."""
    model, inputs = _case(which, batch)
    stats = oracle_calibrate(model, inputs)
    pol = POLICIES[policy]
    got = fake_quant_forward(model, stats, pol, inputs[0])
    broken = oracle_fake_quant_forward(model, stats, pol, inputs[0],
                                       qdq_input=False)
    assert not np.array_equal(got.data, broken.data)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("which", sorted(MODELS))
def test_dequantize_model_matches_oracle(policy, which):
    model, inputs = _case(which, 1)
    qm = ptq(model, oracle_calibrate(model, inputs), POLICIES[policy])
    _assert_same_model(dequantize_model(qm), oracle_dequantize_model(qm))


@pytest.mark.parametrize("which,keep_out", [
    ("encoder", {0: np.array([0, 2, 3, 5])}),
    ("encoder", {0: np.array([4]), 3: np.array([1, 2])}),
    ("decoder", {0: np.array([1, 2, 4])}),
    ("decoder", {}),
])
def test_apply_keeps_matches_oracle(which, keep_out):
    model, _ = _case(which, 1)
    _assert_same_model(_apply_keeps(model, keep_out),
                       oracle_apply_keeps(model, keep_out))


def test_tensor_table_lists_every_parameter():
    model, _ = _case("encoder", 1)
    conv, gdn, relu = model.layers[0], model.layers[1], model.layers[2]
    assert list(conv.tensors()) == ["weights", "bias"]
    assert conv.tensors()["weights"] is conv.weights
    assert list(gdn.tensors()) == ["beta", "gamma"]
    assert gdn.tensors()["gamma"] is gdn.gdn_params.gamma
    assert relu.tensors() == {}
    for layer in model.layers:
        shapes = LayerSpec.tensor_shapes(layer.kind, layer.in_channels,
                                         layer.out_channels, layer.kernel)
        assert shapes == {r: t.shape for r, t in layer.tensors().items()}
        assert layer.param_count() == sum(t.size for t in layer.tensors().values())
