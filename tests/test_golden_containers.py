"""Golden pins for the bytes of the model and quantized-model containers.

The digests below were taken from a seeded conv/gdn/relu/deconv/igdn
model. The calibration stats come from the parameters plus fixed
activation ranges, with no forward pass, so the digests depend only on
the container format and on the quantizer's arithmetic, not on BLAS.
Any change to either shows up here as a changed digest.
"""

import hashlib

import numpy as np
import pytest

from lic_hw_kit import (
    CalibrationStats,
    GdnParams,
    LayerSpec,
    ModelSpec,
    PrecisionPolicy,
    load_model,
    load_quantized_model,
    ptq,
    save_model,
    save_quantized_model,
    traffic_of_model,
)
from lic_hw_kit.quantizer import INPUT_INDEX
from conftest import with_header

MODEL_SHA256 = "a45fd832899daff8c4db8fc1ef6cd5e62b88fa88b8ff5aa42fa1830d98865975"
QUANT_SHA256 = {
    "default": "8a4db0f053d5b927985c309ff7d55dae6d3f7d941c9a6539b38c8260e4a2734a",
    "mixed": "0876acb880e386a3b46faad3a0e60794e22bc32fdff30a95f2b66b4b850f4d94",
    "overrides": "3be5a0c7d340893d5d000dfa19c8ec8865804d91d19df937b849634b3b21bd67",
}

# The same containers in the older header layout, which also carried a
# "format" key and a "bit_widths" list that no reader used; loaders skip
# both, as they skip any key they do not read.
OLD_LAYOUT = {
    "model": ("lic-model",
              "b08837573f4fb7c67e4cbe62cf03d17431f26b1a80350c8295895d38cb250f72"),
    "default": ("lic-quant-model",
                "aa2ba704625ec991a3ed5721f598b48dc996a9b63e8bee8c77b718b59f073cb5"),
    "mixed": ("lic-quant-model",
              "4df40e5f8902c9147047870d272664ea1088d5db63bf5650e79091f81d2dc04b"),
    "overrides": ("lic-quant-model",
                  "d0ef6414696ff144b0c41c76a0ffe5e7395e3db2d04b7f4a68f3480febc7101d"),
}
OLD_BIT_WIDTHS = [8, 16, 8, 8, 16]

POLICIES = {
    "default": PrecisionPolicy(),
    "mixed": PrecisionPolicy(default_bits=4, gdn_bits=8),
    "overrides": PrecisionPolicy(overrides={0: 3, 1: 16, 3: 12}),
}

# fixed (min, max) per activation: the input first, then layers 0..4
ACTIVATION_RANGES = [(0.0, 1.0), (-1.5, 2.25), (-0.8, 0.9), (0.0, 0.9),
                     (-2.0, 1.75), (-3.0, 3.5)]


def golden_model() -> ModelSpec:
    r = np.random.default_rng(4242)

    def filt(kind, cin, cout, k, s, p):
        return LayerSpec(kind=kind, in_channels=cin, out_channels=cout,
                         kernel=k, stride=s, padding=p,
                         weights=r.normal(0.0, 0.2, (cout, cin, k, k)),
                         bias=r.normal(0.0, 0.05, cout))

    def norm(kind, c, alpha):
        return LayerSpec(kind=kind, in_channels=c, out_channels=c,
                         gdn_params=GdnParams(beta=r.uniform(0.5, 2.0, c),
                                              gamma=r.uniform(0.0, 0.1, (c, c)),
                                              alpha=alpha))

    layers = [
        filt("conv", 3, 6, 5, 2, 2),
        norm("gdn", 6, 0.5),
        LayerSpec(kind="relu", in_channels=6, out_channels=6),
        filt("deconv", 6, 4, 3, 2, 1),
        norm("igdn", 4, 0.75),
    ]
    return ModelSpec(name="golden", layers=layers, role="main_decoder")


def golden_stats(model: ModelSpec) -> CalibrationStats:
    stats = CalibrationStats()
    for li, layer in enumerate(model.layers):
        if layer.weights is not None:
            stats.observe(li, "weights", layer.weights)
            stats.observe(li, "bias", layer.bias)
        if layer.gdn_params is not None:
            stats.observe(li, "beta", layer.gdn_params.beta)
            stats.observe(li, "gamma", layer.gdn_params.gamma)
    for li, (lo, hi) in zip([INPUT_INDEX, 0, 1, 2, 3, 4], ACTIVATION_RANGES):
        stats.observe(li, "activation", np.array([lo, hi]))
    return stats


def _sha(buf: bytes) -> str:
    return hashlib.sha256(buf).hexdigest()


def test_model_container_bytes_are_pinned():
    buf = save_model(golden_model())
    assert _sha(buf) == MODEL_SHA256
    assert save_model(load_model(buf)) == buf


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_quantized_container_bytes_are_pinned(name):
    model = golden_model()
    qm = ptq(model, golden_stats(model), POLICIES[name])
    buf = save_quantized_model(qm)
    assert _sha(buf) == QUANT_SHA256[name]
    assert save_quantized_model(load_quantized_model(buf)) == buf


def _containers(name):
    """(new bytes, load, save) of one golden container."""
    model = golden_model()
    if name == "model":
        return save_model(model), load_model, save_model
    qm = ptq(model, golden_stats(model), POLICIES[name])
    return save_quantized_model(qm), load_quantized_model, save_quantized_model


@pytest.mark.parametrize("name", sorted(OLD_LAYOUT))
def test_old_header_layout_loads_and_saves_in_the_new_one(name):
    buf, load, save = _containers(name)
    fmt, digest = OLD_LAYOUT[name]
    old = with_header(buf, lambda h: h.update(format=fmt,
                                              bit_widths=OLD_BIT_WIDTHS))
    assert _sha(old) == digest
    assert save(load(old)) == buf


@pytest.mark.parametrize("name", ["mixed", "overrides"])
def test_traffic_counts_each_layer_at_the_width_ptq_gives_it(name):
    model = golden_model()
    qm = ptq(model, golden_stats(model), POLICIES[name])
    rows = traffic_of_model(model, (16, 16), POLICIES[name])
    weighted = [li for li, layer in enumerate(model.layers)
                if layer.weights is not None]
    assert [row.bits for row in rows] == \
        [qm.tensor_params[(li, "weights")].bits for li in weighted]
