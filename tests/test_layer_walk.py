"""The one extent walk and the one layer-size table in model.py, and the
cost rows perf_model.layer_costs reads from that walk."""

import numpy as np
import pytest

from lic_hw_kit import (
    GdnParams,
    LayerSpec,
    LayerTraffic,
    ModelSpec,
    ParameterError,
    PrecisionPolicy,
    PruneSchedule,
    ShapeError,
    flops_of,
    iterative_prune,
    layer_costs,
    model_forward,
    traffic_of_model,
)
from lic_hw_kit.model import MAX_LAYER_STEP, layer_extents
from conftest import make_conv, make_gdn, rand_tensor
from test_tensor_model import loop_count_ops

_CONV_GEOMETRY = [(k, s, p) for k in (1, 3, 5) for s in (1, 2) for p in (0, 1, 2)]


def _under_test(kind, k, s, p, rng):
    if kind in ("conv", "deconv"):
        return make_conv(4, 3, k=k, s=s, p=p, rng=rng, kind=kind)
    if kind == "relu":
        return LayerSpec(kind="relu", in_channels=4, out_channels=4)
    return make_gdn(4, kind=kind, rng=rng)


_EVERY_KIND = ([(kind, *g) for kind in ("conv", "deconv") for g in _CONV_GEOMETRY]
               + [(kind, 1, 1, 0) for kind in ("gdn", "igdn", "relu")])


def _walked(kind, k, s, p, rng):
    """A strided conv, so the layer under test sees a changed extent,
    then that layer; its forward on one image, and every map the forward
    made, the input included."""
    model = ModelSpec(name="walk", role="main_encoder",
                      layers=[make_conv(3, 4, k=3, s=2, p=1, rng=rng),
                              _under_test(kind, k, s, p, rng)])
    maps = [rand_tensor(rng, (1, 3, 13, 10))]
    model_forward(model, maps[0], on_layer=lambda i, layer, out: maps.append(out))
    return model, maps


@pytest.mark.parametrize("kind, k, s, p", _EVERY_KIND)
def test_walk_extents_match_forward_and_traffic(rng, kind, k, s, p):
    model, maps = _walked(kind, k, s, p, rng)
    x = maps[0]
    seen = [(m.h, m.w) for m in maps]
    walk = list(layer_extents(model, (x.h, x.w)))
    assert [layer for layer, _, _ in walk] == model.layers
    assert [hw_in for _, hw_in, _ in walk] == seen[:-1]
    assert [hw_out for _, _, hw_out in walk] == seen[1:]

    costs = layer_costs(model, (x.h, x.w))
    assert [r.layer for r in costs] == model.layers
    assert [r.in_hw for r in costs] == seen[:-1]
    assert [r.out_hw for r in costs] == seen[1:]

    rows = traffic_of_model(model, (x.h, x.w))
    weighted = [i for i, layer in enumerate(model.layers)
                if layer.weights is not None]
    assert [(r.h, r.w) for r in rows] == [seen[i] for i in weighted]


def test_walk_names_the_layer_that_collapses(rng):
    model = ModelSpec(name="walk", role="main_encoder",
                      layers=[make_conv(3, 4, k=3, s=2, p=0, rng=rng)])
    with pytest.raises(ShapeError, match="conv maps 2x9 below 1x1"):
        list(layer_extents(model, (2, 9)))


@pytest.mark.parametrize("bits", [8, 16])
@pytest.mark.parametrize("kind, k, s, p", _EVERY_KIND)
def test_layer_costs_match_a_loop_count(rng, kind, k, s, p, bits):
    """ops by loop count; each map's bytes from the element count of the
    map the forward made; weight bytes from the kind's tensor shapes."""
    model, maps = _walked(kind, k, s, p, rng)
    costs = layer_costs(model, (maps[0].h, maps[0].w),
                        PrecisionPolicy(default_bits=bits, gdn_bits=bits))
    assert [r.ops for r in costs] == loop_count_ops(model, maps[0].h, maps[0].w)
    assert [r.bits for r in costs] == [bits, bits]
    assert [r.in_bytes for r in costs] == [m.data.size * bits / 8 for m in maps[:-1]]
    assert [r.out_bytes for r in costs] == [m.data.size * bits / 8 for m in maps[1:]]
    params = {"conv": 3 * 4 * k * k + 3, "deconv": 3 * 4 * k * k + 3,
              "gdn": 4 + 4 * 4, "igdn": 4 + 4 * 4, "relu": 0}
    assert [r.weight_bytes for r in costs] == [
        (4 * 3 * 9 + 4) * bits / 8, params[kind] * bits / 8]


def _every_kind_model(rng):
    return ModelSpec(name="m", role="main_decoder", layers=[
        make_conv(3, 6, k=5, s=2, p=2, rng=rng),
        make_gdn(6, rng=rng),
        LayerSpec(kind="relu", in_channels=6, out_channels=6),
        make_conv(6, 4, k=5, s=2, p=2, rng=rng, kind="deconv"),
        make_gdn(4, kind="igdn", rng=rng),
        make_conv(4, 2, k=3, s=3, p=0, rng=rng, kind="deconv"),
    ])


def test_flops_of_is_the_ops_column(rng):
    model = _every_kind_model(rng)
    for hw in ((13, 9), (8, 8)):
        assert flops_of(model, hw).per_layer == [r.ops for r in layer_costs(model, hw)]


@pytest.mark.parametrize("policy", [
    PrecisionPolicy(), PrecisionPolicy(default_bits=16, gdn_bits=8, overrides={3: 4})])
def test_traffic_of_model_is_the_weighted_rows(rng, policy):
    model = _every_kind_model(rng)
    rows = [r for r in layer_costs(model, (13, 9), policy) if r.layer.weights is not None]
    assert [r.layer.kind for r in rows] == ["conv", "deconv", "deconv"]
    assert traffic_of_model(model, (13, 9), policy) == [
        LayerTraffic(h=r.in_hw[0], w=r.in_hw[1], n_in=r.layer.in_channels,
                     n_out=r.layer.out_channels, kernel=r.layer.kernel, bits=r.bits)
        for r in rows]


_EXTENT_USERS = {
    "layer_extents": lambda m, hw: list(layer_extents(m, hw)),
    "layer_costs": layer_costs,
    "flops_of": flops_of,
    "traffic_of_model": traffic_of_model,
    "iterative_prune": lambda m, hw: iterative_prune(m, PruneSchedule(),
                                                     input_hw=hw),
}


def _relu_model():
    return ModelSpec(name="relu", role="main_encoder",
                     layers=[LayerSpec(kind="relu", in_channels=3, out_channels=3)])


@pytest.mark.parametrize("hw, message", [
    ((-4, 5), "must be >= 1"), ((0, 0), "must be >= 1"), ((4, -1), "must be >= 1"),
    ((2.5, 4), "must be integers"), ((4, "5"), "must be integers"),
])
@pytest.mark.parametrize("use", sorted(_EXTENT_USERS))
def test_input_extents_must_be_positive_integers(use, hw, message):
    with pytest.raises(ParameterError, match=f"input extents {message}"):
        _EXTENT_USERS[use](_relu_model(), hw)


def test_integral_float_input_extents_count_like_ints():
    model = _relu_model()
    assert flops_of(model, (4.0, 5.0)) == flops_of(model, (4, 5))
    assert flops_of(model, (4, 5)).total == 60


@pytest.mark.parametrize("field, value", [
    ("stride", float("nan")), ("stride", 1.5), ("padding", 0.5),
    ("kernel", "3"), ("in_channels", None), ("out_channels", float("inf")),
])
def test_layer_sizes_must_be_integers(rng, field, value):
    sizes = {"in_channels": 3, "out_channels": 4, "kernel": 3, "stride": 1,
             "padding": 1}
    good = make_conv(3, 4, rng=rng)
    with pytest.raises(ParameterError, match=f"layer sizes \\({field}\\)"):
        LayerSpec(kind="conv", **{**sizes, field: value},
                  weights=good.weights, bias=good.bias)


@pytest.mark.parametrize("value", [MAX_LAYER_STEP + 1, 2 ** 40, 1e308])
@pytest.mark.parametrize("field", ["stride", "padding"])
@pytest.mark.parametrize("kind", ["conv", "deconv"])
def test_stride_and_padding_are_bounded(rng, kind, field, value):
    # no payload byte backs these two, so the constructor bounds them
    # before any forward pass could size a padded input or an output
    good = make_conv(3, 4, rng=rng, kind=kind)
    sizes = {**good.scalars(), field: value}
    with pytest.raises(ParameterError, match=f"layer sizes \\({field}\\) must be "
                                             f"at most {MAX_LAYER_STEP}"):
        LayerSpec(**sizes, weights=good.weights, bias=good.bias)
    layer = LayerSpec(**{**sizes, field: MAX_LAYER_STEP}, weights=good.weights,
                      bias=good.bias)
    assert getattr(layer, field) == MAX_LAYER_STEP


def test_layer_sizes_are_stored_as_python_ints(rng):
    good = make_conv(3, 4, rng=rng)
    layer = LayerSpec(kind="conv", in_channels=np.int64(3), out_channels=4.0,
                      kernel=3.0, stride=np.float32(2), padding=np.int8(1),
                      weights=good.weights, bias=good.bias)
    for f in ("in_channels", "out_channels", "kernel", "stride", "padding"):
        assert type(getattr(layer, f)) is int
    assert layer.scalars() == {"kind": "conv", "in_channels": 3,
                               "out_channels": 4, "kernel": 3, "stride": 2,
                               "padding": 1}


@pytest.mark.parametrize("args, error", [
    (("warp", 3, 3, 1), ParameterError),
    (("conv", 0, 3, 1), ParameterError),
    (("conv", 3, 3, 0.5), ParameterError),
    (("gdn", 3, 4, 1), ShapeError),
    (("relu", 3, 4, 1), ShapeError),
])
def test_tensor_shapes_checks_kind_and_sizes(args, error):
    with pytest.raises(error):
        LayerSpec.tensor_shapes(*args)


_W = np.zeros((4, 4, 1, 1), dtype=np.float32)
_GDN = GdnParams(beta=np.ones(4), gamma=np.zeros((4, 4)))


@pytest.mark.parametrize("kind, tensors, error, message", [
    ("relu", {"bias": np.zeros(4)}, ParameterError, "relu layer does not take weights"),
    ("gdn", {"gdn_params": _GDN, "weights": _W}, ParameterError,
     "gdn layer does not take weights"),
    ("conv", {"weights": _W, "gdn_params": _GDN}, ParameterError,
     "conv layer does not take gdn params"),
    ("conv", {"bias": np.zeros(4)}, ParameterError, "conv layer needs weights"),
    ("igdn", {}, ParameterError, "igdn layer needs gdn params"),
    ("conv", {"weights": _W, "bias": np.zeros(3)}, ShapeError,
     "conv bias must have shape"),
    ("deconv", {"weights": _W[:, :3]}, ShapeError, "deconv weights must have shape"),
])
def test_layer_carries_exactly_its_kinds_tensors(kind, tensors, error, message):
    with pytest.raises(error, match=message):
        LayerSpec(kind=kind, in_channels=4, out_channels=4, **tensors)
