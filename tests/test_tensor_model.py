import numpy as np
import pytest

from lic_hw_kit import (
    DomainError,
    GdnParams,
    LayerSpec,
    MalformedHeaderError,
    ModelSpec,
    ParameterError,
    ShapeError,
    Tensor,
    TruncatedPayloadError,
    conv2d_forward,
    deconv2d_forward,
    flops_of,
    layer_output_dims,
    load_tensor,
    model_forward,
    relu_forward,
    save_tensor,
)
from conftest import make_conv, make_encoder, make_gdn, rand_tensor


# ---------------------------------------------------------------------------
# Tensor container
# ---------------------------------------------------------------------------


def test_tensor_basic_properties():
    t = Tensor(np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4))
    assert (t.n, t.c, t.h, t.w) == (1, 2, 3, 4)
    assert t.dims == (1, 2, 3, 4)
    assert t.size == 24
    assert t.data.dtype == np.float32


def test_tensor_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 3, 4), dtype=np.float32))


def test_tensor_rejects_nonfinite():
    bad = np.zeros((1, 1, 2, 2), dtype=np.float32)
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(DomainError):
        Tensor(bad)


BUILDERS = [Tensor, Tensor._adopt]


@pytest.mark.parametrize("build", BUILDERS)
@pytest.mark.parametrize("shape", [(2, 3, 4), (1, 1, 1, 2, 2), ()])
def test_adopt_rejects_wrong_rank_like_constructor(build, shape):
    with pytest.raises(ShapeError):
        build(np.zeros(shape, dtype=np.float32))


# _adopt takes arrays that are finite by construction and does not scan them
@pytest.mark.parametrize("build", [Tensor])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adopt_rejects_nonfinite_like_constructor(build, bad):
    arr = np.zeros((1, 2, 3, 4), dtype=np.float32)
    arr[0, 1, 2, 3] = bad
    with pytest.raises(DomainError):
        build(arr)


@pytest.mark.parametrize("build", [Tensor])
@pytest.mark.parametrize("where", [0, 65536, 131076])
def test_blocked_finite_check_sees_every_block(build, where):
    # the first, a middle and the last element of 2 * 65536 + 5, across
    # the boundaries a blocked scan would split at
    arr = np.zeros((1, 1, 1, 131077), dtype=np.float32)
    arr.reshape(-1)[where] = np.nan
    with pytest.raises(DomainError):
        build(arr)


@pytest.mark.parametrize("build", BUILDERS)
def test_empty_tensor_accepted(build):
    assert build(np.zeros((0, 3, 4, 4), dtype=np.float32)).size == 0


def test_adopt_keeps_the_array_and_freezes_it():
    arr = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
    t = Tensor._adopt(arr)
    assert t.data is arr
    assert not arr.flags.writeable


def test_tensor_is_immutable_and_detached():
    src = np.ones((1, 1, 2, 2), dtype=np.float32)
    t = Tensor(src)
    with pytest.raises(ValueError):
        t.data[0, 0, 0, 0] = 5.0
    src[0, 0, 0, 0] = 7.0  # caller's buffer stays writable and separate
    assert t.data[0, 0, 0, 0] == 1.0


def test_tensor_file_round_trip(rng):
    t = rand_tensor(rng, (2, 3, 5, 7))
    back = load_tensor(save_tensor(t))
    assert back.dims == t.dims
    assert np.array_equal(back.data, t.data)


def test_tensor_file_rejects_truncation_and_trailing(rng):
    blob = save_tensor(rand_tensor(rng, (1, 1, 2, 2)))
    with pytest.raises(TruncatedPayloadError):
        load_tensor(blob[:-1])
    with pytest.raises(MalformedHeaderError):
        load_tensor(blob + b"\x00")
    with pytest.raises(MalformedHeaderError):
        load_tensor(b"\x01\x02")


# ---------------------------------------------------------------------------
# Layer and model validation
# ---------------------------------------------------------------------------


def test_layer_spec_shape_checks(rng):
    with pytest.raises(ShapeError):
        LayerSpec(kind="conv", in_channels=3, out_channels=4, kernel=3,
                  weights=np.zeros((4, 3, 5, 5), dtype=np.float32),
                  bias=np.zeros(4, dtype=np.float32))
    with pytest.raises(ParameterError):
        LayerSpec(kind="warp", in_channels=3, out_channels=3)
    with pytest.raises(ShapeError):
        LayerSpec(kind="gdn", in_channels=4, out_channels=4,
                  gdn_params=GdnParams(beta=np.ones(3), gamma=np.zeros((3, 3))))
    with pytest.raises(ParameterError):
        LayerSpec(kind="conv", in_channels=3, out_channels=4)


def test_model_requires_matching_channel_chain(rng):
    with pytest.raises(ShapeError):
        ModelSpec(name="bad", role="main_encoder",
                  layers=[make_conv(3, 4, rng=rng), make_conv(5, 4, rng=rng)])
    with pytest.raises(ParameterError):
        ModelSpec(name="bad", role="side_channel",
                  layers=[make_conv(3, 4, rng=rng)])


@pytest.mark.parametrize("role", ["weights", "bias"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_layer_spec_rejects_nonfinite_parameters(rng, role, bad):
    good = make_conv(3, 4, rng=rng)
    arrays = {"weights": good.weights.copy(), "bias": good.bias.copy()}
    arrays[role].flat[1] = bad
    for kind in ("conv", "deconv"):
        with pytest.raises(ParameterError, match="finite"):
            LayerSpec(kind=kind, in_channels=3, out_channels=4, kernel=3,
                      padding=1, **arrays)


# ---------------------------------------------------------------------------
# Forward kernels against loop oracles
# ---------------------------------------------------------------------------


def _conv_oracle(x, w, b, stride, padding):
    n, cin, h, ww = x.shape
    cout, _, k, _ = w.shape
    hp = h + 2 * padding
    wp = ww + 2 * padding
    xp = np.zeros((n, cin, hp, wp), dtype=np.float64)
    xp[:, :, padding:padding + h, padding:padding + ww] = x
    oh = (hp - k) // stride + 1
    ow = (wp - k) // stride + 1
    out = np.zeros((n, cout, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oc in range(cout):
            for oy in range(oh):
                for ox in range(ow):
                    acc = 0.0
                    for ic in range(cin):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (w[oc, ic, ky, kx]
                                        * xp[ni, ic, oy * stride + ky,
                                             ox * stride + kx])
                    out[ni, oc, oy, ox] = acc + b[oc]
    return out.astype(np.float32)


def test_conv_matches_hand_case():
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
               .reshape(1, 1, 2, 2))
    layer = LayerSpec(kind="conv", in_channels=1, out_channels=1, kernel=1,
                      weights=np.full((1, 1, 1, 1), 2.0, dtype=np.float32),
                      bias=np.array([1.0], dtype=np.float32))
    y = conv2d_forward(x, layer)
    assert np.array_equal(y.data.reshape(2, 2),
                          np.array([[3.0, 5.0], [7.0, 9.0]], dtype=np.float32))


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
def test_conv_matches_loop_oracle(rng, stride, padding):
    x = rand_tensor(rng, (2, 3, 7, 6))
    layer = make_conv(3, 4, k=3, s=stride, p=padding, rng=rng)
    y = conv2d_forward(x, layer)
    ref = _conv_oracle(x.data.astype(np.float64),
                       layer.weights.astype(np.float64),
                       layer.bias.astype(np.float64), stride, padding)
    assert y.dims == ref.shape
    np.testing.assert_allclose(y.data, ref, rtol=0, atol=1e-5)


def test_deconv_matches_scatter_oracle(rng):
    x = rand_tensor(rng, (1, 2, 4, 5))
    layer = make_conv(2, 3, k=3, s=2, p=1, rng=rng, kind="deconv")
    y = deconv2d_forward(x, layer)

    n, cin, h, w = x.dims
    cout, _, k, _ = layer.weights.shape
    s, p = layer.stride, layer.padding
    full_h = (h - 1) * s + k
    full_w = (w - 1) * s + k
    canvas = np.zeros((n, cout, full_h, full_w), dtype=np.float64)
    for ni in range(n):
        for ic in range(cin):
            for oy in range(h):
                for ox in range(w):
                    v = float(x.data[ni, ic, oy, ox])
                    for oc in range(cout):
                        canvas[ni, oc, oy * s:oy * s + k, ox * s:ox * s + k] \
                            += v * layer.weights[oc, ic].astype(np.float64)
    ref = canvas[:, :, p:full_h - p, p:full_w - p] \
        + layer.bias.astype(np.float64)[None, :, None, None]
    assert y.dims == ref.shape
    np.testing.assert_allclose(y.data, ref.astype(np.float32),
                               rtol=0, atol=1e-5)


def test_deconv_inverts_conv_dims(rng):
    h, w = 13, 9
    down = make_conv(3, 4, k=5, s=2, p=2, rng=rng)
    oh, ow = layer_output_dims(down, h, w)
    up = make_conv(4, 3, k=5, s=2, p=2, rng=rng, kind="deconv")
    assert layer_output_dims(up, oh, ow) == ((oh - 1) * 2 - 4 + 5,
                                             (ow - 1) * 2 - 4 + 5)


def test_relu_clamps_negatives(rng):
    x = rand_tensor(rng, (1, 2, 3, 3), lo=-2.0, hi=2.0)
    layer = LayerSpec(kind="relu", in_channels=2, out_channels=2)
    y = relu_forward(x, layer)
    assert np.array_equal(y.data, np.maximum(x.data, 0.0))


def test_output_dims_reject_collapse(rng):
    layer = make_conv(3, 4, k=5, s=2, p=0, rng=rng)
    with pytest.raises(ShapeError):
        layer_output_dims(layer, 3, 3)


# ---------------------------------------------------------------------------
# Whole-model forward
# ---------------------------------------------------------------------------


def test_model_forward_runs_and_records(rng):
    model = make_encoder(rng)
    x = rand_tensor(rng, (1, 3, 16, 16))
    y = model_forward(model, x)
    assert y.dims == (1, 4, 4, 4)
    acts = []
    y2 = model_forward(model, x,
                       on_layer=lambda i, layer, out: acts.append(out))
    assert np.array_equal(y.data, y2.data)
    assert len(acts) == len(model.layers)
    assert np.array_equal(acts[-1].data, y.data)


def test_model_forward_hook_output_replaces_layer_output(rng):
    model = make_encoder(rng)
    x = rand_tensor(rng, (1, 3, 16, 16))
    seen = []

    def zero_layer_one(i, layer, out):
        seen.append((i, layer is model.layers[i]))
        if i == 1:
            return Tensor(np.zeros(out.dims, dtype=np.float32))
        return None

    y = model_forward(model, x, on_layer=zero_layer_one)
    assert seen == [(i, True) for i in range(len(model.layers))]
    tail = ModelSpec(name="tail", role="main_encoder", layers=model.layers[2:])
    want = model_forward(tail, Tensor(np.zeros((1, 6, 8, 8), dtype=np.float32)))
    assert np.array_equal(y.data, want.data)


def test_model_forward_names_failing_layer(rng):
    model = make_encoder(rng)
    bad = rand_tensor(rng, (1, 5, 16, 16))
    with pytest.raises(ShapeError, match="layer 0"):
        model_forward(model, bad)


def test_model_forward_deterministic(rng):
    model = make_encoder(rng)
    x = rand_tensor(rng, (1, 3, 16, 16))
    a = model_forward(model, x)
    b = model_forward(model, x)
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# Flops accounting
# ---------------------------------------------------------------------------


def test_flops_formulas_by_hand(rng):
    conv = make_conv(3, 8, k=5, s=2, p=2, rng=rng)
    gdn = make_gdn(8, rng=rng)
    model = ModelSpec(name="m", role="main_encoder", layers=[conv, gdn])
    rep = flops_of(model, (16, 16))
    oh, ow = layer_output_dims(conv, 16, 16)
    assert rep.per_layer[0] == 2 * oh * ow * 3 * 8 * 25
    assert rep.per_layer[1] == 2 * oh * ow * 64 + 5 * oh * ow * 8
    assert rep.total == sum(rep.per_layer)


def loop_count_ops(model, h, w):
    """Operations per layer, counted by walking every element the way a
    scalar implementation would touch it."""
    counts = []
    for layer in model.layers:
        oh, ow = layer_output_dims(layer, h, w)
        cin, cout, k = layer.in_channels, layer.out_channels, layer.kernel
        ops = 0
        if layer.kind == "conv":  # every output pixel gathers every tap
            for _ in range(oh * ow):
                for _ in range(k * k):
                    ops += 2 * cin * cout
        elif layer.kind == "deconv":  # every input pixel scatters every tap
            for _ in range(h * w):
                for _ in range(k * k):
                    ops += 2 * cin * cout
        elif layer.kind in ("gdn", "igdn"):
            for _ in range(oh * ow * cout):
                ops += 2 * cout  # pool: one multiply-add per channel pair
                ops += 5  # square, offset, root, divide, scale
        else:  # relu
            for _ in range(oh * ow * cout):
                ops += 1
        counts.append(ops)
        h, w = oh, ow
    return counts


def test_flops_match_loop_count_for_every_layer_kind(rng):
    model = ModelSpec(name="m", role="main_decoder", layers=[
        make_conv(3, 6, k=5, s=2, p=2, rng=rng),
        make_gdn(6, rng=rng),
        LayerSpec(kind="relu", in_channels=6, out_channels=6),
        make_conv(6, 4, k=5, s=2, p=2, rng=rng, kind="deconv"),
        make_gdn(4, kind="igdn", rng=rng),
        make_conv(4, 2, k=3, s=3, p=0, rng=rng, kind="deconv"),
    ])
    assert {layer.kind for layer in model.layers} == {
        "conv", "deconv", "gdn", "igdn", "relu"}
    for hw in ((13, 9), (8, 8)):
        rep = flops_of(model, hw)
        assert rep.per_layer == loop_count_ops(model, *hw)
        assert rep.total == sum(rep.per_layer)


def test_flops_scale_with_resolution(rng):
    model = make_encoder(rng)
    small = flops_of(model, (16, 16)).total
    big = flops_of(model, (32, 32)).total
    assert big > small
