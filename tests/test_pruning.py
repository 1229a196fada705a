import numpy as np
import pytest

from lic_hw_kit import (
    GdnParams,
    LayerSpec,
    ModelSpec,
    ParameterError,
    PruneReport,
    PruneSchedule,
    PruningError,
    filter_l2_norms,
    iterative_prune,
    model_forward,
    prunable_layer_indices,
)
from lic_hw_kit.perf_model import flops_of
from conftest import make_conv, make_gdn, rand_tensor


def stack_model(rng, widths=(100, 100), cin=3, cout=8):
    """conv -> gdn -> conv -> igdn -> conv with the given hidden widths."""
    w1, w2 = widths
    return ModelSpec(name="stack", role="main_encoder", layers=[
        make_conv(cin, w1, rng=rng),
        make_gdn(w1, rng=rng),
        make_conv(w1, w2, rng=rng),
        make_gdn(w2, kind="igdn", rng=rng),
        make_conv(w2, cout, rng=rng),
    ])


# ---------------------------------------------------------------------------
# Schedule and selection mechanics
# ---------------------------------------------------------------------------


def test_schedule_validation():
    with pytest.raises(ParameterError):
        PruneSchedule(fraction_per_iteration=1.0)
    with pytest.raises(ParameterError):
        PruneSchedule(fraction_per_iteration=-0.1)
    with pytest.raises(ParameterError):
        PruneSchedule(iterations=0)
    # the bound is checked before fraction * iterations, which 10**400 overflows
    for fraction in (0.0, 0.1):
        with pytest.raises(ParameterError, match="iterations must be at most"):
            PruneSchedule(fraction, 10 ** 400)


def test_filter_norms_match_hand_computation(rng):
    layer = make_conv(2, 3, k=2, rng=rng)
    norms = filter_l2_norms(layer)
    for i in range(3):
        assert norms[i] == pytest.approx(
            np.sqrt((layer.weights[i].astype(np.float64) ** 2).sum()))
    with pytest.raises(ParameterError):
        filter_l2_norms(make_gdn(3, rng=rng))


def test_prunable_excludes_final_conv(rng):
    model = stack_model(rng)
    assert prunable_layer_indices(model) == [0, 2]


def test_lowest_norm_filters_go_first(rng):
    model = stack_model(rng, widths=(10, 10))
    norms = filter_l2_norms(model.layers[0])
    pruned, report = iterative_prune(model, PruneSchedule(0.2, 1))
    removed = [r for r in report.removals if r["layer"] == 0][0]["removed"]
    assert sorted(removed) == sorted(np.argsort(norms, kind="stable")[:2].tolist())


def test_tie_break_prefers_lower_index(rng):
    w = np.ones((4, 1, 1, 1), dtype=np.float32)  # all norms equal
    model = ModelSpec(name="tie", role="main_encoder", layers=[
        LayerSpec(kind="conv", in_channels=1, out_channels=4, kernel=1,
                  weights=w, bias=np.zeros(4, np.float32)),
        make_conv(4, 2, rng=rng),
    ])
    _, report = iterative_prune(model, PruneSchedule(0.5, 1))
    assert report.removals[0]["removed"] == [0, 1]


# ---------------------------------------------------------------------------
# Structural propagation
# ---------------------------------------------------------------------------


def test_one_step_rewires_neighbors(rng):
    model = stack_model(rng, widths=(10, 12))
    pruned, removals = iterative_prune(model, PruneSchedule(0.2, 1, prune_hyperprior=True))
    assert pruned.layers[0].out_channels == 8
    assert pruned.layers[1].gdn_params.channels == 8
    assert pruned.layers[2].in_channels == 8
    assert pruned.layers[2].out_channels == 10  # floor(0.2 * 12) = 2 gone
    assert pruned.layers[3].gdn_params.channels == 10
    assert pruned.layers[4].in_channels == 10
    assert pruned.layers[4].out_channels == 8  # last conv untouched


def test_gdn_rows_and_cols_follow_survivors(rng):
    model = stack_model(rng, widths=(6, 6))
    norms = filter_l2_norms(model.layers[0])
    pruned, removals = iterative_prune(model, PruneSchedule(0.5, 1, prune_hyperprior=True))
    keep = sorted(np.argsort(norms, kind="stable")[3:].tolist())
    src = model.layers[1].gdn_params
    dst = pruned.layers[1].gdn_params
    assert np.array_equal(dst.beta, src.beta[keep])
    assert np.array_equal(dst.gamma, src.gamma[np.ix_(keep, keep)])
    src_w = model.layers[2].weights
    assert np.array_equal(pruned.layers[2].weights[:, :, :, :][0, :],
                          src_w[0, keep])


def test_forward_still_runs_after_each_iteration(rng):
    model = stack_model(rng, widths=(20, 20))
    x = rand_tensor(rng, (1, 3, 8, 8))

    seen = []
    def hook(m, it):
        seen.append(model_forward(m, x).dims)

    pruned, _ = iterative_prune(model, PruneSchedule(0.25, 2),
                                finetune_hook=hook)
    assert seen == [(1, 8, 8, 8)] * 2
    assert model_forward(pruned, x).dims == (1, 8, 8, 8)


def test_finetune_hook_can_replace_model(rng):
    model = stack_model(rng, widths=(8, 8))

    def hook(m, it):
        # rescale every conv weight, keeping the structure
        layers = []
        for layer in m.layers:
            if layer.kind == "conv":
                layers.append(LayerSpec(
                    kind="conv", in_channels=layer.in_channels,
                    out_channels=layer.out_channels, kernel=layer.kernel,
                    stride=layer.stride, padding=layer.padding,
                    weights=layer.weights * 2.0, bias=layer.bias))
            else:
                layers.append(layer)
        return ModelSpec(name=m.name, layers=layers, role=m.role)

    pruned, _ = iterative_prune(model, PruneSchedule(0.25, 1),
                                finetune_hook=hook)
    assert pruned.layers[0].out_channels == 6


# ---------------------------------------------------------------------------
# Whole schedules
# ---------------------------------------------------------------------------


def test_three_tenths_of_original_is_exactly_thirty(rng):
    model = stack_model(rng)
    pruned, report = iterative_prune(model, PruneSchedule(0.10, 3),
                                     input_hw=(16, 16))
    per_layer = {}
    for r in report.removals:
        per_layer.setdefault(r["layer"], []).extend(r["removed"])
    assert {k: len(v) for k, v in per_layer.items()} == {0: 30, 2: 30}
    # removed indices are original positions, all distinct
    for v in per_layer.values():
        assert len(set(v)) == 30
        assert all(0 <= i < 100 for i in v)
    assert report.filters_before == {0: 100, 2: 100}
    assert report.filters_after == {0: 70, 2: 70}
    assert report.params_after < report.params_before
    assert report.cumulative_ratio == pytest.approx(0.30)
    assert report.flops_before > report.flops_after


def test_flops_decrease_every_iteration(rng):
    model = stack_model(rng, widths=(40, 40))
    trace = [flops_of(model, (16, 16)).total]
    pruned, _ = iterative_prune(
        model, PruneSchedule(0.10, 3),
        finetune_hook=lambda m, it: trace.append(flops_of(m, (16, 16)).total),
        input_hw=(16, 16))
    assert all(a > b for a, b in zip(trace, trace[1:]))


def test_report_serializes(rng):
    import json
    model = stack_model(rng, widths=(10, 10))
    _, report = iterative_prune(model, PruneSchedule(0.1, 2), input_hw=(8, 8))
    d = report.to_json_dict()
    text = json.dumps(d, sort_keys=True)
    assert json.loads(text) == d


def test_all_removing_schedules_rejected_up_front():
    # the schedule itself refuses to empty a layer, so the per-step
    # emptiness guard stays unreachable through public entry points
    with pytest.raises(ParameterError):
        PruneSchedule(0.5, 2)
    with pytest.raises(ParameterError):
        PruneSchedule(0.34, 3)


def test_direct_step_never_empties_small_layer(rng):
    model = stack_model(rng, widths=(2, 2))
    pruned, rep = iterative_prune(model, PruneSchedule(0.9, 1, prune_hyperprior=True))
    assert pruned.layers[0].out_channels == 1  # floor(0.9 * 2) = 1 removed
    pruned2, rep2 = iterative_prune(pruned, PruneSchedule(0.9, 1, prune_hyperprior=True))
    assert pruned2.layers[0].out_channels == 1  # floor(0.9 * 1) = 0 removed
    assert all(len(r["removed"]) == 0 for r in rep2.removals)


def test_hyperprior_roles_exempt_by_default(rng):
    model = ModelSpec(name="hyper", role="hyper_encoder", layers=[
        make_conv(4, 10, rng=rng),
        make_conv(10, 6, rng=rng),
    ])
    pruned, report = iterative_prune(model, PruneSchedule(0.2, 2))
    assert report.removals == []
    assert pruned.layers[0].out_channels == 10

    opt_in = PruneSchedule(0.2, 2, prune_hyperprior=True)
    pruned2, report2 = iterative_prune(model, opt_in)
    assert pruned2.layers[0].out_channels == 6
    assert len(report2.removals) == 2


def test_report_defaults_construct():
    rep = PruneReport()
    assert rep.removals == []
    assert rep.params_before == 0
