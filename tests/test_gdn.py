import math

import numpy as np
import pytest

from lic_hw_kit import (
    GdnParams,
    GdnStageFormats,
    ParameterError,
    ShapeError,
    Tensor,
    gdn_error_report,
    gdn_fixed,
    gdn_fixed_with_stats,
    gdn_float,
    igdn_fixed,
    igdn_fixed_with_stats,
    igdn_float,
)
from conftest import rand_tensor


def chan(vals):
    a = np.asarray(vals, dtype=np.float32)
    return Tensor(a.reshape(1, a.size, 1, 1))


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def test_params_require_positive_beta_nonnegative_gamma():
    with pytest.raises(ParameterError):
        GdnParams(beta=np.array([1.0, 0.0]), gamma=np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        GdnParams(beta=np.ones(2), gamma=np.array([[0.0, -0.1], [0.0, 0.0]]))
    with pytest.raises(ShapeError):
        GdnParams(beta=np.ones(2), gamma=np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Float reference against closed forms
# ---------------------------------------------------------------------------


def test_gdn_float_two_channel_closed_form():
    p = GdnParams(beta=np.ones(2), gamma=np.eye(2))
    y = gdn_float(chan([3.0, 4.0]), p)
    np.testing.assert_allclose(
        y.data.ravel(), [3.0 / math.sqrt(10.0), 4.0 / math.sqrt(17.0)],
        rtol=1e-6)


def test_igdn_float_identity_gamma():
    p = GdnParams(beta=np.ones(2), gamma=np.eye(2))
    x = igdn_float(chan([1.0, 1.0]), p)
    np.testing.assert_allclose(x.data.ravel(), [math.sqrt(2.0)] * 2, rtol=1e-6)


def test_igdn_float_full_coupling():
    p = GdnParams(beta=np.ones(2), gamma=np.ones((2, 2)))
    x = igdn_float(chan([1.0, 1.0]), p)
    np.testing.assert_allclose(x.data.ravel(), [math.sqrt(3.0)] * 2, rtol=1e-6)


def test_gdn_float_beta_only_cases(rng):
    x = rand_tensor(rng, (1, 3, 4, 4), lo=-4, hi=4)
    ident = GdnParams(beta=np.ones(3), gamma=np.zeros((3, 3)))
    assert np.array_equal(gdn_float(x, ident).data, x.data)
    quarter = GdnParams(beta=np.full(3, 4.0), gamma=np.zeros((3, 3)))
    assert np.array_equal(gdn_float(x, quarter).data, x.data / 2.0)
    assert np.array_equal(igdn_float(x, quarter).data, x.data * 2.0)


def test_gdn_float_round_trip_exact_for_constant_denominator(rng):
    x = rand_tensor(rng, (1, 4, 8, 8), lo=-8, hi=8)
    for beta in (1.0, 4.0):
        p = GdnParams(beta=np.full(4, beta), gamma=np.zeros((4, 4)))
        back = igdn_float(gdn_float(x, p), p)
        assert np.array_equal(back.data, x.data)


def test_gdn_float_diagonal_decomposes_to_scalar(rng):
    c = 5
    beta = rng.uniform(0.5, 2.0, c)
    diag = rng.uniform(0.1, 1.0, c)
    p = GdnParams(beta=beta, gamma=np.diag(diag))
    x = rand_tensor(rng, (2, c, 3, 3), lo=-4, hi=4)
    y = gdn_float(x, p)
    for i in range(c):
        xi = x.data[:, i].astype(np.float64)
        ref = xi / np.sqrt(beta[i] + diag[i] * xi ** 2)
        np.testing.assert_allclose(y.data[:, i], ref.astype(np.float32),
                                   rtol=1e-6, atol=1e-7)


def test_gdn_float_channel_mismatch_rejected(rng):
    p = GdnParams(beta=np.ones(2), gamma=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        gdn_float(rand_tensor(rng, (1, 3, 2, 2)), p)


# ---------------------------------------------------------------------------
# Fixed-point pipeline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_fixed_identity_within_one_step(rng, bits):
    fmts = GdnStageFormats.default(bits)
    p = GdnParams(beta=np.ones(3), gamma=np.zeros((3, 3)))
    x = rand_tensor(rng, (1, 3, 8, 8), lo=-7.5, hi=7.5)
    for fn in (gdn_fixed, igdn_fixed):
        y = fn(x, p, fmts)
        assert np.abs(y.data - x.data).max() <= fmts.output.ulp + 1e-12


@pytest.mark.parametrize("bits", [8, 16, 32])
def test_fixed_round_trip_within_two_steps(rng, bits):
    fmts = GdnStageFormats.default(bits)
    x = rand_tensor(rng, (1, 4, 10, 10), lo=-7.5, hi=7.5)
    for beta in (1.0, 4.0):
        p = GdnParams(beta=np.full(4, beta), gamma=np.zeros((4, 4)))
        back = igdn_fixed(gdn_fixed(x, p, fmts), p, fmts)
        assert np.abs(back.data - x.data).max() <= 2 * fmts.output.ulp + 1e-12


def test_fixed_tracks_float_closed_form():
    p = GdnParams(beta=np.ones(2), gamma=np.eye(2))
    y = gdn_fixed(chan([3.0, 4.0]), p, GdnStageFormats.default(32))
    np.testing.assert_allclose(
        y.data.ravel(), [3.0 / math.sqrt(10.0), 4.0 / math.sqrt(17.0)],
        atol=1e-4)
    x = igdn_fixed(chan([1.0, 1.0]), p, GdnStageFormats.default(32))
    np.testing.assert_allclose(x.data.ravel(), [math.sqrt(2.0)] * 2,
                               atol=1e-4)


def test_fixed_error_monotone_in_precision(rng):
    c = 6
    p = GdnParams(beta=rng.uniform(1.0, 2.0, c),
                  gamma=rng.uniform(0.0, 1.0, (c, c)) * (0.1 / c))
    x = rand_tensor(rng, (1, c, 20, 20), lo=-8, hi=8)
    errs = {}
    for bits in (8, 16, 32):
        rep = gdn_error_report(p, GdnStageFormats.default(bits), x)
        errs[bits] = rep.max_abs_error
    assert errs[32] <= errs[16] <= errs[8]
    assert errs[32] <= 1e-3


def test_fixed_saturation_counted_not_raised():
    fmts = GdnStageFormats.default(8)  # narrow input range
    p = GdnParams(beta=np.ones(1), gamma=np.zeros((1, 1)))
    x = chan([100.0])
    y, stats = gdn_fixed_with_stats(x, p, fmts)
    assert stats.total_saturated > 0
    assert np.isfinite(y.data).all()


@pytest.mark.parametrize("bits,magnitude", [(32, 1e12), (16, 1e17)])
def test_fixed_saturates_huge_inputs_with_the_right_sign(bits, magnitude):
    # x * 2**frac is past int64 at 16 bits and past the format everywhere:
    # the input clamps to its limits, so each output keeps its input's sign
    fmts = GdnStageFormats.default(bits)
    p = GdnParams(beta=np.ones(2), gamma=np.full((2, 2), 0.05))
    x = chan([magnitude, -magnitude])
    for fn, with_stats in ((gdn_fixed, gdn_fixed_with_stats),
                           (igdn_fixed, igdn_fixed_with_stats)):
        y = fn(x, p, fmts)
        assert np.array_equal(np.sign(y.data), np.sign(x.data))
        _, stats = with_stats(x, p, fmts)
        assert stats.saturation["input"] == 2


def test_fixed_deterministic(rng):
    c = 4
    p = GdnParams(beta=rng.uniform(1.0, 2.0, c),
                  gamma=rng.uniform(0.0, 0.02, (c, c)))
    x = rand_tensor(rng, (1, c, 16, 16), lo=-8, hi=8)
    fmts = GdnStageFormats.default(16)
    a = gdn_fixed(x, p, fmts)
    b = gdn_fixed(x, p, fmts)
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# Error report
# ---------------------------------------------------------------------------


def test_error_report_zero_corpus_zero_error():
    c = 3
    p = GdnParams(beta=np.ones(c), gamma=np.full((c, c), 0.01))
    corpus = Tensor(np.zeros((1, c, 4, 4), dtype=np.float32))
    rep = gdn_error_report(p, GdnStageFormats.default(16), corpus)
    assert rep.max_abs_error == 0.0
    assert rep.mean_abs_error == 0.0


def test_error_report_reproducible(rng):
    c = 4
    p = GdnParams(beta=rng.uniform(1.0, 2.0, c),
                  gamma=rng.uniform(0.0, 0.02, (c, c)))
    corpus = rand_tensor(rng, (1, c, 10, 10), lo=-8, hi=8)
    a = gdn_error_report(p, GdnStageFormats.default(16), corpus)
    b = gdn_error_report(p, GdnStageFormats.default(16), corpus)
    assert a.max_abs_error == b.max_abs_error
    assert a.mean_abs_error == b.mean_abs_error
    assert a.saturation == b.saturation
    assert a.stage_contribution == b.stage_contribution


def test_error_report_covers_all_stages(rng):
    c = 2
    p = GdnParams(beta=rng.uniform(1.0, 2.0, c),
                  gamma=rng.uniform(0.0, 0.05, (c, c)))
    corpus = rand_tensor(rng, (1, c, 6, 6), lo=-8, hi=8)
    rep = gdn_error_report(p, GdnStageFormats.default(16), corpus)
    assert set(rep.stage_contribution) == {
        "input", "square", "accum", "root", "recip", "output"}
    rows = rep.rows()
    assert len(rows) == 7  # six stages plus the total line
    assert {r["stage"] for r in rows} == set(rep.stage_contribution) | {"total"}
