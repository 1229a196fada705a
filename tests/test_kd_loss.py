import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lic_hw_kit import (
    DomainError,
    KdWeights,
    ParameterError,
    PhaseSchedule,
    PyramidFeatureExtractor,
    ShapeError,
    kd_loss,
    latent_loss,
    perceptual_loss,
    plateau_scheduler,
)
from conftest import rand_tensor

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
weight = st.floats(min_value=0.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# Weights and breakdown identity
# ---------------------------------------------------------------------------


def test_weights_validation():
    with pytest.raises(ParameterError):
        KdWeights(alpha=-0.1, beta=1.0, gamma=1.0)
    with pytest.raises(ParameterError):
        KdWeights(alpha=0.0, beta=0.0, gamma=0.0)
    KdWeights(alpha=0.0, beta=0.0, gamma=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5e-324])
@pytest.mark.parametrize("name", ["alpha", "beta", "gamma"])
def test_weights_reject_non_finite_and_negative_in_any_position(name, bad):
    # a check through min() skipped NaN unless it came first
    weights = {"alpha": 1.0, "beta": 0.1, "gamma": 0.5, name: bad}
    with pytest.raises(ParameterError, match=f"{name} must be finite and >= 0"):
        KdWeights(**weights)


@given(finite, finite, finite, finite, finite, weight, weight, weight)
@settings(max_examples=200, deadline=None)
def test_breakdown_identity(ll, lp, rate, dist, lam, a, b, g):
    if a == b == g == 0.0:
        g = 1.0
    w = KdWeights(alpha=a, beta=b, gamma=g)
    out = kd_loss(ll, lp, rate, dist, lam, w)
    assert out.rd == rate + lam * dist
    assert out.total == a * ll + b * lp + g * out.rd


def test_perfect_student_leaves_only_rd():
    w = KdWeights(alpha=1.0, beta=0.1, gamma=0.5)
    out = kd_loss(0.0, 0.0, rate=1.25, distortion=0.04, lam=50.0, weights=w)
    assert out.l_latent == 0.0 and out.l_perceptual == 0.0
    assert math.isclose(out.total, 0.5 * (1.25 + 50.0 * 0.04), rel_tol=1e-15)


def test_non_finite_terms_rejected():
    w = KdWeights(alpha=1.0, beta=1.0, gamma=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            kd_loss(bad, 0.0, 0.0, 0.0, 0.0, w)
        with pytest.raises(DomainError):
            kd_loss(0.0, 0.0, bad, 0.0, 0.0, w)


# ---------------------------------------------------------------------------
# Latent and perceptual terms
# ---------------------------------------------------------------------------


def test_latent_loss_is_mse(rng):
    a = rand_tensor(rng, (2, 4, 8, 8))
    b = rand_tensor(rng, (2, 4, 8, 8))
    want = np.mean((a.data.astype(np.float64) - b.data.astype(np.float64)) ** 2)
    assert math.isclose(latent_loss(a, b), want, rel_tol=1e-12)
    assert latent_loss(a, a) == 0.0


def test_latent_loss_shape_mismatch(rng):
    with pytest.raises(ShapeError):
        latent_loss(rand_tensor(rng, (1, 4, 8, 8)), rand_tensor(rng, (1, 4, 8, 9)))


def test_pyramid_levels_and_means(rng):
    x = rand_tensor(rng, (1, 2, 8, 12))
    feats = PyramidFeatureExtractor()(x)
    assert len(feats) == 3
    assert feats[0] is x
    assert feats[1].dims == (1, 2, 4, 6)
    assert feats[2].dims == (1, 2, 2, 3)
    block = x.data[0, 0, 0:2, 0:2].astype(np.float64).mean()
    assert math.isclose(feats[1].data[0, 0, 0, 0], block, rel_tol=1e-6)


def test_pyramid_odd_extents_truncate(rng):
    x = rand_tensor(rng, (1, 1, 9, 13))
    feats = PyramidFeatureExtractor()(x)
    assert feats[1].dims == (1, 1, 4, 6)
    assert feats[2].dims == (1, 1, 2, 3)


def test_pyramid_too_small_rejected(rng):
    with pytest.raises(ShapeError):
        PyramidFeatureExtractor()(rand_tensor(rng, (1, 1, 2, 2)))


def test_perceptual_loss_matches_manual_sum(rng):
    xt = rand_tensor(rng, (1, 1, 8, 8))
    xs = rand_tensor(rng, (1, 1, 8, 8))
    ext = PyramidFeatureExtractor()
    want = 0.0
    for ft, fs in zip(ext(xt), ext(xs)):
        want += np.sum((ft.data.astype(np.float64)
                        - fs.data.astype(np.float64)) ** 2)
    assert math.isclose(perceptual_loss(xt, xs, ext), want, rel_tol=1e-12)
    assert perceptual_loss(xt, xt, ext) == 0.0


def test_perceptual_custom_extractor(rng):
    xt = rand_tensor(rng, (1, 1, 4, 4))
    xs = rand_tensor(rng, (1, 1, 4, 4))
    ident = lambda img: [img]
    want = np.sum((xt.data.astype(np.float64)
                   - xs.data.astype(np.float64)) ** 2)
    assert math.isclose(perceptual_loss(xt, xs, ident), want, rel_tol=1e-12)


def test_perceptual_mismatched_extractors_rejected(rng):
    xt = rand_tensor(rng, (1, 1, 8, 8))
    xs = rand_tensor(rng, (1, 1, 8, 8))
    calls = []

    def flaky(img):
        calls.append(img)
        return [img] if len(calls) == 1 else [img, img]

    with pytest.raises(ShapeError):
        perceptual_loss(xt, xs, flaky)


# ---------------------------------------------------------------------------
# Plateau scheduling
# ---------------------------------------------------------------------------

SCHED = PhaseSchedule(plateau_window=10, plateau_threshold=1e-3,
                      max_phase_steps=10_000)


def scan_flip_step(history, schedule):
    """Brute-force reference: first step whose observed prefix flips."""
    for n in range(len(history) + 1):
        phase, _ = plateau_scheduler(history[:n], schedule)
        if phase == "late":
            return n
    return None


def test_short_history_stays_early():
    phase, w = plateau_scheduler([], SCHED)
    assert phase == "early" and w == SCHED.early
    phase, _ = plateau_scheduler([1.0] * (SCHED.plateau_window - 1), SCHED)
    assert phase == "early"


def test_flat_history_flips():
    phase, w = plateau_scheduler([1.0] * SCHED.plateau_window, SCHED)
    assert phase == "late" and w == SCHED.late


def test_steady_decay_stays_early():
    hist = [2.0 * math.exp(-i / 5.0) for i in range(20)]
    phase, _ = plateau_scheduler(hist, SCHED)
    assert phase == "early"


def test_half_window_means_decide():
    # window 10: old half mean 1.0, new half mean chosen right at the
    # threshold boundary on each side
    w = SCHED.plateau_window
    old = [1.0] * (w // 2)
    hist_flip = old + [1.0 - 0.5e-3] * (w // 2)
    hist_hold = old + [1.0 - 2e-3] * (w // 2)
    assert plateau_scheduler(hist_flip, SCHED)[0] == "late"
    assert plateau_scheduler(hist_hold, SCHED)[0] == "early"


def test_late_phase_is_sticky():
    falling = [10.0 / (i + 1) for i in range(50)]
    phase, w = plateau_scheduler(falling, SCHED, current_phase="late")
    assert phase == "late" and w == SCHED.late


def test_max_phase_steps_forces_flip():
    sched = PhaseSchedule(plateau_window=10, plateau_threshold=1e-9,
                          max_phase_steps=30)
    hist = [math.exp(-i) + 1.0 for i in range(30)]
    phase, _ = plateau_scheduler(hist, sched)
    assert phase == "late"
    assert plateau_scheduler(hist[:29], sched)[0] == "early"


def test_scheduler_matches_scan_oracle_on_decaying_histories():
    r = np.random.default_rng(7)
    for _ in range(50):
        a = r.uniform(0.5, 4.0)
        tau = r.uniform(2.0, 12.0)
        c = r.uniform(0.1, 1.0)
        hist = [a * math.exp(-i / tau) + c for i in range(120)]
        n = scan_flip_step(hist, SCHED)
        assert n is not None
        # prefix just before the flip still reads early
        assert plateau_scheduler(hist[:n - 1], SCHED)[0] == "early"
        assert plateau_scheduler(hist[:n], SCHED)[0] == "late"


def test_non_finite_history_rejected():
    with pytest.raises(DomainError):
        plateau_scheduler([1.0, math.nan] + [1.0] * 10, SCHED)


def test_schedule_and_phase_validation():
    with pytest.raises(ParameterError):
        PhaseSchedule(plateau_window=1)
    with pytest.raises(ParameterError):
        PhaseSchedule(plateau_threshold=0.0)
    with pytest.raises(ParameterError):
        PhaseSchedule(max_phase_steps=0)
    with pytest.raises(ParameterError):
        plateau_scheduler([1.0], SCHED, current_phase="mid")
