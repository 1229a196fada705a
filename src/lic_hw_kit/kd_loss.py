"""Distillation loss assembly and two-phase weight scheduling.

The training objective combines a latent-matching term, a perceptual
term over teacher/student reconstructions, and the rate-distortion
objective:

    total = alpha * latent + beta * perceptual + gamma * (rate + lam * distortion)

Early training leans on the latent term (large alpha); once the latent
loss plateaus, or a step budget runs out, the schedule flips once to the
late weights that favor the perceptual term. The transition is one-way.

Feature extraction for the perceptual term is pluggable: anything
callable as extractor(image) -> [feature tensors]. The bundled
PyramidFeatureExtractor is a fixed three-level mean pyramid whose first
level is the image itself, so it is deterministic and injective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError, ShapeError, integral_bits
from .tensor import Tensor

__all__ = [
    "KdWeights",
    "PhaseSchedule",
    "LossBreakdown",
    "latent_loss",
    "perceptual_loss",
    "kd_loss",
    "plateau_scheduler",
    "PyramidFeatureExtractor",
]


@dataclass(frozen=True)
class KdWeights:
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            w = getattr(self, name)
            if not 0 <= w < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0; got {w!r}")
        if self.alpha == self.beta == self.gamma == 0:
            raise ParameterError("at least one loss weight must be positive")


@dataclass(frozen=True)
class PhaseSchedule:
    """Early/late weight pairs plus the plateau rule parameters."""

    early: KdWeights = KdWeights(alpha=1.0, beta=0.1, gamma=0.5)
    late: KdWeights = KdWeights(alpha=0.1, beta=1.0, gamma=0.5)
    plateau_window: int = 1000
    plateau_threshold: float = 1e-3
    max_phase_steps: int = 250_000

    def __post_init__(self):
        for name, least in (("plateau_window", 2), ("max_phase_steps", 1)):
            object.__setattr__(self, name,
                               integral_bits(getattr(self, name), name, least))
        if not self.plateau_threshold > 0:
            raise ParameterError("plateau_threshold must be positive")


@dataclass(frozen=True)
class LossBreakdown:
    l_latent: float
    l_perceptual: float
    rd: float
    total: float


def latent_loss(a: Tensor, b: Tensor) -> float:
    """Mean squared error between two latent tensors."""
    if a.dims != b.dims:
        raise ShapeError(f"latent dims differ: {a.dims} vs {b.dims}")
    diff = a.data.astype(np.float64) - b.data.astype(np.float64)
    return float(np.mean(diff ** 2))


def perceptual_loss(x_teacher: Tensor, x_student: Tensor, extractor) -> float:
    """Sum over feature levels of the squared feature differences, each
    level totalled over all its elements (the raw formulation)."""
    feats_t = extractor(x_teacher)
    feats_s = extractor(x_student)
    if len(feats_t) != len(feats_s):
        raise ShapeError("extractor returned differing level counts")
    total = 0.0
    for ft, fs in zip(feats_t, feats_s):
        if ft.dims != fs.dims:
            raise ShapeError(f"feature dims differ: {ft.dims} vs {fs.dims}")
        d = ft.data.astype(np.float64) - fs.data.astype(np.float64)
        total += float(np.sum(d ** 2))
    return total


def kd_loss(l_latent: float, l_perceptual: float, rate: float,
            distortion: float, lam: float, weights: KdWeights) -> LossBreakdown:
    """Assemble the combined objective from precomputed terms."""
    for name, v in (("l_latent", l_latent), ("l_perceptual", l_perceptual),
                    ("rate", rate), ("distortion", distortion), ("lam", lam)):
        if not np.isfinite(v):
            raise DomainError(f"{name} is not finite")
    rd = rate + lam * distortion
    total = weights.alpha * l_latent + weights.beta * l_perceptual \
        + weights.gamma * rd
    return LossBreakdown(l_latent=float(l_latent), l_perceptual=float(l_perceptual),
                         rd=float(rd), total=float(total))


def plateau_scheduler(loss_history, schedule: PhaseSchedule,
                      current_phase: str = "early"):
    """Decide the training phase after observing loss_history.

    The statistic is the relative change of the windowed moving average:
    over the last plateau_window steps, compare the mean of the first
    half against the mean of the second half. Improvement below
    plateau_threshold, or a history longer than max_phase_steps, flips
    early -> late. The flip is one-way: a late phase stays late.

    Returns (phase, weights-for-that-phase).
    """
    if current_phase not in ("early", "late"):
        raise ParameterError(f"unknown phase {current_phase!r}")
    if current_phase == "late":
        return "late", schedule.late
    hist = np.asarray(loss_history, dtype=np.float64)
    if hist.size and not np.isfinite(hist).all():
        raise DomainError("loss history contains non-finite values")
    if hist.size >= schedule.max_phase_steps:
        return "late", schedule.late
    w = schedule.plateau_window
    if hist.size >= w:
        window = hist[-w:]
        half = w // 2
        m_old = float(np.mean(window[:half]))
        m_new = float(np.mean(window[half:]))
        improvement = (m_old - m_new) / max(abs(m_old), 1e-12)
        if improvement < schedule.plateau_threshold:
            return "late", schedule.late
    return "early", schedule.early


class PyramidFeatureExtractor:
    """Three fixed feature levels: the image, then two 2x2 mean
    downsamplings. No parameters, so features are reproducible, and the
    identity level makes the extractor injective."""

    levels = 3

    def __call__(self, image: Tensor):
        feats = [image]
        cur = image.data.astype(np.float64)
        for _ in range(self.levels - 1):
            n, c, h, w = cur.shape
            if h < 2 or w < 2:
                raise ShapeError(
                    f"image extent {h}x{w} too small for {self.levels} levels"
                )
            h2, w2 = h - h % 2, w - w % 2
            cur = cur[:, :, :h2, :w2].reshape(n, c, h2 // 2, 2, w2 // 2, 2) \
                .mean(axis=(3, 5))
            feats.append(Tensor(cur.astype(np.float32)))
        return feats
