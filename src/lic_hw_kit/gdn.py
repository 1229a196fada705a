"""Generalized divisive normalization, in float and in fixed point.

Float reference (per channel i, per spatial position):

    gdn:   y_i = x_i / (beta_i + sum_j gamma_ij * x_j**2) ** alpha
    igdn:  x_i = y_i * (beta_i + sum_j gamma_ij * y_j**2) ** alpha

The fixed-point path mirrors a hardware datapath for alpha = 0.5: square,
gamma-weighted accumulate, add beta, piecewise-linear square root,
reciprocal (gdn only; igdn multiplies by the root directly), multiply.
Each stage boundary re-quantizes into that stage's declared format, and
every computation between boundaries is integer arithmetic, so results
are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError, ShapeError
from .fixed_point import (
    FixedPointFormat,
    SqrtLut,
    _reciprocal_q,
    build_sqrt_lut,
    from_fixed,
    round_half_away,
    rshift_round,
    saturate_q,
    shift_round,
    to_fixed,
)
from .tensor import Tensor

__all__ = [
    "GdnParams",
    "gdn_float",
    "igdn_float",
    "GdnStageFormats",
    "gdn_fixed",
    "igdn_fixed",
    "gdn_fixed_with_stats",
    "igdn_fixed_with_stats",
    "GdnErrorReport",
    "gdn_error_report",
]


@dataclass(frozen=True)
class GdnParams:
    """Per-channel offsets beta (C,) and pairwise weights gamma (C, C)."""

    beta: np.ndarray
    gamma: np.ndarray
    alpha: float = 0.5

    def __post_init__(self):
        beta = np.array(self.beta, dtype=np.float64, order="C")
        gamma = np.array(self.gamma, dtype=np.float64, order="C")
        if beta.ndim != 1:
            raise ShapeError(f"beta must be 1-D; got shape {beta.shape}")
        c = beta.shape[0]
        if gamma.shape != (c, c):
            raise ShapeError(
                f"gamma must be square ({c}, {c}) to match beta; got {gamma.shape}"
            )
        if not (np.isfinite(beta).all() and np.isfinite(gamma).all()):
            raise ParameterError("gdn parameters must be finite")
        if beta.size and beta.min() <= 0:
            raise ParameterError("beta must be strictly positive")
        if gamma.size and gamma.min() < 0:
            raise ParameterError("gamma must be non-negative")
        if not self.alpha > 0:
            raise ParameterError("alpha must be positive")
        beta.flags.writeable = False
        gamma.flags.writeable = False
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    @property
    def channels(self) -> int:
        return self.beta.shape[0]


def _channel_mix(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j gamma[i, j] * v[n, j, h, w] for float64 operands, as one
    (C, C) @ (C, H*W) BLAS GEMM per image: a 1x1 GDN pool is a matrix
    product over channels."""
    n, c, h, w = v.shape
    return (gamma @ v.reshape(n, c, h * w)).reshape(n, c, h, w)


def _pool(x: Tensor, params: GdnParams) -> np.ndarray:
    """beta_i + sum_j gamma_ij * x_j**2 in float64, checked strictly
    positive. The channel sum runs through _channel_mix, so BLAS may add
    in any order; in float64 the effect of that order stays far below the
    float32 rounding of the outputs."""
    if x.c != params.channels:
        raise ShapeError(
            f"input has {x.c} channels but gdn params expect {params.channels}"
        )
    sq = x.data.astype(np.float64) ** 2
    acc = _channel_mix(params.gamma, sq)
    base = acc + params.beta[None, :, None, None]
    if base.size and base.min() <= 0:
        raise ParameterError("normalization pool is not strictly positive")
    return base


def gdn_float(x: Tensor, params: GdnParams) -> Tensor:
    base = _pool(x, params)
    return Tensor((x.data.astype(np.float64) / base ** params.alpha).astype(np.float32))


def igdn_float(y: Tensor, params: GdnParams) -> Tensor:
    base = _pool(y, params)
    return Tensor((y.data.astype(np.float64) * base ** params.alpha).astype(np.float32))


# ---------------------------------------------------------------------------
# Fixed-point pipeline
# ---------------------------------------------------------------------------

STAGES = ("input", "square", "accum", "root", "recip", "output")


@dataclass(frozen=True)
class GdnStageFormats:
    """One fixed-point format per pipeline stage boundary.

    param is the gamma storage format; beta is held directly in the
    accumulator format so the add needs no rescale.
    """

    input: FixedPointFormat
    square: FixedPointFormat
    accum: FixedPointFormat
    root: FixedPointFormat
    recip: FixedPointFormat
    output: FixedPointFormat
    param: FixedPointFormat
    lut_segments: int = 64

    @classmethod
    def default(cls, total_bits: int) -> "GdnStageFormats":
        """Stock format sets for 8-, 16-, and 32-bit datapaths.

        Integer headroom is sized for inputs up to |x| = 8 (squares up
        to 64); narrower inputs just waste a bit or two of range.
        """
        if total_bits == 32:
            return cls(
                input=FixedPointFormat(32, 24),
                square=FixedPointFormat(32, 24),
                accum=FixedPointFormat(32, 24),
                root=FixedPointFormat(32, 26),
                recip=FixedPointFormat(32, 26),
                output=FixedPointFormat(32, 24),
                param=FixedPointFormat(32, 24),
            )
        if total_bits == 16:
            return cls(
                input=FixedPointFormat(16, 8),
                square=FixedPointFormat(16, 8),
                accum=FixedPointFormat(16, 8),
                root=FixedPointFormat(16, 10),
                recip=FixedPointFormat(16, 11),
                output=FixedPointFormat(16, 8),
                param=FixedPointFormat(16, 12),
            )
        if total_bits == 8:
            return cls(
                input=FixedPointFormat(8, 2),
                square=FixedPointFormat(8, 1),
                accum=FixedPointFormat(8, 1),
                root=FixedPointFormat(8, 3),
                recip=FixedPointFormat(8, 5),
                output=FixedPointFormat(8, 2),
                param=FixedPointFormat(8, 5),
            )
        raise ParameterError(f"no default stage formats for {total_bits}-bit")


@lru_cache(maxsize=None)
def _lut_for(fmt: FixedPointFormat, segments: int) -> SqrtLut:
    # a coarse grid cannot support more segments than it has points
    span = int(round(3.0 / fmt.ulp))
    return build_sqrt_lut(domain=(1.0, 4.0), segments=min(segments, span), fmt=fmt)


def _require_half_alpha(params: GdnParams):
    if params.alpha != 0.5:
        raise ParameterError(
            f"the fixed-point pipeline implements alpha = 0.5 only; got {params.alpha}"
        )


def _quantize_params(params: GdnParams, formats: GdnStageFormats):
    """Gamma onto the param grid; beta onto the accumulator grid, floored
    at one step so the pool stays strictly positive."""
    gamma_q, _ = to_fixed(params.gamma, formats.param)
    beta_q, _ = to_fixed(params.beta, formats.accum)
    beta_q = np.maximum(beta_q, 1)
    return beta_q, gamma_q


def _mac_headroom_ok(gamma_q, sq_max: int, channels: int) -> bool:
    worst = int(np.max(np.abs(gamma_q))) * int(sq_max) * channels if channels else 0
    return worst < (1 << 62)


def _gamma_mac(gamma_q, sq):
    """Exact sum_j gamma_q[i, j] * sq[n, j, h, w] as int64, run on float64 BLAS.

    Both operands are non-negative integers. sq is cut into limbs of b
    bits with b = 53 - bit_length(max(gamma_q) * C), so every partial sum
    of every limb's GEMM is an integer below 2**53 and float64 holds it
    exactly whatever order BLAS adds in. Each limb's product is shifted
    back into an int64 accumulator; _mac_headroom_ok bounds the total.
    A limb product is the float pool's contraction, so it shares the
    _channel_mix GEMM. numpy has no integer BLAS, so this beats an int64
    matmul or einsum.
    """
    c = sq.shape[1]
    bound = int(gamma_q.max()) * c if gamma_q.size else 0
    b = 53 - bound.bit_length()
    top = int(sq.max()).bit_length() if sq.size else 0
    g = gamma_q.astype(np.float64)
    if top <= b:
        return _channel_mix(g, sq.astype(np.float64)).astype(np.int64)
    acc = np.zeros(sq.shape, dtype=np.int64)
    mask = (np.int64(1) << b) - 1
    for lo in range(0, top, b):
        limb = ((sq >> lo) & mask).astype(np.float64)
        acc += _channel_mix(g, limb).astype(np.int64) << lo
    return acc


def _sqrt_range_reduced(acc_q, acc_fmt, lut: SqrtLut, out_fmt):
    """sqrt of positive accumulator values via [1, 4) range reduction.

    acc = m * 4**k with m in [1, 4), so sqrt(acc) = lut(m) * 2**k.
    Exponents are split per element; shifts are exact or rounded once.
    """
    f_a = acc_fmt.frac_bits
    f_l = lut.fmt.frac_bits
    exp = np.frexp(acc_q.astype(np.float64))[1].astype(np.int64)  # bit length
    e = exp - 1 - f_a
    k = np.floor_divide(e, 2)
    m = shift_round(acc_q, f_a + 2 * k - f_l)
    one = np.int64(1) << f_l
    m = np.clip(m, one, 4 * one - 1)
    val = lut.eval_int(m)
    out = shift_round(val, f_l - out_fmt.frac_bits - k)
    return saturate_q(out, out_fmt)


def _recip_stage(root_q, root_fmt, recip_fmt):
    d, sat_in = saturate_q(
        rshift_round(root_q, root_fmt.frac_bits - recip_fmt.frac_bits), recip_fmt
    )
    d = np.maximum(d, 1)  # root of a positive pool is positive
    q, sat = _reciprocal_q(d, recip_fmt)
    return q, sat_in + sat


def _fixed_pipeline(x: Tensor, params: GdnParams, formats: GdnStageFormats,
                    inverse: bool):
    _require_half_alpha(params)
    if x.c != params.channels:
        raise ShapeError(
            f"input has {x.c} channels but gdn params expect {params.channels}"
        )
    sat = dict.fromkeys(STAGES, 0)
    f_in, f_sq, f_acc = formats.input, formats.square, formats.accum
    f_root, f_rec, f_out = formats.root, formats.recip, formats.output

    x_q, n = to_fixed(x.data, f_in)
    sat["input"] = n

    sq = rshift_round(x_q * x_q, 2 * f_in.frac_bits - f_sq.frac_bits)
    sq, n = saturate_q(sq, f_sq)
    sat["square"] = n

    beta_q, gamma_q = _quantize_params(params, formats)
    if not _mac_headroom_ok(gamma_q, int(np.max(sq)) if sq.size else 0, x.c):
        raise ParameterError(
            "gamma accumulate would overflow 64-bit intermediates; "
            "use fewer fraction bits"
        )
    acc_raw = _gamma_mac(gamma_q, sq)
    acc = rshift_round(
        acc_raw, formats.param.frac_bits + f_sq.frac_bits - f_acc.frac_bits
    )
    acc = acc + beta_q[None, :, None, None]
    acc, n = saturate_q(acc, f_acc)
    sat["accum"] = n
    acc = np.maximum(acc, 1)

    lut = _lut_for(f_root, formats.lut_segments)
    root, n = _sqrt_range_reduced(acc, f_acc, lut, f_root)
    sat["root"] = n
    root = np.maximum(root, 1)

    if inverse:
        scale_q, scale_frac = root, f_root.frac_bits
    else:
        recip, n = _recip_stage(root, f_root, f_rec)
        sat["recip"] = n
        scale_q, scale_frac = recip, f_rec.frac_bits

    out = rshift_round(x_q * scale_q, f_in.frac_bits + scale_frac - f_out.frac_bits)
    out, n = saturate_q(out, f_out)
    sat["output"] = n

    result = Tensor(from_fixed(out, f_out).astype(np.float32))
    return result, sat


@dataclass
class GdnFixedStats:
    """Per-stage saturation counts from one fixed-point evaluation."""

    saturation: dict = field(default_factory=dict)

    @property
    def total_saturated(self) -> int:
        return sum(self.saturation.values())


def gdn_fixed(x: Tensor, params: GdnParams,
              formats: GdnStageFormats = GdnStageFormats.default(32)) -> Tensor:
    out, _ = _fixed_pipeline(x, params, formats, inverse=False)
    return out


def igdn_fixed(y: Tensor, params: GdnParams,
               formats: GdnStageFormats = GdnStageFormats.default(32)) -> Tensor:
    out, _ = _fixed_pipeline(y, params, formats, inverse=True)
    return out


def gdn_fixed_with_stats(x, params, formats=GdnStageFormats.default(32)):
    out, sat = _fixed_pipeline(x, params, formats, inverse=False)
    return out, GdnFixedStats(saturation=sat)


def igdn_fixed_with_stats(y, params, formats=GdnStageFormats.default(32)):
    out, sat = _fixed_pipeline(y, params, formats, inverse=True)
    return out, GdnFixedStats(saturation=sat)


# ---------------------------------------------------------------------------
# Error attribution
# ---------------------------------------------------------------------------


def _snap(v, fmt: FixedPointFormat):
    return from_fixed(to_fixed(v, fmt)[0], fmt)


def _hybrid_pipeline(x, params, formats, stage, inverse):
    """Float64 pipeline with exactly one stage quantized.

    Used to attribute error per stage; the isolated contributions are
    diagnostics and do not sum to the full-pipeline error.
    """
    # einsum, not _channel_mix: a GEMM's sum order moves gdn-bench's digits
    xv = x.data.astype(np.float64)
    if stage == "input":
        xv = _snap(xv, formats.input)
    sq = xv ** 2
    if stage == "square":
        sq = _snap(sq, formats.square)
    if stage == "accum":
        beta_q, gamma_q = _quantize_params(params, formats)
        beta = from_fixed(beta_q, formats.accum)
        gamma = from_fixed(gamma_q, formats.param)
        acc = np.einsum("ij,njhw->nihw", gamma, sq) + beta[None, :, None, None]
        acc = np.maximum(_snap(acc, formats.accum), formats.accum.ulp)
    else:
        acc = np.einsum("ij,njhw->nihw", params.gamma, sq) \
            + params.beta[None, :, None, None]
    if stage == "root":
        lut = _lut_for(formats.root, formats.lut_segments)
        acc_q = np.maximum(round_half_away(acc * (1 << formats.accum.frac_bits)), 1)
        root_q, _ = _sqrt_range_reduced(acc_q, formats.accum, lut, formats.root)
        root = from_fixed(np.maximum(root_q, 1), formats.root)
    else:
        root = np.sqrt(acc)
    if inverse:
        out = xv * root
    elif stage == "recip":
        root_q = np.maximum(round_half_away(root * (1 << formats.root.frac_bits)), 1)
        recip_q, _ = _recip_stage(root_q, formats.root, formats.recip)
        out = xv * from_fixed(recip_q, formats.recip)
    else:
        out = xv / root
    if stage == "output":
        out = _snap(out, formats.output)
    return out


@dataclass
class GdnErrorReport:
    """Fixed-vs-float comparison over a corpus."""

    max_abs_error: float
    mean_abs_error: float
    saturation: dict
    stage_contribution: dict

    def rows(self):
        out = [
            {"stage": s, "max_abs_error": self.stage_contribution[s],
             "saturated": self.saturation.get(s, 0)}
            for s in STAGES if s in self.stage_contribution
        ]
        out.append({"stage": "total", "max_abs_error": self.max_abs_error,
                    "saturated": sum(self.saturation.values())})
        return out


def gdn_error_report(params: GdnParams, formats: GdnStageFormats,
                     corpus: Tensor, inverse: bool = False) -> GdnErrorReport:
    """Compare the fixed-point pipeline against the float reference.

    stage_contribution holds, for each stage, the max error of a float
    pipeline with only that stage quantized. Deterministic for a fixed
    corpus.
    """
    _require_half_alpha(params)
    ref = igdn_float(corpus, params) if inverse else gdn_float(corpus, params)
    refv = ref.data.astype(np.float64)
    fixed, stats = (igdn_fixed_with_stats if inverse else gdn_fixed_with_stats)(
        corpus, params, formats
    )
    err = np.abs(fixed.data.astype(np.float64) - refv)
    stages = [s for s in STAGES if not (inverse and s == "recip")]
    contribution = {}
    for s in stages:
        hyb = _hybrid_pipeline(corpus, params, formats, s, inverse)
        contribution[s] = float(np.max(np.abs(hyb - refv))) if err.size else 0.0
    return GdnErrorReport(
        max_abs_error=float(err.max()) if err.size else 0.0,
        mean_abs_error=float(err.mean()) if err.size else 0.0,
        saturation=stats.saturation,
        stage_contribution=contribution,
    )
