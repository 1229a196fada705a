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

Both pipelines run over one block of at most _BLOCK elements (all
channels of a run of spatial positions, or of a few whole images) at a
time, so each stage's temporaries stay in cache instead of streaming
whole maps through memory; the fixed-point one quantizes the parameters
once per call first. The float reference is the stage-free pass of the
error attribution's block (_float_block), which quantizes one stage at
a time. GDN mixes channels only within a position, so blocking changes
no bit of the fixed-point output or saturation counts; the positivity
check of the float pool and the MAC headroom check of the fixed-point
accumulate run per block and raise the same ParameterError.

The channel sum of both pools is a (C, C) @ (C, P) float64 GEMM. It
runs through _panel_matmul, the package's one GEMM helper (conv and
deconv use it too): the block, or its square, is written into
contiguous panel-major buffers of whole _TILE-position panels of at
most _PANEL multiply-adds, and one batched np.matmul multiplies them.
OpenBLAS runs a product that small on the calling thread; a larger one
wakes a helper thread, which then spins through the elementwise stages
that follow: it nearly doubled the fixed-point datapath's CPU time for
no gain in its wall time. On a 2-CPU Xeon VM, (128, 128) @ (128, 32)
panels ran at 53-74 GFLOP/s from contiguous buffers and at 35-41 from
strided views of a 256-position block. Blocks and panels are whole
tiles of the GEMM kernel, so every position but the last P mod _TILE
of a map sums as in one whole-map product.

After the accumulate, the root and reciprocal stages depend on nothing
but the accumulator integer, which saturation and the floor at one step
hold in [1, qmax]. When that grid has no more values than a block
(accum qmax <= _BLOCK: the stock 8- and 16-bit formats, not the 32-bit
one), the pipeline evaluates both stages once for every accumulator
value of the format and then serves each block by a gather from that
table, cached per format set and direction. This is what the hardware
does: a datapath with an accumulator of 16 bits or fewer implements the
root and the reciprocal as one ROM indexed by the accumulator. The
table holds the stage arithmetic's own results, saturation flags
included, so outputs and counts are bit-identical to evaluating every
element; wider accumulators keep the element-by-element path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ParameterError, ShapeError
from .fixed_point import (
    _BLOCK,
    FixedPointFormat,
    SqrtLut,
    _clamp,
    _reciprocal_unclamped,
    _reduce,
    _round_saturate,
    build_sqrt_lut,
    from_fixed,
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
    "GdnFixedStats",
    "GdnErrorReport",
    "gdn_error_report",
]


# Multiply-adds per panel GEMM of _panel_matmul. OpenBLAS 0.3.31 splits
# a float64 GEMM across threads by its size: a (128, 128) @ (128, N)
# product runs on the calling thread up to N = 56 and on two from N = 64
# (cpu/wall 1.55 at 64, 1.98 at 128), and after a threaded product the
# idle helper thread burns about 0.13 s of CPU. A panel of 2**19 runs at
# 55-60 GFLOP/s on one thread, against about 80 for a 256-position
# block's product on two. A module constant like _BLOCK, not a setting:
# it only has to stay below the threading threshold, and any value whose
# panels are whole tiles gives the same output bits.
_PANEL = 1 << 19

# Positions per float64 GEMM tile: OpenBLAS's AVX-512 kernel computes 8
# positions at a time, and sums a remainder of 1-4 positions (or a lone
# column, which numpy hands to GEMV) in another order. Blocks and panels
# that are whole tiles leave every position's sum as in one product.
_TILE = 8


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


def _check_channels(x: Tensor, params: GdnParams):
    if x.c != params.channels:
        raise ShapeError(f"input has {x.c} channels but gdn params expect "
                         f"{params.channels}")


def _tiles(n: int) -> int:
    """n columns rounded down to whole _TILE-column tiles; below one tile,
    n itself (at least 1)."""
    return n - n % _TILE if n >= _TILE else max(1, n)


def _blocks(n: int, c: int, hw: int):
    """Index tuples that cut an (N, C, hw) map into blocks of at most
    _BLOCK elements (or one position of every channel): whole images
    while they fit, else runs of whole tiles of positions of one image."""
    per = max(1, _BLOCK // max(c, 1))
    if per < hw:
        per = _tiles(per)
    imgs = max(1, per // max(hw, 1))
    for i in range(0, n, imgs):
        for p in range(0, hw, per):
            yield np.s_[i:i + imgs, :, p:p + per]


def _blockwise(fn, v: np.ndarray, dtype=np.float64) -> np.ndarray:
    """fn over the _blocks of an (N, C, H, W) array: a fresh array of v's
    shape and the given dtype holding fn(block) for each (N, C, P) block,
    cast once on assignment."""
    n, c = v.shape[:2]
    hw = math.prod(v.shape[2:])
    out = np.empty(v.shape, dtype=dtype)
    ov, vv = out.reshape(n, c, hw), v.reshape(n, c, hw)
    for blk in _blocks(n, c, hw):
        ov[blk] = fn(vv[blk])
    return out


def _panel_split(m: int, k: int, n: int):
    """(w, q) for the n columns of an (m, k) @ (k, n) product: q panels of
    w columns, then a last panel of the n - q * w columns left.

    w is the most whole tiles with m * k * w <= _PANEL (but at least one
    tile). Fewer than a tile left past a whole panel join it, so no last
    panel is a lone column, which numpy hands to GEMV.
    """
    w = _tiles(max(_TILE, _PANEL // max(m * k, 1)))
    q = n // w
    if q and 0 < n - q * w < _TILE:
        q -= 1
    return w, q


def _panels(a: np.ndarray, w: int, q: int):
    """The (..., K, n) array a cut along its last axis as _panel_split
    says: (head, rest) views, head (..., q, K, w) over the first q * w
    columns and rest (..., K, n - q * w) over the others."""
    head = a[..., :q * w].reshape(*a.shape[:-1], q, w)
    return np.moveaxis(head, -2, -3), a[..., q * w:]


def _panel_matmul(a: np.ndarray, cols, out) -> None:
    """out = a @ cols for the (head, rest) pairs of _panels: one batched
    np.matmul per non-empty part, so at most two per product.

    cols are C-contiguous float64 panel buffers. out may be any views
    with unit column stride; each panel's product is written into them
    directly. Every 2-D product but a last panel holding a sub-tile
    remainder has at most _PANEL multiply-adds, and that one fewer than
    _TILE more columns, so OpenBLAS runs all of them on the calling
    thread. The one np.matmul of the package.
    """
    for c, o in zip(cols, out):
        if c.size:
            np.matmul(a, c, out=o)


def _channel_mix(gamma: np.ndarray, v: np.ndarray, square: bool = False) -> np.ndarray:
    """sum_j gamma[i, j] * v[n, j, ...] as float64 for a block v of shape
    (N, C, ...), or of v**2 with square: a 1x1 GDN pool is a matrix
    product over channels.

    The block, or its square, is written into panel-major float64
    buffers (an integer limb is cast exactly on the way), and one
    _panel_matmul writes the (C, C) @ (C, w) panel products straight into
    the output. Panels are whole tiles (32 positions at C = 128, 8 at
    C = 192, up to 8192 at C = 8). Squaring into the panels takes the
    place of the square pass over the block.
    With block and panel edges on whole tiles, each column gets the sum
    it gets in one whole-map product, except the last P mod _TILE
    positions of a map, which both sum in a remainder kernel whose order
    can depend on the product's size.
    """
    n, c = v.shape[:2]
    p = math.prod(v.shape[2:])
    out = np.empty((n, c, p))
    w, q = _panel_split(c, c, p)
    cols = []
    for part in _panels(v.reshape(n, c, p), w, q):
        buf = np.empty(part.shape)
        if square:
            np.square(part, out=buf)
        else:
            np.copyto(buf, part)
        cols.append(buf)
    _panel_matmul(gamma, cols, _panels(out, w, q))
    return out.reshape(v.shape)


def _block_pool(v: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                square: bool = False) -> np.ndarray:
    """beta_i + sum_j gamma_ij * v_j (v_j**2 with square) on one (N, C, P)
    float64 block, checked strictly positive. BLAS may add the channel
    sum in any order; in float64 the effect of that order stays far below
    the float32 rounding of the outputs."""
    base = _channel_mix(gamma, v, square)
    base += beta[:, None]
    if base.size and base.min() <= 0:
        raise ParameterError("normalization pool is not strictly positive")
    return base


def _hybrid_pipeline(x, params, formats, stage, inverse, dtype=np.float64):
    """_float_block over the blocks of x with exactly one stage quantized,
    or none for a stage outside STAGES: that stage-free pass is the float
    reference itself.

    Used to attribute error per stage; the isolated contributions are
    diagnostics and do not sum to the full-pipeline error.
    """
    gamma, beta = params.gamma, params.beta
    if stage == "accum":
        beta_q, gamma_q = _quantize_params(params, formats)
        gamma = from_fixed(gamma_q, formats.param)
        beta = from_fixed(beta_q, formats.accum)
    return _blockwise(
        lambda xb: _float_block(xb, gamma, beta, params.alpha, formats, stage, inverse),
        x.data, dtype,
    )


def _float_block(xb, gamma, beta, alpha, formats, stage, inverse):
    """One (N, C, P) block in float64: square, pool, ** alpha, then
    multiply (igdn) or divide (gdn), the last two in place. The stage
    named, if any, is quantized by the datapath's own helpers (root
    implies alpha = 0.5). At recip, _recip_clamps shifts root_q left by
    lift bits: at most 2**62, past every recip qmax, so that clamp
    changes no output."""
    xv = xb.astype(np.float64)
    if stage == "input":
        xv = _snap(xv, formats.input)
    if stage == "square":
        scale = _block_pool(_snap(xv ** 2, formats.square), gamma, beta)
    else:
        scale = _block_pool(xv, gamma, beta, square=True)
    if stage == "accum":
        scale = np.maximum(_snap(scale, formats.accum), formats.accum.ulp)
    if stage == "root":
        acc_q = _grid_q(scale, formats.accum.frac_bits, 1 << 62)
        scale = from_fixed(_scale_stages(acc_q, formats, inverse=True)[0], formats.root)
    else:
        scale **= alpha
    op = np.multiply if inverse else np.divide
    if stage == "recip" and not inverse:
        lift = max(0, formats.recip.frac_bits - formats.root.frac_bits)
        root_q = _grid_q(scale, formats.root.frac_bits, 1 << (62 - lift))
        recip_q = _recip_clamps(root_q, formats.root, formats.recip)[0]
        scale, op = from_fixed(recip_q, formats.recip), np.multiply
    out = op(xv, scale, out=scale)
    if stage == "output":
        out = _snap(out, formats.output)
    return out


def _float_pipeline(x: Tensor, params: GdnParams, inverse: bool) -> Tensor:
    """The float reference: _hybrid_pipeline with no stage quantized,
    rounded once to float32."""
    _check_channels(x, params)
    return Tensor(_hybrid_pipeline(x, params, None, None, inverse, np.float32))


def gdn_float(x: Tensor, params: GdnParams) -> Tensor:
    return _float_pipeline(x, params, inverse=False)


def igdn_float(y: Tensor, params: GdnParams) -> Tensor:
    return _float_pipeline(y, params, inverse=True)


# ---------------------------------------------------------------------------
# Fixed-point pipeline
# ---------------------------------------------------------------------------

STAGES = ("input", "square", "accum", "root", "recip", "output")


@dataclass(frozen=True)
class GdnStageFormats:
    """One fixed-point format per pipeline stage boundary.

    param is the gamma storage format; beta is held directly in the
    accumulator format so the add needs no rescale. The root stage's sqrt
    LUT always has 64 segments over [1, 4) (fewer on a coarser grid).
    """

    input: FixedPointFormat
    square: FixedPointFormat
    accum: FixedPointFormat
    root: FixedPointFormat
    recip: FixedPointFormat
    output: FixedPointFormat
    param: FixedPointFormat

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
def _lut_for(fmt: FixedPointFormat) -> SqrtLut:
    # 64 segments, or one per grid point on a grid coarser than that
    span = int(round(3.0 / fmt.ulp))
    return build_sqrt_lut(domain=(1.0, 4.0), segments=min(64, span), fmt=fmt)


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


def _gamma_mac(gamma_q, sq):
    """Exact sum_j gamma_q[i, j] * sq[n, j, h, w] as int64, run on float64 BLAS.

    Both operands are non-negative integers. sq is cut into limbs of b
    bits with b = 53 - bit_length(max(gamma_q) * C), so every partial sum
    of every limb's GEMM is an integer below 2**53 and float64 holds it
    exactly whatever order BLAS adds in. Each limb's product is shifted
    back into an int64 accumulator. A total that could reach 2**62
    (max(gamma_q) * C * max(sq)) raises ParameterError before any product.
    A limb product is the float pool's contraction, so it runs through
    the same _channel_mix panels. numpy has no integer BLAS, so this
    beats an int64 matmul or einsum.
    """
    c = sq.shape[1]
    bound = int(gamma_q.max()) * c if gamma_q.size else 0
    sq_max = int(sq.max()) if sq.size else 0
    if bound * sq_max >= 1 << 62:
        raise ParameterError(
            "gamma accumulate would overflow 64-bit intermediates; "
            "use fewer fraction bits"
        )
    b = 53 - bound.bit_length()
    top = sq_max.bit_length()
    g = gamma_q.astype(np.float64)
    if top <= b:
        return _channel_mix(g, sq).astype(np.int64)
    acc = np.zeros(sq.shape, dtype=np.int64)
    mask = (np.int64(1) << b) - 1
    for lo in range(0, top, b):
        acc += _channel_mix(g, (sq >> lo) & mask).astype(np.int64) << lo
    return acc


def _sqrt_unclamped(acc_q, acc_fmt, lut: SqrtLut, out_fmt):
    """sqrt of positive accumulator values, before the clamp to out_fmt:
    acc = m * 4**k with m in [1, 4) (_reduce), so sqrt(acc) = lut(m) * 2**k."""
    m, k = _reduce(acc_q, acc_fmt.frac_bits, lut.fmt.frac_bits, 2)
    return shift_round(lut.eval_int(m), lut.fmt.frac_bits - out_fmt.frac_bits - k)


def _recip_clamps(root_q, root_fmt, recip_fmt):
    """The reciprocal stage: (recip_q, moved_in, moved_out), with the
    masks of the elements that the clamp of the shifted root into
    recip_fmt and the clamp of the reciprocal moved."""
    d, moved_in = _clamp(
        rshift_round(root_q, root_fmt.frac_bits - recip_fmt.frac_bits), recip_fmt
    )
    d = np.maximum(d, 1)  # root of a positive pool is positive
    q, moved_out = _clamp(_reciprocal_unclamped(d, recip_fmt), recip_fmt)
    return q, moved_in, moved_out


def _scale_stages(acc, formats, inverse):
    """The root and (gdn only) reciprocal stages on accumulator values
    floored at 1, element by element. Returns (scale_q, clamps): the
    integer the input is multiplied by, on the root grid for igdn and the
    recip grid for gdn, and a list of (stage, mask of the elements one of
    that stage's clamps moved)."""
    f_root = formats.root
    root = _sqrt_unclamped(acc, formats.accum, _lut_for(f_root), f_root)
    root, moved = _clamp(root, f_root)
    root = np.maximum(root, 1)
    if inverse:
        return root, [("root", moved)]
    recip, moved_in, moved_out = _recip_clamps(root, f_root, formats.recip)
    return recip, [("root", moved), ("recip", moved_in), ("recip", moved_out)]


@lru_cache(maxsize=None)
def _stage_table(formats: GdnStageFormats, inverse: bool):
    """_scale_stages tabulated over every accumulator value: (scale,
    clamps) indexed by the accumulator integer, keeping only the clamp
    masks that are set somewhere. Entry 0, which no floored accumulator
    reaches, repeats entry 1. The arrays are read-only, as every caller
    shares them."""
    acc = np.maximum(np.arange(formats.accum.qmax + 1, dtype=np.int64), 1)
    scale, clamps = _scale_stages(acc, formats, inverse)
    clamps = [(s, m) for s, m in clamps if m.any()]
    for a in (scale, *(m for _, m in clamps)):
        a.flags.writeable = False
    return scale, clamps


def _fixed_pipeline(x: Tensor, params: GdnParams, formats: GdnStageFormats,
                    inverse: bool):
    _require_half_alpha(params)
    _check_channels(x, params)
    beta_q, gamma_q = _quantize_params(params, formats)
    # a table costs at most one block to build; an empty input builds none,
    # so a recip format that cannot hold 2 still raises only on data
    table = (_stage_table(formats, inverse)
             if x.size and formats.accum.qmax <= _BLOCK else None)
    sat = dict.fromkeys(STAGES, 0)
    out = _blockwise(
        lambda xb: _fixed_block(xb, beta_q, gamma_q, table, formats, inverse, sat),
        x.data, np.float32,
    )
    return Tensor._adopt(out), sat


def _fixed_block(x, beta_q, gamma_q, table, formats, inverse, sat):
    """The pipeline on one (N, C, P) block of the input: the float64
    output values. Adds the block's saturation counts into sat. With a
    _stage_table, the root and reciprocal stages are gathers from it."""
    f_in, f_sq, f_acc = formats.input, formats.square, formats.accum
    f_out = formats.output

    x_q, n = to_fixed(x, f_in)
    sat["input"] += n

    sq = rshift_round(x_q * x_q, 2 * f_in.frac_bits - f_sq.frac_bits)
    sq, n = saturate_q(sq, f_sq)
    sat["square"] += n

    acc = rshift_round(
        _gamma_mac(gamma_q, sq), formats.param.frac_bits + f_sq.frac_bits - f_acc.frac_bits
    )
    acc += beta_q[:, None]
    acc, n = saturate_q(acc, f_acc)
    sat["accum"] += n
    acc = np.maximum(acc, 1)

    if table is None:
        scale_q, clamps = _scale_stages(acc, formats, inverse)
    else:
        scale, masks = table
        scale_q = scale[acc]
        clamps = [(s, m[acc]) for s, m in masks]
    for s, m in clamps:
        sat[s] += int(np.count_nonzero(m))

    scale_frac = (formats.root if inverse else formats.recip).frac_bits
    out = rshift_round(x_q * scale_q, f_in.frac_bits + scale_frac - f_out.frac_bits)
    out, n = saturate_q(out, f_out)
    sat["output"] += n
    return from_fixed(out, f_out)


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


def _grid_q(v, frac_bits: int, limit: int):
    """Positive float64 v onto the 2**-frac_bits grid as int64 in [1, limit].
    Callers keep limit at most 2**62 and far past every format's range, so
    it moves only values whose cast or later shift would overflow int64."""
    q, _ = _round_saturate(v * (1 << frac_bits), 1, limit)
    return q.astype(np.int64)


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
    pipeline with only that stage quantized. Every other stage of that
    pipeline is the float reference's own arithmetic, so a contribution
    measures its stage's quantization and nothing else. Deterministic for
    a fixed corpus.
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
