"""Fixed-point formats, rounding, and the two nonlinear units.

Everything here operates on int64 arrays holding Q-format integers, so
results are bit-reproducible across platforms: a value x in format
(total, frac) is stored as the integer round(x * 2**frac). Rounding is
half-away-from-zero throughout, and out-of-range results saturate to the
format limits (with the count of clipped elements reported, since
saturation is expected behaviour for narrow formats, not a failure).

The square-root unit is a piecewise-linear lookup table over a fixed
domain; callers that need an unbounded domain reduce their argument into
it first with _reduce, as gdn.py does onto [1, 4). The reciprocal unit
reduces onto [1, 2), seeds from a small table there and sharpens with
two Newton-Raphson steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError, ShapeError, integral_bits

__all__ = [
    "FixedPointFormat",
    "round_half_away",
    "to_fixed",
    "from_fixed",
    "rshift_round",
    "shift_round",
    "saturate_q",
    "SqrtLut",
    "build_sqrt_lut",
    "reciprocal_fixed",
    "reciprocal_error_bound",
]

_ALLOWED_TOTALS = (8, 16, 32)


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed two's-complement Q-format: total_bits wide, frac_bits of fraction."""

    total_bits: int
    frac_bits: int

    def __post_init__(self):
        total = integral_bits(self.total_bits, "total_bits")
        if total not in _ALLOWED_TOTALS:
            raise ParameterError(f"total_bits must be one of {_ALLOWED_TOTALS}")
        object.__setattr__(self, "total_bits", total)
        object.__setattr__(self, "frac_bits",
                           integral_bits(self.frac_bits, "frac_bits", 0, total - 1))

    @property
    def ulp(self) -> float:
        return 2.0 ** -self.frac_bits

    @property
    def qmin(self) -> int:
        return -(1 << (self.total_bits - 1))

    @property
    def qmax(self) -> int:
        return (1 << (self.total_bits - 1)) - 1

    @property
    def min_value(self) -> float:
        return self.qmin * self.ulp

    @property
    def max_value(self) -> float:
        return self.qmax * self.ulp


def round_half_away(x):
    """Round to nearest integer, ties away from zero. Returns int64."""
    return _round_in_place(np.array(x, dtype=np.float64)).astype(np.int64)


def _round_in_place(v):
    """Round a float64 array the caller owns half away from zero, in place.

    The decision is taken on the exact fraction f = v - trunc(v): trunc(2f)
    is the step away from zero (0 or +-1), and both f and 2f are exact.
    Adding 0.5 to |v| instead would round twice, taking
    0.49999999999999994 to 1 and 2**52 + 1 to 2**52 + 2. An infinite
    element becomes NaN (inf - inf), which _round_saturate rejects.
    """
    whole = np.trunc(v)
    with np.errstate(invalid="ignore"):
        v -= whole
    v *= 2.0
    np.trunc(v, out=v)
    v += whole
    return v


def _round_saturate(v, qmin: int, qmax: int):
    """Round v half away from zero and clamp it to [qmin, qmax], in
    place and in float64, so a value beyond the limits saturates before
    any integer cast can overflow. v must be a float64 array the caller
    owns. Returns (v, count of elements outside the limits after rounding).
    A NaN or infinite element raises DomainError.
    """
    v = _round_in_place(np.asarray(v))
    n_sat = v.size - int(np.count_nonzero((v >= qmin) & (v <= qmax)))
    # NaN and +-inf fail both limit tests, so only a count > 0 needs the scan
    if n_sat and not np.isfinite(v).all():
        raise DomainError("cannot quantize NaN or infinite values")
    np.clip(v, qmin, qmax, out=v)
    return v, n_sat


def to_fixed(x, fmt: FixedPointFormat):
    """Quantize real values onto the format grid.

    Returns (q, n_saturated) where q is the int64 representation and
    n_saturated counts elements clipped to the format limits. A NaN or
    infinite element raises DomainError.
    """
    v, n_sat = _round_saturate(np.asarray(x, dtype=np.float64)
                               * (1 << fmt.frac_bits), fmt.qmin, fmt.qmax)
    return v.astype(np.int64), n_sat


def from_fixed(q, fmt: FixedPointFormat):
    return np.asarray(q, dtype=np.float64) * fmt.ulp


def rshift_round(v, nbits: int):
    """Arithmetic shift right by nbits with half-away-from-zero rounding.

    nbits is one shift for every element; nbits <= 0 shifts left (exact).
    Rounding away from zero is floor((v + half - [v < 0]) / 2**nbits):
    the sign bit v >> 63 (0 or -1) trims the bias for negative v, so the
    whole shift is four in-place passes over one fresh int64 buffer. 0-d
    input gives a 0-d array.
    """
    v = np.asarray(v, dtype=np.int64)
    if nbits <= 0:
        return v << (-nbits)
    # an explicit out= keeps 0-d input an array, so the in-place ops apply
    r = np.right_shift(v, 63, out=np.empty_like(v))
    r += np.int64(1) << (nbits - 1)
    r += v
    r >>= nbits
    return r


def shift_round(v, nbits):
    """Per-element shift with rounding: right by n where n > 0 (half away
    from zero, as rshift_round), left by -n (exact) where n <= 0.

    nbits may be a scalar or an array of shifts in [-63, 63]. v and nbits
    broadcast against each other as numpy arrays do; shapes that do not
    broadcast raise ShapeError. Every element takes one branch-free path:
    with right = max(n, 0), r = (v + bias) >> right, where bias is half a
    step for v >= 0 and one less for v < 0 (0 when right = 0); then
    r <<= max(-n, 0).
    """
    v = np.asarray(v, dtype=np.int64)
    nbits = np.asarray(nbits, dtype=np.int64)
    if nbits.ndim == 0:
        return rshift_round(v, int(nbits))
    try:
        shape = np.broadcast_shapes(v.shape, nbits.shape)
    except ValueError:
        raise ShapeError(
            f"shift_round: values of shape {v.shape} and shifts of shape "
            f"{nbits.shape} do not broadcast"
        ) from None
    right = np.maximum(nbits, 0)
    # bias = ((1 << right) + (v >> 63)) >> 1, shifted unsigned so that
    # 1 << 63 stays positive
    r = np.right_shift(v, 63, out=np.empty(shape, dtype=np.int64))
    r += np.int64(1) << right
    u = r.view(np.uint64)
    u >>= np.uint64(1)
    r += v
    r >>= right
    left = np.negative(nbits, out=right)
    r <<= np.maximum(left, 0, out=left)
    return r


def saturate_q(q, fmt: FixedPointFormat):
    """Clamp Q-format integers to the format limits. Returns (clamped, count)."""
    clipped, moved = _clamp(q, fmt)
    return clipped, int(np.count_nonzero(moved))


def _clamp(q, fmt: FixedPointFormat):
    """saturate_q with the mask of the clamped elements in place of their
    count, for callers that need to know which elements saturated."""
    q = np.asarray(q, dtype=np.int64)
    clipped = np.clip(q, fmt.qmin, fmt.qmax)
    return clipped, clipped != q


# ---------------------------------------------------------------------------
# Piecewise-linear square root
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SqrtLut:
    """Uniform-segment piecewise-linear sqrt over [lo, hi).

    The tables are derived from the domain, segment count S and format:
    knots holds the S+1 segment boundaries, knots[i] = lo_q + (i * span
    + S // 2) // S with lo_q and lo_q + span the domain ends on the grid;
    intercepts the rounded sqrt values at each knot; slopes the
    per-segment rise. All three are Q-format integers in fmt. Slopes
    round toward zero so the linear piece can never overshoot the next
    knot, which keeps the table monotone even after per-element rounding.
    eval_int's direct index needs span * S below 2**63, so a wider span
    raises ParameterError.
    """

    lo: float
    hi: float
    segments: int = 64
    fmt: FixedPointFormat = FixedPointFormat(32, 24)
    knots: np.ndarray = field(init=False, compare=False)
    intercepts: np.ndarray = field(init=False, compare=False)
    slopes: np.ndarray = field(init=False, compare=False)
    max_abs_error: float = field(init=False, compare=False)

    def __post_init__(self):
        lo, hi, fmt = float(self.lo), float(self.hi), self.fmt
        if lo <= 0:
            raise DomainError(f"sqrt lut domain must be positive; got lo={lo}")
        if hi <= lo:
            raise DomainError(f"sqrt lut domain is empty: [{lo}, {hi})")
        segments = integral_bits(self.segments, "sqrt lut segments", 2)
        if math.sqrt(hi) > fmt.max_value:
            raise ParameterError(
                f"sqrt({hi}) = {math.sqrt(hi):.4f} exceeds the format range "
                f"[{fmt.min_value}, {fmt.max_value}]"
            )

        one = 1 << fmt.frac_bits
        lo_int = int(round_half_away(lo * one))
        span = int(round_half_away(hi * one)) - lo_int
        if span < segments:
            raise ParameterError("format too coarse: fewer grid points than segments")
        if span >= (1 << 63) // segments:
            raise ParameterError(
                f"sqrt lut knot span {span} must lie in [S, 2**63 / S) for S = {segments}"
            )

        knots = np.array(
            [lo_int + (i * span + segments // 2) // segments for i in range(segments + 1)],
            dtype=np.int64,
        )
        intercepts = round_half_away(np.sqrt(knots * fmt.ulp) * one)
        # floor, not round: see the class docstring
        slopes = ((intercepts[1:] - intercepts[:-1]) << fmt.frac_bits) // np.diff(knots)
        for name, value in (("lo", lo), ("hi", hi), ("segments", segments),
                            ("knots", knots), ("intercepts", intercepts),
                            ("slopes", slopes)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "max_abs_error", _measure_lut_error(self))

    def eval_int(self, m_int):
        """Evaluate at Q-format points inside [lo, hi). Returns Q-format values.

        The segment index is computed, not searched: for d = m - knots[0]
        in [0, span), g = (d * S) // span gives knots[g] <= m < knots[g + 2]
        on the uniform knots, so one compare with knots[g + 1] finishes it.
        d * S < span * S < 2**63, so the guess cannot overflow.
        """
        m_int = np.asarray(m_int, dtype=np.int64)
        lo, hi = self.knots[0], self.knots[-1]
        if m_int.size and (m_int.min() < lo or m_int.max() >= hi):
            raise DomainError(
                f"sqrt lut input outside [{self.lo}, {self.hi}) after quantization"
            )
        idx = (m_int - lo) * self.segments
        idx //= hi - lo
        idx += m_int >= self.knots[1:][idx]
        dx = m_int - self.knots[idx]
        rise = rshift_round(self.slopes[idx] * dx, self.fmt.frac_bits)
        return self.intercepts[idx] + rise

    def eval(self, x):
        """Convenience float-in/float-out evaluation (quantizes x to the grid)."""
        scaled = np.asarray(x, dtype=np.float64) * (1 << self.fmt.frac_bits)
        q, _ = _round_saturate(scaled, self.knots[0], self.knots[-1] - 1)
        return from_fixed(self.eval_int(q.astype(np.int64)), self.fmt)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": "sqrt_lut",
                "domain": [self.lo, self.hi],
                "segments": self.segments,
                "format": {
                    "total_bits": self.fmt.total_bits,
                    "frac_bits": self.fmt.frac_bits,
                },
                "knots": self.knots.tolist(),
                "intercepts": self.intercepts.tolist(),
                "slopes": self.slopes.tolist(),
                "max_abs_error": self.max_abs_error,
            },
            sort_keys=True,
        )


_SCAN_CAP_PER_SEGMENT = 1024


def _measure_lut_error(lut: SqrtLut) -> float:
    """Max |lut - sqrt| over the domain, scanned on the format grid.

    Segments wider than _SCAN_CAP_PER_SEGMENT grid steps are subsampled,
    with the last grid point and the analytic interior extremum of the
    linear-interpolation error added so the subsampling cannot miss the
    peak.
    """
    ulp = lut.fmt.ulp
    worst = 0.0
    for i in range(lut.segments):
        a, b = int(lut.knots[i]), int(lut.knots[i + 1])
        width = b - a
        if width <= _SCAN_CAP_PER_SEGMENT:
            pts = np.arange(a, b, dtype=np.int64)
        else:
            # floor(j·width / cap), split so no product can leave int64
            q, r = divmod(width, _SCAN_CAP_PER_SEGMENT)
            j = np.arange(_SCAN_CAP_PER_SEGMENT, dtype=np.int64)
            pts = np.append(a + j * q + (j * r) // _SCAN_CAP_PER_SEGMENT, b - 1)
            slope = float(lut.slopes[i]) * ulp
            if slope > 0:
                x_star = 1.0 / (4.0 * slope * slope)
                q_star = int(round(x_star / ulp))
                if a < q_star < b:
                    pts = np.append(pts, q_star)
        approx = from_fixed(lut.eval_int(pts), lut.fmt)
        exact = np.sqrt(pts * ulp)
        err = float(np.max(np.abs(approx - exact)))
        worst = max(worst, err)
    return worst


def build_sqrt_lut(domain=(1.0, 4.0), segments: int = 64,
                   fmt: FixedPointFormat = FixedPointFormat(32, 24)) -> SqrtLut:
    """Construct the piecewise-linear sqrt table.

    The default domain [1, 4) pairs with even-exponent range reduction:
    any positive value can be written m * 4**k with m in [1, 4), and
    sqrt(m * 4**k) = sqrt(m) * 2**k needs only this table plus shifts.
    64 segments keep the 32-bit pipeline inside its error envelope.
    """
    return SqrtLut(domain[0], domain[1], segments, fmt)


# ---------------------------------------------------------------------------
# Reciprocal
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _recip_seed_table(fmt: FixedPointFormat):
    """Seed values 1/x at the left edges of uniform segments over [1, 2).

    Left-edge seeds make power-of-two inputs exact: m = 1 seeds at
    exactly 1.0 and Newton-Raphson leaves it untouched.
    """
    size = min(64, 1 << fmt.frac_bits)
    edges = 1.0 + np.arange(size) / size
    seeds, _ = to_fixed(1.0 / edges, fmt)
    return size, seeds


def _reduce(q, frac: int, out_frac: int, octaves: int):
    """Range reduction of positive Q-format integers with frac fraction
    bits: (m, k) with q = m * 2**(octaves * k) and m on the out_frac grid
    in [1, 2**octaves). k comes from q's bit length, read as the float64
    exponent; m is q shifted once with rounding, then held in range."""
    bits = np.frexp(q.astype(np.float64))[1].astype(np.int64)
    k = (bits - 1 - frac) // octaves
    m = shift_round(q, frac + octaves * k - out_frac)
    one = np.int64(1) << out_frac
    return np.clip(m, one, (one << octaves) - 1), k


def _reciprocal_unclamped(d_int, fmt: FixedPointFormat):
    """Reciprocal of positive Q-format integers, before the clamp to fmt."""
    d_int = np.asarray(d_int, dtype=np.int64)
    if d_int.size == 0:
        return d_int.copy()
    if d_int.min() <= 0:
        raise DomainError("reciprocal requires strictly positive input")
    if fmt.max_value < 2.0:
        raise ParameterError(
            "reciprocal needs the constant 2 representable; widen the integer part"
        )
    f = fmt.frac_bits
    one = np.int64(1) << f
    m, k = _reduce(d_int, f, f, 1)
    size, seeds = _recip_seed_table(fmt)
    idx = ((m - one) * size) >> f
    r = seeds[np.clip(idx, 0, size - 1)]
    for _ in range(2):
        dr = rshift_round(m * r, f)
        r = rshift_round(r * (2 * one - dr), f)

    # 1/d = (1/m) * 2**-k
    return shift_round(r, k)


def reciprocal_fixed(d, fmt: FixedPointFormat = FixedPointFormat(32, 24)):
    """Fixed-point reciprocal of positive values.

    Accepts real scalars or arrays; the input is first snapped onto the
    format grid, so exact grid values round-trip deterministically.
    Returns values on the same grid (scalars in, scalar out).
    """
    arr = np.asarray(d, dtype=np.float64)
    d_int, _ = to_fixed(arr, fmt)
    if arr.size and d_int.min() <= 0:
        raise DomainError("reciprocal requires input >= one format step")
    q, _ = saturate_q(_reciprocal_unclamped(d_int, fmt), fmt)
    out = from_fixed(q, fmt)
    return float(out) if np.isscalar(d) or arr.ndim == 0 else out


def reciprocal_error_bound(fmt: FixedPointFormat = FixedPointFormat(32, 24),
                           samples: int = 4096) -> float:
    """Max relative error of the reciprocal unit, scanned over one octave.

    The scan covers [1, 2) on the format grid (exhaustively when the grid
    is coarser than `samples` points); range reduction maps every other
    octave onto this one by exact shifts, so the bound holds globally up
    to the final output rounding.
    """
    f = fmt.frac_bits
    one = 1 << f
    count = min(samples, one)
    pts = one + (np.arange(count, dtype=np.int64) * one) // count
    q, _ = saturate_q(_reciprocal_unclamped(pts, fmt), fmt)
    approx = from_fixed(q, fmt)
    exact = 1.0 / (pts * fmt.ulp)
    return float(np.max(np.abs(approx - exact) / exact))
