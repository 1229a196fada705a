"""Fixed-point formats, rounding, and the two nonlinear units.

Everything here operates on int64 arrays holding Q-format integers, so
results are bit-reproducible across platforms: a value x in format
(total, frac) is stored as the integer round(x * 2**frac). Rounding is
half-away-from-zero throughout, and out-of-range results saturate to the
format limits (with the count of clipped elements reported, since
saturation is expected behaviour for narrow formats, not a failure).

Each rounding shift and clamp reads its block's min and max once
(_within). When they prove that nothing can wrap or saturate, the block
takes a short path with the same integers, counts and masks: a right
shift by n of values in [0, 2**63 - 1 - 2**(n - 1)] is (v + 2**(n - 1))
>> n, and a clamp or rounding saturation whose values all lie inside
the limits returns them with a count of 0 and no clip or compare. Almost
every block of gdn.py's pipelines does. Any other block, one with a
negative value, one that could wrap or saturate, or one holding a NaN
(which fails both tests), takes the general path. The shifts and
saturate_q take int64 integers: int64 input costs one dtype check, a
NaN or infinity raises DomainError, and a fractional value or one
outside int64 raises ParameterError instead of wrapping or truncating.
A left shift that would leave int64 raises DomainError instead of wrapping.

The square-root unit is a piecewise-linear lookup table over a fixed
domain; callers that need an unbounded domain reduce their argument into
it first with _reduce, as gdn.py does onto [1, 4). The reciprocal unit
reduces onto [1, 2), seeds from a small table there and sharpens with
two Newton-Raphson steps.

Every elementwise unit (to_fixed, quantizer.quantize_with_stats,
shift_round with an array of counts, SqrtLut.eval and eval_int, and
reciprocal_fixed) runs its whole chain over flat blocks of at most
_BLOCK elements (_elementwise), adding each block's saturation count to
the total, so only the output is allocated at full size: on 2**20
elements a unit's tracemalloc peak stays within its output's bytes plus
4 MB. gdn.py cuts its pipelines into blocks of the same size. No
element depends on another, so outputs, counts and errors are those of
one whole-array pass, bit for bit; only reciprocal_fixed, given a
non-positive value in one block and a NaN or infinity in a later one,
raises the first block's error where a whole-array pass raised the
NaN's.
"""

from __future__ import annotations

import json
import math
import numbers
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
]

_ALLOWED_TOTALS = (8, 16, 32)
_MAX_SHIFT = 63  # the widest int64 shift; wider counts give wrong integers
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

# Elements per block of the elementwise units and of gdn.py's pipelines:
# a block's 8-byte temporaries (256 KB each) stay in a 2 MB L2 cache.
_BLOCK = 1 << 15


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


def _elementwise(fn, dtype, *operands, in_dtype=np.float64):
    """fn over flat blocks of at most _BLOCK elements of the operands,
    broadcast together and each cast to in_dtype: a fresh array of the
    broadcast shape and the given dtype holding fn(*blocks), cast once on
    assignment. Any shape works, 0-d and empty included (an empty input
    never calls fn), and only the output is allocated at full size.
    Operands that do not broadcast raise ShapeError.

    An input of at most one block skips the iterator: fn runs once on
    the flattened operands. On the GDN pipelines' 32K-element blocks, the
    iterator's set-up and copy made the 32-bit root and reciprocal stages
    12-14% slower than whole-array calls, against 7% without them (2-CPU
    VM)."""
    shapes = [np.shape(a) for a in operands]
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        raise ShapeError(f"operands of shapes {shapes} do not broadcast") from None
    if 0 < math.prod(shape) <= _BLOCK:
        arrays = [np.asarray(a, dtype=in_dtype) for a in operands]
        flat = [(a if a.shape == shape else np.broadcast_to(a, shape)).ravel()
                for a in arrays]
        return np.asarray(fn(*flat), dtype=dtype).reshape(shape)
    it = np.nditer([*operands, None], flags=["external_loop", "buffered", "zerosize_ok"],
                   op_flags=[["readonly"]] * len(operands) + [["writeonly", "allocate"]],
                   op_dtypes=[in_dtype] * len(operands) + [dtype],
                   casting="unsafe", buffersize=_BLOCK)
    with it:
        out = it.operands[-1]
        for *blocks, block_out in it:
            block_out[...] = fn(*blocks)
    return out


def _quantize_blocks(x, op, s, qmin: int, qmax: int, dtype=np.int64):
    """op(x, s) rounded half away from zero and saturated to [qmin, qmax]
    block by block: (the result as dtype, count of saturated elements)."""
    n_sat = 0

    def block(v):
        nonlocal n_sat
        v, n = _round_saturate(op(v, s), qmin, qmax)
        n_sat += n
        return v

    q = _elementwise(block, dtype, x)
    return q, n_sat


def _round_saturate(v, qmin: int, qmax: int):
    """Round v half away from zero and clamp it to [qmin, qmax], in
    place and in float64, so a value beyond the limits saturates before
    any integer cast can overflow. v must be a float64 array the caller
    owns. Returns (v, count of elements outside the limits after rounding).
    A NaN or infinite element raises DomainError.

    When the rounded block's min and max lie inside the limits, nothing
    can saturate: v returns with a count of 0, and the compare, count and
    clip are skipped. A NaN fails both tests, so it takes the general
    path and its DomainError.
    """
    v = _round_in_place(np.asarray(v))
    if _within(v, qmin, qmax):
        return v, 0
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
    return _quantize_blocks(x, np.multiply, 1 << fmt.frac_bits, fmt.qmin, fmt.qmax)


def from_fixed(q, fmt: FixedPointFormat):
    return np.asarray(q, dtype=np.float64) * fmt.ulp


def _within(v, lo, hi) -> bool:
    """Whether every element of the array v lies in [lo, hi], read from
    its min and max: the decision behind every short path here. True for
    an empty v; False for a NaN, which fails both tests."""
    return v.size == 0 or bool(v.min() >= lo and v.max() <= hi)


def _int64_values(v):
    """v as an int64 array, for the units whose values must be int64
    integers. int64 input passes as it is (one dtype check), and other
    integer and bool input is cast. Any other input is checked first: a
    NaN or infinite value raises DomainError, and a fractional value, one
    outside int64 or one that is not a number raises ParameterError,
    where a cast would wrap or truncate it."""
    a = np.asarray(v)
    kind = a.dtype.kind
    if kind in "bi":
        return a.astype(np.int64, copy=False)
    if kind == "f":
        if not np.isfinite(a).all():
            raise DomainError("cannot shift or saturate NaN or infinite values")
        bad = a[(a != np.trunc(a)) | (a < -2.0 ** 63) | (a >= 2.0 ** 63)].tolist()
    elif kind == "u":
        bad = a[a > _INT64_MAX].tolist()
    else:  # Python ints too wide for any numpy integer, or not numbers
        bad = [x for x in a.ravel().tolist() if not isinstance(x, numbers.Integral)
               or not _INT64_MIN <= x <= _INT64_MAX]
    if bad:
        raise ParameterError(f"fixed-point values must be integers inside int64; got {bad[0]!r}")
    return a.astype(np.int64)


def _round_right(v, n):
    """v shifted right by n >= 0 with half-away-from-zero rounding, for
    int64 v and n a Python int or an int64 array of v's length. 0-d
    input gives a 0-d array.

    Short path: when v's min and max put every element in [0, 2**63 - 1
    - 2**(n - 1)] (for an array of counts, below 2**62, which holds for
    the widest), v + 2**(n - 1) cannot wrap, and shifting it right by n
    is the rounded shift: two passes into one fresh int64 array. The
    GDN pipelines' non-negative blocks all take it.

    General path, for a negative element or one that could wrap: the
    result is floor((v + 2**(n - 1) + s) / 2**n), s = v >> 63 (0 or -1),
    but v plus that bias wraps near 2**63. With low = 2**(n - 1) - 1 (0
    where n = 0) and e = s ^ low (low for v >= 0, -2**(n - 1) for v < 0),
    e - v never leaves int64, and since ~x >> n == ~(x >> n),
    s - ((e - v) >> n) is that floor exactly: five passes into two fresh
    int64 arrays. For v >= 0 it is the short path's integer.
    """
    scalar = isinstance(n, int)
    p = 1 << n if scalar else np.left_shift(1, n)  # 2**n; -2**63 as int64 at n = 63
    if _within(v, 0, _INT64_MAX - (p >> 1 if scalar else 1 << 62)):
        # 2**(n - 1), 0 where n = 0: halved unsigned, so 2**63 gives 2**62
        half = p >> 1 if scalar else (p.view(np.uint64) >> 1).view(np.int64)
        r = np.add(v, half, out=np.empty_like(v))
        return np.right_shift(r, n, out=r)
    p -= 1  # wraps to 2**63 - 1 at n = 63
    p >>= 1  # low
    s = np.right_shift(v, 63, out=np.empty_like(v))
    r = np.bitwise_xor(s, p, out=np.empty_like(v))
    np.subtract(r, v, out=r)
    np.right_shift(r, n, out=r)
    return np.subtract(s, r, out=r)


def rshift_round(v, nbits: int):
    """Arithmetic shift right by nbits with half-away-from-zero rounding
    (_round_right), exact for every int64.

    nbits is one shift for every element, an integer in [-63, 63] (else
    ParameterError); nbits <= 0 shifts left (exact), and a value that
    would leave int64 raises DomainError (_check_left). Values must be
    int64 integers (_int64_values): a NaN or infinity raises DomainError,
    a fractional value or one outside int64 ParameterError. 0-d input
    gives a 0-d array.
    """
    nbits = integral_bits(nbits, "shift counts", -_MAX_SHIFT, _MAX_SHIFT)
    v = _int64_values(v)
    if nbits <= 0:
        _check_left(v, -nbits)
        return v << (-nbits)
    return _round_right(v, nbits)


def shift_round(v, nbits):
    """Per-element shift with rounding: right by n where n > 0 (half away
    from zero, as rshift_round), left by -n (exact) where n <= 0; a left
    shift that would leave int64 raises DomainError, as rshift_round's.

    nbits may be a scalar or an array of integer shifts in [-63, 63]; a
    count outside that range, or one that is not an integer (2.5, NaN),
    raises ParameterError, as rshift_round's does. Values are checked as
    rshift_round's are, once the counts have passed. v and nbits
    broadcast against each other as numpy arrays do; shapes that do not
    broadcast raise ShapeError once the counts and values have passed.
    An array of counts runs block by block (_elementwise), and every
    element takes one branch-free path: the rounding right shift of
    _round_right by max(n, 0), which leaves v as it is where n <= 0,
    then a left shift by max(-n, 0).
    """
    nbits = np.asarray(nbits)
    if nbits.ndim == 0:
        return rshift_round(v, nbits.item())
    # one pass: non-integer counts must each be an integer, integer ones
    # need only their extremes in range
    if nbits.dtype.kind != "i":
        checked = np.unique(nbits)
    else:
        checked = (nbits.min(), nbits.max()) if nbits.size else ()
    for n in checked:
        integral_bits(n, "shift counts", -_MAX_SHIFT, _MAX_SHIFT)
    v = _int64_values(v)
    return _elementwise(_shift_block, np.int64, v, nbits, in_dtype=np.int64)


def _shift_block(v, nbits):
    """shift_round on one block of values and counts of equal length;
    _check_left reads the block's widest left count."""
    right = np.maximum(nbits, 0)
    left = right - nbits  # max(-n, 0)
    r = _round_right(v, right)
    _check_left(r, left)
    r <<= left
    return r


def _check_left(v, left) -> None:
    """DomainError unless v << left stays inside int64, for int64 v and
    left an int >= 0 or a non-negative int64 array of v's length. v's
    min and max against the widest count's limits decide (read here, not
    through _within, whose decisions pick the short paths); only a block
    that fails them is checked value by value."""
    s = int(np.max(left))
    if not s or not v.size or (v.min() >= _INT64_MIN >> s and v.max() <= _INT64_MAX >> s):
        return
    left = np.broadcast_to(left, v.shape)
    bad = np.flatnonzero((v < _INT64_MIN >> left) | (v > _INT64_MAX >> left))
    if bad.size:
        raise DomainError(f"{v.flat[bad[0]]} << {left.flat[bad[0]]} leaves int64")


def saturate_q(q, fmt: FixedPointFormat):
    """Clamp Q-format integers to the format limits. Returns (clamped,
    count): a fresh int64 array and the number of elements the clamp
    moved. Values must be int64 integers, as rshift_round's must."""
    clipped, moved = _clamp(q, fmt)
    return clipped, int(np.count_nonzero(moved))


def _clamp(q, fmt: FixedPointFormat):
    """saturate_q with the mask of the clamped elements in place of their
    count, for callers that need to know which elements saturated.

    When q's min and max lie inside the format, nothing moves: a copy of
    q returns with an all-False mask, and the clip and compare are
    skipped. 0-d input keeps the general path, whose np.clip returns
    numpy scalars."""
    q = _int64_values(q)
    if q.ndim and _within(q, fmt.qmin, fmt.qmax):
        return q.copy(), np.zeros(q.shape, dtype=bool)
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
        """Evaluate at Q-format points inside [lo, hi). Returns Q-format
        values (a scalar for 0-d input), block by block."""
        out = _elementwise(self._eval_block, np.int64, m_int, in_dtype=np.int64)
        return out if out.ndim else out[()]

    def _eval_block(self, m_int):
        """eval_int on one block. The segment index is computed, not
        searched: for d = m - knots[0] in [0, span), g = (d * S) // span
        gives knots[g] <= m < knots[g + 2] on the uniform knots, so one
        compare with knots[g + 1] finishes it. d * S < span * S < 2**63,
        so the guess cannot overflow.
        """
        lo, hi = self.knots[0], self.knots[-1]
        if m_int.min() < lo or m_int.max() >= hi:
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
        """Convenience float-in/float-out evaluation (quantizes x to the
        grid, clamped into the domain), block by block."""
        def block(v):
            q, _ = _round_saturate(v * (1 << self.fmt.frac_bits),
                                   self.knots[0], self.knots[-1] - 1)
            return from_fixed(self._eval_block(q.astype(np.int64)), self.fmt)

        out = _elementwise(block, np.float64, x)
        return out if out.ndim else out[()]

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
        approx = from_fixed(lut._eval_block(pts), lut.fmt)
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
    exponent; m is q shifted once with rounding, then held in range by a
    clip that runs only on a block whose min or max is outside it."""
    # float64(q) is 1.f * 2**(e - 1023) for its biased exponent e, so its
    # bit length (frexp's exponent) is e - 1022
    k = q.astype(np.float64).view(np.int64)
    k >>= 52
    k -= 1023 + frac  # bit length - 1 - frac
    if octaves > 1:
        k //= octaves
    counts = k * octaves
    counts += frac - out_frac
    m = shift_round(q, counts)
    one = np.int64(1) << out_frac
    top = (one << octaves) - 1
    return (m if _within(m, one, top) else np.clip(m, one, top)), k


def _require_two(fmt: FixedPointFormat):
    if fmt.max_value < 2.0:
        raise ParameterError(
            "reciprocal needs the constant 2 representable; widen the integer part"
        )


def _reciprocal_unclamped(d_int, fmt: FixedPointFormat):
    """Reciprocal of positive Q-format integers, before the clamp to fmt."""
    d_int = np.asarray(d_int, dtype=np.int64)
    if d_int.size == 0:
        return d_int.copy()
    if d_int.min() <= 0:
        raise DomainError("reciprocal requires strictly positive input")
    _require_two(fmt)
    f = fmt.frac_bits
    one = np.int64(1) << f
    m, k = _reduce(d_int, f, f, 1)
    size, seeds = _recip_seed_table(fmt)
    # m - one in [0, one - 1] puts idx in [0, size - 1]: no clip needed
    idx = ((m - one) * size) >> f
    r = seeds[idx]
    for _ in range(2):
        dr = rshift_round(m * r, f)
        r = rshift_round(r * (2 * one - dr), f)

    # 1/d = (1/m) * 2**-k
    return shift_round(r, k)


def reciprocal_fixed(d, fmt: FixedPointFormat = FixedPointFormat(32, 24)):
    """Fixed-point reciprocal of positive values.

    Accepts real scalars or arrays; the input is first snapped onto the
    format grid, so exact grid values round-trip deterministically.
    Returns values on the same grid (scalars in, scalar out). Each block
    is snapped, checked, inverted and clamped in turn. A format that
    cannot hold 2 raises ParameterError only once every block has passed
    the input checks, so a bad input value outranks it anywhere.
    """
    narrow = fmt.max_value < 2.0

    def block(v):
        d_int, _ = to_fixed(v, fmt)
        if d_int.min() <= 0:
            raise DomainError("reciprocal requires input >= one format step")
        if narrow:  # discarded: _require_two raises once every block passed
            return v
        q, _ = saturate_q(_reciprocal_unclamped(d_int, fmt), fmt)
        return from_fixed(q, fmt)

    out = _elementwise(block, np.float64, d)
    if out.size:
        _require_two(fmt)
    return float(out) if np.isscalar(d) or out.ndim == 0 else out
