import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lic_hw_kit import (
    DomainError,
    FixedPointFormat,
    GdnStageFormats,
    ParameterError,
    ShapeError,
    build_sqrt_lut,
    from_fixed,
    reciprocal_fixed,
    round_half_away,
    to_fixed,
)
from lic_hw_kit import gdn
from lic_hw_kit.fixed_point import (
    rshift_round,
    saturate_q,
    shift_round,
)


# ---------------------------------------------------------------------------
# Formats and rounding
# ---------------------------------------------------------------------------


def test_format_grid_properties():
    fmt = FixedPointFormat(16, 8)
    assert fmt.ulp == 2.0 ** -8
    assert fmt.qmax == 2 ** 15 - 1
    assert fmt.qmin == -(2 ** 15)  # full two's-complement range
    assert fmt.max_value == fmt.qmax * fmt.ulp
    assert fmt.min_value == -(2.0 ** 7)


def test_format_rejects_bad_widths():
    with pytest.raises(ParameterError):
        FixedPointFormat(12, 4)
    with pytest.raises(ParameterError):
        FixedPointFormat(16, 16)
    with pytest.raises(ParameterError):
        FixedPointFormat(16, -1)


def test_round_half_away_direction():
    x = np.array([0.5, 1.5, -0.5, -1.5, 2.49, -2.49, 0.0])
    assert np.array_equal(round_half_away(x),
                          np.array([1, 2, -1, -2, 2, -2, 0]))


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_round_half_away_symmetric(n):
    x = n / 97.0
    assert round_half_away(-x) == -round_half_away(x)


BELOW_HALF = 0.49999999999999994  # the largest double below 0.5
BIG_ODD = 2.0 ** 52 + 1  # |v| + 0.5 is a tie that rounds to the even 2**52 + 2


def test_round_half_away_rounds_the_exact_value():
    x = np.array([BELOW_HALF, -BELOW_HALF, BIG_ODD, -BIG_ODD, 0.0, -0.0,
                  0.5, -0.5, 2.5, -2.5, 2.0 ** 51 + 0.5, -(2.0 ** 51 + 0.5)])
    big = 2 ** 52 + 1
    assert round_half_away(x).tolist() == [
        0, 0, big, -big, 0, 0, 1, -1, 3, -3, 2 ** 51 + 1, -(2 ** 51 + 1)]
    assert int(round_half_away(BELOW_HALF)) == 0
    assert int(round_half_away(-BIG_ODD)) == -big
    # to_fixed shares the rounding step
    q, _ = to_fixed(np.array([BELOW_HALF, -BELOW_HALF]), FixedPointFormat(32, 0))
    assert q.tolist() == [0, 0]


def _round_oracle(x: float) -> int:
    """Half away from zero, decided on the exact rational value of x."""
    f = Fraction(x)
    n = math.floor(abs(f) + Fraction(1, 2))
    return n if f >= 0 else -n


def _near_half(n: int, steps: int) -> float:
    """The double `steps` ulps away from float(n) + 0.5, where adding 0.5
    to |v| rounds a second time."""
    v = float(n) + 0.5
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.copysign(math.inf, steps))
    return v


_round_inputs = st.one_of(
    st.floats(min_value=-2.0 ** 62, max_value=2.0 ** 62),
    st.builds(_near_half, st.integers(-2 ** 62, 2 ** 62), st.integers(-2, 2)),
    st.integers(-2 ** 62, 2 ** 62).map(float),
)


@given(st.lists(_round_inputs, min_size=1, max_size=16))
@example([BELOW_HALF])
@example([-BIG_ODD])
@settings(max_examples=100)
def test_round_half_away_matches_exact_oracle(xs):
    assert round_half_away(np.array(xs)).tolist() == [_round_oracle(x) for x in xs]


def test_to_fixed_rounds_to_nearest_step():
    fmt = FixedPointFormat(16, 8)
    q, sat = to_fixed(np.array([1.0, 1.001953125, 0.001953125, 0.00195]), fmt)
    assert sat == 0
    assert np.array_equal(q, np.array([256, 257, 1, 0]))  # 0.5 ulp away


def test_to_fixed_counts_saturation():
    fmt = FixedPointFormat(8, 4)
    q, sat = to_fixed(np.array([100.0, -100.0, 1.0]), fmt)
    assert sat == 2
    assert q[0] == fmt.qmax and q[1] == fmt.qmin
    assert from_fixed(q[2], fmt) == 1.0


def test_lut_eval_clamps_values_beyond_int64_to_the_domain():
    lut = build_sqrt_lut(segments=16, fmt=FixedPointFormat(16, 8))
    top = lut.eval(np.array([lut.hi - lut.fmt.ulp]))[0]
    assert lut.eval(np.array([1e30, -1e30])).tolist() == [top, lut.eval(1.0)]


def test_to_fixed_saturates_values_beyond_int64():
    # clamped in float64 before the integer cast, so 1e20 * 2**24 cannot
    # wrap to the wrong limit
    fmt = FixedPointFormat(32, 24)
    q, sat = to_fixed(np.array([1e20, -1e20]), fmt)
    assert q.dtype == np.int64
    assert q.tolist() == [fmt.qmax, fmt.qmin]
    assert sat == 2


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 1, 4])
def test_to_fixed_rejects_non_finite_values(bad, at):
    x = np.array([0.5, -1.0, 3.0, 1e20, -2.0])
    x[at] = bad
    with pytest.raises(DomainError, match="NaN or infinite"):
        to_fixed(x, FixedPointFormat(16, 8))
    with pytest.raises(DomainError, match="NaN or infinite"):
        to_fixed(bad, FixedPointFormat(32, 24))


@given(st.floats(min_value=-100.0, max_value=100.0,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=200)
def test_fixed_round_trip_within_half_ulp(x):
    fmt = FixedPointFormat(32, 16)
    q, sat = to_fixed(x, fmt)
    assert sat == 0
    assert abs(from_fixed(q, fmt) - x) <= fmt.ulp / 2


def test_rshift_round_matches_scaled_rounding():
    v = np.array([5, -5, 6, -6, 7, 13], dtype=np.int64)
    # shifting by 2 divides by 4 with half-away rounding
    assert np.array_equal(rshift_round(v, 2), np.array([1, -1, 2, -2, 2, 3]))
    assert np.array_equal(rshift_round(v, 0), v)
    assert np.array_equal(rshift_round(v, -1), v * 2)


def test_shift_round_per_element():
    v = np.array([5, 5, 5], dtype=np.int64)
    out = shift_round(v, np.array([1, 0, -1]))
    assert np.array_equal(out, np.array([3, 5, 10]))  # 2.5 rounds away


def python_rshift_round(v: int, n: int) -> int:
    """v / 2**n rounded half away from zero, in Python's unbounded ints."""
    m = (abs(v) + (1 << (n - 1))) >> n
    return m if v >= 0 else -m


@pytest.mark.parametrize("n", [1, 2, 62, 63])
def test_rounding_shifts_do_not_wrap_near_2_63(n):
    """A bias added before the shift wrapped past 2**63:
    rshift_round(2**62 + 1, 63) returned -1, and rshift_round(2**63 - 1, 1)
    and shift_round([2**63 - 1], [1]) returned -2**62."""
    edges = [2**63 - 1, -(2**63 - 1), -2**63, 2**62 + 1, -(2**62 + 1), 2**62, -2**62,
             3 << 61, -(3 << 61), 1, -1, 0]
    v = np.array(edges, dtype=np.int64)
    want = np.array([python_rshift_round(x, n) for x in edges], dtype=np.int64)
    for got in (rshift_round(v, n), shift_round(v, n), shift_round(v, np.full(v.shape, n))):
        assert np.array_equal(got, want)
    for x, w in zip(edges, want):
        assert rshift_round(x, n) == w


@pytest.mark.parametrize("shift", [
    lambda v, n: rshift_round(v, n),
    lambda v, n: shift_round(v, n),
    lambda v, n: shift_round(v, np.full(np.shape(v), n)),
    lambda v, n: shift_round(v, np.array([0, n, 1])[:, None]),
], ids=["rshift_round", "shift_round-scalar", "shift_round-array", "shift_round-broadcast"])
@pytest.mark.parametrize("n, message", [
    (64, "shift counts must be at most 63; got 64"),
    (70, "shift counts must be at most 63; got 70"),
    (-64, "shift counts must be >= -63; got -64"),
    (-70, "shift counts must be >= -63; got -70"),
])
def test_shift_counts_outside_63_bits_raise(shift, n, message):
    """An int64 shift past 63 bits once gave wrong integers: a rounded
    right shift of 5 by 64 returned -1, [5, -5] by 70 gave [0, -1] and a
    left shift by 70 returned 0."""
    with pytest.raises(ParameterError) as err:
        shift(np.array([5, -5]), n)
    assert str(err.value) == message


def test_shift_counts_of_63_bits_are_accepted():
    v = np.array([5, -5, (1 << 62) - 1, -(1 << 62)], dtype=np.int64)
    assert rshift_round(v, 63).tolist() == [0, 0, 0, -1]  # -0.5 rounds away
    assert shift_round(v, np.full(4, 63)).tolist() == [0, 0, 0, -1]
    assert rshift_round(np.array([0, -1]), -63).tolist() == [0, -(1 << 63)]
    assert shift_round(np.array([0, -1]), np.full(2, -63)).tolist() == [0, -(1 << 63)]


def test_rshift_round_left_shift_out_of_int64_raises():
    """rshift_round([2**62, -2**62, 3], -2) wrapped to [0, 0, 12]."""
    with pytest.raises(DomainError, match="4611686018427387904 << 2 leaves int64"):
        rshift_round(np.array([2**62, -2**62, 3]), -2)
    assert rshift_round(np.array([2**60 - 1, -2**61, 3]), -2).tolist() == [
        2**62 - 4, -2**63, 12]


def test_rshift_round_left_shift_of_one_value_out_of_int64_raises():
    """rshift_round(2**62, -1) wrapped to -2**63."""
    with pytest.raises(DomainError, match="4611686018427387904 << 1 leaves int64"):
        rshift_round(2**62, -1)
    assert rshift_round(-2**62, -1) == -2**63
    assert rshift_round(2**62 - 1, -1) == 2**63 - 2


def test_shift_round_left_shift_out_of_int64_raises():
    """shift_round([2**62, 5], [-2, -1]) wrapped to [0, 10]."""
    with pytest.raises(DomainError, match="4611686018427387904 << 2 leaves int64"):
        shift_round(np.array([2**62, 5]), np.array([-2, -1]))
    # the widest count's limits fail, so each value meets its own count
    assert shift_round(np.array([2**62, -2**62, 5]), np.array([0, -1, -2])).tolist() == [
        2**62, -2**63, 20]
    with pytest.raises(DomainError, match="-4611686018427387905 << 1 leaves int64"):
        shift_round(np.array([2**62, -2**62 - 1, 5]), np.array([0, -1, -2]))


@pytest.mark.parametrize("counts", [2.5, [2.5], np.array([2.0, 2.5]), [np.nan],
                                    np.array([[1], [-0.5]])])
def test_shift_round_rejects_fractional_counts(counts):
    """A fractional count once shifted by its truncation: shift_round([5],
    2.5) and shift_round([5], [2.5]) returned [1], a shift by 2."""
    with pytest.raises(ParameterError, match="shift counts must be integers"):
        shift_round(np.array([5, -5]), counts)


def test_shift_round_takes_integral_counts_of_any_dtype():
    v = np.array([5, -5, 6], dtype=np.int64)
    want = shift_round(v, np.array([2, 1, -1]))
    assert want.tolist() == [1, -3, 12]
    for counts in (np.array([2.0, 1.0, -1.0]), [2.0, 1, -1], np.array([2, 1, -1], dtype=np.int8)):
        assert shift_round(v, counts).tolist() == want.tolist()
    assert shift_round(v, np.array([2, 1, 0], dtype=np.uint8)).tolist() == [1, -3, 6]
    assert shift_round(v, 2.0).tolist() == [1, -1, 2]
    with pytest.raises(ParameterError, match="at most 63"):
        shift_round(v, np.array([64, 0, 0], dtype=np.uint64))


@pytest.mark.parametrize("counts", [np.array([1, 2]), np.array([1.0, 2.0])],
                         ids=["int-counts", "float-counts"])
def test_shift_round_rejects_counts_that_do_not_broadcast(counts):
    with pytest.raises(ShapeError, match="do not broadcast"):
        shift_round(np.array([5, -5, 6]), counts)


def test_saturate_q_counts():
    fmt = FixedPointFormat(8, 0)
    q, sat = saturate_q(np.array([200, -200, 5], dtype=np.int64), fmt)
    assert sat == 2
    assert np.array_equal(q, np.array([127, -128, 5]))


_INT_UNITS = {
    "rshift_round": lambda v: rshift_round(v, 1),
    "shift_round": lambda v: shift_round(v, np.ones(np.shape(v), dtype=np.int64)),
    "saturate_q": lambda v: saturate_q(v, FixedPointFormat(8, 2)),
}


def test_saturate_q_rejects_uint64_values_beyond_int64():
    """These once wrapped: saturate_q returned ([-128, -1], 1)."""
    with pytest.raises(ParameterError, match="inside int64; got 9223372036854775808"):
        saturate_q(np.array([2**63, 2**64 - 1], dtype=np.uint64), FixedPointFormat(8, 2))


@pytest.mark.parametrize("unit", _INT_UNITS)
def test_fixed_point_units_reject_floats_beyond_int64(unit):
    """saturate_q(np.array([1e30]), f) once returned -128 with a
    RuntimeWarning from the cast."""
    with pytest.raises(ParameterError, match="inside int64; got 1e"):
        _INT_UNITS[unit](np.array([5.0, 1e30]))
    with pytest.raises(ParameterError, match="inside int64"):
        _INT_UNITS[unit](np.array([-2.0 ** 63 * 1.5]))


@pytest.mark.parametrize("unit", _INT_UNITS)
def test_fixed_point_units_reject_fractional_values(unit):
    """saturate_q([5.7], f) once returned 5, a truncation."""
    with pytest.raises(ParameterError, match="integers inside int64; got 5.7"):
        _INT_UNITS[unit]([5.7])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("unit", _INT_UNITS)
def test_fixed_point_units_reject_non_finite_values(unit, bad):
    """rshift_round(np.array([np.nan]), 1) once returned -2**62."""
    with pytest.raises(DomainError, match="NaN or infinite"):
        _INT_UNITS[unit](np.array([2.0, bad]))


@pytest.mark.parametrize("value", [2**64, -(2**63) - 1, 2**63])
def test_rshift_round_rejects_python_ints_beyond_int64(value):
    """rshift_round(2**64, 1) once raised a bare OverflowError."""
    with pytest.raises(ParameterError, match=f"inside int64; got {value}"):
        rshift_round(value, 1)
    with pytest.raises(ParameterError, match="inside int64"):
        saturate_q(np.array([1, value], dtype=object), FixedPointFormat(8, 2))


def test_fixed_point_units_take_integral_values_of_any_dtype():
    """int64 input is used as it is; other integers, bools and integral
    floats inside int64 are cast exactly."""
    v = np.array([5, -5, 6], dtype=np.int64)
    from lic_hw_kit.fixed_point import _int64_values
    assert _int64_values(v) is v
    for other in (v.astype(np.int8), v.astype(np.float64), v.tolist(),
                  np.array([5, -5, 6], dtype=object)):
        assert rshift_round(other, 1).tolist() == [3, -3, 3]
        assert saturate_q(other, FixedPointFormat(8, 0))[0].tolist() == [5, -5, 6]
    assert shift_round(np.array([2.0 ** 62, 1.0]), np.array([1, 0])).tolist() == [2**61, 1]
    assert rshift_round(np.array([2**63 - 1], dtype=np.uint64), 62).tolist() == [2]
    assert saturate_q(np.array([True, False]), FixedPointFormat(8, 0))[0].tolist() == [1, 0]
    assert rshift_round(np.array([-(2.0 ** 63)]), 63).tolist() == [-1]


# ---------------------------------------------------------------------------
# Square-root LUT
# ---------------------------------------------------------------------------


def test_lut_knots_are_exactly_rounded_sqrt():
    fmt = FixedPointFormat(32, 24)
    lut = build_sqrt_lut(segments=64, fmt=fmt)
    one = 1 << fmt.frac_bits
    for knot, intercept in zip(lut.knots, lut.intercepts):
        expect = round_half_away(math.sqrt(knot / one) * one)
        assert intercept == expect


def test_lut_monotone_over_entire_domain():
    fmt = FixedPointFormat(16, 8)
    lut = build_sqrt_lut(segments=16, fmt=fmt)
    lo = 1 << fmt.frac_bits
    hi = 4 * lo
    grid = np.arange(lo, hi, dtype=np.int64)
    vals = lut.eval_int(grid)
    assert np.all(np.diff(vals) >= 0)


def test_lut_error_bound_holds_on_dense_scan():
    fmt = FixedPointFormat(32, 24)
    lut = build_sqrt_lut(segments=64, fmt=fmt)
    xs = np.linspace(1.0, 4.0 - fmt.ulp, 20001)
    got = lut.eval(xs)
    err = np.abs(got - np.sqrt(xs)).max()
    assert err <= lut.max_abs_error + fmt.ulp


def test_lut_error_shrinks_with_segments():
    fmt = FixedPointFormat(32, 24)
    coarse = build_sqrt_lut(segments=8, fmt=fmt)
    fine = build_sqrt_lut(segments=64, fmt=fmt)
    assert fine.max_abs_error < coarse.max_abs_error


def test_lut_error_scan_handles_segments_past_2_53_grid_steps():
    # each segment is about 9e15 grid steps wide, so j·width leaves int64;
    # both slopes quantize to 0 and the peak error sits at a segment's end
    fmt = FixedPointFormat(32, 0)
    lut = build_sqrt_lut((1.0, 1.8032007892189204e16), 2, fmt)
    pts = np.random.default_rng(0).integers(lut.knots[0], lut.knots[-1], 4001)
    err = np.abs(from_fixed(lut.eval_int(pts), fmt) - np.sqrt(pts * fmt.ulp)).max()
    assert 0 < err <= lut.max_abs_error + fmt.ulp


def test_stock_lut_errors_are_pinned():
    got = {bits: gdn._lut_for(GdnStageFormats.default(bits).root).max_abs_error
           for bits in (8, 16, 32)}
    assert got == {8: 0.06149167310370851, 16: 0.0009765625,
                   32: 6.633562843760821e-05}


# SHA-256 of to_json() for the stock tables: the GDN root LUT at each
# default width, and the 64-segment Q8.24 table over [1, 4)
_LUT_JSON_SHA256 = {
    8: "51669987bea11b302da75ec91304f5ad5d1d1e6eccb001e53135d29dabe99c50",
    16: "8f100dc599793a5ab2924c7e8aa6148247d094db9fa1b28951dacfe012c2455f",
    32: "6ad43fa60288daa2d93bd13cc53fe612f7a5364a9c21abc33ba389170c563dc5",
    "q8.24": "5efb82d64bd6b139902016e2aefefcff9887c2bc5580755f0284ece29b47b735",
}


def test_stock_lut_json_bytes_are_pinned():
    luts = {bits: gdn._lut_for(GdnStageFormats.default(bits).root)
            for bits in (8, 16, 32)}
    luts["q8.24"] = build_sqrt_lut((1.0, 4.0), 64, FixedPointFormat(32, 24))
    got = {k: hashlib.sha256(lut.to_json().encode()).hexdigest()
           for k, lut in luts.items()}
    assert got == _LUT_JSON_SHA256


def test_lut_rejects_a_span_whose_direct_index_could_overflow():
    # (2**61 - 1) * 4 < 2**63 builds; half as wide again does not
    fmt = FixedPointFormat(32, 0)
    assert build_sqrt_lut((1.0, 2.0 ** 61), 4, fmt).segments == 4
    with pytest.raises(ParameterError, match="span"):
        build_sqrt_lut((1.0, 1.5 * 2.0 ** 61), 4, fmt)


def test_lut_rejects_bad_domain_and_segments():
    with pytest.raises(DomainError):
        build_sqrt_lut(domain=(0.0, 4.0))
    with pytest.raises(DomainError):
        build_sqrt_lut(domain=(4.0, 1.0))
    with pytest.raises(ParameterError):
        build_sqrt_lut(segments=0)


def test_lut_json_round_trip():
    lut = build_sqrt_lut(segments=16, fmt=FixedPointFormat(16, 8))
    parsed = json.loads(lut.to_json())
    assert parsed["segments"] == 16
    assert len(parsed["slopes"]) == 16
    assert len(parsed["knots"]) == 17  # right edge included
    assert len(parsed["intercepts"]) == 17


# ---------------------------------------------------------------------------
# Reciprocal unit
# ---------------------------------------------------------------------------


def test_reciprocal_exact_on_powers_of_two():
    fmt = FixedPointFormat(32, 24)
    for d in [0.25, 0.5, 1.0, 2.0, 4.0, 64.0]:
        assert reciprocal_fixed(d, fmt) == 1.0 / d


def test_reciprocal_relative_error_small():
    fmt = FixedPointFormat(32, 24)
    rng = np.random.default_rng(3)
    d = rng.uniform(0.01, 100.0, 4096)
    r = reciprocal_fixed(d, fmt)
    # snap inputs to the grid the unit actually saw
    q, _ = to_fixed(d, fmt)
    snapped = from_fixed(q, fmt)
    rel = np.abs(r * snapped - 1.0).max()
    assert rel < 1e-5


def test_reciprocal_rejects_nonpositive():
    fmt = FixedPointFormat(32, 24)
    with pytest.raises(DomainError):
        reciprocal_fixed(0.0, fmt)
    with pytest.raises(DomainError):
        reciprocal_fixed(-1.0, fmt)


def test_reciprocal_scalar_and_array_agree():
    fmt = FixedPointFormat(16, 11)
    arr = np.array([1.5, 3.0, 0.75])
    vec = reciprocal_fixed(arr, fmt)
    for i, d in enumerate(arr):
        assert reciprocal_fixed(float(d), fmt) == vec[i]
