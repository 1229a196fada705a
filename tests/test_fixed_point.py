import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lic_hw_kit import (
    DomainError,
    FixedPointFormat,
    ParameterError,
    SqrtLut,
    build_sqrt_lut,
    from_fixed,
    reciprocal_fixed,
    round_half_away,
    to_fixed,
)
from lic_hw_kit.fixed_point import (
    reciprocal_error_bound,
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


def test_saturate_q_counts():
    fmt = FixedPointFormat(8, 0)
    q, sat = saturate_q(np.array([200, -200, 5], dtype=np.int64), fmt)
    assert sat == 2
    assert np.array_equal(q, np.array([127, -128, 5]))


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


def test_lut_rejects_bad_domain_and_segments():
    with pytest.raises(DomainError):
        build_sqrt_lut(domain=(0.0, 4.0))
    with pytest.raises(DomainError):
        build_sqrt_lut(domain=(4.0, 1.0))
    with pytest.raises(ParameterError):
        build_sqrt_lut(segments=0)


def test_lut_json_round_trip():
    lut = build_sqrt_lut(segments=16, fmt=FixedPointFormat(16, 8))
    text = lut.to_json()
    back = SqrtLut.from_json(text)
    assert back.to_json() == text
    assert np.array_equal(back.slopes, lut.slopes)
    assert np.array_equal(back.intercepts, lut.intercepts)
    assert back.fmt == lut.fmt
    parsed = json.loads(text)
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


def test_reciprocal_error_bound_is_honest():
    fmt = FixedPointFormat(32, 24)
    bound = reciprocal_error_bound(fmt)
    rng = np.random.default_rng(4)
    d = rng.uniform(1.0, 2.0, 2000)
    q, _ = to_fixed(d, fmt)
    snapped = from_fixed(q, fmt)
    rel = np.abs(reciprocal_fixed(snapped, fmt) * snapped - 1.0).max()
    assert rel <= bound + fmt.ulp


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
