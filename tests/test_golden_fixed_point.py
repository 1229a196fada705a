"""Golden pins for the bytes of the fixed-point datapath's outputs.

The fixed-point GDN and iGDN run at 8, 16 and 32 bits on a seeded
128-channel map that spans several blocks and saturates the narrow
formats, and the unit calls (shift_round, to_fixed, SqrtLut.eval and
reciprocal_fixed) run on operands with both signs, zeros and values
past their format limits. The SHA-256 of every output, saturation
counts included, is pinned. All of it is integer arithmetic: the gamma
MAC sums integer limbs below 2**53 on float64 GEMMs, which is exact in
any order, so the digests depend on no BLAS build or thread count. Any
change to a rounding, clamp or stage shows up here as a changed digest.
"""

import hashlib
import json

import numpy as np
import pytest

from lic_hw_kit import (
    FixedPointFormat,
    GdnParams,
    GdnStageFormats,
    Tensor,
    build_sqrt_lut,
    gdn_fixed_with_stats,
    igdn_fixed_with_stats,
    reciprocal_fixed,
    to_fixed,
)
from lic_hw_kit.fixed_point import shift_round

GDN_SHA256 = {
    ("gdn", 8): "da35e1f9864dc686883a156427aeea61696d267a23c56d8b9cc735a099d8621f",
    ("gdn", 16): "1357eda8310898db35223058d9fe7608f6723a9b7cfb939dc5b40e0719d0afa0",
    ("gdn", 32): "c6d83a6c19376554c9cda860f8dbe4deb2f07ce145ffcd2f6214b289ee136b3a",
    ("igdn", 8): "ea7ec61734f8623d42e16f605b3c941ffe687f324844ce0fbef6579474676d4b",
    ("igdn", 16): "a245bb32aa69f50ba4ba3c45bf4a09874bbcaaaab4b916e25f3c2937dfd48e2a",
    ("igdn", 32): "49e28db8f1bfa23ea2154d2a83d1691dd5690c6fcd926c6bc5537a0edd070919",
}
UNIT_SHA256 = {
    "shift_round": "f458da7142454a92b2e5fb8efb2624f926f563527b12180daf40cf1925c794cc",
    "to_fixed": "32059bb4b2f41fd0e355a2e7b8e9a1be1db49833173acdfb1e4c4791f578ad08",
    "sqrt_lut_eval": "eabdd10e534f34566aea711c6a8730c5e6712057a267a9cd7b4cc0e3f01b3e76",
    "reciprocal_fixed": "f8082400ebc4960f912940c59216d338e6283c2683588049d5de064adf31d028",
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, dict):
            h.update(json.dumps(p, sort_keys=True).encode())
        else:
            a = np.asarray(p)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _map_and_params():
    """1 x 128 x 24 x 24 (three 128-channel blocks), heavy-tailed past the
    |x| <= 8 the stock formats are sized for, with a diagonal-heavy gamma."""
    rng = np.random.default_rng(3232)
    c = 128
    x = rng.laplace(0.0, 2.0, (1, c, 24, 24))
    x[0, :4, 0, 0] = [40.0, -40.0, 0.0, 8.0]
    gamma = rng.uniform(0.0, 0.1 / c, (c, c)) + np.diag(rng.uniform(0.05, 1.0, c))
    return Tensor(x), GdnParams(beta=rng.uniform(1.0, 2.0, c), gamma=gamma)


@pytest.mark.parametrize("bits", [8, 16, 32])
@pytest.mark.parametrize("op", ["gdn", "igdn"])
def test_fixed_gdn_digests(op, bits):
    x, params = _map_and_params()
    fn = gdn_fixed_with_stats if op == "gdn" else igdn_fixed_with_stats
    out, stats = fn(x, params, GdnStageFormats.default(bits))
    assert _sha(out.data, stats.saturation) == GDN_SHA256[op, bits]


def _unit_operands():
    rng = np.random.default_rng(3233)
    a = rng.laplace(0.0, 2.0, 3 * (1 << 15) + 11)
    a[:6] = [0.0, -0.0, 200.0, -200.0, 127.99609375, -128.0]
    return a


def _unit(name):
    a = _unit_operands()
    if name == "shift_round":
        v = np.round(a * 2.0 ** 20).astype(np.int64)
        n = np.frexp(np.abs(a) + 2.0 ** -20)[1].astype(np.int64) + 8
        n[::7] *= -1
        return (shift_round(v, n), shift_round(v, 5), shift_round(np.abs(v), n))
    if name == "to_fixed":
        return to_fixed(a, FixedPointFormat(16, 8))
    if name == "sqrt_lut_eval":
        return (build_sqrt_lut().eval(1.0 + np.abs(a)),)
    return (reciprocal_fixed(1e-3 + a * a, FixedPointFormat(32, 24)),)


@pytest.mark.parametrize("name", list(UNIT_SHA256))
def test_fixed_point_unit_digests(name):
    assert _sha(*_unit(name)) == UNIT_SHA256[name]
