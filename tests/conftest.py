import json
import struct

import numpy as np
import pytest

from lic_hw_kit import GdnParams, LayerSpec, ModelSpec, Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_conv(cin, cout, k=3, s=1, p=1, rng=None, kind="conv"):
    r = rng if rng is not None else np.random.default_rng(0)
    return LayerSpec(
        kind=kind, in_channels=cin, out_channels=cout, kernel=k, stride=s,
        padding=p,
        weights=r.normal(0.0, 0.1, (cout, cin, k, k)).astype(np.float32),
        bias=r.normal(0.0, 0.01, cout).astype(np.float32),
    )


def make_gdn(c, kind="gdn", rng=None):
    r = rng if rng is not None else np.random.default_rng(1)
    return LayerSpec(
        kind=kind, in_channels=c, out_channels=c,
        gdn_params=GdnParams(
            beta=r.uniform(1.0, 2.0, c),
            gamma=r.uniform(0.0, 1.0, (c, c)) * (0.05 / c),
        ),
    )


def make_encoder(rng, cin=3, mid=6, out=4, role="main_encoder"):
    return ModelSpec(
        name="enc",
        role=role,
        layers=[
            make_conv(cin, mid, s=2, rng=rng),
            make_gdn(mid, rng=rng),
            make_conv(mid, mid, rng=rng),
            make_gdn(mid, rng=rng),
            make_conv(mid, out, s=2, rng=rng),
        ],
    )


def rand_tensor(rng, dims, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, dims).astype(np.float32))


def with_header(blob, edit):
    """A model or quantized container with edit(header) applied to its
    JSON header; the payload sections are kept as they are."""
    prefix = struct.Struct("<4sIQ")  # magic, version, header length
    magic, version, head_len = prefix.unpack_from(blob)
    header = json.loads(blob[prefix.size:prefix.size + head_len])
    edit(header)
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return (prefix.pack(magic, version, len(head)) + head
            + blob[prefix.size + head_len:])


def within_float64_accumulation(got, want):
    """One float32 spacing of each reference element plus 1e-9 of the
    largest reference magnitude: what a different float64 summation
    order can move a once-rounded float32 result by."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    tol = np.spacing(np.abs(want).astype(np.float32)).astype(np.float64)
    tol += 1e-9 * float(np.max(np.abs(want), initial=0.0))
    return bool(np.all(np.abs(got - want) <= tol))


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion after the run
# ---------------------------------------------------------------------------

_acceptance = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.failed:
        _acceptance[name] = False
    elif report.when == "call" and report.passed:
        _acceptance.setdefault(name, True)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance, key=lambda n: int(n.split("_")[2])):
        verdict = "PASS" if _acceptance[name] else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")
