"""Malformed files end in a ToolkitError subclass, never another exception.

Each loader is fed its own well-formed file with bytes overwritten or cut
off, and each container with one header value replaced. Hypothesis runs
derandomized with a small example budget, so the cases are the same on
every run.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lic_hw_kit import (
    PrecisionPolicy,
    QuantParams,
    Tensor,
    ToolkitError,
    calibrate,
    dequantize,
    load_model,
    load_tensor,
    load_quantized_model,
    ptq,
    read_rd_csv,
    save_model,
    save_quantized_model,
    save_tensor,
)
from lic_hw_kit.cli import read_ppm, write_ppm
from conftest import make_encoder, rand_tensor, with_header

_FUZZ = settings(derandomize=True, max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])
_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length


def _files():
    rng = np.random.default_rng(7)
    model = make_encoder(rng)
    calib = [rand_tensor(rng, (1, 3, 8, 8))]
    qm = ptq(model, calibrate(model, calib), PrecisionPolicy(gdn_bits=16))
    image = Tensor(np.round(rng.uniform(0, 255, (1, 3, 3, 4))).astype(np.float32))
    return {
        "model": (save_model(model), load_model),
        "quant": (save_quantized_model(qm), load_quantized_model),
        "tensor": (save_tensor(calib[0]), load_tensor),
        "ppm": (write_ppm(image), read_ppm),
        "csv": (b"bpp,psnr_db\n0.1,30\n0.2,32\n0.4,34\n0.8,36\n", read_rd_csv),
    }


FILES = _files()


def _loads_or_raises_toolkit_error(load, blob):
    try:
        load(blob)
    except ToolkitError:
        pass


@pytest.mark.parametrize("name", sorted(FILES))
def test_well_formed_files_load(name):
    blob, load = FILES[name]
    load(blob)


@pytest.mark.parametrize("name", sorted(FILES))
@_FUZZ
@given(data=st.data())
def test_overwritten_or_cut_bytes_raise_toolkit_errors(name, data):
    blob, load = FILES[name]
    buf = bytearray(blob)
    edits = data.draw(st.lists(st.tuples(st.integers(0, len(buf) - 1),
                                         st.integers(0, 255)), max_size=4))
    for pos, byte in edits:
        buf[pos] = byte
    cut = data.draw(st.integers(0, len(buf)))
    _loads_or_raises_toolkit_error(load, bytes(buf[:cut]))


def _header_paths(node, path=()):
    """Every position in a JSON document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _header_paths(child, path + (key,))


def _put(header, path, value):
    for key in path[:-1]:
        header = header[key]
    header[path[-1]] = value


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, -1, 0.5, 1.5, 2 ** 31, 2 ** 40, 2 ** 64, 1e308, "x",
                     [], {}, [1], {"a": 1}]),
)


@pytest.mark.parametrize("name", ["model", "quant"])
@_FUZZ
@given(data=st.data())
def test_replaced_header_values_raise_toolkit_errors(name, data):
    blob, load = FILES[name]

    def edit(header):
        path = data.draw(st.sampled_from(list(_header_paths(header))))
        _put(header, path, data.draw(_JSON_VALUES))

    _loads_or_raises_toolkit_error(load, with_header(blob, edit))


@pytest.mark.parametrize("name, path, value", [
    ("model", ("layers", 0, "kernel"), "x"),
    ("model", ("layers", 0, "out_channels"), 2 ** 64),
    ("model", ("layers", 0, "stride"), math.nan),
    ("model", ("layers", 0, "padding"), 0.5),
    ("quant", ("quant", "activations", 0, "layer"), "x"),
    ("quant", ("quant", "activations", 0, "layer"), math.nan),
    ("quant", ("quant", "activations", 0, "scale"), 1e308),
    ("quant", ("quant", "tensors", 0, "scale"), 10 ** 400),
], ids=["kernel-x", "out-2**64", "stride-nan", "padding-half", "act-layer-x",
        "act-layer-nan", "act-scale-1e308", "scale-10**400"])
def test_malformed_header_values_raise_toolkit_errors(name, path, value):
    blob, load = FILES[name]
    with pytest.raises(ToolkitError):
        load(with_header(blob, lambda header: _put(header, path, value)))


@pytest.mark.parametrize("name, blob", [
    ("tensor", struct.pack("<4I", 65536, 65536, 65536, 65536)),
    ("tensor", struct.pack("<4I", 0, 2 ** 32 - 1, 2 ** 32 - 1, 2 ** 32 - 1)),
    ("ppm", b"P6\n0 99999999999999999999\n255\n"),
    ("csv", b"bpp,psnr_db\n0.1,30\r0.2,31\n0.3,32\n0.4,33\n"),
    ("csv", b"bpp,psnr_db\n0.1,30\n\xff0.2,31\n0.3,32\n0.4,33\n"),
    ("model", _PREFIX.pack(b"LICM", 1, 5000) + b"1" * 5000),
], ids=["tns-wraps-to-0", "tns-zero-beside-huge", "ppm-zero-beside-huge",
        "csv-lone-cr", "csv-0xff", "header-5000-digit-int"])
def test_malformed_files_raise_toolkit_errors(name, blob):
    with pytest.raises(ToolkitError):
        FILES[name][1](blob)


def test_quant_params_reject_a_scale_that_overflows_dequantize():
    with pytest.raises(ToolkitError, match="not finite"):
        QuantParams(scale=1e308, zero_point=0, bits=8)
    p = QuantParams(scale=1e306, zero_point=0, bits=8)
    assert np.isfinite(dequantize(np.array([-127, 127]), p)).all()
