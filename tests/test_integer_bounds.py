"""Range bounds of the integer settings.

Every integer setting accepts the value at each of its bounds, given as
an int or as an integral float, and stores it as an int; one step past a
bound raises ParameterError naming the setting.
"""

import numpy as np
import pytest

from lic_hw_kit import (
    DpuConfig,
    FixedPointFormat,
    LayerTraffic,
    LayerSpec,
    ParameterError,
    PhaseSchedule,
    PrecisionPolicy,
    PruneSchedule,
    QuantParams,
    StatRange,
    build_sqrt_lut,
    quant_params_from_stats,
)
from lic_hw_kit.errors import integral_bits
from lic_hw_kit.fixed_point import rshift_round
from lic_hw_kit.model import MAX_LAYER_STEP
from lic_hw_kit.perf_model import MAX_CORES
from lic_hw_kit.pruning import MAX_ITERATIONS


def _conv(field, v):
    sizes = {"in_channels": 1, "out_channels": 1, "kernel": 1, "stride": 1,
             "padding": 0, field: v}
    dims = [max(int(sizes[f]), 1)
            for f in ("out_channels", "in_channels", "kernel", "kernel")]
    return getattr(LayerSpec(kind="conv", **sizes, weights=np.zeros(dims)), field)


def _shapes(field, v):
    sizes = {"in_channels": 1, "out_channels": 1, "kernel": 1, field: v}
    w = LayerSpec.tensor_shapes("conv", **sizes)["weights"]
    return w[("out_channels", "in_channels", "kernel").index(field)]


_TRAFFIC = {"h": 4, "w": 4, "n_in": 2, "n_out": 2, "kernel": 3, "bits": 8}

# (id, build(value) -> stored value, least, most, what the error names)
SITES = [
    *[(f"LayerSpec.{f}", lambda v, f=f: _conv(f, v), least, most, f)
      for f, least, most in (("in_channels", 1, None), ("out_channels", 1, None),
                             ("kernel", 1, None), ("stride", 1, MAX_LAYER_STEP),
                             ("padding", 0, MAX_LAYER_STEP))],
    *[(f"tensor_shapes.{f}", lambda v, f=f: _shapes(f, v), 1, None, f)
      for f in ("in_channels", "out_channels", "kernel")],
    ("QuantParams.bits", lambda v: QuantParams(1.0, 0, v).bits, 2, 32, "bit"),
    ("quant_params_from_stats.bits",
     lambda v: quant_params_from_stats(StatRange(-1.0, 1.0), v).bits, 2, 32, "bit"),
    ("PrecisionPolicy.default_bits",
     lambda v: PrecisionPolicy(default_bits=v).default_bits, 2, 32, "bit"),
    ("PrecisionPolicy.gdn_bits",
     lambda v: PrecisionPolicy(gdn_bits=v).gdn_bits, 2, 32, "bit"),
    ("PrecisionPolicy.overrides",
     lambda v: PrecisionPolicy(overrides={0: v}).overrides[0], 2, 32, "bit"),
    *[(f"DpuConfig.{f}", lambda v, f=f: getattr(DpuConfig(**{f: v}), f), 1, None, f)
      for f in ("pixel_parallel", "input_channel_parallel",
                "output_channel_parallel")],
    ("DpuConfig.cores", lambda v: DpuConfig(cores=v).cores, 1, MAX_CORES, "cores"),
    ("PruneSchedule.iterations",
     lambda v: PruneSchedule(0.0, v).iterations, 1, MAX_ITERATIONS, "iterations"),
    ("PhaseSchedule.plateau_window",
     lambda v: PhaseSchedule(plateau_window=v).plateau_window, 2, None,
     "plateau_window"),
    ("PhaseSchedule.max_phase_steps",
     lambda v: PhaseSchedule(max_phase_steps=v).max_phase_steps, 1, None,
     "max_phase_steps"),
    *[(f"FixedPointFormat.frac_bits.{total}",
       lambda v, total=total: FixedPointFormat(total, v).frac_bits, 0, total - 1,
       "frac_bits") for total in (8, 16, 32)],
    ("SqrtLut.segments", lambda v: build_sqrt_lut(segments=v).segments, 2, None,
     "segments"),
    # 0 shifted by any count it accepts stays 0
    ("rshift_round.nbits", lambda v: int(v) + int(rshift_round(0, v)), -63, 63,
     "shift counts"),
    *[(f"LayerTraffic.{f}",
       lambda v, f=f: getattr(LayerTraffic(**{**_TRAFFIC, f: v}), f), 1, None, f)
      for f in _TRAFFIC],
]

BOUNDS = [pytest.param(build, bound, step, name, id=f"{site}-{side}")
          for site, build, least, most, name in SITES
          for side, bound, step in (("least", least, -1), ("most", most, 1))
          if bound is not None]


@pytest.mark.parametrize("build, bound, step, name", BOUNDS)
def test_integer_setting_accepts_its_bound_as_an_int(build, bound, step, name):
    for v in (bound, float(bound)):
        got = build(v)
        assert got == bound and type(got) is int


@pytest.mark.parametrize("build, bound, step, name", BOUNDS)
def test_integer_setting_rejects_one_step_past_its_bound(build, bound, step, name):
    for v in (bound + step, float(bound + step)):
        with pytest.raises(ParameterError, match=name):
            build(v)


@pytest.mark.parametrize("build, bound, step, name", BOUNDS)
def test_integer_setting_rejects_a_fraction_inside_its_bound(build, bound, step, name):
    with pytest.raises(ParameterError, match=f"{name}.*must be integers"):
        build(bound - step / 2)


@pytest.mark.parametrize("value, least, most, message", [
    (2.5, 3, None, "n must be integers; got 2.5"),
    (40.5, None, 32, "n must be integers; got 40.5"),
    (2, 3, None, "n must be >= 3; got 2"),
    (33.0, 2, 32, "n must be at most 32; got 33"),
    (-1, 0, 0, "n must be >= 0; got -1"),
])
def test_integral_bits_checks_integrality_before_range(value, least, most, message):
    with pytest.raises(ParameterError) as err:
        integral_bits(value, "n", least, most)
    assert str(err.value) == message


@pytest.mark.parametrize("value, least, most", [
    (-(10 ** 30), None, None), (10 ** 30, 1, None), (-5.0, None, -5), (0, 0, 0),
])
def test_integral_bits_open_and_closed_bounds(value, least, most):
    got = integral_bits(value, "n", least, most)
    assert got == value and type(got) is int
