"""Every JSON config run through ``main`` exits 0, 2, 3 or 4.

Each subcommand starts from a small valid config with one value replaced:
an int, an integral float, a fraction, a negative or huge number, a
string, null or a list. Hypothesis runs derandomized with a small example
budget, so the cases are the same on every run. Settings that size an
allocation or a loop (gdn-bench channels and samples, tile targets, the
simulator's cores, the kd-loss steps) only draw small values.

Integer settings take an integral float such as 3.0 as the int 3, so a
config that writes 3.0 gives the same reports, byte for byte, as one that
writes 3.
"""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from lic_hw_kit import (
    DpuConfig,
    FixedPointFormat,
    ParameterError,
    PhaseSchedule,
    PruneSchedule,
    save_model,
    save_tensor,
    simulate,
    student160_encoder_scenario,
)
from lic_hw_kit.cli import main, write_ppm
from conftest import make_encoder, rand_tensor

_FUZZ = settings(derandomize=True, max_examples=30, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow,
                                        HealthCheck.function_scoped_fixture])

_WEIGHTS = {"alpha": 1.0, "beta": 0.1, "gamma": 0.5}
_STEP = {"l_latent": 1.0, "l_perceptual": 0.3, "rate": 0.5, "distortion": 0.01}

# "@name" strings are input files, filled in per run
CONFIGS = {
    "quantize": {"model": "@model.bin", "calibration": ["@calib.tns"],
                 "policy": {"default_bits": 8, "gdn_bits": 16,
                            "overrides": {"0": 12}}},
    "prune": {"model": "@model.bin", "fraction_per_iteration": 0.1,
              "iterations": 2, "prune_hyperprior": False, "input_hw": [16, 16]},
    "estimate": {"dpu": {"pixel_parallel": 8, "input_channel_parallel": 16,
                         "output_channel_parallel": 16, "cores": 3,
                         "freq_hz": 3e8, "eta": 0.8,
                         "mem_bandwidth_bytes_per_s": 1.92e10,
                         "workload_scale": 0.5},
                 "workloads": [{"name": "whole", "gop": 1.5},
                               {"name": "roles",
                                "gop": {"main_encoder": 0.5, "entropy": 0.1}}]},
    "simulate-scenario": {"scenario": "student160_encoder",
                          "dpu": {"cores": 3, "pixel_parallel": 8},
                          "mode": "both", "patches_per_frame": 100,
                          "launch_overhead_s": 5e-4},
    "simulate-stages": {"stages": [{"name": "main_encoder", "compute_ops": 1e8,
                                    "intermediate_bytes": 1e6},
                                   {"name": "entropy", "compute_ops": 2e7}],
                        "patch_count": 4, "dpu": {"cores": 2},
                        "mode": "both", "trace": True},
    "gdn-bench": {"channels": 3, "samples": 16, "seed": 5, "low": -4.0,
                  "high": 4.0, "beta_range": [1.0, 2.0], "gamma_scale": 0.1,
                  "total_bits": [8, 16], "inverse": False},
    "tile": {"image": "@image.ppm", "target_h": 6, "target_w": 5},
    "kd-loss": {"lambda": 0.5, "weights_early": _WEIGHTS,
                "weights_late": _WEIGHTS, "plateau_window": 2,
                "plateau_threshold": 1e-3, "max_phase_steps": 100,
                "steps": [{**_STEP, "l_latent": v} for v in (1.0, 0.9, 0.9, 0.9,
                                                              0.8, 0.8)]},
}

SIZES = {"channels", "samples", "target_h", "target_w", "cores", "steps"}

_SMALL = st.integers(min_value=-2, max_value=24)
_OTHER = st.one_of(
    st.sampled_from([0.5, 2.5, -0.25, "3", "x", "", None, True, [], [1],
                     ["a", 2], {}]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-4, max_value=4),
)
_SIZE_VALUES = st.one_of(_SMALL, _SMALL.map(float), _OTHER)
_VALUES = st.one_of(
    _SIZE_VALUES,
    st.sampled_from([-1, -1e300, 1e300, 2 ** 40, 2.0 ** 40, 10 ** 30]),
)


def _paths(node, path=()):
    """Every position in a JSON document, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _cases(name):
    """(path, replacement) pairs for one config; sizes stay small."""
    return st.sampled_from(list(_paths(CONFIGS[name]))).flatmap(
        lambda path: st.tuples(st.just(path), _SIZE_VALUES
                               if SIZES & set(path) else _VALUES))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(3)
    files = {
        "@model.bin": save_model(make_encoder(rng)),
        "@calib.tns": save_tensor(rand_tensor(rng, (1, 3, 8, 8))),
        "@image.ppm": write_ppm(rand_tensor(rng, (1, 3, 3, 4), lo=0.0, hi=255.0)),
    }
    for key, blob in files.items():
        (d / key[1:]).write_bytes(blob)
    return d


def _fill(node, d):
    if isinstance(node, dict):
        return {k: _fill(v, d) for k, v in node.items()}
    if isinstance(node, list):
        return [_fill(v, d) for v in node]
    if isinstance(node, str) and node.startswith("@"):
        return str(d / node[1:])
    return node


def _run(name, d, path=None, value=None, out="out"):
    cfg = copy.deepcopy(CONFIGS[name])
    if path is not None:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    cfg_path = d / f"{name}.json"
    cfg_path.write_text(json.dumps(_fill(cfg, d)))
    command = "simulate" if name.startswith("simulate") else name
    return main([command, "--config", str(cfg_path), "--out", str(d / out)])


def _exits_cleanly(name, d, case, capsys):
    code = _run(name, d, *case)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (case, code, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_valid_configs_run(name, inputs):
    assert _run(name, inputs) == 0


@_FUZZ
@given(case=_cases("quantize"))
def test_quantize_config_fuzz(case, inputs, capsys):
    _exits_cleanly("quantize", inputs, case, capsys)


@_FUZZ
@given(case=_cases("prune"))
@example(case=(("iterations",), 2.0))
def test_prune_config_fuzz(case, inputs, capsys):
    _exits_cleanly("prune", inputs, case, capsys)


@_FUZZ
@given(case=_cases("estimate"))
@example(case=(("dpu", "pixel_parallel"), 8.0))
def test_estimate_config_fuzz(case, inputs, capsys):
    _exits_cleanly("estimate", inputs, case, capsys)


@_FUZZ
@given(case=_cases("simulate-scenario"))
@example(case=(("dpu", "cores"), 3.0))
def test_simulate_scenario_config_fuzz(case, inputs, capsys):
    _exits_cleanly("simulate-scenario", inputs, case, capsys)


@_FUZZ
@given(case=_cases("simulate-stages"))
@example(case=(("patch_count",), 4.0))
@example(case=(("patch_count",), 10 ** 30))
def test_simulate_stages_config_fuzz(case, inputs, capsys):
    _exits_cleanly("simulate-stages", inputs, case, capsys)


@_FUZZ
@given(case=_cases("gdn-bench"))
@example(case=(("channels",), 3.0))
def test_gdn_bench_config_fuzz(case, inputs, capsys):
    _exits_cleanly("gdn-bench", inputs, case, capsys)


@_FUZZ
@given(case=_cases("tile"))
@example(case=(("target_h",), 4.0))
def test_tile_config_fuzz(case, inputs, capsys):
    _exits_cleanly("tile", inputs, case, capsys)


@_FUZZ
@given(case=_cases("kd-loss"))
@example(case=(("plateau_window",), 4.0))
def test_kd_loss_config_fuzz(case, inputs, capsys):
    _exits_cleanly("kd-loss", inputs, case, capsys)


# ---------------------------------------------------------------------------
# Integral floats are ints
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, path, value", [
    ("simulate-scenario", ("dpu", "cores"), 3),
    ("simulate-stages", ("patch_count",), 4),
    ("simulate-stages", ("dpu", "cores"), 2),
    ("simulate-scenario", ("patches_per_frame",), 50),
    ("tile", ("target_h",), 4),
    ("kd-loss", ("plateau_window",), 4),
    ("kd-loss", ("max_phase_steps",), 5),
    ("estimate", ("dpu", "pixel_parallel"), 8),
    ("prune", ("iterations",), 2),
    ("quantize", ("policy", "default_bits"), 12),
    ("gdn-bench", ("channels",), 3),
    ("gdn-bench", ("samples",), 16),
    ("gdn-bench", ("seed",), 5),
    ("gdn-bench", ("total_bits", 0), 8),
])
def test_integral_float_settings_give_the_int_reports(name, path, value, inputs,
                                                    tmp_path):
    reports = []
    for v in (value, float(value)):
        out = tmp_path / repr(v)
        assert _run(name, inputs, path, v, out=out) == 0
        reports.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert reports[1] == reports[0]


def _simulate(**given):
    stages, patch_count, cfg = student160_encoder_scenario()
    return simulate(stages, given.pop("patch_count", patch_count), cfg,
                    "pipelined", **given)


@pytest.mark.parametrize("bad", [2.5, "3", math.nan])
@pytest.mark.parametrize("build", [
    lambda v: DpuConfig(cores=v),
    lambda v: DpuConfig(pixel_parallel=v),
    lambda v: DpuConfig(input_channel_parallel=v),
    lambda v: DpuConfig(output_channel_parallel=v),
    lambda v: PruneSchedule(0.1, v),
    lambda v: PhaseSchedule(plateau_window=v),
    lambda v: PhaseSchedule(max_phase_steps=v),
    lambda v: FixedPointFormat(8, v),
    lambda v: FixedPointFormat(v, 2),
    lambda v: _simulate(patches_per_frame=v),
    lambda v: _simulate(patch_count=v),
], ids=["cores", "pixel_parallel", "input_channel_parallel",
        "output_channel_parallel", "iterations", "plateau_window",
        "max_phase_steps", "frac_bits", "total_bits", "patches_per_frame",
        "patch_count"])
def test_non_integral_settings_raise_parameter_error(build, bad):
    with pytest.raises(ParameterError, match="integers"):
        build(bad)


def test_integer_settings_are_stored_as_ints():
    cfg = DpuConfig(pixel_parallel=8.0, input_channel_parallel=np.int64(16),
                    output_channel_parallel=16.0, cores=3.0)
    assert all(type(v) is int for v in (cfg.pixel_parallel, cfg.cores,
                                         cfg.input_channel_parallel,
                                         cfg.output_channel_parallel))
    assert type(PruneSchedule(0.1, 3.0).iterations) is int
    sched = PhaseSchedule(plateau_window=4.0, max_phase_steps=9.0)
    assert type(sched.plateau_window) is int and type(sched.max_phase_steps) is int
    fmt = FixedPointFormat(16.0, 8.0)
    assert type(fmt.total_bits) is int and type(fmt.frac_bits) is int
    assert fmt == FixedPointFormat(16, 8)
