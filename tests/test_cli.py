import copy
import dataclasses
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import lic_hw_kit
from lic_hw_kit import (
    DpuConfig,
    KdWeights,
    ModelSpec,
    PhaseSchedule,
    PrecisionPolicy,
    StageSpec,
    Tensor,
    load_model,
    save_model,
    save_tensor,
)
from lic_hw_kit.errors import FormatError, MalformedHeaderError, TruncatedPayloadError
from lic_hw_kit.cli import (
    _BENCH_ELEMENTS,
    SCHEMAS,
    _config,
    _fields,
    main,
    read_ppm,
    write_ppm,
)
from lic_hw_kit.model import MAX_LAYER_STEP
from lic_hw_kit.perf_model import MAX_CORES
from conftest import make_conv, make_encoder, rand_tensor, with_header


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_all(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
            if p.is_file()}


def run_twice(argv, outdir):
    """Run a subcommand twice into fresh dirs; return both output maps."""
    a, b = outdir / "a", outdir / "b"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    return read_all(a), read_all(b)


@pytest.fixture
def model_file(tmp_path, rng):
    model = make_encoder(rng)
    path = tmp_path / "model.bin"
    path.write_bytes(save_model(model))
    return path, model


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------


def quantize_config(tmp_path, rng, model_file, **policy):
    calib_paths = []
    for i in range(3):
        t = rand_tensor(rng, (1, 3, 16, 16))
        p = tmp_path / f"calib{i}.tns"
        p.write_bytes(save_tensor(t))
        calib_paths.append(str(p))
    cfg = {"model": str(model_file), "calibration": calib_paths}
    if policy:
        cfg["policy"] = policy
    return write_json(tmp_path / "quantize.json", cfg)


def test_quantize_outputs_and_determinism(tmp_path, rng, model_file):
    path, model = model_file
    cfg = quantize_config(tmp_path, rng, path, default_bits=8, gdn_bits=32)
    a, b = run_twice(["quantize", "--config", cfg], tmp_path)
    assert a == b
    assert set(a) == {"quantized_model.bin", "quantize_report.csv",
                      "quantize_report.json"}
    report = json.loads(a["quantize_report.json"])
    gdn_rows = [r for r in report["tensors"] if r["role"] in ("beta", "gamma")]
    assert gdn_rows and all(r["bits"] == 32 for r in gdn_rows)
    header = a["quantize_report.csv"].decode().splitlines()[0]
    assert header == "layer,role,bits,scale,saturation_count"


def test_quantize_policy_override(tmp_path, rng, model_file):
    path, _ = model_file
    cfg = quantize_config(tmp_path, rng, path,
                          default_bits=8, overrides={"0": 16})
    out = tmp_path / "o"
    assert main(["quantize", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "quantize_report.json").read_text())
    first = [r for r in report["tensors"]
             if r["layer"] == 0 and r["role"] == "weights"]
    assert first and first[0]["bits"] == 16


@pytest.mark.parametrize("layer", ["99", "5"])
def test_quantize_override_naming_no_layer_exits_4(tmp_path, rng, model_file,
                                                   capsys, layer):
    path, _ = model_file  # layers 0..4
    cfg = quantize_config(tmp_path, rng, path, overrides={layer: 16})
    assert main(["quantize", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert f"layers [{layer}]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------


def test_prune_outputs_and_determinism(tmp_path, rng, model_file):
    path, model = model_file
    cfg = write_json(tmp_path / "prune.json", {
        "model": str(path),
        "fraction_per_iteration": 0.25,
        "iterations": 2,
        "input_hw": [16, 16],
    })
    a, b = run_twice(["prune", "--config", cfg], tmp_path)
    assert a == b
    assert set(a) == {"pruned_model.bin", "prune_report.csv",
                      "prune_report.json"}
    pruned = load_model(a["pruned_model.bin"])
    assert pruned.layers[0].out_channels < model.layers[0].out_channels
    report = json.loads(a["prune_report.json"])
    assert sum(report["filters_after"].values()) \
        < sum(report["filters_before"].values())
    assert report["flops_after"] < report["flops_before"]


@pytest.mark.parametrize("fraction", [0.0, 0.1])
def test_prune_iteration_count_past_its_bound_exits_4(tmp_path, capsys, model_file,
                                                      fraction):
    path, _ = model_file
    cfg = write_json(tmp_path / "prune.json", {
        "model": str(path), "fraction_per_iteration": fraction,
        "iterations": 10 ** 400})
    out = tmp_path / "o"
    err = _run_fails(["prune", "--config", cfg, "--out", str(out)], capsys)
    assert "iterations must be at most" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

WORKLOADS = [
    {"name": "teacher", "gop": 528.2},
    {"name": "student_touched", "gop": 220.23},
    {"name": "student160", "gop": {"main_encoder": 100.0, "main_decoder": 53.0}},
]


def test_estimate_outputs_and_values(tmp_path):
    cfg = write_json(tmp_path / "est.json",
                     {"workloads": WORKLOADS,
                      "dpu": {"workload_scale": 0.3}})
    a, b = run_twice(["estimate", "--config", cfg], tmp_path)
    assert a == b
    assert set(a) == {"estimate_report.csv", "estimate_report.json"}
    report = json.loads(a["estimate_report.json"])
    assert report["peak_ops_per_cycle"]["total"] == 12288
    by_name = {e["name"]: e for e in report["estimates"]}
    assert abs(by_name["teacher"]["fps"] - 18.611) < 5e-3
    assert abs(by_name["student_touched"]["fps"] - 44.637) < 5e-3


def test_estimate_time_underflow_exits_4(tmp_path, capsys):
    cfg = write_json(tmp_path / "est.json",
                     {"workloads": [{"name": "tiny", "gop": 5e-324}]})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "underflows" in err
    assert "Traceback" not in err


def test_estimate_rejects_unknown_keys(tmp_path):
    cfg = write_json(tmp_path / "est.json",
                     {"workloads": WORKLOADS, "turbo": True})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_scenario_both_modes(tmp_path):
    cfg = write_json(tmp_path / "sim.json",
                     {"scenario": "student160_encoder", "mode": "both"})
    a, b = run_twice(["simulate", "--config", cfg], tmp_path)
    assert a == b
    assert set(a) == {"sim_report.csv", "sim_report.json"}
    report = json.loads(a["sim_report.json"])
    ratio = report["pipelined_over_sequential_fps"]
    assert 2.0 <= ratio <= 3.0


def test_simulate_explicit_stages_with_trace(tmp_path):
    cfg = write_json(tmp_path / "sim.json", {
        "stages": [
            {"name": "main_encoder", "compute_ops": 2e8,
             "intermediate_bytes": 1e6},
            {"name": "entropy", "compute_ops": 1e8},
        ],
        "patch_count": 10,
        "mode": "pipelined",
        "trace": True,
    })
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    trace = (out / "sim_trace_pipelined.csv").read_text().splitlines()
    assert trace[0] == "time_s,core,stage,patch"
    assert len(trace) == 1 + 10 * 2


def test_simulate_scenario_and_stages_conflict(tmp_path):
    cfg = write_json(tmp_path / "sim.json", {
        "scenario": "student160_encoder",
        "stages": [{"name": "entropy", "compute_ops": 1e8}],
        "patch_count": 5,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
    neither = write_json(tmp_path / "sim2.json", {"mode": "both"})
    assert main(["simulate", "--config", neither, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("extra", [{"mode": "pipelined"},
                                   {"mode": "sequential", "launch_overhead_s": 0}])
def test_simulate_makespan_underflow_exits_4(tmp_path, capsys, extra):
    cfg = write_json(tmp_path / "sim.json", {
        "stages": [{"name": "main_encoder", "compute_ops": 5e-324}],
        "patch_count": 1, **extra,
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "makespan underflows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cores", [MAX_CORES + 1, 10 ** 7, 1e300])
def test_simulate_too_many_cores_exits_2(tmp_path, capsys, cores):
    cfg = write_json(tmp_path / "sim.json", {"scenario": "student160_encoder",
                                             "dpu": {"cores": cores}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_simulate_accepts_the_core_bound(tmp_path):
    cfg = write_json(tmp_path / "sim.json", {"scenario": "student160_encoder",
                                             "dpu": {"cores": MAX_CORES}})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "sim_report.json").read_text())
    assert report["results"]["pipelined"]["cores"] == MAX_CORES


@pytest.mark.parametrize("mode", ["pipelined", "sequential", "both"])
def test_simulate_repeated_stage_exits_4(tmp_path, capsys, mode):
    cfg = write_json(tmp_path / "sim.json", {
        "stages": [{"name": "entropy", "compute_ops": 1e8}] * 2,
        "patch_count": 4, "mode": mode,
    })
    err = _run_fails(["simulate", "--config", cfg, "--out", str(tmp_path / "o")],
                     capsys)
    assert "appear once" in err


# ---------------------------------------------------------------------------
# bd-metrics
# ---------------------------------------------------------------------------


def write_curve(path, points):
    path.write_text("bpp,psnr_db\n"
                    + "\n".join(f"{r},{p}" for r, p in points) + "\n")
    return str(path)


def test_bd_metrics_positional_curves(tmp_path):
    base = [(0.1, 30.0), (0.2, 32.0), (0.4, 34.0), (0.8, 36.0)]
    better = [(r, p + 1.0) for r, p in base]
    ca = write_curve(tmp_path / "a.csv", base)
    cb = write_curve(tmp_path / "b.csv", better)
    a, b = run_twice(["bd-metrics", ca, cb], tmp_path)
    assert a == b
    report = json.loads(a["bd_report.json"])
    assert abs(report["bd_psnr_db"] - 1.0) < 1e-9
    assert report["bd_rate_percent"] < 0.0


def test_bd_metrics_missing_curve(tmp_path):
    ca = write_curve(tmp_path / "a.csv",
                     [(0.1, 30.0), (0.2, 32.0), (0.4, 34.0), (0.8, 36.0)])
    assert main(["bd-metrics", ca, str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)]) == 3


def test_bd_metrics_disjoint_curves_fail_cleanly(tmp_path):
    ca = write_curve(tmp_path / "a.csv",
                     [(0.1, 30.0), (0.12, 31.0), (0.14, 32.0), (0.16, 33.0)])
    cb = write_curve(tmp_path / "b.csv",
                     [(10.0, 40.0), (12.0, 41.0), (14.0, 42.0), (16.0, 43.0)])
    assert main(["bd-metrics", ca, cb, "--out", str(tmp_path)]) == 4


# ---------------------------------------------------------------------------
# gdn-bench
# ---------------------------------------------------------------------------


def test_gdn_bench_defaults_and_determinism(tmp_path):
    cfg = write_json(tmp_path / "bench.json", {"samples": 200, "channels": 4})
    a, b = run_twice(["gdn-bench", "--config", cfg], tmp_path)
    assert a == b
    report = json.loads(a["gdn_bench.json"])
    by_bits = {e["total_bits"]: e for e in report["rows"]}
    assert set(by_bits) == {8, 16, 32}
    assert by_bits[32]["max_abs_error"] <= by_bits[16]["max_abs_error"] \
        <= by_bits[8]["max_abs_error"]
    assert by_bits[32]["max_abs_error"] < 1e-3


def test_gdn_bench_huge_inputs_report_no_nan(tmp_path):
    cfg = write_json(tmp_path / "bench.json", {"samples": 200, "channels": 4,
                                               "low": -1e12, "high": 1e12})
    out = tmp_path / "o"
    assert main(["gdn-bench", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "gdn_bench.json").read_text()
    assert "NaN" not in text
    report = json.loads(text)
    assert all(math.isfinite(v) for detail in report["stages"].values()
               for v in detail["stage_contribution"].values())


@pytest.mark.parametrize("config, key", [
    ({"channels": 10 ** 11}, "channels"),
    ({"samples": 10 ** 30}, "samples"),
    ({"channels": 8, "samples": _BENCH_ELEMENTS // 8 + 1}, "samples"),
])
def test_gdn_bench_corpus_past_the_element_budget_exits_2(tmp_path, capsys, config,
                                                          key):
    cfg = write_json(tmp_path / "bench.json", config)
    out = tmp_path / "o"
    err = _run_fails(["gdn-bench", "--config", cfg, "--out", str(out)], capsys, code=2)
    assert f"channels * {key} <= {_BENCH_ELEMENTS}" in err
    assert not out.exists()


def test_gdn_bench_channel_budget_is_inclusive(tmp_path, capsys):
    at = math.isqrt(_BENCH_ELEMENTS)
    assert at * at == _BENCH_ELEMENTS
    for channels, code in ((at, 0), (at + 1, 2)):
        cfg = write_json(tmp_path / "bench.json", {"channels": channels, "samples": 1,
                                                   "total_bits": [8]})
        assert main(["gdn-bench", "--config", cfg,
                     "--out", str(tmp_path / str(channels))]) == code
    assert "channels * channels" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tile
# ---------------------------------------------------------------------------


def test_tile_ppm_round_trip(tmp_path, rng):
    img = Tensor(rng.integers(0, 256, (1, 3, 30, 40)).astype(np.float32))
    src = tmp_path / "src.ppm"
    src.write_bytes(write_ppm(img))
    assert np.array_equal(read_ppm(src.read_bytes()).data, img.data)

    cfg = write_json(tmp_path / "tile.json",
                     {"image": str(src), "target_h": 64, "target_w": 96})
    a, b = run_twice(["tile", "--config", cfg], tmp_path)
    assert a == b
    tiled = read_ppm(a["tiled.ppm"])
    assert tiled.dims == (1, 3, 64, 96)
    assert np.array_equal(tiled.data[:, :, :30, :40], img.data)


_PPM_FAULTS = [
    (b"P6\n4 2\n", MalformedHeaderError, "ppm header ended early"),
    (b"P3\n1 1\n255\n\x00\x00\x00", MalformedHeaderError,
     "unsupported ppm magic b'P3'; P6 only"),
    (b"P6\n1 1\n65535\n\x00\x00\x00", MalformedHeaderError,
     "ppm maxval must be 255; got 65535"),
    (b"P6\n2 2\n255\n\x00\x00\x00", TruncatedPayloadError,
     "ppm pixel data truncated"),
    (b"P6\nx 2\n255\n\x00\x00\x00", MalformedHeaderError,
     "ppm width, height and maxval must be decimal integers; got b'x', b'2', b'255'"),
    (b"P6\n-1 2\n255\n\x00\x00\x00", MalformedHeaderError,
     "ppm width, height and maxval must be decimal integers; got b'-1', b'2', b'255'"),
]


_PPM_FAULT_IDS = ["header-ends-early", "magic", "maxval", "truncated", "non-decimal",
                  "negative"]


@pytest.mark.parametrize("blob, error, message", _PPM_FAULTS, ids=_PPM_FAULT_IDS)
def test_read_ppm_faults_are_format_errors(blob, error, message):
    with pytest.raises(error) as info:
        read_ppm(blob)
    assert isinstance(info.value, FormatError)
    assert str(info.value) == message


@pytest.mark.parametrize("blob, error, message", _PPM_FAULTS, ids=_PPM_FAULT_IDS)
def test_tile_bad_ppm_exits_4(tmp_path, capsys, blob, error, message):
    src = tmp_path / "bad.ppm"
    src.write_bytes(blob)
    cfg = write_json(tmp_path / "tile.json",
                     {"image": str(src), "target_h": 8, "target_w": 8})
    assert main(["tile", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"


def test_tile_tensor_container(tmp_path, rng):
    img = rand_tensor(rng, (1, 2, 10, 10))
    src = tmp_path / "src.tns"
    src.write_bytes(save_tensor(img))
    cfg = write_json(tmp_path / "tile.json",
                     {"image": str(src), "target_h": 25, "target_w": 25})
    out = tmp_path / "o"
    assert main(["tile", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "tiled.bin").exists()


@pytest.mark.parametrize("name, blob", [
    ("zero.ppm", b"P6\n0 0\n255\n"),
    ("zero.tns", save_tensor(Tensor(np.zeros((1, 3, 0, 4), dtype=np.float32)))),
], ids=["ppm", "tns"])
def test_tile_zero_extent_image_exits_4(tmp_path, capsys, name, blob):
    src = tmp_path / name
    src.write_bytes(blob)
    cfg = write_json(tmp_path / "tile.json", {"image": str(src)})
    assert main(["tile", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "cannot tile an image of extent" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# kd-loss
# ---------------------------------------------------------------------------


def kd_steps(n):
    return [{"l_latent": 2.0 * np.exp(-i / 5.0) + 0.5, "l_perceptual": 0.3,
             "rate": 1.0, "distortion": 0.01} for i in range(n)]


def test_kd_loss_schedule_flip(tmp_path):
    cfg = write_json(tmp_path / "kd.json", {
        "lambda": 50.0,
        "steps": kd_steps(60),
        "plateau_window": 10,
        "plateau_threshold": 1e-3,
    })
    a, b = run_twice(["kd-loss", "--config", cfg], tmp_path)
    assert a == b
    report = json.loads(a["kd_report.json"])
    phases = [r["phase"] for r in report["rows"]]
    assert phases[0] == "early" and phases[-1] == "late"
    flip = phases.index("late")
    assert all(p == "early" for p in phases[:flip])
    assert all(p == "late" for p in phases[flip:])


# ---------------------------------------------------------------------------
# Shared failure paths
# ---------------------------------------------------------------------------


def test_missing_config_file(tmp_path):
    assert main(["estimate", "--config", str(tmp_path / "none.json"),
                 "--out", str(tmp_path)]) == 3


def test_malformed_json_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["estimate", "--config", str(bad),
                 "--out", str(tmp_path)]) == 2


def test_schema_violation(tmp_path):
    cfg = write_json(tmp_path / "est.json",
                     {"workloads": [{"name": "x", "gop": -1.0}]})
    assert main(["estimate", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_missing_model_file(tmp_path):
    cfg = write_json(tmp_path / "prune.json",
                     {"model": str(tmp_path / "ghost.bin")})
    assert main(["prune", "--config", cfg, "--out", str(tmp_path)]) == 3


def test_domain_failure_maps_to_4(tmp_path, rng, model_file):
    path, _ = model_file
    cfg = write_json(tmp_path / "prune.json", {
        "model": str(path),
        "fraction_per_iteration": 0.5,
        "iterations": 2,
    })
    assert main(["prune", "--config", cfg, "--out", str(tmp_path)]) == 4


# ---------------------------------------------------------------------------
# Malformed inputs end in a documented exit code and a one-line error
# ---------------------------------------------------------------------------


def _run_fails(argv, capsys, code=4):
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("field, value, message", [
    ("kernel", "x", "layer sizes (kernel) must be integers"),
    ("out_channels", 2 ** 64, "payload declares"),
    ("stride", float("nan"), "layer sizes (stride) must be integers"),
    ("padding", 0.5, "layer sizes (padding) must be integers"),
])
def test_prune_malformed_layer_size_exits_4(tmp_path, capsys, model_file,
                                            field, value, message):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(with_header(model_file[0].read_bytes(),
                                lambda h: h["layers"][0].update({field: value})))
    cfg = write_json(tmp_path / "prune.json",
                     {"model": str(bad), "input_hw": [16, 16]})
    err = _run_fails(["prune", "--config", cfg, "--out", str(tmp_path / "o")],
                     capsys)
    assert message in err


@pytest.mark.parametrize("field", ["stride", "padding"])
@pytest.mark.parametrize("kind", ["conv", "deconv"])
@pytest.mark.parametrize("command", ["quantize", "prune"])
def test_layer_step_past_its_bound_exits_4(tmp_path, capsys, rng, command, kind,
                                           field):
    # quantize runs a forward pass and prune counts ops; both stop at the load
    model = ModelSpec(name="m", role="main_encoder",
                      layers=[make_conv(3, 4, s=2, rng=rng, kind=kind)])
    bad = tmp_path / "bad.bin"
    bad.write_bytes(with_header(save_model(model),
                                lambda h: h["layers"][0].update({field: 2 ** 40})))
    cfg = (quantize_config(tmp_path, rng, bad) if command == "quantize" else
           write_json(tmp_path / "prune.json", {"model": str(bad)}))
    err = _run_fails([command, "--config", cfg, "--out", str(tmp_path / "o")],
                     capsys)
    assert (f"layer sizes ({field}) must be at most {MAX_LAYER_STEP}; "
            f"got {2 ** 40}") in err


def test_tile_tensor_whose_size_wraps_int64_exits_4(tmp_path, capsys):
    src = tmp_path / "huge.tns"
    src.write_bytes(struct.pack("<4I", 65536, 65536, 65536, 65536))
    cfg = write_json(tmp_path / "tile.json", {"image": str(src)})
    err = _run_fails(["tile", "--config", cfg, "--out", str(tmp_path / "o")],
                     capsys)
    assert "needs 73786976294838206464 bytes, got 0" in err


def test_estimate_overflowing_time_exits_4(tmp_path, capsys):
    cfg = write_json(tmp_path / "est.json",
                     {"workloads": [{"name": "huge", "gop": 1e300}]})
    err = _run_fails(["estimate", "--config", cfg, "--out", str(tmp_path / "o")],
                     capsys)
    assert "is not finite" in err
    assert not (tmp_path / "o" / "estimate_report.json").exists()


@pytest.mark.parametrize("mode", ["sequential", "both"])
def test_simulate_overflowing_spill_exits_4(tmp_path, capsys, mode):
    cfg = write_json(tmp_path / "sim.json", {
        "stages": [{"name": "main_encoder", "compute_ops": 1e9,
                    "intermediate_bytes": 1e308},
                   {"name": "hyper_encoder", "compute_ops": 1e9}],
        "patch_count": 1000, "mode": mode,
    })
    err = _run_fails(["simulate", "--config", cfg, "--out", str(tmp_path / "o")],
                     capsys)
    assert "all must be finite and fps > 0" in err
    assert not (tmp_path / "o" / "sim_report.json").exists()


@pytest.mark.parametrize("count, trace, message", [
    (2 ** 53 + 1, False, "patch_count must be in [1, 2**53]"),
    (10 ** 400, False, "patch_count must be in [1, 2**53]"),
    (500_001, True, "exceeds 1000000 rows"),
], ids=["past-2**53", "10**400", "traced-past-cap"])
@pytest.mark.parametrize("mode", ["pipelined", "sequential"])
def test_simulate_patch_count_bounds_exit_4(tmp_path, capsys, mode, count,
                                            trace, message):
    cfg = write_json(tmp_path / "sim.json", {
        "stages": [{"name": "main_encoder", "compute_ops": 1e8},
                   {"name": "entropy", "compute_ops": 2e7}],
        "patch_count": count, "mode": mode, "trace": trace,
    })
    err = _run_fails(["simulate", "--config", cfg, "--out", str(tmp_path / "o")],
                     capsys)
    assert message in err
    assert not (tmp_path / "o" / "sim_report.json").exists()


@pytest.mark.parametrize("raw", [
    b"bpp,psnr_db\n0.1,30\r0.2,31\n0.3,32\n0.4,33\n",
    b"bpp,psnr_db\n0.1,30\n\xff0.2,31\n0.3,32\n0.4,33\n",
], ids=["lone-cr", "0xff"])
def test_bd_metrics_unreadable_curve_exits_4(tmp_path, capsys, raw):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(raw)
    good = write_curve(tmp_path / "good.csv",
                       [(0.1, 30.0), (0.2, 32.0), (0.4, 34.0), (0.8, 36.0)])
    err = _run_fails(["bd-metrics", str(bad), good, "--out", str(tmp_path)],
                     capsys)
    assert "curve csv cannot be read" in err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "est.json"
    cfg.write_bytes(b'{"workloads": [{"name": "\xff", "gop": 1}]}')
    err = _run_fails(["estimate", "--config", str(cfg), "--out", str(tmp_path)],
                     capsys, code=2)
    assert "config is not valid JSON" in err


# ---------------------------------------------------------------------------
# Ranges come from the library: a config value outside one exits 2
# ---------------------------------------------------------------------------

BELOW_ZERO = -5e-324  # one step below a bound of 0
_KD_WEIGHTS = {"alpha": 1.0, "beta": 0.1, "gamma": 0.5}
_BASES = {
    "estimate": {"workloads": [{"name": "w", "gop": 1.0}]},
    "simulate": {"stages": [{"name": "main_encoder", "compute_ops": 1e8,
                             "intermediate_bytes": 1e6},
                            {"name": "entropy", "compute_ops": 2e7}],
                 "patch_count": 4},
    "kd-loss": {"lambda": 0.5, "steps": kd_steps(3)},
}
_DPU_PAST_BOUNDS = [
    ({"pixel_parallel": 0}, "pixel_parallel"),
    ({"input_channel_parallel": 0}, "input_channel_parallel"),
    ({"output_channel_parallel": 0}, "output_channel_parallel"),
    ({"cores": 0}, "cores"),
    ({"cores": MAX_CORES + 1}, "cores"),
    ({"freq_hz": 0}, "freq_hz"),
    ({"eta": 0}, "eta"),
    ({"eta": math.nextafter(1.0, 2.0)}, "eta"),
    ({"mem_bandwidth_bytes_per_s": 0}, "mem_bandwidth_bytes_per_s"),
    ({"workload_scale": 0}, "workload_scale"),
]

# (command, keys set over the command's base config, setting named on stderr)
OUTSIDE_LIBRARY_RANGES = [
    ("quantize", {"default_bits": 33}, "default_bits"),
    ("quantize", {"gdn_bits": 1}, "gdn_bits"),
    ("quantize", {"overrides": {"0": 1}}, "layer 0"),
    *[(command, {"dpu": dpu}, name) for command in ("estimate", "simulate")
      for dpu, name in _DPU_PAST_BOUNDS],
    # every workload is built before the first estimate, which here would
    # fail with exit 4 on a compute time that is not finite
    ("estimate", {"workloads": [{"name": "huge", "gop": 1e300},
                                {"name": "w", "gop": {"entropy": BELOW_ZERO}}]},
     "entropy"),
    ("simulate", {"stages": [{"name": "entropy", "compute_ops": 0}]},
     "compute_ops"),
    ("simulate", {"stages": [{"name": "entropy", "compute_ops": 1e8,
                              "intermediate_bytes": BELOW_ZERO}]},
     "intermediate_bytes"),
    ("kd-loss", {"weights_early": {**_KD_WEIGHTS, "alpha": BELOW_ZERO}}, "alpha"),
    ("kd-loss", {"weights_late": {**_KD_WEIGHTS, "beta": BELOW_ZERO}}, "beta"),
    ("kd-loss", {"weights_early": {**_KD_WEIGHTS, "gamma": BELOW_ZERO}}, "gamma"),
    ("kd-loss", {"plateau_window": 1}, "plateau_window"),
    ("kd-loss", {"plateau_threshold": 0}, "plateau_threshold"),
    ("kd-loss", {"max_phase_steps": 0}, "max_phase_steps"),
    # values no schema bound covered, which only the library rejects
    ("kd-loss", {"weights_early": {"alpha": 0, "beta": 0, "gamma": 0}},
     "loss weight"),
    ("kd-loss", {"weights_early": {**_KD_WEIGHTS, "alpha": math.nan}}, "alpha"),
    ("simulate", {"stages": [{"name": "decoder", "compute_ops": 1e8}]},
     "stage name"),
    ("simulate", {"dpu": {"freq_hz": math.nan}}, "freq_hz"),
]


def _config_with(tmp_path, rng, model_file, command, keys):
    if command == "quantize":  # keys are the policy's
        return quantize_config(tmp_path, rng, model_file[0], **keys)
    return write_json(tmp_path / "cfg.json", {**_BASES[command], **keys})


@pytest.mark.parametrize("command, keys, setting", OUTSIDE_LIBRARY_RANGES,
                         ids=[f"{c}-{s}-{i}" for i, (c, _, s)
                              in enumerate(OUTSIDE_LIBRARY_RANGES)])
def test_value_outside_a_library_range_exits_2_naming_it(tmp_path, rng,
                                                         model_file, capsys,
                                                         command, keys, setting):
    cfg = _config_with(tmp_path, rng, model_file, command, keys)
    out = tmp_path / "o"
    err = _run_fails([command, "--config", cfg, "--out", str(out)], capsys, code=2)
    assert setting in err
    assert not out.exists()


def test_quantize_range_error_beats_missing_model(tmp_path, capsys):
    cfg = write_json(tmp_path / "q.json", {
        "model": str(tmp_path / "ghost.bin"),
        "calibration": [str(tmp_path / "ghost.tns")],
        "policy": {"default_bits": 64},
    })
    err = _run_fails(["quantize", "--config", cfg, "--out", str(tmp_path / "o")],
                     capsys, code=2)
    assert "default_bits must be at most 32; got 64" in err


# ---------------------------------------------------------------------------
# Values the library cannot take at all
# ---------------------------------------------------------------------------

_DPU_FLOATS = {"freq_hz": 3e8, "eta": 0.8, "mem_bandwidth_bytes_per_s": 1.92e10,
               "workload_scale": 0.5}
# a config per command that sets every number-typed key the schema has
# (at least one list element and one per-role gop each)
_EVERY_NUMBER = {
    "prune": {"model": "m.bin", "fraction_per_iteration": 0.1},
    "estimate": {"dpu": _DPU_FLOATS,
                 "workloads": [{"name": "w", "gop": 1.5},
                               {"name": "r", "gop": {"entropy": 0.1}}]},
    "simulate": {"dpu": _DPU_FLOATS,
                 "stages": [{"name": "main_encoder", "compute_ops": 1e8,
                             "intermediate_bytes": 1e6}],
                 "patch_count": 4, "launch_overhead_s": 0.0},
    "gdn-bench": {"samples": 10, "low": -8.0, "high": 8.0,
                  "beta_range": [1.0, 2.0], "gamma_scale": 0.1},
    "kd-loss": {"lambda": 0.5, "weights_early": _KD_WEIGHTS,
                "weights_late": _KD_WEIGHTS, "plateau_threshold": 0.01,
                "steps": kd_steps(1)},
}


def _schema_numbers(schema, where=""):
    """Where a schema types a value as number."""
    if schema.get("type") == "number":
        yield where
    for i, sub in enumerate(schema.get("anyOf", [])):
        yield from _schema_numbers(sub, f"{where}/anyOf/{i}")
    for key, sub in schema.get("properties", {}).items():
        yield from _schema_numbers(sub, f"{where}/properties/{key}")
    for key in ("items", "additionalProperties"):
        if isinstance(schema.get(key), dict):
            yield from _schema_numbers(schema[key], f"{where}/{key}")
    for key, sub in schema.get("patternProperties", {}).items():
        yield from _schema_numbers(sub, f"{where}/patternProperties/{key}")


def _config_numbers(schema, value, where="", path=()):
    """(schema position, config path) of each number-typed config value."""
    if "anyOf" in schema:  # the branch of the value's kind
        i, sub = next((i, sub) for i, sub in enumerate(schema["anyOf"])
                      if (sub["type"] == "object") == isinstance(value, dict))
        yield from _config_numbers(sub, value, f"{where}/anyOf/{i}", path)
    elif schema.get("type") == "number":
        yield where, path
    elif isinstance(value, dict):
        for key, v in value.items():
            if key in schema.get("properties", {}):
                sub, at = schema["properties"][key], f"{where}/properties/{key}"
            else:
                sub, at = schema["additionalProperties"], f"{where}/additionalProperties"
            yield from _config_numbers(sub, v, at, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _config_numbers(schema["items"], v, f"{where}/items", path + (i,))


@pytest.mark.parametrize("command", sorted(SCHEMAS))
def test_every_number_config_sets_each_number_key(command):
    config = _EVERY_NUMBER.get(command, {})
    if config:
        jsonschema.validate(config, SCHEMAS[command])
    reached = {at for at, _ in _config_numbers(SCHEMAS[command], config)}
    assert reached == set(_schema_numbers(SCHEMAS[command]))


NUMBER_PATHS = [(command, path) for command, config in _EVERY_NUMBER.items()
                for _, path in _config_numbers(SCHEMAS[command], config)]


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("command, path", NUMBER_PATHS,
                         ids=[f"{c}-{'.'.join(map(str, p))}" for c, p in NUMBER_PATHS])
def test_integer_too_large_for_a_float64_exits_2(tmp_path, capsys, command, path,
                                                 sign):
    config = copy.deepcopy(_EVERY_NUMBER[command])
    *head, last = path
    node = config
    for key in head:
        node = node[key]
    node[last] = sign * 10 ** 400
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "o"
    _run_fails([command, "--config", cfg, "--out", str(out)], capsys, code=2)
    assert not out.exists()


@pytest.mark.parametrize("factor", ["pixel_parallel", "input_channel_parallel",
                                    "output_channel_parallel"])
@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_parallel_factor_past_a_finite_rate_exits_2(tmp_path, capsys, command,
                                                    factor):
    cfg = write_json(tmp_path / "cfg.json",
                     {**_BASES[command], "dpu": {factor: 10 ** 400}})
    out = tmp_path / "o"
    err = _run_fails([command, "--config", cfg, "--out", str(out)], capsys, code=2)
    assert factor in err and "finite" in err
    assert not out.exists()


def test_gdn_bench_width_without_stock_formats_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "bench.json", {"samples": 10, "total_bits": [32, 12]})
    out = tmp_path / "o"
    err = _run_fails(["gdn-bench", "--config", cfg, "--out", str(out)], capsys, code=2)
    assert "12-bit" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# Schemas derived from the library's dataclasses
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class _Probe:
    count: int
    rate: float = 1.0
    on: bool = False
    label: str = "x"
    made: int = dataclasses.field(default_factory=int)


def test_a_field_without_a_config_type_raises():
    with pytest.raises(TypeError, match=r"PhaseSchedule fields \['early', 'late'\]"):
        _fields(PhaseSchedule)
    with pytest.raises(TypeError, match=r"PrecisionPolicy fields \['overrides'\]"):
        _fields(PrecisionPolicy)


def test_fields_follow_the_dataclass_with_replacements_and_skips():
    schemas = _fields(_Probe, skip=("on",), made={"type": "array"})
    assert schemas == {"count": {"type": "integer"},
                       "rate": {"type": "number", "format": "float64"},
                       "label": {"type": "string"}, "made": {"type": "array"}}
    assert list(schemas) == ["count", "rate", "label", "made"]


def test_config_requires_the_fields_without_a_default():
    assert _config(_Probe)["required"] == ["count"]
    assert _config(KdWeights)["required"] == ["alpha", "beta", "gamma"]
    assert _config(StageSpec)["required"] == ["name", "compute_ops"]
    assert "required" not in _config(DpuConfig)
    assert _config(DpuConfig)["additionalProperties"] is False


# ---------------------------------------------------------------------------
# Run as a module: sys.exit carries main's exit code
# ---------------------------------------------------------------------------


def _readme_estimate():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.search(r"^\*\*estimate\*\*.*?^```json\n(.*?)^```", readme,
                     re.M | re.S).group(1)
    return json.loads(text)


_MODULE_RUNS = [
    pytest.param("estimate", _readme_estimate(), 0, "estimate_report.csv",
                 id="readme-estimate"),
    # the closed-form schedules finish 1e12 untraced patches well inside the timeout
    pytest.param("simulate", {
        "stages": [{"name": "main_encoder", "compute_ops": 1.8e8,
                    "intermediate_bytes": 1.6e6},
                   {"name": "entropy", "compute_ops": 1.4e8}],
        "patch_count": 10 ** 12, "mode": "both"}, 0, "sim_report.json",
        id="simulate-1e12-patches"),
    pytest.param("simulate", {"scenario": "student160_encoder", "dpu": {"eta": 1.5}},
                 2, "eta", id="dpu-out-of-library-range"),
    pytest.param("estimate", {"workloads": [{"name": "w", "gop": 10 ** 400}]},
                 2, "too large for a float64", id="gop-past-float64"),
]


@pytest.mark.parametrize("command, config, code, expect", _MODULE_RUNS)
def test_cli_run_as_a_module(tmp_path, command, config, code, expect):
    """On success the named report is non-empty; on failure stderr is one
    line holding expect and no output directory is made."""
    cfg = write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    src = os.path.dirname(os.path.dirname(lic_hw_kit.__file__))
    run = subprocess.run(
        [sys.executable, "-m", "lic_hw_kit.cli", command, "--config", cfg,
         "--out", str(out)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr
    if code == 0:
        assert (out / expect).stat().st_size > 0
    else:
        assert run.stderr.count("\n") == 1 and expect in run.stderr
        assert not out.exists()
