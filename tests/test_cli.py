import json
import math
import struct

import numpy as np
import pytest

from lic_hw_kit import Tensor, load_model, save_model, save_tensor
from lic_hw_kit.errors import FormatError, MalformedHeaderError, TruncatedPayloadError
from lic_hw_kit.cli import main, read_ppm, write_ppm
from conftest import make_encoder, rand_tensor


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
    # the float-pipeline root and recip stages of the per-stage error
    # attribution still scale by 2**frac with no clamp, so their cast
    # overflows at this range
    with pytest.warns(RuntimeWarning, match="invalid value encountered in cast"):
        assert main(["gdn-bench", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "gdn_bench.json").read_text()
    assert "NaN" not in text
    report = json.loads(text)
    assert all(math.isfinite(v) for detail in report["stages"].values()
               for v in detail["stage_contribution"].values())


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


def with_header_field(blob, key, value):
    """Rewrite one field of a float model container's JSON header."""
    magic, version, head_len = struct.unpack_from("<4sIQ", blob)
    prefix = struct.calcsize("<4sIQ")
    header = json.loads(blob[prefix:prefix + head_len])
    header[key] = value
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return (struct.pack("<4sIQ", magic, version, len(head)) + head
            + blob[prefix + head_len:])


@pytest.mark.parametrize("widths", [["a", 8, 8, 8, 8], [8, 8, 2.5, 8, 8], 5])
def test_bad_bit_widths_in_container_exit_4(tmp_path, model_file, capsys,
                                            widths):
    path, _ = model_file
    bad = tmp_path / "bad_widths.bin"
    bad.write_bytes(with_header_field(path.read_bytes(), "bit_widths", widths))
    cfg = write_json(tmp_path / "prune.json", {"model": str(bad)})
    assert main(["prune", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "bit widths must be integers" in err
    assert "Traceback" not in err
