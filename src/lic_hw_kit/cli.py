"""Command-line front end.

    lic-hw-kit <subcommand> --config <file.json> [--out <dir>]

Every config is validated against a schema (unknown keys are rejected)
before any computation starts. A key the config leaves out takes the
default of the library call it feeds; only gdn-bench, which has no
library counterpart, keeps defaults of its own. Reports are written by
one writer as CSV and JSON side by side; CSV floats use fixed 6-decimal
formatting and JSON keeps full precision, so reruns on identical inputs
are byte-identical.

Exit codes: 0 success, 2 config/schema error, 3 missing input file,
4 numeric or format failure during computation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jsonschema
import numpy as np

from .bd_metrics import bd_metrics as compute_bd_metrics
from .bd_metrics import read_rd_csv
from .errors import (
    ConfigError,
    MalformedHeaderError,
    MissingInputError,
    ToolkitError,
    TruncatedPayloadError,
)
from .gdn import GdnParams, GdnStageFormats, gdn_error_report
from .kd_loss import KdWeights, PhaseSchedule, kd_loss, plateau_scheduler
from .model_io import load_model, save_model, save_quantized_model
from .patching import tile_to_resolution
from .perf_model import DpuConfig, WorkloadProfile, estimate_fps, peak_ops_per_cycle
from .pipeline_sim import (
    StageSpec,
    simulate,
    student160_encoder_scenario,
)
from .pruning import PruneSchedule, iterative_prune
from .quantizer import PrecisionPolicy, calibrate, ptq
from .tensor import Tensor, load_tensor, save_tensor

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

_DPU_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "pixel_parallel": {"type": "integer", "minimum": 1},
        "input_channel_parallel": {"type": "integer", "minimum": 1},
        "output_channel_parallel": {"type": "integer", "minimum": 1},
        "cores": {"type": "integer", "minimum": 1},
        "freq_hz": {"type": "number", "exclusiveMinimum": 0},
        "eta": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "mem_bandwidth_bytes_per_s": {"type": "number", "exclusiveMinimum": 0},
        "workload_scale": {"type": "number", "exclusiveMinimum": 0},
    },
}

_WEIGHTS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["alpha", "beta", "gamma"],
    "properties": {
        "alpha": {"type": "number", "minimum": 0},
        "beta": {"type": "number", "minimum": 0},
        "gamma": {"type": "number", "minimum": 0},
    },
}

SCHEMAS = {
    "quantize": {
        "type": "object",
        "additionalProperties": False,
        "required": ["model", "calibration"],
        "properties": {
            "model": {"type": "string"},
            "calibration": {
                "type": "array", "minItems": 1, "items": {"type": "string"},
            },
            "policy": {
                "type": "object",
                "additionalProperties": False,
                "properties": {
                    "default_bits": {"type": "integer", "minimum": 2, "maximum": 32},
                    "gdn_bits": {"type": "integer", "minimum": 2, "maximum": 32},
                    "overrides": {
                        "type": "object",
                        "patternProperties": {
                            r"^\d+$": {"type": "integer", "minimum": 2,
                                       "maximum": 32},
                        },
                        "additionalProperties": False,
                    },
                },
            },
        },
    },
    "prune": {
        "type": "object",
        "additionalProperties": False,
        "required": ["model"],
        "properties": {
            "model": {"type": "string"},
            "fraction_per_iteration": {
                "type": "number", "minimum": 0, "exclusiveMaximum": 1,
            },
            "iterations": {"type": "integer", "minimum": 1},
            "prune_hyperprior": {"type": "boolean"},
            "input_hw": {
                "type": "array", "minItems": 2, "maxItems": 2,
                "items": {"type": "integer", "minimum": 1},
            },
        },
    },
    "estimate": {
        "type": "object",
        "additionalProperties": False,
        "required": ["workloads"],
        "properties": {
            "dpu": _DPU_SCHEMA,
            "workloads": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["name", "gop"],
                    "properties": {
                        "name": {"type": "string"},
                        "gop": {
                            "anyOf": [
                                {"type": "number", "exclusiveMinimum": 0},
                                {
                                    "type": "object",
                                    "minProperties": 1,
                                    "additionalProperties": {
                                        "type": "number", "minimum": 0,
                                    },
                                },
                            ],
                        },
                    },
                },
            },
        },
    },
    "simulate": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "dpu": _DPU_SCHEMA,
            "scenario": {"type": "string", "enum": ["student160_encoder"]},
            "stages": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["name", "compute_ops"],
                    "properties": {
                        "name": {"type": "string"},
                        "compute_ops": {"type": "number", "exclusiveMinimum": 0},
                        "intermediate_bytes": {"type": "number", "minimum": 0},
                    },
                },
            },
            "patch_count": {"type": "integer", "minimum": 1},
            "patches_per_frame": {"type": "integer", "minimum": 1},
            "mode": {"type": "string", "enum": ["sequential", "pipelined", "both"]},
            "launch_overhead_s": {"type": "number", "minimum": 0},
            "trace": {"type": "boolean"},
        },
    },
    "gdn-bench": {
        "type": "object",
        "additionalProperties": False,
        "properties": {
            "channels": {"type": "integer", "minimum": 1},
            "samples": {"type": "integer", "minimum": 1},
            "seed": {"type": "integer", "minimum": 0},
            "low": {"type": "number"},
            "high": {"type": "number"},
            "beta_range": {
                "type": "array", "minItems": 2, "maxItems": 2,
                "items": {"type": "number", "exclusiveMinimum": 0},
            },
            "gamma_scale": {"type": "number", "minimum": 0},
            "total_bits": {
                "type": "array", "minItems": 1,
                "items": {"type": "integer", "enum": [8, 16, 32]},
            },
            "inverse": {"type": "boolean"},
        },
    },
    "tile": {
        "type": "object",
        "additionalProperties": False,
        "required": ["image"],
        "properties": {
            "image": {"type": "string"},
            "target_h": {"type": "integer", "minimum": 1},
            "target_w": {"type": "integer", "minimum": 1},
        },
    },
    "kd-loss": {
        "type": "object",
        "additionalProperties": False,
        "required": ["lambda", "steps"],
        "properties": {
            "lambda": {"type": "number", "minimum": 0},
            "weights_early": _WEIGHTS_SCHEMA,
            "weights_late": _WEIGHTS_SCHEMA,
            "plateau_window": {"type": "integer", "minimum": 2},
            "plateau_threshold": {"type": "number", "exclusiveMinimum": 0},
            "max_phase_steps": {"type": "integer", "minimum": 1},
            "steps": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["l_latent", "l_perceptual", "rate", "distortion"],
                    "properties": {
                        "l_latent": {"type": "number"},
                        "l_perceptual": {"type": "number"},
                        "rate": {"type": "number"},
                        "distortion": {"type": "number"},
                    },
                },
            },
        },
    },
}


def _load_config(path: str, schema_name: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise MissingInputError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    try:
        jsonschema.validate(cfg, SCHEMAS[schema_name])
    except jsonschema.ValidationError as e:
        raise ConfigError(f"config rejected: {e.message}") from e
    return cfg


def _read_bytes(path: str) -> bytes:
    p = Path(path)
    if not p.is_file():
        raise MissingInputError(f"input file not found: {path}")
    return p.read_bytes()


def _given(cfg: dict, *keys) -> dict:
    """The keys the config sets, so a library call keeps its own defaults
    for the rest."""
    return {k: cfg[k] for k in keys if k in cfg}


def _dpu_from(cfg: dict) -> DpuConfig:
    return DpuConfig(**cfg.get("dpu", {}))


# ---------------------------------------------------------------------------
# Deterministic report writing
# ---------------------------------------------------------------------------


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _write_csv(path: Path, fieldnames, rows) -> None:
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_fmt_cell(row[k]) for k in fieldnames))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_report(out: Path, stem: str, fieldnames, rows, doc) -> None:
    """<stem>.csv with one line per row (the header even when there are
    no rows) and <stem>.json holding doc."""
    _write_csv(out / f"{stem}.csv", fieldnames, rows)
    _write_json(out / f"{stem}.json", doc)


# ---------------------------------------------------------------------------
# PPM and tensor image files
# ---------------------------------------------------------------------------


def read_ppm(buf: bytes) -> Tensor:
    """Binary 8-bit P6 to a (1, 3, h, w) tensor of 0..255 values.

    A header that cannot be parsed raises MalformedHeaderError; pixel
    data shorter than the header declares raises TruncatedPayloadError.
    """
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if buf[pos:pos + 1] == b"#":
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise MalformedHeaderError("ppm header ended early")
        fields.append(buf[start:pos])
    pos += 1  # single whitespace after maxval
    magic, w_, h_, maxval = fields
    if magic != b"P6":
        raise MalformedHeaderError(f"unsupported ppm magic {magic!r}; P6 only")
    if not (w_.isdigit() and h_.isdigit() and maxval.isdigit()):
        raise MalformedHeaderError(
            f"ppm width, height and maxval must be decimal integers; "
            f"got {w_!r}, {h_!r}, {maxval!r}"
        )
    w, h, mv = int(w_), int(h_), int(maxval)
    if mv != 255:
        raise MalformedHeaderError(f"ppm maxval must be 255; got {mv}")
    need = w * h * 3
    raw = buf[pos:pos + need]
    if len(raw) < need:
        raise TruncatedPayloadError("ppm pixel data truncated")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return Tensor(arr.transpose(2, 0, 1)[None].astype(np.float32))


def write_ppm(t: Tensor) -> bytes:
    if t.n != 1 or t.c != 3:
        raise ToolkitError(f"ppm output needs dims (1, 3, h, w); got {t.dims}")
    arr = np.clip(np.rint(t.data[0]), 0, 255).astype(np.uint8)
    header = f"P6\n{t.w} {t.h}\n255\n".encode()
    return header + arr.transpose(1, 2, 0).tobytes()


def _read_image(path: str) -> tuple:
    raw = _read_bytes(path)
    if path.lower().endswith(".ppm"):
        return read_ppm(raw), "ppm"
    return load_tensor(raw), "tensor"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_quantize(args) -> int:
    cfg = _load_config(args.config, "quantize")
    model = load_model(_read_bytes(cfg["model"]))
    calib = [load_tensor(_read_bytes(p)) for p in cfg["calibration"]]
    pol = dict(cfg.get("policy", {}))
    if "overrides" in pol:
        pol["overrides"] = {int(k): v for k, v in pol["overrides"].items()}
    policy = PrecisionPolicy(**pol)
    qm = ptq(model, calibrate(model, calib), policy)

    out = _out_dir(args)
    (out / "quantized_model.bin").write_bytes(save_quantized_model(qm))
    rows = qm.scale_report()
    _write_report(out, "quantize_report",
                  ["layer", "role", "bits", "scale", "saturation_count"], rows,
                  {"tensors": rows})
    print(f"quantized {len(model.layers)} layers -> {out / 'quantized_model.bin'}")
    return 0


def cmd_prune(args) -> int:
    cfg = _load_config(args.config, "prune")
    model = load_model(_read_bytes(cfg["model"]))
    schedule = PruneSchedule(**_given(cfg, "fraction_per_iteration",
                                      "iterations", "prune_hyperprior"))
    input_hw = tuple(cfg["input_hw"]) if "input_hw" in cfg else None
    pruned, report = iterative_prune(model, schedule, input_hw=input_hw)

    out = _out_dir(args)
    (out / "pruned_model.bin").write_bytes(save_model(pruned))
    rows = [
        {
            "iteration": r["iteration"],
            "layer": r["layer"],
            "removed_count": len(r["removed"]),
            "removed_indices": ";".join(str(i) for i in r["removed"]),
        }
        for r in report.removals
    ]
    _write_report(out, "prune_report",
                  ["iteration", "layer", "removed_count", "removed_indices"],
                  rows, report.to_json_dict())
    print(f"pruned to {report.params_after} params "
          f"(ratio {report.cumulative_ratio:.6f})")
    return 0


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config, "estimate")
    dpu = _dpu_from(cfg)
    per_core, total = peak_ops_per_cycle(dpu)
    rows = []
    for item in cfg["workloads"]:
        gop = item["gop"]
        per_role = gop if isinstance(gop, dict) else {"total": gop}
        wl = WorkloadProfile.from_gop(per_role)
        est = estimate_fps(dpu, wl)
        rows.append({
            "name": item["name"],
            "workload_gop": wl.total / 1e9,
            "t_compute_s": est.t_compute_s,
            "t_frame_s": est.t_frame_s,
            "fps": est.fps,
        })

    _write_report(_out_dir(args), "estimate_report",
                  ["name", "workload_gop", "t_compute_s", "t_frame_s", "fps"], rows,
                  {"peak_ops_per_cycle": {"per_core": per_core, "total": total},
                   "workload_scale": dpu.workload_scale, "estimates": rows})
    for r in rows:
        print(f"{r['name']}: {r['fps']:.6f} fps")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, "simulate")
    if "scenario" in cfg:
        if "stages" in cfg or "patch_count" in cfg:
            raise ConfigError("give either a scenario or explicit stages")
        stages, patch_count, dpu = student160_encoder_scenario()
        if "dpu" in cfg:
            dpu = _dpu_from(cfg)
    else:
        if "stages" not in cfg or "patch_count" not in cfg:
            raise ConfigError("explicit runs need both stages and patch_count")
        stages = [StageSpec(**s) for s in cfg["stages"]]
        patch_count = cfg["patch_count"]
        dpu = _dpu_from(cfg)

    mode = cfg.get("mode", "both")
    modes = ["sequential", "pipelined"] if mode == "both" else [mode]
    timing = _given(cfg, "launch_overhead_s", "patches_per_frame")
    want_trace = cfg.get("trace", False)

    out = _out_dir(args)
    results = {}
    rows = []
    for m in modes:
        res = simulate(stages, patch_count, dpu, m, collect_trace=want_trace,
                       **timing)
        if want_trace:
            res, trace = res
            _write_csv(out / f"sim_trace_{m}.csv",
                       ["time_s", "core", "stage", "patch"],
                       [{"time_s": t, "core": c, "stage": s, "patch": p}
                        for t, c, s, p in trace])
        results[m] = res.to_json_dict()
        rows.append({
            "mode": m,
            "fps": res.fps,
            "makespan_s": res.makespan_s,
            "busy_fraction": res.busy_fraction,
            "avg_bandwidth_bytes_per_s": res.avg_bandwidth_bytes_per_s,
        })
    report = {"results": results}
    if len(modes) == 2:
        report["pipelined_over_sequential_fps"] = \
            results["pipelined"]["fps"] / results["sequential"]["fps"]
    _write_report(out, "sim_report",
                  ["mode", "fps", "makespan_s", "busy_fraction",
                   "avg_bandwidth_bytes_per_s"], rows, report)
    for r in rows:
        print(f"{r['mode']}: {r['fps']:.6f} fps, "
              f"busy {r['busy_fraction']:.6f}")
    return 0


def cmd_bd_metrics(args) -> int:
    curve_a = read_rd_csv(_read_bytes(args.curve_a).decode("utf-8"))
    curve_b = read_rd_csv(_read_bytes(args.curve_b).decode("utf-8"))
    res = compute_bd_metrics(curve_a, curve_b)
    row = {
        "bd_rate_percent": res.bd_rate_percent,
        "bd_psnr_db": res.bd_psnr_db,
        "log_rate_overlap_lo": res.log_rate_overlap[0],
        "log_rate_overlap_hi": res.log_rate_overlap[1],
        "psnr_overlap_lo": res.psnr_overlap[0],
        "psnr_overlap_hi": res.psnr_overlap[1],
    }
    _write_report(_out_dir(args), "bd_report", list(row), [row], row)
    print(f"bd-rate {res.bd_rate_percent:.6f} % | bd-psnr {res.bd_psnr_db:.6f} dB")
    return 0


def cmd_gdn_bench(args) -> int:
    cfg = _load_config(args.config, "gdn-bench")
    channels = cfg.get("channels", 8)
    samples = cfg.get("samples", 1000)
    seed = cfg.get("seed", 1234)
    low, high = cfg.get("low", -8.0), cfg.get("high", 8.0)
    beta_lo, beta_hi = cfg.get("beta_range", [1.0, 2.0])
    gamma_scale = cfg.get("gamma_scale", 0.1)
    widths = cfg.get("total_bits", [32, 16, 8])
    inverse = cfg.get("inverse", False)

    rng = np.random.default_rng(seed)
    params = GdnParams(
        beta=rng.uniform(beta_lo, beta_hi, channels),
        gamma=rng.uniform(0.0, 1.0, (channels, channels)) * (gamma_scale / channels),
    )
    corpus = Tensor(rng.uniform(low, high, (1, channels, 1, samples))
                    .astype(np.float32))

    rows = []
    stage_detail = {}
    for bits in widths:
        rep = gdn_error_report(params, GdnStageFormats.default(bits), corpus,
                               inverse=inverse)
        rows.append({
            "total_bits": bits,
            "max_abs_error": rep.max_abs_error,
            "mean_abs_error": rep.mean_abs_error,
            "saturated": sum(rep.saturation.values()),
        })
        stage_detail[str(bits)] = {
            "saturation": rep.saturation,
            "stage_contribution": rep.stage_contribution,
        }

    _write_report(_out_dir(args), "gdn_bench",
                  ["total_bits", "max_abs_error", "mean_abs_error", "saturated"],
                  rows, {"rows": rows, "stages": stage_detail,
                         "elements": int(corpus.size)})
    for r in rows:
        print(f"{r['total_bits']}-bit: max err {r['max_abs_error']:.6f}")
    return 0


def cmd_tile(args) -> int:
    cfg = _load_config(args.config, "tile")
    image, kind = _read_image(cfg["image"])
    tiled = tile_to_resolution(image, **_given(cfg, "target_h", "target_w"))
    out = _out_dir(args)
    if kind == "ppm":
        path = out / "tiled.ppm"
        path.write_bytes(write_ppm(tiled))
    else:
        path = out / "tiled.bin"
        path.write_bytes(save_tensor(tiled))
    print(f"tiled to {tiled.h}x{tiled.w} -> {path}")
    return 0


def cmd_kd_loss(args) -> int:
    cfg = _load_config(args.config, "kd-loss")
    phase_weights = {p: KdWeights(**cfg[f"weights_{p}"])
                     for p in ("early", "late") if f"weights_{p}" in cfg}
    schedule = PhaseSchedule(**phase_weights, **_given(
        cfg, "plateau_window", "plateau_threshold", "max_phase_steps"))
    lam = cfg["lambda"]

    rows = []
    history = []
    phase = "early"
    for i, step in enumerate(cfg["steps"]):
        phase, weights = plateau_scheduler(history, schedule, phase)
        br = kd_loss(step["l_latent"], step["l_perceptual"], step["rate"],
                     step["distortion"], lam, weights)
        rows.append({
            "step": i,
            "phase": phase,
            "alpha": weights.alpha,
            "beta": weights.beta,
            "gamma": weights.gamma,
            "l_latent": br.l_latent,
            "l_perceptual": br.l_perceptual,
            "rd": br.rd,
            "total": br.total,
        })
        history.append(step["l_latent"])

    _write_report(_out_dir(args), "kd_report",
                  ["step", "phase", "alpha", "beta", "gamma",
                   "l_latent", "l_perceptual", "rd", "total"],
                  rows, {"lambda": lam, "rows": rows})
    print(f"{len(rows)} steps, final phase {phase}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lic-hw-kit",
        description="Hardware deployment toolkit for learned image compression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, config=True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=True,
                           help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.set_defaults(func=func)
        return p

    add("quantize", cmd_quantize, "post-training quantization of a model file")
    add("prune", cmd_prune, "iterative structured channel pruning")
    add("estimate", cmd_estimate, "analytical fps estimates for workloads")
    add("simulate", cmd_simulate, "sequential vs pipelined patch simulation")
    p_bd = add("bd-metrics", cmd_bd_metrics,
               "Bjontegaard deltas between two RD curves", config=False)
    p_bd.add_argument("curve_a", help="baseline curve csv (bpp, psnr_db)")
    p_bd.add_argument("curve_b", help="comparison curve csv (bpp, psnr_db)")
    add("gdn-bench", cmd_gdn_bench, "fixed-point gdn error benchmark")
    add("tile", cmd_tile, "tile an image to a target resolution")
    add("kd-loss", cmd_kd_loss, "distillation loss breakdown over a step log")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (MissingInputError, FileNotFoundError) as e:
        print(f"missing input: {e}", file=sys.stderr)
        return 3
    except ToolkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
