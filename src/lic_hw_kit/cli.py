"""Command-line front end.

    lic-hw-kit <subcommand> --config <file.json> [--out <dir>]

A schema states each config's keys (unknown keys are rejected), types
and required keys, and refuses an integer too large for a float64 at a
number-typed key; ranges come from the library. The keys and types of
library objects come from their dataclass fields (_config, _fields), so
a field added to one is a config key with no edit here. Each command
builds its library objects through _build before reading any input file,
so a setting out of a constructor's range is a config error that names
it. The schema keeps a bound only where the library would report it as a
computation failure (prune's schedule, the scalar gop and plain function
arguments) and for gdn-bench, which has no library counterpart and keeps
defaults of its own (its widths are those GdnStageFormats.default
accepts, and its corpus a budget of elements); any other key left out
takes the default of the library call it feeds. Reports are CSV and JSON
side by side (CSV floats at 6 fixed decimals, JSON at full precision),
so reruns on identical inputs are byte-identical.

Exit codes: 0 success, 2 config error (a setting outside the library's
range included), 3 missing input file, 4 numeric or format failure
during computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import jsonschema
import numpy as np

from .bd_metrics import bd_metrics as compute_bd_metrics
from .bd_metrics import read_rd_csv
from .errors import (
    ConfigError,
    MalformedHeaderError,
    MissingInputError,
    ParameterError,
    ToolkitError,
    TruncatedPayloadError,
    integral_bits,
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

_INT = {"type": "integer"}
# json reads 1e400 as inf but keeps 10**400 an exact int, which no float
# arithmetic takes; every number-typed key refuses such an int here
_NUMBER = {"type": "number", "format": "float64"}
_STR = {"type": "string"}
_BOOL = {"type": "boolean"}
_COUNT = {**_INT, "minimum": 1}
_TYPES = {int: _INT, float: _NUMBER, bool: _BOOL, str: _STR}
_FORMATS = jsonschema.FormatChecker(formats=())
# gdn-bench draws channels**2 gamma entries and channels * samples corpus
# values; its error report keeps several float64 copies of the corpus, so
# this many elements peak near 0.7 GB and take 6-20 s on a 2-CPU machine
_BENCH_ELEMENTS = 2 ** 22


@_FORMATS.checks("float64", raises=OverflowError)
def _fits_float64(value) -> bool:
    if isinstance(value, int):
        float(value)
    return True


def _object(properties: dict, required=()) -> dict:
    """A closed object: keys outside properties are rejected."""
    given = {"required": list(required)} if required else {}
    return {"type": "object", "additionalProperties": False, **given,
            "properties": properties}


def _list(items: dict, least=1, most=None) -> dict:
    most = {} if most is None else {"maxItems": most}
    return {"type": "array", "minItems": least, **most, "items": items}


def _names(cls) -> list:
    return [f.name for f in dataclasses.fields(cls)]


def _fields(cls, skip=(), **given) -> dict:
    """{field: schema} of a dataclass in field order, typed from its
    annotations; given replaces a field's schema and skip drops fields.
    A field of any other type raises, so no key leaves the schema unseen."""
    hints = typing.get_type_hints(cls)
    schemas = {n: given.get(n, _TYPES.get(hints[n]))
               for n in _names(cls) if n not in skip}
    untyped = [n for n, schema in schemas.items() if schema is None]
    if untyped:
        raise TypeError(f"no config type for {cls.__name__} fields {untyped}")
    return schemas


def _config(cls) -> dict:
    """The config object of a dataclass: fields without a default are required."""
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is f.default_factory is dataclasses.MISSING]
    return _object(_fields(cls), required)


_STEP_KEYS = ["l_latent", "l_perceptual", "rate", "distortion"]  # kd_loss's arguments
_DPU_SCHEMA = _config(DpuConfig)
_WEIGHTS_SCHEMA = _config(KdWeights)

SCHEMAS = {
    "quantize": _object({
        "model": _STR,
        "calibration": _list(_STR),
        "policy": _object(_fields(PrecisionPolicy, overrides={
            "type": "object",
            "patternProperties": {r"^\d+$": _INT},
            "additionalProperties": False,
        })),
    }, ["model", "calibration"]),
    "prune": _object({
        "model": _STR,
        # PruneSchedule's ParameterError is a computation failure (exit 4)
        **_fields(PruneSchedule, iterations=_COUNT, fraction_per_iteration={
            **_NUMBER, "minimum": 0, "exclusiveMaximum": 1}),
        "input_hw": _list(_COUNT, 2, 2),
    }, ["model"]),
    "estimate": _object({
        "dpu": _DPU_SCHEMA,
        "workloads": _list(_object({
            "name": _STR,
            "gop": {"anyOf": [
                {**_NUMBER, "exclusiveMinimum": 0},
                {"type": "object", "minProperties": 1, "additionalProperties": _NUMBER},
            ]},
        }, ["name", "gop"])),
    }, ["workloads"]),
    "simulate": _object({
        "dpu": _DPU_SCHEMA,
        "scenario": {**_STR, "enum": ["student160_encoder"]},
        "stages": _list(_config(StageSpec)),
        "patch_count": _COUNT,
        "patches_per_frame": _COUNT,
        "mode": {**_STR, "enum": ["sequential", "pipelined", "both"]},
        "launch_overhead_s": {**_NUMBER, "minimum": 0},
        "trace": _BOOL,
    }),
    "gdn-bench": _object({
        "channels": _COUNT,
        "samples": _COUNT,
        "seed": {**_INT, "minimum": 0},
        "low": _NUMBER,
        "high": _NUMBER,
        "beta_range": _list({**_NUMBER, "exclusiveMinimum": 0}, 2, 2),
        "gamma_scale": {**_NUMBER, "minimum": 0},
        "total_bits": _list(_INT),
        "inverse": _BOOL,
    }),
    "tile": _object({"image": _STR, "target_h": _COUNT, "target_w": _COUNT},
                    ["image"]),
    "kd-loss": _object({
        "lambda": {**_NUMBER, "minimum": 0},
        "weights_early": _WEIGHTS_SCHEMA,
        "weights_late": _WEIGHTS_SCHEMA,
        **_fields(PhaseSchedule, skip=("early", "late")),  # the weights_* keys
        "steps": _list(_object(dict.fromkeys(_STEP_KEYS, _NUMBER), _STEP_KEYS)),
    }, ["lambda", "steps"]),
}


def _load_config(path: str, schema_name: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise MissingInputError(f"config file not found: {path}")
    try:
        cfg = json.loads(p.read_bytes())
    except ValueError as e:  # bad UTF-8, bad JSON or an over-long integer
        raise ConfigError(f"config is not valid JSON: {e}") from e
    try:
        jsonschema.validate(cfg, SCHEMAS[schema_name], format_checker=_FORMATS)
    except jsonschema.ValidationError as e:
        why = (f"{e.json_path} is an integer too large for a float64"
               if e.validator == "format" else e.message)
        raise ConfigError(f"config rejected: {why}") from e
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


def _build(make, *args, **kwargs):
    """make(*args, **kwargs), whose ParameterError (a config value out of
    the library's range) becomes a ConfigError that names the setting."""
    try:
        return make(*args, **kwargs)
    except ParameterError as e:
        raise ConfigError(str(e)) from e


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


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


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
    try:
        arr = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    except ValueError as e:  # a zero width with a height numpy cannot index
        raise MalformedHeaderError(f"ppm extent {w}x{h} is too large: {e}") from e
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
    pol = dict(cfg.get("policy", {}))
    if "overrides" in pol:
        pol["overrides"] = {int(k): v for k, v in pol["overrides"].items()}
    policy = _build(PrecisionPolicy, **pol)
    model = load_model(_read_bytes(cfg["model"]))
    calib = [load_tensor(_read_bytes(p)) for p in cfg["calibration"]]
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
    schedule = PruneSchedule(**_given(cfg, *_names(PruneSchedule)))
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
    dpu = _build(DpuConfig, **cfg.get("dpu", {}))
    gops = [item["gop"] for item in cfg["workloads"]]
    profiles = [_build(WorkloadProfile.from_gop,
                       g if isinstance(g, dict) else {"total": g}) for g in gops]
    per_core, total = peak_ops_per_cycle(dpu)
    rows = []
    for item, wl in zip(cfg["workloads"], profiles):
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
            dpu = _build(DpuConfig, **cfg["dpu"])
    else:
        if "stages" not in cfg or "patch_count" not in cfg:
            raise ConfigError("explicit runs need both stages and patch_count")
        stages = [_build(StageSpec, **s) for s in cfg["stages"]]
        patch_count = cfg["patch_count"]
        dpu = _build(DpuConfig, **cfg.get("dpu", {}))

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
    curve_a = read_rd_csv(_read_bytes(args.curve_a))
    curve_b = read_rd_csv(_read_bytes(args.curve_b))
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
    channels = integral_bits(cfg.get("channels", 8), "channels")
    samples = integral_bits(cfg.get("samples", 1000), "samples")
    for key, n in (("channels", channels), ("samples", samples)):
        if channels * n > _BENCH_ELEMENTS:
            raise ConfigError(f"gdn-bench needs channels * {key} <= "
                              f"{_BENCH_ELEMENTS}; got {channels} * {n}")
    seed = integral_bits(cfg.get("seed", 1234), "seed")
    low, high = cfg.get("low", -8.0), cfg.get("high", 8.0)
    beta_lo, beta_hi = cfg.get("beta_range", [1.0, 2.0])
    gamma_scale = cfg.get("gamma_scale", 0.1)
    widths = [integral_bits(b) for b in cfg.get("total_bits", [32, 16, 8])]
    formats = [_build(GdnStageFormats.default, b) for b in widths]
    inverse = cfg.get("inverse", False)
    f32_max = float(np.finfo(np.float32).max)
    if not (-f32_max <= low <= high <= f32_max and beta_lo <= beta_hi):
        raise ConfigError("gdn-bench needs low <= high within float32 range "
                          "and beta_range ascending")

    rng = np.random.default_rng(seed)
    params = GdnParams(
        beta=rng.uniform(beta_lo, beta_hi, channels),
        gamma=rng.uniform(0.0, 1.0, (channels, channels)) * (gamma_scale / channels),
    )
    corpus = Tensor(rng.uniform(low, high, (1, channels, 1, samples))
                    .astype(np.float32))

    rows = []
    stage_detail = {}
    for bits, fmts in zip(widths, formats):
        rep = gdn_error_report(params, fmts, corpus, inverse=inverse)
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
    phase_weights = {p: _build(KdWeights, **cfg[f"weights_{p}"])
                     for p in ("early", "late") if f"weights_{p}" in cfg}
    # early and late are the weights_* keys, which _given never finds
    schedule = _build(PhaseSchedule, **phase_weights,
                      **_given(cfg, *_names(PhaseSchedule)))
    lam = cfg["lambda"]

    rows = []
    history = []
    phase = "early"
    for i, step in enumerate(cfg["steps"]):
        phase, weights = plateau_scheduler(history, schedule, phase)
        br = kd_loss(*(step[k] for k in _STEP_KEYS), lam, weights)
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
