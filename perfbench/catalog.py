"""Every metric the benchmark reports: unit, direction, owner and target.

END_TO_END metrics are reported by every workload with tracing off.
PER_LAYER metrics come from the traced run. Each one belongs to the
workload that loads its layer (`owner`) and names the end-to-end metric
it should move there (`moves`). A traced run of another workload still
reports it, measured on a small probe of the owning workload, so every
per-layer value is a real measurement on every workload.

Units: "abs" is an absolute error in the signal's own units; GOP and
GFLOP/s count one multiply and one add as two operations; "us" is
microseconds; byte counts and rates are computed from array sizes,
not measured at the memory bus.
"""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "max_abs_err": "abs",
}

CODEC, GDN, FRAME, ANY = "codec-ptq", "gdn-fixed", "frame-plan", "*"
WALL, CPU, RSS, ERR, SETUP = "wall_s", "cpu_s", "peak_rss_mb", "max_abs_err", "setup_s"
MODELLED = "none (modelled device number)"

# name: (unit, better, owner, moves)
PER_LAYER = {
    "model.conv2d_forward.s": ("s", "lower", CODEC, f"{WALL},{CPU},{RSS}"),
    "model.conv2d_forward.calls": ("count", "lower", CODEC, WALL),
    "model.conv2d_forward.gflop_per_s": ("GFLOP/s", "higher", CODEC, f"{WALL},{CPU}"),
    "model.conv2d_forward.gop": ("GOP", "lower", CODEC, WALL),
    "model.conv2d_forward.flops_of_gop": ("GOP", "lower", CODEC, MODELLED),
    "model.deconv2d_forward.s": ("s", "lower", CODEC, f"{WALL},{CPU},{RSS}"),
    "model.deconv2d_forward.calls": ("count", "lower", CODEC, WALL),
    "model.deconv2d_forward.gflop_per_s": ("GFLOP/s", "higher", CODEC, f"{WALL},{CPU}"),
    "model.deconv2d_forward.gop": ("GOP", "lower", CODEC, WALL),
    "model.deconv2d_forward.flops_of_gop": ("GOP", "lower", CODEC, MODELLED),
    "gdn.gdn_float.s": ("s", "lower", CODEC, WALL),
    "gdn.igdn_float.s": ("s", "lower", CODEC, WALL),
    "model.model_forward.s": ("s", "lower", CODEC, WALL),
    "quantizer.calibrate.s": ("s", "lower", CODEC, WALL),
    "quantizer.ptq.s": ("s", "lower", CODEC, WALL),
    "quantizer.dequantize_model.s": ("s", "lower", CODEC, WALL),
    "quantizer.fake_quant_forward.s": ("s", "lower", CODEC, WALL),
    "quantizer.ptq.saturated": ("count", "lower", CODEC, ERR),
    "quantizer.fake_quant_forward.recon_err": ("abs", "lower", CODEC, ERR),
    "model_io.save_model.s": ("s", "lower", CODEC, WALL),
    "model_io.load_model.s": ("s", "lower", CODEC, WALL),
    "model_io.save_quantized_model.s": ("s", "lower", CODEC, WALL),
    "model_io.load_quantized_model.s": ("s", "lower", CODEC, WALL),
    "model_io.bytes": ("B", "lower", CODEC, WALL),
    "gdn.gdn_fixed.s.8": ("s", "lower", GDN, f"{WALL},{CPU}"),
    "gdn.gdn_fixed.s.16": ("s", "lower", GDN, f"{WALL},{CPU}"),
    "gdn.gdn_fixed.s.32": ("s", "lower", GDN, f"{WALL},{CPU}"),
    "gdn.igdn_fixed.s.8": ("s", "lower", GDN, f"{WALL},{CPU}"),
    "gdn.igdn_fixed.s.16": ("s", "lower", GDN, f"{WALL},{CPU}"),
    "gdn.igdn_fixed.s.32": ("s", "lower", GDN, f"{WALL},{CPU}"),
    "gdn.fixed.melem_per_s": ("Melem/s", "higher", GDN, f"{WALL},{CPU}"),
    "gdn.gdn_error_report.s": ("s", "lower", GDN, f"{WALL},{RSS}"),
    "gdn.err.8": ("abs", "lower", GDN, ERR),
    "gdn.err.16": ("abs", "lower", GDN, ERR),
    "gdn.err.32": ("abs", "lower", GDN, ERR),
    "gdn.saturated.8": ("count", "lower", GDN, ERR),
    "gdn.saturated.16": ("count", "lower", GDN, ERR),
    "gdn.saturated.32": ("count", "lower", GDN, ERR),
    "fixed_point.shift_round.s": ("s", "lower", GDN, WALL),
    "fixed_point.to_fixed.s": ("s", "lower", GDN, WALL),
    "fixed_point.sqrt_lut_eval.s": ("s", "lower", GDN, WALL),
    "fixed_point.reciprocal_fixed.s": ("s", "lower", GDN, WALL),
    "fixed_point.build_sqrt_lut.s": ("s", "lower", GDN, SETUP),
    "patching.tile_to_resolution.s": ("s", "lower", FRAME, f"{WALL},{RSS}"),
    "patching.extract_patches.s": ("s", "lower", FRAME, f"{WALL},{RSS}"),
    "patching.reassemble.s": ("s", "lower", FRAME, f"{WALL},{RSS}"),
    "patching.patches": ("count", "lower", FRAME, WALL),
    "patching.gb_per_s": ("GB/s", "higher", FRAME, WALL),
    "pruning.iterative_prune.s": ("s", "lower", FRAME, WALL),
    "pruning.filters_removed": ("count", "higher", FRAME, WALL),
    "perf_model.s": ("s", "lower", FRAME, WALL),
    "pipeline_sim.simulate.s": ("s", "lower", FRAME, WALL),
    "pipeline_sim.events": ("count", "lower", FRAME, WALL),
    "pipeline_sim.us_per_event": ("us", "lower", FRAME, WALL),
    "perf_model.est_fps": ("fps", "higher", FRAME, MODELLED),
    "perf_model.bytes_per_frame": ("B", "lower", FRAME, MODELLED),
    "pipeline_sim.sequential.fps": ("fps", "higher", FRAME, MODELLED),
    "pipeline_sim.pipelined.fps": ("fps", "higher", FRAME, MODELLED),
    "pipeline_sim.speedup": ("ratio", "higher", FRAME, MODELLED),
    "pipeline_sim.pipelined.bytes_moved": ("B", "lower", FRAME, MODELLED),
    # how much of the traced unit the layer spans explain, for the run's
    # own workload
    "trace.wall_s": ("s", "lower", ANY, WALL),
    "trace.layers_s": ("s", "lower", ANY, WALL),
    "trace.remainder_s": ("s", "lower", ANY, WALL),
    "trace.overhead_s": ("s", "lower", ANY, WALL),
}
