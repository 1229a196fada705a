"""Analytical throughput and memory-traffic model for a multi-core DPU.

A core's peak rate is pixel_parallel * input_channel_parallel *
output_channel_parallel MACs per cycle, counted as two operations each.
Frame rate follows from the per-frame workload:

    fps = (cores * peak_ops_per_cycle * freq_hz * eta)
          / (workload_ops * workload_scale)

eta is the sustained-efficiency derate. workload_scale rescales the
nominal workload to what the deployed graph actually executes (patch
overlap, fused ops, compiler differences); 1.0 means take the workload
number at face value.

layer_costs walks a model's extents once and returns one LayerCost row
per layer: its width, ops and map and weight bytes. flops_of is the ops
column and traffic_of_model the weighted rows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .errors import DomainError, ParameterError, integral_bits
from .model import LayerSpec, ModelSpec, layer_extents
from .quantizer import PrecisionPolicy

__all__ = [
    "DpuConfig",
    "peak_ops_per_cycle",
    "FpsEstimate",
    "estimate_fps",
    "LayerTraffic",
    "bandwidth_load",
    "traffic_of_model",
    "WorkloadProfile",
    "LayerCost",
    "layer_costs",
    "FlopsReport",
    "flops_of",
]

# Far above the few DPU cores an FPGA instantiates; the simulator keeps
# one busy counter per core, so the count must stay small enough to list.
MAX_CORES = 1024


@dataclass(frozen=True)
class DpuConfig:
    """Accelerator geometry and operating point."""

    pixel_parallel: int = 8
    input_channel_parallel: int = 16
    output_channel_parallel: int = 16
    cores: int = 3
    freq_hz: float = 300e6
    eta: float = 0.8
    mem_bandwidth_bytes_per_s: float = 19.2e9
    workload_scale: float = 1.0

    def __post_init__(self):
        for name, most in (("pixel_parallel", None), ("input_channel_parallel", None),
                           ("output_channel_parallel", None), ("cores", MAX_CORES)):
            object.__setattr__(self, name,
                               integral_bits(getattr(self, name), name, 1, most))
        if not self.freq_hz > 0:
            raise ParameterError("freq_hz must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ParameterError("eta must lie in (0, 1]")
        if not self.mem_bandwidth_bytes_per_s > 0:
            raise ParameterError("mem_bandwidth_bytes_per_s must be positive")
        if not self.workload_scale > 0:
            raise ParameterError("workload_scale must be positive")
        try:
            rate = effective_ops_per_s(self)
        except OverflowError:  # an int factor past float64
            rate = math.inf
        if not math.isfinite(rate):
            raise ParameterError(
                "the effective rate pixel_parallel * input_channel_parallel * "
                "output_channel_parallel * 2 * cores * freq_hz * eta must be "
                "a finite float"
            )


def peak_ops_per_cycle(cfg: DpuConfig):
    """(per-core, all-cores) peak operations per clock cycle."""
    per_core = (cfg.pixel_parallel * cfg.input_channel_parallel
                * cfg.output_channel_parallel * 2)
    return per_core, per_core * cfg.cores


def effective_ops_per_s(cfg: DpuConfig) -> float:
    _, total = peak_ops_per_cycle(cfg)
    return total * cfg.freq_hz * cfg.eta


def per_core_effective_ops_per_s(cfg: DpuConfig) -> float:
    per_core, _ = peak_ops_per_cycle(cfg)
    return per_core * cfg.freq_hz * cfg.eta


@dataclass(frozen=True)
class WorkloadProfile:
    """Per-frame operation counts keyed by pipeline role."""

    per_role: dict = field(default_factory=dict)

    def __post_init__(self):
        for role, ops in self.per_role.items():
            if not float(ops) >= 0:
                raise ParameterError(f"workload for {role!r} must be >= 0")

    @property
    def total(self) -> float:
        return float(sum(self.per_role.values()))

    @classmethod
    def from_gop(cls, per_role_gop: dict) -> "WorkloadProfile":
        return cls({role: float(g) * 1e9 for role, g in per_role_gop.items()})


@dataclass(frozen=True)
class FpsEstimate:
    t_compute_s: float
    t_frame_s: float
    fps: float


def estimate_fps(cfg: DpuConfig, workload: WorkloadProfile) -> FpsEstimate:
    """Frame rate from compute alone; memory stalls are the simulator's
    domain, and eta is presumed to absorb steady-state inefficiency."""
    ops = workload.total * cfg.workload_scale
    if not ops > 0:
        raise DomainError("workload must contain a positive operation count")
    t_compute = ops / effective_ops_per_s(cfg)
    # a subnormal or zero time has no finite reciprocal fps
    if not t_compute >= sys.float_info.min:
        raise DomainError(f"compute time for {ops} ops underflows")
    if not math.isfinite(t_compute):
        raise DomainError(f"compute time for {ops} ops is not finite")
    return FpsEstimate(t_compute_s=t_compute, t_frame_s=t_compute,
                       fps=1.0 / t_compute)


@dataclass(frozen=True)
class LayerTraffic:
    """Memory traffic terms for one layer: input map + output map +
    weights, each at the layer's bit width.

    h/w are the input extents, n_in/n_out the channel counts, kernel the
    filter size, bits the precision of this layer's data.
    """

    h: int
    w: int
    n_in: int
    n_out: int
    kernel: int
    bits: int

    def __post_init__(self):
        for name in ("h", "w", "n_in", "n_out", "kernel", "bits"):
            object.__setattr__(self, name, integral_bits(getattr(self, name), name, 1))


def bandwidth_load(layers) -> tuple:
    """Total bits and bytes moved per frame across all layers.

    Per layer: H*W*N_in*bits (read the input map) + H*W*N_out*bits
    (write the output map) + N_in*N_out*K^2*bits (fetch weights).
    """
    total_bits = 0
    for t in layers:
        maps = t.h * t.w * (t.n_in + t.n_out)
        weights = t.n_in * t.n_out * t.kernel ** 2
        total_bits += (maps + weights) * t.bits
    return total_bits, total_bits / 8


@dataclass(frozen=True)
class LayerCost:
    """One layer's cost for one image: the LayerSpec itself, its input
    and output extents (h, w), the width ptq quantizes it to, its ops
    (formulas in layer_costs), and the bytes at that width of its input
    map at in_hw, its output map at out_hw and its parameters
    (param_count: bias, beta and gamma included; 0 for relu)."""

    layer: LayerSpec
    in_hw: tuple
    out_hw: tuple
    bits: int
    ops: int
    in_bytes: float
    out_bytes: float
    weight_bytes: float


def layer_costs(model: ModelSpec, input_hw,
                policy: PrecisionPolicy = PrecisionPolicy()) -> list:
    """One LayerCost per layer for one image of extent input_hw, each at
    the width ptq quantizes it to (policy.widths): the one extent walk.

    conv: 2 * H_out * W_out * C_in * C_out * K^2 (multiply + add per MAC:
    every output pixel meets every tap). deconv: 2 * H_in * W_in * C_in *
    C_out * K^2 (every input pixel meets every tap once, whatever the
    output extent; counting at the output extent would overstate a
    stride-s layer by about s^2). gdn/igdn:
    2*H*W*C^2 for the pairwise pool plus 5*H*W*C for square, offset,
    root, divide, and scale. relu: one op per element.
    """
    rows = []
    for (layer, (h, w), (oh, ow)), bits in zip(layer_extents(model, input_hw),
                                               policy.widths(model)):
        c_in, c_out = layer.in_channels, layer.out_channels
        if layer.kind == "conv":
            ops = 2 * oh * ow * c_in * c_out * layer.kernel ** 2
        elif layer.kind == "deconv":
            ops = 2 * h * w * c_in * c_out * layer.kernel ** 2
        elif layer.kind in ("gdn", "igdn"):
            ops = 2 * oh * ow * c_out * c_out + 5 * oh * ow * c_out
        else:
            ops = oh * ow * c_out
        rows.append(LayerCost(layer, (h, w), (oh, ow), bits, ops,
                              in_bytes=h * w * c_in * bits / 8,
                              out_bytes=oh * ow * c_out * bits / 8,
                              weight_bytes=layer.param_count() * bits / 8))
    return rows


@dataclass
class FlopsReport:
    per_layer: list = field(default_factory=list)
    total: int = 0


def flops_of(model: ModelSpec, input_hw) -> FlopsReport:
    """Operation counts per layer for one image of the given extent: the
    ops column of layer_costs."""
    per_layer = [row.ops for row in layer_costs(model, input_hw)]
    return FlopsReport(per_layer=per_layer, total=sum(per_layer))


def traffic_of_model(model: ModelSpec, input_hw,
                     policy: PrecisionPolicy = PrecisionPolicy()):
    """LayerTraffic rows for a model's conv/deconv layers, each at the
    width ptq quantizes it to (policy.widths): layer_costs's weighted
    rows, with the input extent bandwidth_load charges both maps at."""
    return [LayerTraffic(*r.in_hw, r.layer.in_channels, r.layer.out_channels,
                         r.layer.kernel, r.bits)
            for r in layer_costs(model, input_hw, policy) if r.layer.weights is not None]
