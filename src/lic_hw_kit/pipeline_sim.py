"""Sequential-vs-pipelined execution model for patch streams.

Five codec stages process a stream of P patches on a multi-core
accelerator. Two schedules are modeled:

pipelined
    Stages are statically partitioned across cores (contiguous groups,
    chosen to balance summed compute). Patches flow through the groups
    as a tandem queue with unlimited buffering; handoffs between groups
    traverse external memory once per patch but never stall the line.

sequential
    One stage at a time owns the whole device; its patches spread over
    all cores whole-patch data-parallel. A fixed launch overhead is paid
    per stage, and between consecutive stages the intermediate results
    of every patch are written to and read back from external memory at
    the configured bandwidth while the cores sit idle.

Busy time counts compute only, so both schedules conserve work: the sum
of per-core busy seconds is the same in either mode. All arithmetic is
straight float evaluation in a fixed order: results are bit-identical
across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import ceil

from .errors import ParameterError, SimulationError
from .perf_model import DpuConfig, per_core_effective_ops_per_s

__all__ = [
    "STAGE_NAMES",
    "StageSpec",
    "SimResult",
    "partition_stages",
    "simulate",
    "student160_encoder_scenario",
]

STAGE_NAMES = (
    "main_encoder",
    "hyper_encoder",
    "entropy",
    "hyper_decoder",
    "main_decoder",
)


@dataclass(frozen=True)
class StageSpec:
    """One codec stage: per-patch compute and per-patch output size."""

    name: str
    compute_ops: float
    intermediate_bytes: float = 0.0

    def __post_init__(self):
        if self.name not in STAGE_NAMES:
            raise ParameterError(
                f"stage name must be one of {STAGE_NAMES}; got {self.name!r}"
            )
        if not self.compute_ops > 0:
            raise ParameterError("compute_ops must be positive")
        if self.intermediate_bytes < 0:
            raise ParameterError("intermediate_bytes must be >= 0")


@dataclass
class SimResult:
    mode: str
    fps: float
    makespan_s: float
    frames: float
    cores: int
    busy_per_core: list
    busy_fraction: float
    bytes_moved: float
    avg_bandwidth_bytes_per_s: float
    partition: list = field(default_factory=list)  # stage names per core

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "fps": self.fps,
            "makespan_s": self.makespan_s,
            "frames": self.frames,
            "cores": self.cores,
            "busy_per_core": list(self.busy_per_core),
            "busy_fraction": self.busy_fraction,
            "bytes_moved": self.bytes_moved,
            "avg_bandwidth_bytes_per_s": self.avg_bandwidth_bytes_per_s,
            "partition": [list(g) for g in self.partition],
        }


def partition_stages(stages, cores: int):
    """Contiguous stage groups, one per used core.

    Every contiguous split into at most `cores` groups is scored and the
    one minimizing the largest summed compute_ops wins (first such split
    on ties, so the choice is deterministic).
    """
    n = len(stages)
    if n == 0:
        raise SimulationError("no stages to schedule")
    k = min(cores, n)
    best = None
    best_load = None
    for cuts in combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        groups = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        load = max(sum(stages[i].compute_ops for i in g) for g in groups)
        if best_load is None or load < best_load:
            best, best_load = groups, load
    return best


def _stage_times(stages, cfg):
    rate = per_core_effective_ops_per_s(cfg)
    return [s.compute_ops / rate for s in stages]


def _simulate_pipelined(stages, P, cfg, trace):
    times = _stage_times(stages, cfg)
    groups = partition_stages(stages, cfg.cores)
    group_t = [sum(times[i] for i in g) for g in groups]
    ncores = cfg.cores

    finish_prev_patch = [0.0] * len(groups)
    makespan = 0.0
    for p in range(P):
        upstream = 0.0
        for gi, g in enumerate(groups):
            start = max(upstream, finish_prev_patch[gi])
            if trace is not None:
                t = start
                for si in g:
                    trace.append((t, gi, stages[si].name, p))
                    t += times[si]
            end = start + group_t[gi]
            finish_prev_patch[gi] = end
            upstream = end
        makespan = upstream

    busy = [0.0] * ncores
    for gi in range(len(groups)):
        busy[gi] = P * group_t[gi]
    # handoff between groups crosses external memory once per patch
    bytes_moved = float(sum(
        stages[g[-1]].intermediate_bytes for g in groups[:-1]
    )) * P
    return makespan, busy, bytes_moved, [
        [stages[i].name for i in g] for g in groups
    ]


def _simulate_sequential(stages, P, cfg, launch_overhead_s, trace):
    times = _stage_times(stages, cfg)
    ncores = cfg.cores
    busy = [0.0] * ncores
    now = 0.0
    bytes_moved = 0.0
    for si, stage in enumerate(stages):
        now += launch_overhead_s
        rounds = ceil(P / ncores)
        for p in range(P):
            core = p % ncores
            slot = p // ncores
            if trace is not None:
                trace.append((now + slot * times[si], core, stage.name, p))
            busy[core] += times[si]
        now += rounds * times[si]
        if si < len(stages) - 1:
            nbytes = stage.intermediate_bytes * P
            bytes_moved += 2.0 * nbytes  # write out, read back
            now += 2.0 * nbytes / cfg.mem_bandwidth_bytes_per_s
    return now, busy, bytes_moved, [[s.name for s in stages]]


def simulate(stages, patch_count: int, cfg: DpuConfig, mode: str,
             launch_overhead_s: float = 5e-4, patches_per_frame=None,
             collect_trace: bool = False):
    """Run one schedule over a patch stream.

    fps normalizes the makespan to frames of `patches_per_frame` patches
    (the whole stream is one frame by default). With collect_trace=True
    returns (SimResult, trace) where trace rows are (time, core, stage,
    patch) start events.
    """
    stages = list(stages)
    if not stages:
        raise SimulationError("no stages to schedule")
    if patch_count < 1:
        raise SimulationError("patch_count must be >= 1")
    if launch_overhead_s < 0:
        raise SimulationError("launch_overhead_s must be >= 0")
    if patches_per_frame is None:
        patches_per_frame = patch_count
    if patches_per_frame < 1:
        raise SimulationError("patches_per_frame must be >= 1")

    trace = [] if collect_trace else None
    if mode == "pipelined":
        makespan, busy, bytes_moved, partition = _simulate_pipelined(
            stages, patch_count, cfg, trace
        )
    elif mode == "sequential":
        makespan, busy, bytes_moved, partition = _simulate_sequential(
            stages, patch_count, cfg, launch_overhead_s, trace
        )
    else:
        raise SimulationError(f"unknown mode {mode!r}")

    frames = patch_count / patches_per_frame
    result = SimResult(
        mode=mode,
        fps=frames / makespan,
        makespan_s=makespan,
        frames=frames,
        cores=cfg.cores,
        busy_per_core=busy,
        busy_fraction=sum(busy) / (cfg.cores * makespan),
        bytes_moved=bytes_moved,
        avg_bandwidth_bytes_per_s=bytes_moved / makespan,
        partition=partition,
    )
    return (result, trace) if collect_trace else result


def student160_encoder_scenario():
    """Encoder-side scenario calibrated against measured deployments.

    Per-patch stage costs and transfer sizes are tuned so the sequential
    schedule lands near the measured sequential frame rate and busy
    fraction of the reference encoder on the stock 3-core configuration;
    the pipelined schedule then shows the observed 2-3x gap. Transfer
    sizes correspond to mid-stack int8 feature maps (roughly 1.5 MB per
    256x256 patch), which sequential execution spills per patch.

    Returns (stages, patch_count, cfg) for a 1280x720 frame of 200
    overlapping 256-pixel patches at stride 56.
    """
    stages = [
        StageSpec("main_encoder", compute_ops=0.18e9, intermediate_bytes=1.6e6),
        StageSpec("hyper_encoder", compute_ops=0.15e9, intermediate_bytes=1.3e6),
        StageSpec("entropy", compute_ops=0.14e9, intermediate_bytes=0.05e6),
    ]
    return stages, 200, DpuConfig()
