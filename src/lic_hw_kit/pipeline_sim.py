"""Sequential-vs-pipelined execution model for patch streams.

Five codec stages process a stream of P patches on a multi-core
accelerator. Both schedules are evaluated in closed form, so the cost
does not grow with P unless a trace is kept:

pipelined
    Stages are statically partitioned across cores (contiguous groups,
    chosen to balance summed compute). The groups form a tandem line
    with constant service times t_g and unlimited buffers: handoffs
    between groups traverse external memory once per patch but never
    stall the line. Group g starts patch p at S_{g-1} + p*M_g, with S
    the running sum and M the running max of the group times, so the
    makespan is sum(t_g) + (P - 1)*max(t_g) and core g is busy P*t_g.

sequential
    One stage at a time owns the whole device; its patches spread over
    all n cores whole-patch data-parallel, so core c runs
    (P - c + n - 1) // n patches of each stage and the stage takes
    ceil(P/n) rounds. A fixed launch overhead is paid per stage, and
    between consecutive stages the intermediate results of every patch
    are written to and read back from external memory at the configured
    bandwidth while the cores sit idle.

Busy time counts compute only, so both schedules conserve work: the sum
of per-core busy seconds is the same in either mode. All arithmetic is
straight float evaluation in a fixed order: results are bit-identical
across runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from itertools import combinations

from .errors import ParameterError, SimulationError, integral_bits
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

# Far above frame-plan's largest trace (600 patches x 3 stages); each row
# is a Python tuple, so a trace of this many rows takes about 115 MB.
MAX_TRACE_ROWS = 10 ** 6


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
        if not self.intermediate_bytes >= 0:
            raise ParameterError(
                f"intermediate_bytes must be >= 0; got {self.intermediate_bytes!r}")


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
    partition: list  # stage names per core

    def to_json_dict(self) -> dict:
        return asdict(self)


def _schedulable(stages) -> list:
    """stages as a list, checked to be non-empty and to name each of the
    five STAGE_NAMES at most once, so a partition scores at most
    C(4, 2) = 6 contiguous splits."""
    stages = list(stages)
    if not stages:
        raise SimulationError("no stages to schedule")
    names = [s.name for s in stages]
    repeated = sorted(n for n in set(names) if names.count(n) > 1)
    if repeated:
        raise SimulationError(
            f"each stage may appear once; repeated: {', '.join(repeated)}")
    return stages


def partition_stages(stages, cores: int):
    """Contiguous stage groups, one per used core.

    Every contiguous split into at most `cores` groups is scored and the
    one minimizing the largest summed compute_ops wins (first such split
    on ties, so the choice is deterministic).
    """
    stages = _schedulable(stages)
    n = len(stages)
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


def _simulate_pipelined(stages, times, P, cores, trace):
    groups = partition_stages(stages, cores)
    group_t = [sum(times[i] for i in g) for g in groups]
    rows = []  # per stage: (start of patch 0, M_g, core, name)
    S = M = 0.0
    for gi, (g, tg) in enumerate(zip(groups, group_t)):
        M = max(M, tg)
        t = S
        for si in g:
            rows.append((t, M, gi, stages[si].name))
            t += times[si]
        S += tg
    if trace is not None:
        trace.extend((t + p * m, gi, name, p)
                     for p in range(P) for t, m, gi, name in rows)
    busy = [P * tg for tg in group_t] + [0.0] * (cores - len(groups))
    # handoff between groups crosses external memory once per patch
    handoff = float(sum(stages[g[-1]].intermediate_bytes for g in groups[:-1]))
    partition = [[stages[i].name for i in g] for g in groups]
    return S + (P - 1) * M, busy, handoff * P, partition


def _simulate_sequential(stages, times, P, cfg, launch_overhead_s, trace):
    n = cfg.cores
    runs = [(P - c + n - 1) // n for c in range(n)]  # patches per core
    busy = [0.0] * n
    now = 0.0
    bytes_moved = 0.0
    for si, (stage, t) in enumerate(zip(stages, times)):
        now += launch_overhead_s
        if trace is not None:
            trace.extend((now + (p // n) * t, p % n, stage.name, p)
                         for p in range(P))
        busy = [b + k * t for b, k in zip(busy, runs)]
        now += runs[0] * t  # core 0 runs the most rounds
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
    patch) start events. patch_count must lie in [1, 2**53], where a
    float64 still holds it exactly, and a trace at most MAX_TRACE_ROWS
    rows; past either bound SimulationError is raised.
    """
    stages = _schedulable(stages)
    patch_count = integral_bits(patch_count, "patch_count")
    if not 1 <= patch_count <= 2 ** 53:
        raise SimulationError("patch_count must be in [1, 2**53]")
    if collect_trace and len(stages) * patch_count > MAX_TRACE_ROWS:
        raise SimulationError(
            f"a trace of {len(stages)} stages x {patch_count} patches "
            f"exceeds {MAX_TRACE_ROWS} rows")
    if not launch_overhead_s >= 0:
        raise SimulationError(
            f"launch_overhead_s must be >= 0; got {launch_overhead_s!r}")
    if patches_per_frame is None:
        patches_per_frame = patch_count
    patches_per_frame = integral_bits(patches_per_frame, "patches_per_frame")
    if patches_per_frame < 1:
        raise SimulationError("patches_per_frame must be >= 1")

    rate = per_core_effective_ops_per_s(cfg)
    times = [s.compute_ops / rate for s in stages]
    trace = [] if collect_trace else None
    if mode == "pipelined":
        out = _simulate_pipelined(stages, times, patch_count, cfg.cores, trace)
    elif mode == "sequential":
        out = _simulate_sequential(stages, times, patch_count, cfg,
                                   launch_overhead_s, trace)
    else:
        raise SimulationError(f"unknown mode {mode!r}")
    makespan, busy, bytes_moved, partition = out

    # a subnormal or zero makespan gives no finite fps
    if not makespan >= sys.float_info.min:
        raise SimulationError(f"{mode} makespan underflows")
    frames = patch_count / patches_per_frame
    fps = frames / makespan
    if not (math.isfinite(makespan) and math.isfinite(bytes_moved)
            and 0 < fps < math.inf):
        raise SimulationError(
            f"{mode} schedule gives a makespan of {makespan} s, {bytes_moved} "
            f"bytes moved and {fps} fps; all must be finite and fps > 0")
    result = SimResult(
        mode=mode,
        fps=fps,
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

    Costs are per 256x256 patch at stride 56. Returns (stages,
    patch_count, cfg) for one 1280x720 frame of 200 overlapping patches;
    at that stride they cover 14.2x the frame's pixels.
    """
    stages = [
        StageSpec("main_encoder", compute_ops=0.18e9, intermediate_bytes=1.6e6),
        StageSpec("hyper_encoder", compute_ops=0.15e9, intermediate_bytes=1.3e6),
        StageSpec("entropy", compute_ops=0.14e9, intermediate_bytes=0.05e6),
    ]
    return stages, 200, DpuConfig()
