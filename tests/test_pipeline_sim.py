import math

import pytest

from lic_hw_kit import (
    DpuConfig,
    ParameterError,
    SimResult,
    SimulationError,
    StageSpec,
    partition_stages,
    simulate,
    student160_encoder_scenario,
)
from lic_hw_kit.perf_model import per_core_effective_ops_per_s

STAGE_RATE = per_core_effective_ops_per_s(DpuConfig())


def three_stages(a=0.18e9, b=0.15e9, c=0.14e9, xa=1.6e6, xb=1.3e6):
    return [
        StageSpec("main_encoder", compute_ops=a, intermediate_bytes=xa),
        StageSpec("hyper_encoder", compute_ops=b, intermediate_bytes=xb),
        StageSpec("entropy", compute_ops=c, intermediate_bytes=0.05e6),
    ]


# ---------------------------------------------------------------------------
# Stage specs and partitioning
# ---------------------------------------------------------------------------


def test_stage_spec_validation():
    with pytest.raises(ParameterError):
        StageSpec("embedding", compute_ops=1.0)
    with pytest.raises(ParameterError):
        StageSpec("entropy", compute_ops=0.0)
    with pytest.raises(ParameterError):
        StageSpec("entropy", compute_ops=1.0, intermediate_bytes=-1.0)


def test_partition_balances_largest_group():
    stages = three_stages(a=10.0, b=1.0, c=1.0, xa=0.0, xb=0.0)
    groups = partition_stages(stages, cores=2)
    # splitting after stage 0 leaves max load 10 vs 12 for the other cut
    assert groups == [[0], [1, 2]]


def test_partition_one_group_per_stage_when_cores_allow():
    stages = three_stages()
    groups = partition_stages(stages, cores=3)
    assert groups == [[0], [1], [2]]


def test_partition_single_core_takes_everything():
    stages = three_stages()
    groups = partition_stages(stages, cores=1)
    assert groups == [[0, 1, 2]]


def test_empty_stage_list_rejected():
    with pytest.raises(SimulationError):
        partition_stages([], cores=3)
    with pytest.raises(SimulationError):
        simulate([], 10, DpuConfig(), "pipelined")


# ---------------------------------------------------------------------------
# Hand-checked schedules
# ---------------------------------------------------------------------------


def test_pipelined_tandem_recurrence_by_hand():
    # one stage per core; per-stage times t0 >= t1 >= t2 so the first
    # group is the bottleneck: patch p leaves at (p+1)*t0 + t1 + t2
    stages = three_stages(xa=0.0, xb=0.0)
    t = [s.compute_ops / STAGE_RATE for s in stages]
    P = 7
    res = simulate(stages, P, DpuConfig(), "pipelined")
    expected = P * t[0] + t[1] + t[2]
    assert math.isclose(res.makespan_s, expected, rel_tol=1e-12)
    assert res.partition == [["main_encoder"], ["hyper_encoder"], ["entropy"]]


def test_pipelined_handoffs_do_not_stall():
    # transfer sizes do not enter the pipelined makespan, only the
    # bytes_moved accounting
    base = simulate(three_stages(xa=0.0, xb=0.0), 20, DpuConfig(), "pipelined")
    fat = simulate(three_stages(xa=9e9, xb=9e9), 20, DpuConfig(), "pipelined")
    assert fat.makespan_s == base.makespan_s
    assert fat.bytes_moved > base.bytes_moved


def test_sequential_makespan_by_hand():
    stages = three_stages()
    t = [s.compute_ops / STAGE_RATE for s in stages]
    P, cfg, ovh = 10, DpuConfig(), 5e-4
    res = simulate(stages, P, cfg, "sequential", launch_overhead_s=ovh)
    rounds = math.ceil(P / cfg.cores)
    compute = rounds * sum(t)
    stalls = 2.0 * P * (1.6e6 + 1.3e6) / cfg.mem_bandwidth_bytes_per_s
    expected = 3 * ovh + compute + stalls
    assert math.isclose(res.makespan_s, expected, rel_tol=1e-12)


def test_sequential_counts_write_and_readback_bytes():
    P = 10
    res = simulate(three_stages(), P, DpuConfig(), "sequential")
    assert res.bytes_moved == 2.0 * P * (1.6e6 + 1.3e6)


def test_pipelined_counts_handoff_bytes_once():
    P = 10
    res = simulate(three_stages(), P, DpuConfig(), "pipelined")
    # one group per core on 3 cores: two boundaries, crossed once per patch
    assert res.bytes_moved == P * (1.6e6 + 1.3e6)


# ---------------------------------------------------------------------------
# Work conservation and busy accounting
# ---------------------------------------------------------------------------


def test_busy_time_conserved_across_modes():
    stages = three_stages()
    P = 50
    seq = simulate(stages, P, DpuConfig(), "sequential")
    pipe = simulate(stages, P, DpuConfig(), "pipelined")
    assert math.isclose(sum(seq.busy_per_core), sum(pipe.busy_per_core),
                        rel_tol=1e-12)
    total_ops = P * sum(s.compute_ops for s in stages)
    assert math.isclose(sum(seq.busy_per_core), total_ops / STAGE_RATE,
                        rel_tol=1e-12)


def test_busy_fraction_definition():
    res = simulate(three_stages(), 30, DpuConfig(), "sequential")
    assert math.isclose(
        res.busy_fraction,
        sum(res.busy_per_core) / (res.cores * res.makespan_s),
        rel_tol=1e-12,
    )
    assert 0.0 < res.busy_fraction < 1.0


def test_fps_uses_patches_per_frame():
    stages = three_stages()
    whole = simulate(stages, 200, DpuConfig(), "pipelined")
    framed = simulate(stages, 200, DpuConfig(), "pipelined",
                      patches_per_frame=100)
    assert whole.frames == 1.0
    assert framed.frames == 2.0
    assert math.isclose(framed.fps, 2.0 * whole.fps, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Calibrated scenario
# ---------------------------------------------------------------------------


def test_scenario_speedup_and_busy_ordering():
    stages, patches, cfg = student160_encoder_scenario()
    seq = simulate(stages, patches, cfg, "sequential")
    pipe = simulate(stages, patches, cfg, "pipelined")
    assert 2.0 <= pipe.fps / seq.fps <= 3.0
    assert pipe.busy_fraction > seq.busy_fraction
    assert pipe.fps > seq.fps


def test_scenario_bit_identical_across_runs():
    stages, patches, cfg = student160_encoder_scenario()
    runs = [
        (simulate(stages, patches, cfg, m).to_json_dict()
         for m in ("sequential", "pipelined"))
        for _ in range(3)
    ]
    flat = [tuple(d.items() for d in run) for run in runs]
    assert flat[0] == flat[1] == flat[2]


# ---------------------------------------------------------------------------
# Traces and validation
# ---------------------------------------------------------------------------


def test_trace_rows_cover_every_stage_patch_pair():
    stages = three_stages()
    P = 5
    res, trace = simulate(stages, P, DpuConfig(), "pipelined",
                          collect_trace=True)
    assert isinstance(res, SimResult)
    assert len(trace) == P * len(stages)
    seen = {(row[2], row[3]) for row in trace}
    assert seen == {(s.name, p) for s in stages for p in range(P)}
    times = [row[0] for row in trace]
    assert all(t >= 0.0 for t in times)
    assert max(times) < res.makespan_s


def test_trace_sequential_core_assignment_round_robin():
    stages = three_stages()
    cfg = DpuConfig()
    _, trace = simulate(stages, 7, cfg, "sequential", collect_trace=True)
    for _, core, _, patch in trace:
        assert core == patch % cfg.cores


def test_simulate_validation():
    stages = three_stages()
    with pytest.raises(SimulationError):
        simulate(stages, 0, DpuConfig(), "pipelined")
    with pytest.raises(SimulationError):
        simulate(stages, 10, DpuConfig(), "warp")
    with pytest.raises(SimulationError):
        simulate(stages, 10, DpuConfig(), "sequential", launch_overhead_s=-1.0)
    with pytest.raises(SimulationError):
        simulate(stages, 10, DpuConfig(), "pipelined", patches_per_frame=0)
