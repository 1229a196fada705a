"""Differential tests: the closed-form simulator against the per-patch
loops it replaced.

The oracles below are the package's earlier schedule loops, kept
verbatim: the pipelined one replays the tandem recurrence
start = max(upstream finish, own previous finish) patch by patch, and
the sequential one hands each patch of each stage to core p % n and adds
its time to that core's busy counter. The closed forms reorder the float
arithmetic, so results agree to a relative 1e-12 rather than bit for bit;
partitions, trace order, cores, stages and patches agree exactly.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from lic_hw_kit import (
    STAGE_NAMES,
    DpuConfig,
    SimResult,
    StageSpec,
    partition_stages,
    simulate,
)
from lic_hw_kit.perf_model import per_core_effective_ops_per_s

REL = 1e-12


def _stage_times(stages, cfg):
    rate = per_core_effective_ops_per_s(cfg)
    return [s.compute_ops / rate for s in stages]


def oracle_pipelined(stages, P, cfg, trace):
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


def oracle_sequential(stages, P, cfg, launch_overhead_s, trace):
    times = _stage_times(stages, cfg)
    ncores = cfg.cores
    busy = [0.0] * ncores
    now = 0.0
    bytes_moved = 0.0
    for si, stage in enumerate(stages):
        now += launch_overhead_s
        rounds = math.ceil(P / ncores)
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


def oracle_simulate(stages, P, cfg, mode, launch_overhead_s, trace):
    """SimResult from the loops, derived the way `simulate` derives it."""
    if mode == "pipelined":
        out = oracle_pipelined(stages, P, cfg, trace)
    else:
        out = oracle_sequential(stages, P, cfg, launch_overhead_s, trace)
    makespan, busy, bytes_moved, partition = out
    return SimResult(
        mode=mode, fps=1.0 / makespan, makespan_s=makespan, frames=1.0,
        cores=cfg.cores, busy_per_core=busy,
        busy_fraction=sum(busy) / (cfg.cores * makespan),
        bytes_moved=bytes_moved,
        avg_bandwidth_bytes_per_s=bytes_moved / makespan,
        partition=partition,
    )


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL)


_STAGES = st.integers(1, len(STAGE_NAMES)).flatmap(lambda k: st.tuples(
    st.permutations(STAGE_NAMES).map(lambda names: names[:k]),
    st.lists(st.floats(1e6, 1e10), min_size=k, max_size=k),
    st.lists(st.sampled_from([0.0, 1e3, 2.5e5, 1.6e6, 3e7]),
             min_size=k, max_size=k),
)).map(lambda t: [StageSpec(n, c, x) for n, c, x in zip(*t)])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(stages=_STAGES, cores=st.integers(1, 6), patches=st.integers(1, 300),
       mode=st.sampled_from(["pipelined", "sequential"]),
       overhead=st.sampled_from([0.0, 5e-4, 3e-2]), traced=st.booleans())
@example(stages=[StageSpec("entropy", 1e8, 1e6)], cores=6, patches=5,
         mode="pipelined", overhead=5e-4, traced=True)
@example(stages=[StageSpec("entropy", 1e8, 1e6)], cores=6, patches=5,
         mode="sequential", overhead=5e-4, traced=True)
@example(stages=[StageSpec(n, 1e8 + i, 1e6) for i, n in enumerate(STAGE_NAMES)],
         cores=2, patches=300, mode="pipelined", overhead=0.0, traced=True)
def test_closed_form_matches_the_schedule_loops(stages, cores, patches, mode,
                                                overhead, traced):
    cfg = DpuConfig(cores=cores)
    want_trace = [] if traced else None
    want = oracle_simulate(stages, patches, cfg, mode, overhead, want_trace)
    got = simulate(stages, patches, cfg, mode, launch_overhead_s=overhead,
                   collect_trace=traced)
    if traced:
        got, got_trace = got
        assert len(got_trace) == len(want_trace)
        for g, w in zip(got_trace, want_trace):
            assert g[1:] == w[1:]
            assert [type(v) for v in g] == [type(v) for v in w]
            assert _close(g[0], w[0]), (g, w)
    assert isinstance(got, SimResult)
    got, want = got.to_json_dict(), want.to_json_dict()
    assert got.keys() == want.keys()
    assert got["partition"] == want["partition"]
    assert (got["mode"], got["cores"]) == (want["mode"], want["cores"])
    assert len(got["busy_per_core"]) == len(want["busy_per_core"]) == cores
    assert all(_close(g, w) for g, w in zip(got["busy_per_core"],
                                            want["busy_per_core"]))
    for key in ("fps", "makespan_s", "frames", "busy_fraction", "bytes_moved",
                "avg_bandwidth_bytes_per_s"):
        assert _close(got[key], want[key]), key
