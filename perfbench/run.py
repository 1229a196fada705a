#!/usr/bin/env python3
"""lic-hw-kit benchmark.

    python3 perfbench/run.py --workload codec-ptq --seed 1 --seconds 40 --trace 0

Run from the repository root. Workloads: codec-ptq, gdn-fixed,
frame-plan (see workloads.py). Each run is a closed loop of units of
work in one worker process, so peak_rss_mb is that workload's own high
water mark; BLAS threads are pinned to the CPUs this process may use.

--trace 0 prints the end-to-end metrics (setup_s is the median CPU
time of several set-ups, each in a fresh process). Every run starts
with one untimed warm-up unit, whose outputs are checked like the
others. --trace 1 then alternates traced and untraced units, starting
traced, and prints the per-layer metrics of catalog.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it holds the
environment, the wall/cpu samples, every check and a SHA-256 digest of
each deterministic output; the same record, and in traced runs every
span, is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("codec-ptq", "gdn-fixed", "frame-plan")
SETUP_PROBES = 4  # fresh-process set-ups per untraced run, beside the worker's own
RUN_LIMIT_S = 170.0  # every run, set-up included, ends within this
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc serves every block from its heap and keeps what is freed,
# so after the warm-up unit no unit page-faults: on a virtual machine the
# cost of a fault moves with the host's memory state, and frame-plan's
# ~1 GB of arrays per unit otherwise spread its time by a quarter
MALLOC_VARS = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------


def _blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def _summarise_checks(per_unit_checks, run_checks):
    failed_units = sum(1 for c in per_unit_checks if not all(c.values()))
    failed_run = sum(1 for ok in run_checks.values() if not ok)
    attempted = len(per_unit_checks) + len(run_checks)
    return attempted, failed_units + failed_run


def worker(args) -> int:
    import numpy as np

    sys.path.insert(0, str(HERE))
    import catalog
    import workloads as wl
    from spans import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    untraced = NullTracer()
    bench = wl.WORKLOADS[args.workload](args.seed, tracer)
    # CPU seconds (user + sys) since the process started: on a shared
    # virtual machine the wall-clock set-up also counts the time the host
    # runs other guests, which took up to a third of the CPU for minutes
    setup_s = time.process_time()
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    unit_checks = []  # one {check: bool} per unit, probes included
    probes = {}
    if args.trace:
        for name, cls in wl.WORKLOADS.items():
            if name == args.workload:
                continue
            tracer.unit = f"probe:{name}:setup"
            probe = cls(args.seed, tracer, small=True)
            tracer.unit = f"probe:{name}"
            with tracer.span("unit"):
                out = probe.unit(tracer)
            probe.trace_extras(tracer)
            checks, _, _, counts = probe.check(out)
            unit_checks.append({f"probe.{name}.{c}": ok for c, ok in checks.items()})
            probes[name] = (probe, counts)

    walls, cpus, traced_walls = [], [], []
    all_walls = []  # warm-up included: predicts the next unit's time
    traced_units = []
    first_digests = None
    max_err = 0.0
    counts = None
    start = time.perf_counter()
    i = 0
    while True:
        # unit 0 warms caches and the allocator; it is checked, not timed
        warm_up = i == 0
        traced = bool(args.trace) and i % 2 == 1  # never the warm-up
        c0, t0 = time.process_time(), time.perf_counter()
        if traced:
            tracer.unit = i
            with tracer.span("unit"):
                out = bench.unit(tracer)
        else:
            out = bench.unit(untraced)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        all_walls.append(wall)
        if traced:
            traced_walls.append(wall)
            traced_units.append(i)
            bench.trace_extras(tracer)
        elif not warm_up:
            walls.append(wall)
            cpus.append(cpu)
        checks, err, digests, counts = bench.check(out)
        del out
        if first_digests is None:
            first_digests = digests
        checks["deterministic"] = digests == first_digests
        unit_checks.append(checks)
        max_err = max(max_err, err)
        i += 1
        elapsed = time.perf_counter() - start
        next_s = statistics.median(all_walls)
        have_all = walls and (traced_walls or not args.trace)
        # stop before a unit that would overrun --seconds, or leave less
        # than 30 s of the run limit for the run-level checks
        if have_all and (elapsed + next_s > args.seconds
                         or time.perf_counter() - T_START + next_s > RUN_LIMIT_S - 30):
            break

    run_checks = bench.run_checks()
    attempted, failed = _summarise_checks(unit_checks, run_checks)
    result = {
        "setup_s": setup_s,
        "wall_samples": walls,
        "cpu_samples": cpus,
        "max_abs_err": max_err,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "failed_checks": sorted({c for u in unit_checks for c, ok in u.items() if not ok}
                                | {c for c, ok in run_checks.items() if not ok}),
        "checks_per_unit": len(unit_checks[-1]),
        "run_checks": len(run_checks),
        "digests": first_digests,
        "env": {"numpy": np.__version__, "blas": _blas_info(np)},
    }
    if args.trace:
        result["per_layer"] = _per_layer(bench, tracer, traced_units, walls, traced_walls,
                                         counts, probes, catalog)
        result["traced_wall_samples"] = traced_walls
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


def _median_stats(per_unit):
    """{name: (median self seconds, calls)} over per-unit self_times
    dicts; a name missing from a unit counts as zero there."""
    names = set().union(*per_unit)
    return {n: (statistics.median(u.get(n, (0.0, 0))[0] for u in per_unit),
                max(u.get(n, (0.0, 0))[1] for u in per_unit))
            for n in names}


def _per_layer(bench, tracer, traced_units, walls, traced_walls, counts, probes, catalog):
    stats = _median_stats([tracer.self_times(u) for u in traced_units])
    metrics = bench.layer_metrics(stats, tracer.self_times("setup"), counts)
    for name, (probe, probe_counts) in probes.items():
        probe_stats = tracer.self_times(f"probe:{name}")
        metrics.update(probe.layer_metrics(probe_stats,
                                           tracer.self_times(f"probe:{name}:setup"),
                                           probe_counts))
    root_self = statistics.median(tracer.self_times(u)["unit"][0] for u in traced_units)
    traced_wall = statistics.median(traced_walls)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.remainder_s"] = root_self
    metrics["trace.layers_s"] = traced_wall - root_self
    metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
    missing = set(catalog.PER_LAYER) - set(metrics)
    extra = set(metrics) - set(catalog.PER_LAYER)
    if missing or extra:
        raise RuntimeError(f"per-layer metrics differ from the catalog: "
                           f"missing {sorted(missing)}, extra {sorted(extra)}")
    return metrics


# ---------------------------------------------------------------------------
# main process: pins BLAS threads, runs the set-up probes and the worker
# ---------------------------------------------------------------------------


def _child(args, role, env):
    remaining = RUN_LIMIT_S - (time.perf_counter() - T_START)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(remaining, 1.0), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_rev():
    if not (ROOT / ".git").exists():  # git would report an enclosing repository
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lic_hw_kit").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lic_hw_kit" / "__init__.py").is_file():
        print(f"perfbench: toolkit source not found under {SRC}", file=sys.stderr)
        return 2
    if args.role != "main":
        return worker(args)

    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.update({var: str(threads) for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(MALLOC_VARS)

    try:
        setups = ([] if args.trace
                  else [_child(args, "setup", env)["setup_s"] for _ in range(SETUP_PROBES)])
        res = _child(args, "worker", env)
    except (subprocess.SubprocessError, ValueError, IndexError) as e:
        print(f"perfbench: {args.workload} failed: {e}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    from catalog import END_TO_END, PER_LAYER

    if args.trace:
        values = res["per_layer"]
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["wall_samples"]),
            "cpu_s": statistics.median(res["cpu_samples"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "max_abs_err": res["max_abs_err"],
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            **res["env"],
            "nproc": os.cpu_count(),
            "usable_cpus": threads,
            "blas_threads": threads,
            "python": platform.python_version(),
            "git_rev": _git_rev(),
            "src_sha256": _src_digest(),
        },
        "samples": {"wall_s": res["wall_samples"], "cpu_s": res["cpu_samples"],
                    "setup_s": setups,
                    "traced_wall_s": res.get("traced_wall_samples", [])},
        "checks": {"per_unit": res["checks_per_unit"], "per_run": res["run_checks"],
                   "failed": res["failed_checks"]},
        "digests": res["digests"],
    }
    final = {"correct": res["failed"] == 0, "attempted": res["attempted"],
             "failed": res["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"detail": detail, "result": final}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
