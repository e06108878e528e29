"""Runs one workload in this process and prints its figures as one JSON line.

run.py starts this script in a fresh process for every set-up sample and
for the measured run; it is not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


# Observers: each adds to the tracer's counts from one call's arguments and result.
def _constraints(counts, args, inst):
    counts["idcode.hitting_instance.constraints"] += len(inst.constraints)


def _exchange(counts, args, result):
    if result.kind != "not-applicable":
        counts["cycleprism.exchange.applicable"] += 1
        counts["cycleprism.exchange.improved"] += result.kind == "improved"


def _sweep(counts, args, result):
    counts["sweep.codes"] += result.total
    counts["sweep.array_mib"] = max(counts["sweep.array_mib"], args[1].nbytes / 2**20)


def _solve(counts, args, result):
    counts["solver.nodes"] += result.nodes
    counts["solver.status." + result.status] += 1


# Public functions timed in a traced run, each with its observer.
TRACED = {
    "graphs.ball_table": None,
    "graphs.complementary_prism": None,
    "idcode.is_identifying_code": None,
    "idcode.hitting_instance": _constraints,
    "idcode.greedy_code": None,
    "cycleprism.check_conditions": None,
    "cycleprism.verify_code": None,
    "cycleprism.exchange": _exchange,
    "cycleprism.condition_masks": None,
    "sweep.equivalence_sweep": _sweep,
    "sweep.definition_satisfied": None,
    "sweep.condition_satisfied": None,
    "solver.solve_min_idcode": _solve,
    "solver.ic_table": None,
    "layout.check_doubling": None,
    "layout.class_profile": None,
    "layout.prism_layout": None,
    "cli.main": None,
}
SOLVER_STATUSES = ("optimal", "infeasible", "cap-exceeded")


def layer_metrics(tracer, units: int, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer figures per unit of work, from the spans and counts of `units` traced units."""
    spans = tracing.aggregate(tracer.spans)
    counts = tracer.counts
    metrics = {}
    for name in TRACED:
        calls, total, own = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / units, "count")
        metrics[f"{name}.total_s"] = (total / units, "s")
        metrics[f"{name}.self_s"] = (own / units, "s")
    applicable = counts["cycleprism.exchange.applicable"]
    sweep_s = spans.get("sweep.equivalence_sweep", (0, 0.0, 0.0))[1]
    solve_s = spans.get("solver.solve_min_idcode", (0, 0.0, 0.0))[1]
    metrics.update({
        "idcode.hitting_instance.constraints": (counts["idcode.hitting_instance.constraints"] / units, "count"),
        "cycleprism.exchange.applicable": (applicable / units, "count"),
        "cycleprism.exchange.improved_ratio": (counts["cycleprism.exchange.improved"] / applicable if applicable else 0.0, "ratio"),
        "sweep.codes": (counts["sweep.codes"] / units, "count"),
        "sweep.codes_per_s": (counts["sweep.codes"] / sweep_s if sweep_s else 0.0, "1/s"),
        "sweep.array_mib": (counts["sweep.array_mib"], "MiB"),
        "solver.nodes": (counts["solver.nodes"] / units, "count"),
        "solver.nodes_per_s": (counts["solver.nodes"] / solve_s if solve_s else 0.0, "1/s"),
    })
    for status in SOLVER_STATUSES:
        metrics[f"solver.status.{status}"] = (counts["solver.status." + status] / units, "count")
    metrics.update({
        "trace.wall_s_untraced": (untraced_wall, "s"),
        "trace.wall_s_traced": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (len(tracer.spans) / units, "count"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def scaled_latencies(latencies: list[list[float]], speed: calibration.HostSpeed) -> list[float]:
    """Each item's median over the units of its latency scaled to the reference host.

    The host's speed moves from unit to unit; each unit's latencies are
    scaled by the calibration samples taken during that unit, which takes
    most of that out (see README.md, Calibration).
    """
    scales = speed.unit_scales()
    return [statistics.median(t * k for t, k in zip(times, scales, strict=True)) for times in latencies]


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cache_sizes() -> dict:
    """Size and instance count of each L2 and L3 cache, from sysfs; empty where sysfs lacks them."""
    found: dict[str, tuple[str, set]] = {}
    for index in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            found.setdefault(f"L{level}", (size, set()))[1].add(shared)
    return {name: f"{size} x {len(groups)}" for name, (size, groups) in found.items()}


def environment(workload) -> dict:
    import numpy

    env = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **cache_sizes(),
    }
    env.update(workload.environment())
    if "sweep_array_mib" in env:
        env["sweep_note"] = (
            "every sweep array is below 4x the last-level cache, so sweep figures are not a "
            "memory-bandwidth measurement; bytes moved are computed, not measured"
        )
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC reading of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import prismcode
    import workloads

    if Path(prismcode.__file__).resolve().parent != SRC / "prismcode":
        print(f"error: imported prismcode from {prismcode.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    result = {"setup_s": (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.started_ns) / 1e9}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    checker = workloads.Checker(workload)
    if args.trace:
        untraced_speed, traced_speed = (calibration.HostSpeed(workload.calibration) for _ in range(2))
        _, untraced = workloads.run_units(workload, checker, args.seconds / 2, untraced_speed)
        tracer = tracing.Tracer()
        tracer.install(TRACED)
        try:
            units, traced = workloads.run_units(workload, checker, args.seconds / 2, traced_speed,
                                                run=tracer.wrap("bench.item", workload.run))
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        result["spans_file"] = str(spans_file.relative_to(HERE.parent))
        result["metrics"] = layer_metrics(tracer, len(units), sum(scaled_latencies(untraced, untraced_speed)),
                                          sum(scaled_latencies(traced, traced_speed)))
    else:
        speed = calibration.HostSpeed(workload.calibration)
        walls, latencies = workloads.run_units(workload, checker, args.seconds, speed)
        scaled = scaled_latencies(latencies, speed)
        result.update(
            units=len(walls),
            unit_walls_s=walls,
            items=len(scaled),
            calibration=workload.calibration,
            calibration_samples=len(speed.samples),
            calibration_median_s=statistics.median(speed.samples),
            unit_scales=speed.unit_scales(),
            wall_s=sum(scaled),
            item_p50_ms=percentile(scaled, 50) * 1e3,
            item_p99_ms=percentile(scaled, 99) * 1e3,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    result.update(attempted=checker.attempted, failed=checker.failed, messages=checker.messages,
                  env=environment(workload))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
