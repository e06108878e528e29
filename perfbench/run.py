"""The prismcode benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload {scan,crosscheck} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
src/.  Each workload runs in fresh processes started by this script, one
caller and one call at a time.  With --trace 0 the end-to-end metrics are
measured: set-up time is the median over SETUP_SAMPLES fresh processes,
the rest comes from the last one, which repeats the workload's unit of
work for S seconds.  Times are scaled to the reference host's speed
(calibration.py): each unit's by calibration samples taken during it,
set-up's by a fresh interpreter started just before each set-up.  The times as measured are printed too.  With --trace 1 one process times
the unit untraced for S/2 seconds and traced for S/2 seconds, and the
per-layer metrics come from the traced half.  Lines before the last describe the run; the
last line is one JSON object with the keys correct, attempted, failed
and metrics.  Exit status 0 means the run finished, whether or not every
output passed its reference check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "crosscheck")
SETUP_SAMPLES = 7
DEADLINE_S = 170  # every child process is stopped before the whole run reaches this

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
}


class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline: float, *extra: str) -> dict:
    """Start child.py, wait for it, and return the JSON object on its last stdout line."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra,
        "--started-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC)),
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise ChildFailed(f"workload process passed the {DEADLINE_S} s limit") from exc
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited {done.returncode}")
    return json.loads(lines[-1])


def startup_probe(deadline: float) -> float:
    try:
        return calibration.startup_probe(ROOT, timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        raise ChildFailed(f"start-up probe failed: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "prismcode" / "__init__.py").is_file():
        print(f"error: no prismcode sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = run_child(args, deadline)
            metrics = result["metrics"]
        else:
            setups, startups = [], []
            for sample in range(SETUP_SAMPLES):
                timed = sample == SETUP_SAMPLES - 1  # the last process also does the timed work
                startups.append(startup_probe(deadline))
                result = run_child(args, deadline, *([] if timed else ["--setup-only"]))
                setups.append(result["setup_s"])
            result["setup_s_measured"] = statistics.median(setups)
            result["startup_s"] = statistics.median(startups)
            result["setup_s"] = result["setup_s_measured"] * calibration.STARTUP_REFERENCE_S / result["startup_s"]
            metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    if args.trace:
        print(f"spans written to {result['spans_file']}")
    else:
        walls = " ".join(f"{w:.4g}" for w in result["unit_walls_s"])
        print(f"units {result['units']} items {result['items']} setup samples {SETUP_SAMPLES}")
        print(f"unit walls {walls} s as measured (median {statistics.median(result['unit_walls_s']):.4g} s)")
        scales = " ".join(f"{k:.4g}" for k in result["unit_scales"])
        print(f"calibration {result['calibration']}: {result['calibration_samples']} samples, "
              f"median {result['calibration_median_s'] * 1e3:.4g} ms; unit scales {scales}")
        print(f"set-up {result['setup_s_measured']:.4g} s as measured; interpreter start-up "
              f"{result['startup_s'] * 1e3:.4g} ms (median of {SETUP_SAMPLES})")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for message in result["messages"]:
        print(f"failure: {message}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
