"""Tests of the benchmark itself: self time, calibration, failure counting, seeds, metric names.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibration
import child
import run
import tracing
import workloads
from prismcode import graphs, idcode

HERE = Path(__file__).resolve().parent


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", -1, 0, 0.0, 10.0],
        ["a", 0, 0, 1.0, 4.0],
        ["b", 0, 0, 3.0, 6.0],   # overlaps a: [1, 6] is covered once
        ["c", 1, 0, 2.0, 3.0],
        ["d", 0, 0, 8.0, 12.0],  # only [8, 10] lies inside root
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0]
    totals = tracing.aggregate(spans + [["a", -1, 5, 20.0, 21.5]])
    assert totals["a"] == (2, 4.5, 3.5)
    assert totals["root"] == (1, 10.0, 3.0)


def test_tracer_records_nesting_with_parent_and_request():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    outer()
    assert [s[:3] for s in tracer.spans] == [
        ["outer", -1, 0], ["inner", 0, 0], ["inner", 0, 0],
        ["outer", -1, 3], ["inner", 3, 3], ["inner", 3, 3],
    ]
    assert tracing.aggregate(tracer.spans) == {"outer": (2, 10.0, 6.0), "inner": (4, 4.0, 4.0)}


def test_install_reaches_names_imported_by_other_modules():
    original = graphs.ball_table
    tracer = tracing.Tracer()
    tracer.install({"graphs.ball_table": None})
    try:
        assert idcode.ball_table is not original and graphs.ball_table is idcode.ball_table
        idcode.is_identifying_code(graphs.cycle(5), 1, [0, 1, 2, 3])
    finally:
        tracer.uninstall()
    assert idcode.ball_table is original and graphs.ball_table is original
    assert [s[0] for s in tracer.spans] == ["graphs.ball_table"]


def test_wrong_answers_and_exceptions_count_as_failures():
    scan = workloads.Scan(seed=0)
    status, text = scan.run(scan.items[0])
    rows = json.loads(text)
    checker = workloads.Checker(scan)
    checker.output(0, (status, text))
    assert (checker.attempted, checker.failed) == (9, 0)

    rows[1]["size"] += 1
    wrong = workloads.Checker(scan)
    wrong.output(0, (status, json.dumps(rows)))
    assert (wrong.attempted, wrong.failed) == (9, 1)
    assert "n=10" in wrong.messages[0]

    wrong.output(0, RuntimeError("boom"))
    assert (wrong.attempted, wrong.failed) == (18, 10)

    del rows[0]["code"]
    wrong.output(0, (status, json.dumps(rows)))
    assert (wrong.attempted, wrong.failed) == (27, 19)

    flaky = workloads.Checker(scan)
    flaky.output(0, (status, text))
    flaky.output(0, (status, text.replace("v1", "v2", 1)))
    assert (flaky.attempted, flaky.failed) == (18, 9)


def test_wrong_crosscheck_outputs_are_caught():
    stream = workloads.Crosscheck(seed=3)
    by_kind = {}
    for index, item in enumerate(stream.items):
        by_kind.setdefault(item[0], index)
    solve = by_kind["solve"]
    bnb, exhaustive = stream.summarize(stream.run(stream.items[solve]))
    assert stream.check(solve, (bnb, exhaustive)) == [None]
    assert stream.check(solve, (bnb, ("optimal", 0, (), None))) != [None]
    doubling = by_kind["doubling"]
    assert stream.check(doubling, (1, 3)) != [None]
    code = by_kind["code"]
    valid, conditions_ok, verified, exchanges = stream.summarize(stream.run(stream.items[code]))
    assert stream.check(code, (valid, conditions_ok, not verified, exchanges)) != [None]
    swept = by_kind["sweep"]
    n, total, valid, clean, necessity, sufficiency = stream.summarize(stream.run(stream.items[swept]))
    assert stream.check(swept, (n, total, valid, clean, necessity, sufficiency)) == [None]
    assert stream.check(swept, (n, total, valid, clean, 1, sufficiency)) != [None]
    assert stream.check(swept, (n, total, clean + 1, clean, necessity, sufficiency)) != [None]


def test_times_are_item_medians_of_each_unit_scaled_by_its_calibration():
    speed = calibration.HostSpeed("stream")
    ref = speed.reference_s
    speed.samples = [ref * 2, ref * 4, ref * 1, ref * 0.5, ref * 1]
    speed.unit_ends = [3, 4, 5]
    assert speed.unit_scales() == pytest.approx([0.5, 2.0, 1.0])  # half, twice and the reference speed
    assert child.scaled_latencies([[6.0, 0.5, 0.8], [2.0, 1.0, 5.0]], speed) == pytest.approx([1.0, 2.0])


def test_calibration_keeps_to_its_share_of_the_work():
    workload = workloads.Crosscheck(seed=5)
    workload.items = workload.items[:200]
    speed = calibration.HostSpeed(workload.calibration)
    walls, _ = workloads.run_units(workload, workloads.Checker(workload), 0, speed)
    assert len(walls) == 1 and speed.unit_ends == [len(speed.samples)]
    assert calibration.SHARE * walls[0] <= speed.total_s <= calibration.SHARE * walls[0] + max(speed.samples)


def _unit_passes(workload):
    checker = workloads.Checker(workload)
    workloads.run_units(workload, checker, 0, calibration.HostSpeed(workload.calibration))
    assert checker.attempted > 0
    assert checker.failed == 0, checker.messages


def test_seed_changes_crosscheck_inputs_and_checks_still_pass():
    one, two = workloads.Crosscheck(1), workloads.Crosscheck(2)
    assert sorted(map(repr, one.items)) != sorted(map(repr, two.items))
    samples = [{codes.tobytes() for kind, _, codes in w.items if kind == "sweep"} for w in (one, two)]
    assert len(samples[0]) == workloads.SWEEP_REPS * len(workloads.SWEEP_NS) and samples[0].isdisjoint(samples[1])
    assert len(one.items) == len(two.items)
    for workload in (one, two):
        _unit_passes(workload)


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = child.layer_metrics(tracing.Tracer(), 1, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
