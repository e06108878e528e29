"""The benchmark's workloads: inputs from a seed, units of work, reference checks.

A workload holds a list of items.  One unit of work runs every item once,
in order, one call at a time.  run() is the timed call; summarize() and
check() run outside the timed region and turn each output into a hashable
summary and one verdict per operation (None when it passed).  Between
items, run_units() samples the workload's calibration loop (see
calibration.py) so that each unit's times can be scaled to the reference
host.

The package is reached only through module attributes such as
idcode.is_identifying_code, never through names imported from a module,
so the tracer's wrappers see the benchmark's own calls too.  Only public
names and default solver options are used, apart from choosing the
exhaustive strategy.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import calibration
from prismcode import cli, cycleprism, graphs, idcode, layout, solver, sweep

REFERENCE = json.loads(Path(__file__).with_name("scan_reference.json").read_text())

# Both rows of the window that blocks every exchange rewrite (from the paper).
RIGID_WINDOW = (1, 0, 0, 1, 0, 1, 0, 0, 1)

Verdicts = list[Optional[str]]


def prism_of_cycle(n: int) -> graphs.Graph:
    return graphs.complementary_prism(graphs.cycle(n))


class Workload:
    """Defaults: outputs are their own summaries, one operation per item,
    times calibrated by the "stream" loop."""

    items: list
    calibration = "stream"

    def summarize(self, output):
        return output

    def operations(self, index: int) -> int:
        return 1

    def environment(self) -> dict:
        return {}


# ---------------------------------------------------------------------- scan

SCAN_START, SCAN_STOP = 9, 17


class Scan(Workload):
    """`prismcode scan 9 17 --json` through cli.main, default per-n cap.

    The input is fixed, so the seed changes nothing.  Nearly all of the
    time goes to branch and bound at the largest n.
    """

    calibration = "search"

    def __init__(self, seed: int):
        self.ns = range(SCAN_START, SCAN_STOP + 1)
        self.items = [("scan", str(SCAN_START), str(SCAN_STOP), "--json")]

    def warm_up(self) -> None:
        self.run(("scan", str(SCAN_START), str(SCAN_START + 2), "--json"))

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(list(argv))
        return status, out.getvalue()

    def operations(self, index: int) -> int:
        return len(self.ns)

    def check(self, index: int, summary) -> Verdicts:
        status, text = summary
        try:
            rows = json.loads(text)
        except ValueError:
            rows = None
        if status != 0 or not isinstance(rows, list) or [r.get("n") for r in rows] != list(self.ns):
            return [f"scan exited {status} without one row per n in {self.ns}"] * len(self.ns)
        return [check_scan_row(row) for row in rows]


def check_scan_row(row: dict) -> Optional[str]:
    n, size, code = row["n"], row["size"], row["code"]
    lower, upper = -((108 - 7 * n) // 9), n - 2 * (n // 9)  # ceil(7n/9 - 12), n - 2*floor(n/9)
    if row["status"] != "optimal" or size != REFERENCE["optimum"].get(str(n)):
        return f"n={n}: {row['status']} size {size}, want optimum {REFERENCE['optimum'].get(str(n))}"
    if code != REFERENCE["lexmin_code"].get(str(n)):
        return f"n={n}: code {code} is not the recorded lex-min code"
    if (row["lower"], row["upper"]) != (lower, upper) or not lower <= size <= upper:
        return f"n={n}: size {size} against bounds {row['lower']}..{row['upper']}, want {lower}..{upper}"
    indexing = graphs.PrismIndexing(n)
    vertices = [indexing.parse_label(label) for label in code]
    if len(set(vertices)) != size or not idcode.is_identifying_code(prism_of_cycle(n), 1, vertices).valid:
        return f"n={n}: code does not identify the prism"
    return None


# Bytes one "mask & code != 0" test moves per code in sweep._hits_all, computed, not
# measured: read the code and write a uint64 temporary (16), read it and write a bool
# (9), read the running bool and the new one and write the result (3).
BYTES_PER_MASK_TEST = 28


# ---------------------------------------------------------------- crosscheck

CODE_NS = range(9, 31)
# (d, edge probability, orders).  Sparse graphs keep d = 2 partly feasible.  Feasible
# d = 2 graphs above order 12 are slow, and how many of them a seed draws would set
# item_p99_ms, so d = 2 stops at order 12 (see README.md).
SOLVES = ((1, 0.5, range(6, 17)), (2, 0.2, range(6, 13)))
DOUBLING_ORDERS = range(1, 41)
# Seeded code samples for equivalence_sweep: 32 KiB arrays, so each call is a few
# hundred small numpy mask tests; SWEEP_SCALAR codes of each are also checked one by one.
SWEEP_NS, SWEEP_CODES, SWEEP_SCALAR = (10, 11, 12), 4096, 64
CODE_REPS, SOLVE_REPS, DOUBLING_REPS, SWEEP_REPS = 20, 20, 50, 20


class Crosscheck(Workload):
    """A seeded, shuffled stream of small calls: code checks, small solves, doubling checks, sweeps.

    Every (kind, size) stratum appears the same number of times for every
    seed; the seed picks the flips, graphs and trees, and the order.

    Half of the code checks start from an "opened" pattern code: in one
    random 9-block the cycle vertices at positions 2 and 3 are swapped for
    the bar vertices at 1 and 4.  That leaves two empty columns that meet
    the exchange hypothesis, so exchange does more than reject; plain
    pattern codes with a few flips almost never meet it.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.prisms = {n: prism_of_cycle(n) for n in CODE_NS}
        self.exhaustive = solver.SolverOptions(strategy="exhaustive")
        items = []
        for _ in range(CODE_REPS):
            for n in CODE_NS:
                for flips, opened in itertools.product(range(4), (False, True)):
                    mask = cycleprism.pattern_code(n).vertex_mask
                    if opened:
                        a = 9 * rng.randrange(n // 9)  # 0-based start of a block
                        mask ^= 0b110 << a | 0b1001 << n + a
                    for v in rng.sample(range(2 * n), flips):
                        mask ^= 1 << v
                    code = cycleprism.CodePair.from_vertex_mask(n, mask)
                    empty = code.bad_indices()
                    items.append(("code", code, tuple(a for a in range(n) if a in empty and (a + 1) % n in empty)))
        for _ in range(SOLVE_REPS):
            for d, p, orders in SOLVES:
                for order in orders:
                    items.append(("solve", graphs.random_graph(order, rng, p), d))
        for _ in range(DOUBLING_REPS):
            for order in DOUBLING_ORDERS:
                g = graphs.random_graph(order, rng)
                items.append(("doubling", g, layout.random_layout_tree(order, rng)))
        for _ in range(SWEEP_REPS):
            for n in SWEEP_NS:
                items.append(("sweep", n, sweep.random_codes(n, SWEEP_CODES, rng.getrandbits(63))))
        rng.shuffle(items)
        self.items = items

    def environment(self) -> dict:
        arrays = [item[2] for item in self.items if item[0] == "sweep"]
        moved = sum(len(codes) * (2 * n + n * (2 * n - 1) + len(cycleprism.condition_masks(n))) * BYTES_PER_MASK_TEST
                    for n, codes in ((item[1], item[2]) for item in self.items if item[0] == "sweep"))
        return {"sweep_array_mib": sorted({round(a.nbytes / 2**20, 3) for a in arrays}),
                "sweep_bytes_moved_per_unit_computed": moved}

    def warm_up(self) -> None:
        for n in CODE_NS:
            cycleprism.condition_masks(n)
            cycleprism.verify_code(cycleprism.CodePair(n, (1 << n) - 1, 0))  # no bar members: builds the prism
        for kind in ("code", "solve", "doubling", "sweep"):
            self.run(next(item for item in self.items if item[0] == kind))

    def run(self, item):
        kind, subject, arg = item
        if kind == "code":
            return (
                idcode.is_identifying_code(self.prisms[subject.n], 1, subject.vertices()),
                cycleprism.check_conditions(subject),
                cycleprism.verify_code(subject),
                tuple(cycleprism.exchange(subject, a) for a in arg),
            )
        if kind == "solve":
            return solver.solve_min_idcode(subject, arg), solver.solve_min_idcode(subject, arg, self.exhaustive)
        if kind == "sweep":
            return sweep.equivalence_sweep(subject, arg)
        return layout.check_doubling(subject, arg)

    def summarize(self, output):
        if isinstance(output, layout.DoublingCheck):
            return (output.base_max, output.prism_max)
        if isinstance(output, sweep.SweepResult):
            r = output
            return (r.n, r.total, r.valid, r.condition_clean, len(r.necessity_failures), len(r.sufficiency_failures))
        if len(output) == 2:
            return tuple((r.status, r.size, r.code, r.witness) for r in output)
        report, conditions, verified, exchanges = output
        return (report.valid, conditions.ok, verified, tuple(
            (r.kind, None if r.code is None else (r.code.x, r.code.xbar), r.window_start) for r in exchanges
        ))

    def check(self, index: int, summary) -> Verdicts:
        kind, subject, arg = self.items[index]
        if kind == "code":
            return [self._check_code(subject, arg, summary)]
        if kind == "solve":
            return [check_solve(subject, arg, summary)]
        if kind == "sweep":
            return [check_sweep(subject, arg, summary)]
        base, lifted = summary
        return [None if lifted <= 2 * base else f"doubling fails: prism {lifted} > 2 * {base}"]

    def _check_code(self, code, starts, summary) -> Optional[str]:
        valid, conditions_ok, verified, exchanges = summary
        prism = self.prisms[code.n]
        if verified != valid:
            return f"n={code.n}: verify_code {verified}, is_identifying_code {valid}"
        exact = code.xbar.bit_count() >= 4
        if (conditions_ok != valid) if exact else (valid and not conditions_ok):
            return f"n={code.n}: check_conditions {conditions_ok}, is_identifying_code {valid}"
        for a, (kind, rows, start) in zip(starts, exchanges):
            if kind == cycleprism.IMPROVED:
                new = cycleprism.CodePair(code.n, *rows)
                if not (new.size <= code.size and len(new.bad_indices()) < len(code.bad_indices())
                        and idcode.is_identifying_code(prism, 1, new.vertices()).valid):
                    return f"n={code.n}: exchange at {a} returned a code that does not verify"
            elif kind == cycleprism.PATTERN_DETECTED and not has_rigid_window(code, start):
                return f"n={code.n}: exchange at {a} reported a window at {start} that is not there"
        return None


def check_sweep(n: int, codes: np.ndarray, summary) -> Optional[str]:
    """No failures, valid within clean, and the first codes' counts equal per-code scalar verdicts."""
    got_n, total, valid, clean, necessity, sufficiency = summary
    if (got_n, total) != (n, len(codes)):
        return f"sweep reported n={got_n} over {total} codes, want n={n} over {len(codes)}"
    if necessity or sufficiency:
        return f"n={n}: {necessity} necessity and {sufficiency} sufficiency failures"
    if valid > clean:
        return f"n={n}: more valid codes ({valid}) than condition-clean ones ({clean})"
    head = codes[:SWEEP_SCALAR]
    pairs = [cycleprism.CodePair.from_vertex_mask(n, int(c)) for c in head]
    scalar = (sum(idcode.is_identifying_code(prism_of_cycle(n), 1, p.vertices()).valid for p in pairs),
              sum(cycleprism.check_conditions(p).ok for p in pairs))
    r = sweep.equivalence_sweep(n, head)
    if (r.valid, r.condition_clean) != scalar:
        return f"n={n}: sweep counts {r.valid}/{r.condition_clean} on {len(head)} codes, scalar {scalar[0]}/{scalar[1]}"
    return None


def has_rigid_window(code, start: int) -> bool:
    n = code.n
    return all(
        (code.x >> (start + k) % n & 1) == want and (code.xbar >> (start + k) % n & 1) == want
        for k, want in enumerate(RIGID_WINDOW)
    )


def reference_balls(g: graphs.Graph, d: int) -> list[frozenset]:
    """Distance-d balls by breadth-first search, independent of graphs.ball_table."""
    balls = []
    for source in range(g.order):
        seen, frontier = {source}, {source}
        for _ in range(d):
            frontier = {v for u in frontier for v in g.neighbors(u)} - seen
            seen |= frontier
        balls.append(frozenset(seen))
    return balls


def check_solve(g: graphs.Graph, d: int, summary) -> Optional[str]:
    bnb, exhaustive = summary
    if bnb != exhaustive:
        return f"order {g.order} d={d}: bnb {bnb} and exhaustive {exhaustive} disagree"
    status, size, code, witness = bnb
    balls = reference_balls(g, d)
    if status == solver.OPTIMAL:
        views = [ball & set(code) for ball in balls]
        if len(code) != size or not all(views) or len(set(views)) != len(views):
            return f"order {g.order} d={d}: optimal code {code} does not identify"
    elif status == solver.INFEASIBLE:
        u, v = witness
        if u == v or balls[u] != balls[v]:
            return f"order {g.order} d={d}: witness {witness} are not closed twins"
    else:
        return f"order {g.order} d={d}: unexpected status {status}"
    return None


WORKLOADS = {"scan": Scan, "crosscheck": Crosscheck}


# ------------------------------------------------------------ running units

class Checker:
    """Counts operations and failures over every unit; outputs are checked outside the timed region.

    A verdict is computed once per distinct (item, summary); an output that
    differs from the item's output in the first unit fails as well.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self._first: dict[int, object] = {}
        self._verdicts: dict[tuple, Verdicts] = {}

    def add(self, verdicts: Verdicts) -> None:
        for verdict in verdicts:
            self.attempted += 1
            if verdict is not None:
                self.failed += 1
                if len(self.messages) < 10:
                    self.messages.append(verdict)

    def output(self, index: int, output) -> None:
        if isinstance(output, Exception):
            self.add([f"item {index} raised {output!r}"] * self.workload.operations(index))
            return
        try:
            summary = self.workload.summarize(output)
            key = (index, summary)
            if key not in self._verdicts:
                self._verdicts[key] = self.workload.check(index, summary)
        except Exception as exc:  # a malformed output fails its operations; the run goes on
            self.add([f"item {index}: output could not be checked: {exc!r}"] * self.workload.operations(index))
            return
        verdicts = self._verdicts[key]
        if self._first.setdefault(index, summary) != summary:
            verdicts = [v or f"item {index}: output changed between units" for v in verdicts]
        self.add(verdicts)


def run_units(workload, checker: Checker, seconds: float, speed: calibration.HostSpeed,
              run: Optional[Callable] = None) -> tuple[list[float], list[list[float]]]:
    """Units of work until one more would end after `seconds` seconds; at least one.

    Before each item and after each unit, `speed` takes calibration samples
    until they add up to calibration.SHARE of the timed work so far; the
    samples up to the end of a unit are that unit's.  Returns each unit's
    wall time and, per item, its latency in each unit, in seconds.
    """
    run = run or workload.run
    walls: list[float] = []
    latencies: list[list[float]] = [[] for _ in workload.items]
    work_s = 0.0
    began = time.perf_counter()
    while not walls or time.perf_counter() - began + statistics.median(walls) * (1 + calibration.SHARE) <= seconds:
        outputs = []
        for item, times in zip(workload.items, latencies):
            speed.keep_up(work_s)
            begin = time.perf_counter()
            try:
                outputs.append(run(item))
            except Exception as exc:  # counted as a failed operation, not fatal to the run
                outputs.append(exc)
            times.append(time.perf_counter() - begin)
            work_s += times[-1]
        walls.append(sum(times[-1] for times in latencies))
        speed.keep_up(work_s)
        speed.end_unit()
        for index, output in enumerate(outputs):
            checker.output(index, output)
    return walls, latencies
