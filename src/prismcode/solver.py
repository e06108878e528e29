"""Exact minimum identifying codes via the hitting-set reduction.

Two strategies, one answer.  The exhaustive strategy walks subsets in
cardinality order (lexicographic within a cardinality) and is the oracle:
its first hit is the lexicographically smallest optimal code.

Enumeration: each size's subsets come as blocks of at most `_BLOCK`
uint64 masks, in the lex order of their sorted tuples, which is the
order its node count counts; no subset is ever a tuple.  A group of more
than `_BLOCK` splits by its smallest vertex; one that fits is a prefix
OR'd onto a cached table of every k-subset of a range: [0] for k = 0,
else each v joined to each (k-1)-subset of v+1..n-1 (`_lex_subsets`, at
most 575 tables, 15.4 MiB).  Masks take the strategy to order <= 63.

Cost: one `idcode.HitTables` per solve tests a whole block at once, 64
constraints, narrowest first, per pass of byte-table lookups, until the
block empties.  Those mask tests are nearly all of the time: the prism
of C_12 (order 24, 2.58M subsets tested) takes about 0.06 s and that of
C_15 (order 30, 108M subsets) about 2.5 s on a 2-core Xeon host.

The branch-and-bound strategy runs `_search`, which orders hitting sets
by size and breaks ties lexicographically, so it returns that same code;
its node count, one per `_search` call, covers all of its work.  Each
node receives its parent's constraint list and makes one pass over it:
it skips the constraints its chosen vertices hit and keeps the rest, in
order, as the list every child receives; a greedy packing of
pairwise-disjoint live parts (the allowed vertices of each constraint)
bounds the vertices still needed; and the first narrowest live part is
the one branched on.  So each list is filtered once, by the node it
belongs to, and a node cut before its pass filters nothing.  Every node,
on every graph, applies the same cut before and after that pass: no
completion can sort before the incumbent (see `_search`).  A node one
vertex short of the incumbent's size makes no pass and has no child:
only one more vertex, shared by every constraint it leaves unhit, can
complete it, so it intersects those constraints and answers at once.

On the prism of C_n with n >= 9 at d = 1, the branch-and-bound strategy
does not search: it answers `cycleprism.lexmin_optimum(n)`, which
certifies its code as the lex-min optimum, with nodes = 0, or
cap-exceeded for a size cap below that code's size.  Other inputs are
seeded with `idcode.greedy_code` and searched with no floor; the
exhaustive strategy takes neither route.
That shared canonical answer is the determinism contract: strategies
agree on everything except wall-clock time and node counts, and repeated
runs on everything except wall-clock time.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Optional

import numpy as np

from .cycleprism import _prism, lexmin_optimum, lower_bound, pattern_code, prism_cycle_length, upper_bound
from .graphs import Graph, PrismIndexing, bits, mask_of
from .idcode import HitTables, HittingInstance, greedy_code, hitting_instance, vertex_label

STRATEGIES = ("exhaustive", "bnb")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
CAP_EXCEEDED = "cap-exceeded"

_BLOCK = 1 << 15


@dataclass(frozen=True)
class SolverOptions:
    strategy: str = "bnb"
    size_cap: Optional[int] = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.size_cap is not None and self.size_cap < 0:
            raise ValueError("size_cap must be nonnegative")


@dataclass(frozen=True)
class SolverResult:
    status: str
    size: Optional[int] = None
    code: Optional[tuple[int, ...]] = None
    witness: Optional[tuple[int, int]] = None
    nodes: int = 0
    elapsed: float = 0.0

    def payload(self, indexing: Optional[PrismIndexing] = None) -> dict:
        payload: dict = {"status": self.status}
        if self.size is not None:
            payload["size"] = self.size
        if self.code is not None:
            payload["code"] = [vertex_label(v, indexing) for v in self.code]
        if self.witness is not None:
            payload["witness"] = [vertex_label(v, indexing) for v in self.witness]
        payload["nodes"] = self.nodes
        payload["ms"] = round(self.elapsed * 1000.0, 3)
        return payload


def solve_min_idcode(g: Graph, d: int, options: Optional[SolverOptions] = None) -> SolverResult:
    """Minimum identifying code of (g, d), or an infeasibility witness.

    With a size cap, CAP_EXCEEDED certifies that no code of size <= cap
    exists; OPTIMAL results are always true optima, and the reported code
    is the lexicographically smallest one of optimal size.  nodes is 0
    on the prism of C_n with n >= 9 at d = 1 (see the module docstring).
    """
    opts = options or SolverOptions()
    start = time.perf_counter()
    n = prism_cycle_length(g) if opts.strategy == "bnb" and d == 1 and g.order >= 18 else None
    if n is not None:
        pair = lexmin_optimum(n)
        capped = opts.size_cap is not None and opts.size_cap < pair.size
        size, code, nodes = (None, None, 0) if capped else (pair.size, pair.vertices(), 0)
    else:
        inst = hitting_instance(g, d)
        if not inst.feasible:
            return SolverResult(INFEASIBLE, witness=inst.infeasible_pairs[0], elapsed=time.perf_counter() - start)
        size, code, nodes = (_exhaustive if opts.strategy == "exhaustive" else _bnb)(inst, opts.size_cap)
    status = CAP_EXCEEDED if size is None else OPTIMAL
    return SolverResult(status, size, code, nodes=nodes, elapsed=time.perf_counter() - start)


# ---------------------------------------------------------------- exhaustive

def _exhaustive(inst: HittingInstance, cap: Optional[int]):
    """First hitting set in (cardinality, lex) order; nodes = subsets tested."""
    universe = inst.universe
    if universe > 63:
        raise ValueError("the exhaustive strategy takes graphs of order at most 63; use bnb")
    tables = HitTables(sorted(inst.constraints, key=int.bit_count))
    top = universe if cap is None else min(cap, universe)
    nodes = 0
    for k in range(top + 1):
        for masks in _lex_blocks(universe, k, 0, 0):
            hit = np.flatnonzero(tables.hits_all(masks))
            if len(hit):
                return k, tuple(bits(int(masks[hit[0]]))), nodes + int(hit[0]) + 1
            nodes += len(masks)
    return None, None, nodes


def _lex_blocks(m: int, k: int, prefix: int, lo: int) -> Iterator[np.ndarray]:
    """prefix | S for every k-subset S of lo..m-1, in lex order, as uint64 mask blocks.

    Lex order groups the subsets by their smallest vertex, so a set of
    more than `_BLOCK` subsets splits into one set per smallest vertex v,
    each with v added to the prefix.
    """
    if comb(m - lo, k) <= _BLOCK:
        table = _lex_subsets(m - lo, k)
        yield (table << np.uint64(lo)) | np.uint64(prefix) if lo else table
        return
    for v in range(lo, m - k + 1):
        yield from _lex_blocks(m, k - 1, prefix | 1 << v, v + 1)


@lru_cache(maxsize=None)
def _lex_subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of 0..n-1 (k <= n) as a uint64 mask, in lex order of the sorted tuples.

    [0] for k = 0, else each v ascending joined to each (k-1)-subset of
    v+1..n-1.  Shared by every caller, so read-only.  `_lex_blocks` asks
    only for n <= 63 and C(n, k) <= `_BLOCK`, the recursion for no larger
    table, so the unbounded cache holds at most 575 tables, 15.4 MiB.
    """
    table = np.zeros(1, dtype=np.uint64) if k == 0 else np.concatenate(
        [_lex_subsets(n - v - 1, k - 1) << np.uint64(v + 1) | np.uint64(1 << v) for v in range(n - k + 1)])
    table.flags.writeable = False
    return table


# ---------------------------------------------------------- branch and bound

def _may_tie(reach: int, best_mask: Optional[int]) -> bool:
    """Can a set within reach, of best_mask's size, sort before best_mask?

    It must take a vertex of reach outside best_mask before missing one of
    best_mask's.  A bare bound (best_mask None) admits no tie.
    """
    if best_mask is None:
        return False
    fresh = reach & ~best_mask
    return bool(fresh) and not best_mask & ~reach & (fresh & -fresh) - 1


def _search(
    unhit: list[int], chosen: int, allowed: int, best: tuple[int, Optional[int]], counter: list[int],
    floor: int,
) -> tuple[int, Optional[int]]:
    """Best (size, mask) among best and the hitting sets chosen | S, S within allowed.

    Sets compare by size, then by the lowest vertex where they differ: the
    set holding it sorts first.  best = (size, None) is a bare bound that
    only a strictly smaller set replaces.  unhit is the parent's list (the
    width-sorted instance at the root); the node's own constraints are
    those in it that chosen does not hit.  Before the pass, a scan that
    stops at the first of them tells a leaf (none left) from an inner
    node.  The one pass then keeps them, in order, as the list each child
    receives, and finds the packing bound lb (pairwise-disjoint live parts
    c & allowed each need a vertex of their own, since every vertex added
    comes from allowed) and the first narrowest live part P, whose
    vertices are the children, lowest first.  No live part is ever empty:
    at `_bnb`'s root nothing is chosen, every vertex is allowed and no
    constraint is empty, and a child's own constraints are its
    parent's that the child's vertex misses, so one with no allowed vertex
    left would, at the parent, have had its live part among P's vertices
    before the child's, so narrower than P.  That is why a node with
    constraints left always has a child.

    One rule cuts a node: the least size of any completion is above best's,
    or equal to it with no tie within reach that sorts before best's set.
    floor bounds every hitting set, so the least size is size at a leaf
    (reach = chosen), max(floor, size + 1) before the pass and
    max(floor, size + lb) after it (reach = chosen | allowed); the tie test
    reruns after the pass only if the pass raised the least size to best's.

    A node that passes the cut before its pass with size + 1 == best's size
    can only give a tie, so best is a set and the node's useful completions
    are chosen | v for the allowed v in every constraint it leaves unhit;
    the lowest such v sorts first.  So it skips the pass and has no child:
    it intersects those constraints with allowed, returns best as soon as
    the intersection is empty, and otherwise answers chosen | v for the
    lowest v if that sorts before best's set.
    """
    counter[0] += 1
    size = chosen.bit_count()
    best_size, best_mask = best
    # least and packed are max(floor, ...) written out, since calling max measured slower
    for c in unhit:
        if not c & chosen:
            leaf, least, reach = False, size + 1 if size >= floor else floor, chosen | allowed
            break
    else:
        leaf, least, reach = True, size, chosen
    if least > best_size or least == best_size and not _may_tie(reach, best_mask):
        return best
    if leaf:
        return size, chosen
    if size + 1 == best_size:
        shared = allowed
        for c in unhit:
            if not c & chosen:
                shared &= c
                if not shared:
                    return best
        tie = chosen | shared & -shared
        return (best_size, tie) if _may_tie(tie, best_mask) else best
    lb = used = pick = 0
    pick_width = allowed.bit_count() + 1
    own = []
    for c in unhit:
        if c & chosen:
            continue
        own.append(c)
        live = c & allowed
        if not live & used:
            lb += 1
            used |= live
        if pick_width > 1:
            width = live.bit_count()
            if width < pick_width:
                pick, pick_width = live, width
    packed = size + lb if size + lb > floor else floor
    if packed > best_size or packed == best_size > least and not _may_tie(reach, best_mask):
        return best
    sub_allowed = allowed
    while pick:
        vbit = pick & -pick
        pick ^= vbit
        sub_allowed ^= vbit
        best = _search(own, chosen | vbit, sub_allowed, best, counter, floor)
    return best


def _bnb(inst: HittingInstance, cap: Optional[int], floor: int = 0):
    """Lex-min optimal hitting set by branch and bound, seeded by the greedy code.

    floor must not exceed the optimum; the search starts from it as a
    lower bound on every hitting set.  `solve_min_idcode` leaves it at 0,
    as it answers the prisms of C_n, the one family with a known floor,
    without a search.  The floor's users are the reference checks:
    `tests/test_transfer.py` searches from `condition_floor(n)` to check
    `lexmin_pair(n)` and the stored codes, and CI to check `lexmin_pair(n)`
    at larger n (the prism of C_19 takes 12,325 nodes from the floor and
    349,023 without it); `tests/test_solver.py` runs the search from every
    valid floor on raw instances.
    A greedy code larger than cap gives way to the bare bound cap + 1.
    One search runs from the root, nothing chosen and every vertex
    allowed; the node count is the number of `_search` calls.

    Each level of the search adds one vertex, so it nests up to universe + 1
    calls deep, which can pass Python's default recursion limit of 1000
    (order 1024, say); the limit is raised by that much while it runs.
    """
    code = greedy_code(inst)
    best = (len(code), mask_of(code)) if cap is None or cap >= len(code) else (cap + 1, None)
    unhit = sorted(inst.constraints, key=int.bit_count)
    counter = [0]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + inst.universe + 1)
    try:
        size, mask = _search(unhit, 0, (1 << inst.universe) - 1, best, counter, floor)
    finally:
        sys.setrecursionlimit(limit)
    if mask is None:
        return None, None, counter[0]
    return size, tuple(bits(mask)), counter[0]


# -------------------------------------------------------------- table + export

def ic_table(n_values: Iterable[int]) -> tuple[dict, ...]:
    """The rows `prismcode scan` prints: the prism of C_n at d = 1 for each n.

    Each row holds n, the status, size, code and witness of the default
    solve's payload (1-based prism labels), the certified lower and upper
    bounds and the pattern code's size, None where they do not apply.  The
    witness is always None: no prism of C_n (n >= 3) has radius-1 twins.
    N[v_i] holds exactly one bar vertex and three cycle vertices, N[vbar_i]
    exactly one cycle vertex, so each closed neighbourhood differs from
    every other one, on its own side by that single vertex and across sides
    by the counts.  A row that is not optimal, or for n >= 9 an optimum
    outside [lower_bound, exact upper bound], raises: it would falsify
    the implementation.
    """
    rows = []
    for n in n_values:
        res = solve_min_idcode(_prism(n), 1)
        lower, upper, psize = (lower_bound(n), upper_bound(n)[0], pattern_code(n).size) if n >= 9 else (None,) * 3
        if res.status != OPTIMAL or lower is not None and not lower <= res.size <= upper:
            raise AssertionError(f"prism of C_{n}: {res.status}, size {res.size}, certified bounds {lower}..{upper}")
        payload = res.payload(PrismIndexing(n))
        rows.append({"n": n, **{k: payload.get(k) for k in ("status", "size", "code", "witness")},
                     "lower": lower, "upper": upper, "pattern": psize})
    return tuple(rows)


def format_hitting_instance(inst: HittingInstance) -> str:
    """Text export: "h <universe> <constraints>" then one 1-based line each.

    Twin pairs, which make the instance unsatisfiable as a code, are
    recorded as "c twin <u> <v>" comment lines.
    """
    lines = [f"c twin {u + 1} {v + 1}" for u, v in inst.infeasible_pairs]
    lines.append(f"h {inst.universe} {len(inst.constraints)}")
    for c in inst.constraints:
        lines.append(" ".join(str(v + 1) for v in bits(c)))
    return "\n".join(lines) + "\n"
