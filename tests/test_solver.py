"""Both solver strategies against brute force, plus the determinism contract."""

import hashlib
import json
import random
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest

from prismcode.graphs import (
    Graph,
    complementary_prism,
    cycle,
    mask_of,
    random_graph,
)
from prismcode import solver
from prismcode.idcode import HittingInstance, greedy_code, hitting_instance, is_identifying_code
from prismcode.solver import (
    CAP_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    SolverOptions,
    SolverResult,
    format_hitting_instance,
    ic_table,
    solve_min_idcode,
)
from prismcode.cycleprism import _LEXMIN_OPTIMA, condition_floor, lexmin_pair, upper_bound

import bruteforce as bf


def path_graph(n):
    return Graph.from_edges(n, [(u, u + 1) for u in range(n - 1)])


EXH = SolverOptions(strategy="exhaustive")
BNB = SolverOptions(strategy="bnb")


def test_k2_infeasible():
    g = Graph.from_edges(2, [(0, 1)])
    res = solve_min_idcode(g, 1, BNB)
    assert res.status == INFEASIBLE and res.witness == (0, 1)
    assert res.size is None and res.code is None


def test_prism_c6_d2_infeasible_witness_is_first_twin():
    g = complementary_prism(cycle(6))
    res = solve_min_idcode(g, 2, EXH)
    assert res.status == INFEASIBLE
    assert res.witness == (6, 7)
    assert res.witness in bf.twins(bf.to_adj(g), 2)


def test_prism_c9_frozen_optimum():
    g = complementary_prism(cycle(9))
    res = solve_min_idcode(g, 1, BNB)
    assert res.status == OPTIMAL
    assert res.size == 7
    assert res.code == (0, 1, 2, 5, 13, 14, 16)
    assert is_identifying_code(g, 1, res.code).valid
    # optimality is strict: every 6-subset of the code's closure fails? cheap check:
    for drop in res.code:
        rest = [v for v in res.code if v != drop]
        assert not is_identifying_code(g, 1, rest).valid


IC_VALUES = {
    3: 4, 4: 4, 5: 4, 6: 5, 7: 6, 8: 6, 9: 7, 10: 8, 11: 8, 12: 10,
    13: 10, 14: 11, 15: 12, 16: 13,
}


@pytest.mark.parametrize("n", sorted(IC_VALUES))
def test_prism_optima_frozen(n):
    g = complementary_prism(cycle(n))
    res = solve_min_idcode(g, 1, BNB)
    assert res.status == OPTIMAL and res.size == IC_VALUES[n]
    assert is_identifying_code(g, 1, res.code).valid


def test_exhaustive_nodes_frozen():
    # subsets tested before the lex-min optimum, in (size, lex) order
    want = {9: (7, 32042), 10: (8, 139077), 11: (8, 330897), 12: (10, 2580817)}
    for n, (size, nodes) in want.items():
        res = solve_min_idcode(complementary_prism(cycle(n)), 1, EXH)
        assert (res.status, res.size, res.nodes) == (OPTIMAL, size, nodes), n


def test_strategies_agree_on_corpus():
    rng = random.Random(6)
    corpus = [cycle(n) for n in range(3, 9)]
    corpus += [path_graph(n) for n in (2, 4, 6)]
    corpus += [complementary_prism(cycle(n)) for n in (3, 4, 5, 6)]
    corpus += [random_graph(rng.randint(2, 8), rng) for _ in range(8)]
    for g in corpus:
        for d in (1, 2):
            a = solve_min_idcode(g, d, EXH)
            b = solve_min_idcode(g, d, BNB)
            assert (a.status, a.size, a.code, a.witness) == (b.status, b.size, b.code, b.witness)


def test_strategies_agree_at_every_cap():
    # Caps below the greedy size seed bnb with a bare size bound; caps at
    # and above the optimum exercise the lexicographic tie rule.
    rng = random.Random(11)
    corpus = [(random_graph(rng.randint(2, 10), rng), d) for _ in range(60) for d in (1, 2)]
    corpus += [(complementary_prism(cycle(n)), 1) for n in range(5, 10)]
    for g, d in corpus:
        opt = solve_min_idcode(g, d, EXH).size
        if opt is None:
            continue
        for cap in range(opt + 2):
            a = solve_min_idcode(g, d, SolverOptions(strategy="exhaustive", size_cap=cap))
            b = solve_min_idcode(g, d, SolverOptions(strategy="bnb", size_cap=cap))
            assert (a.status, a.size, a.code) == (b.status, b.size, b.code), (g, d, cap)


def _raw_instance(rng):
    universe = rng.randint(1, 12)
    constraints = sorted({
        mask_of(rng.sample(range(universe), rng.randint(1, universe)))
        for _ in range(rng.randint(1, 3 * universe))
    })
    return HittingInstance(universe, tuple(constraints), ())


def test_strategies_agree_on_raw_hitting_instances():
    # Random constraint systems overlap in ways that graph-derived ones
    # rarely do, which exercises the packing bound on live parts.
    from prismcode.solver import _bnb, _exhaustive

    rng = random.Random(17)
    for _ in range(250):
        inst = _raw_instance(rng)
        opt = _exhaustive(inst, None)[0]
        want = [_exhaustive(inst, cap)[:2] for cap in range(opt + 2)]
        # Every valid floor gives the same answer; a cap below the floor
        # is refused at the root.
        for floor in range(opt + 1):
            for cap in range(opt + 2):
                got = _bnb(inst, cap, floor)
                assert got[:2] == want[cap], (inst, cap, floor)
                if cap < floor:
                    assert got == (None, None, 1), (inst, cap, floor)


def test_optimum_matches_bruteforce():
    rng = random.Random(31)
    corpus = [cycle(4), cycle(7), path_graph(5)]
    corpus += [random_graph(rng.randint(2, 7), rng) for _ in range(6)]
    for g in corpus:
        for d in (1, 2):
            size, codes = bf.min_codes(bf.to_adj(g), d)
            res = solve_min_idcode(g, d, EXH)
            if size is None:
                assert res.status == INFEASIBLE
            else:
                assert res.status == OPTIMAL and res.size == size
                assert res.code == min(codes)  # lexicographically smallest optimum


def test_lexmin_reconstruction_equals_enumeration():
    g = complementary_prism(cycle(5))
    res = solve_min_idcode(g, 1, BNB)
    best = [
        c for c in combinations(range(g.order), res.size)
        if is_identifying_code(g, 1, c).valid
    ]
    assert res.code == min(best)


def test_repeat_runs_identical_payload():
    g = complementary_prism(cycle(7))
    a = solve_min_idcode(g, 1, BNB)
    b = solve_min_idcode(g, 1, BNB)
    assert (a.status, a.size, a.code, a.witness, a.nodes) == (b.status, b.size, b.code, b.witness, b.nodes)


def test_size_cap_semantics():
    g = complementary_prism(cycle(9))
    for strat in ("exhaustive", "bnb"):
        below = solve_min_idcode(g, 1, SolverOptions(strategy=strat, size_cap=6))
        assert below.status == CAP_EXCEEDED
        assert below.size is None and below.code is None
        at = solve_min_idcode(g, 1, SolverOptions(strategy=strat, size_cap=7))
        assert at.status == OPTIMAL and at.size == 7
        assert at.code == (0, 1, 2, 5, 13, 14, 16)
    zero = solve_min_idcode(cycle(4), 1, SolverOptions(size_cap=0))
    assert zero.status == CAP_EXCEEDED


def test_bnb_never_beats_greedy_start():
    for n in (5, 6, 7, 8, 9):
        g = complementary_prism(cycle(n))
        inst = hitting_instance(g, 1)
        res = solve_min_idcode(g, 1, BNB)
        assert res.size <= len(greedy_code(inst))


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(strategy="magic")
    with pytest.raises(ValueError):
        SolverOptions(size_cap=-1)


def test_result_json_shapes():
    g = complementary_prism(cycle(9))
    res = solve_min_idcode(g, 1, BNB)
    payload = res.payload()
    assert payload["status"] == "optimal" and payload["size"] == 7
    assert payload["code"] == [1, 2, 3, 6, 14, 15, 17]  # plain 1-based without indexing
    assert list(payload) == ["status", "size", "code", "nodes", "ms"]
    infeasible = solve_min_idcode(complementary_prism(cycle(6)), 2, BNB)
    bad = infeasible.payload()
    assert bad["status"] == "infeasible" and bad["witness"] == [7, 8]
    capped = solve_min_idcode(g, 1, SolverOptions(size_cap=3)).payload()
    assert capped["status"] == "cap-exceeded" and "code" not in capped


def test_ic_table_rows():
    rows = ic_table([3, 9])
    assert list(rows[0]) == ["n", "status", "size", "code", "witness", "lower", "upper", "pattern"]
    assert rows[0]["n"] == 3 and rows[0]["status"] == OPTIMAL and rows[0]["size"] == 4
    assert rows[0]["lower"] is None and rows[0]["upper"] is None
    nine = rows[1]
    assert list(nine) == list(rows[0])
    assert nine["size"] == 7 and nine["lower"] == -5 and nine["upper"] == 7 and nine["pattern"] == 7
    assert rows[0]["witness"] is None and nine["witness"] is None


def test_ic_table_refuses_rows_that_falsify_the_implementation(monkeypatch):
    # Every prism of C_n has an optimal row, and from n = 9 on it lies within the certified bounds.
    for n, fake in ((3, SolverResult(CAP_EXCEEDED)), (9, SolverResult(INFEASIBLE, witness=(9, 10))),
                    (9, SolverResult(OPTIMAL, size=8, code=tuple(range(8))))):
        monkeypatch.setattr(solver, "solve_min_idcode", lambda g, d: fake)
        with pytest.raises(AssertionError, match=f"prism of C_{n}: {fake.status}"):
            ic_table([n])


def test_ic_table_matches_scan_reference():
    # The benchmark's recorded optima and lex-min codes, read, never written.
    path = Path(__file__).parents[1] / "perfbench" / "scan_reference.json"
    reference = json.loads(path.read_text())
    for row in ic_table(range(9, 18)):
        assert row["status"] == OPTIMAL and row["size"] == reference["optimum"][str(row["n"])]
        assert row["code"] == reference["lexmin_code"][str(row["n"])], row["n"]


def test_floor_applies_only_to_prisms_of_cycles_at_radius_1():
    prism = complementary_prism(cycle(12))
    swap = list(range(24))
    swap[0], swap[12] = 12, 0  # the same graph with v1 and vbar1 exchanged
    relabeled = Graph.from_edges(24, [(swap[u], swap[v]) for u, v in prism.edges()])
    res = solve_min_idcode(prism, 1)
    assert (res.status, res.size, res.nodes) == (OPTIMAL, condition_floor(12), 0) and res.size == 10
    # Other inputs take the general route: a search from no floor, node for
    # node, or the first twin pair as the witness.
    feasible = []
    for g, d in [(prism, 2), (relabeled, 1), (complementary_prism(cycle(8)), 1), (cycle(18), 1)]:
        inst, res = hitting_instance(g, d), solve_min_idcode(g, d)
        feasible.append(inst.feasible)
        if inst.feasible:
            assert (res.status, res.size, res.code, res.nodes) == (OPTIMAL, *solver._bnb(inst, None, 0))
        else:
            assert (res.status, res.witness) == (INFEASIBLE, bf.twins(bf.to_adj(g), d)[0])
    assert feasible == [False, True, True, True]
    inst = hitting_instance(relabeled, 1)
    res = solve_min_idcode(relabeled, 1, SolverOptions(size_cap=10))
    assert (res.size, res.code, res.nodes) == solver._bnb(inst, 10, 0)
    floored = solve_min_idcode(prism, 1, SolverOptions(size_cap=10))
    bare = solver._bnb(hitting_instance(prism, 1), 10, 0)
    assert (floored.size, floored.code) == bare[:2] and floored.nodes < bare[2]


def test_transfer_route_answers_prisms_of_cycles_without_search():
    # The lex-min pair identifies for every n here but 9, 10 and 12; there the
    # conditions are not sufficient, and the stored lex-min optimal code answers.
    for n in range(9, 31):
        res = solve_min_idcode(complementary_prism(cycle(n)), 1)
        assert (res.status, res.size, res.nodes) == (OPTIMAL, condition_floor(n), 0), n
        if n in (9, 10, 12):
            assert res.code == _LEXMIN_OPTIMA[n] != lexmin_pair(n).vertices()
        else:
            assert res.code == lexmin_pair(n).vertices(), n


def test_fallback_prisms_answer_from_the_stored_codes(monkeypatch):
    # At n = 9, 10 and 12, capped at the exact upper bound or not, the answer
    # is the exhaustive strategy's, with no hitting instance, greedy code or
    # search built on the way.
    want = {
        (n, cap): solve_min_idcode(complementary_prism(cycle(n)), 1, SolverOptions("exhaustive", cap)).code
        for n in (9, 10, 12) for cap in (upper_bound(n)[0], None)
    }

    def unused(*args):
        raise AssertionError("the prism route built a hitting instance or a greedy code")

    monkeypatch.setattr(solver, "hitting_instance", unused)
    monkeypatch.setattr(solver, "greedy_code", unused)
    for (n, cap), code in want.items():
        res = solve_min_idcode(complementary_prism(cycle(n)), 1, SolverOptions(size_cap=cap))
        assert (res.status, res.size, res.code, res.nodes) == (OPTIMAL, condition_floor(n), code, 0), (n, cap)


def test_prism_route_refuses_a_stored_code_that_is_not_optimal(monkeypatch):
    # The stored code is returned only when it identifies and has the floor's size.
    for code in (lexmin_pair(9).vertices(), (*_LEXMIN_OPTIMA[9], 17)):
        monkeypatch.setitem(_LEXMIN_OPTIMA, 9, code)
        with pytest.raises(AssertionError, match="is not an identifying code of size 7"):
            solve_min_idcode(complementary_prism(cycle(9)), 1)


def test_stored_codes_equal_the_search_without_a_floor():
    # Branch and bound from floor 0 reads neither the table nor the floor.
    for n, nodes in {9: 488, 10: 1103, 12: 7072}.items():
        got = solver._bnb(hitting_instance(complementary_prism(cycle(n)), 1), None)
        assert got == (condition_floor(n), _LEXMIN_OPTIMA[n], nodes), n


def test_strategies_agree_at_every_cap_on_fallback_prisms():
    # test_strategies_agree_at_every_cap stops at C_9; C_10 and C_12 are the
    # other prisms of cycles answered from a stored code.
    for n in (10, 12):
        g, floor = complementary_prism(cycle(n)), condition_floor(n)
        for cap in range(floor - 1, floor + 3):
            a = solve_min_idcode(g, 1, SolverOptions(strategy="exhaustive", size_cap=cap))
            b = solve_min_idcode(g, 1, SolverOptions(strategy="bnb", size_cap=cap))
            assert (a.status, a.size, a.code) == (b.status, b.size, b.code), (n, cap)


def test_search_never_meets_a_constraint_without_an_allowed_vertex(monkeypatch):
    # _search has no dead-constraint test: its docstring proves every
    # constraint that chosen leaves unhit keeps an allowed vertex.  A node
    # receives its parent's list, so it must hold, in the order of _bnb's
    # width-sorted list, every constraint that chosen leaves unhit.  A node
    # one vertex short of the incumbent answers from the constraints'
    # intersection and makes no recursive call.  The recursion looks _search
    # up in the module, so the wrapper sees every node.  The prisms run from
    # the floor, since solve answers them without a search.
    search, calls, root, short = solver._search, [0], [], [False]

    def checked(unhit, chosen, allowed, best, *rest):
        calls[0] += 1
        assert not short[-1], chosen
        assert all(c & allowed for c in unhit if not c & chosen), (unhit, chosen, allowed)
        assert [c for c in unhit if not c & chosen] == [c for c in root if not c & chosen], chosen
        short.append(chosen.bit_count() + 1 == best[0])
        try:
            return search(unhit, chosen, allowed, best, *rest)
        finally:
            short.pop()

    def solve(g, d):
        root[:] = sorted(hitting_instance(g, d).constraints, key=int.bit_count)
        return solve_min_idcode(g, d)

    monkeypatch.setattr(solver, "_search", checked)
    for n, nodes in {9: 113, 10: 59, 12: 67}.items():
        inst = hitting_instance(complementary_prism(cycle(n)), 1)
        root[:] = sorted(inst.constraints, key=int.bit_count)
        assert solver._bnb(inst, None, condition_floor(n)) == (condition_floor(n), _LEXMIN_OPTIMA[n], nodes), n
    assert calls[0] == 113 + 59 + 67
    rng = random.Random(19)
    for i in range(60):
        g = random_graph(rng.randint(2, 13), rng, (0.2, 0.5, 0.8)[i % 3])
        for d in (1, 2):
            if hitting_instance(g, d).feasible:
                res = solve(g, d)
                assert res.code == solve_min_idcode(g, d, EXH).code, (g, d)


@pytest.fixture(scope="module")
def bnb_outcomes():
    # The default solve, uncapped and at every cap from 0 to the optimum + 2,
    # on the prisms of C_3..C_24 at d = 1 and 2 (the prism route, with and
    # without the floor, and infeasible ones) and on 300 seeded random graphs
    # of order 2..18 (the greedy seed, no floor): (status, size, code,
    # witness, nodes) of each.
    rng = random.Random(23)
    cases = [(complementary_prism(cycle(n)), d) for n in range(3, 25) for d in (1, 2)]
    cases += [(random_graph(rng.randint(2, 18), rng, (0.2, 0.5, 0.8)[i % 3]), 1) for i in range(300)]
    outcomes = []
    for g, d in cases:
        res = solve_min_idcode(g, d)
        caps = [] if res.size is None else range(res.size + 3)
        for res in [res, *(solve_min_idcode(g, d, SolverOptions(size_cap=cap)) for cap in caps)]:
            outcomes.append((res.status, res.size, res.code, res.witness, res.nodes))
    assert len(outcomes) == 2369
    return outcomes


def test_bnb_outcomes_frozen_node_for_node(bnb_outcomes):
    # The digest covers status, size, code, witness and node count.  It was
    # retaken when the tie split and the last-level intersection cut node
    # counts; test_bnb_answers_frozen, taken before that change, shows that
    # the answers did not move.  It was retaken again when the prisms of C_9,
    # C_10 and C_12 were answered from stored codes, which moved only their
    # 12 node counts (41, 43 and 51 -> 0).
    digest = hashlib.sha256(repr(bnb_outcomes).encode()).hexdigest()
    assert digest == "2a7b987adee60ea5c16762ea30790ef808e3026a25adec40cf0a86374a8f3693"


def test_bnb_answers_frozen(bnb_outcomes):
    # The same solves without node counts: a change to the search may move
    # its node counts, but never the answers.
    digest = hashlib.sha256(repr([outcome[:4] for outcome in bnb_outcomes]).encode()).hexdigest()
    assert digest == "f25652daffaff71e3f6433b51eba42dfe1779452f2d9c7e090549f4fa80e4c98"


def test_search_deeper_than_the_recursion_limit():
    # The search nests one call per vertex of the code it builds, and the
    # star K_{1,79}'s optimum takes every vertex but one.  With the limit
    # only 40 frames above the caller's depth, the search must raise it.
    g = Graph.from_edges(80, [(0, v) for v in range(1, 80)])
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        res = solve_min_idcode(g, 1)
    finally:
        restored = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
    assert restored == depth + 40
    assert (res.status, res.size, res.code, res.nodes) == (OPTIMAL, 79, tuple(range(79)), 157)


def test_transfer_route_cap_below_floor():
    for n in (9, 12, 13, 20):
        g, floor = complementary_prism(cycle(n)), condition_floor(n)
        below = solve_min_idcode(g, 1, SolverOptions(size_cap=floor - 1))
        assert (below.status, below.size, below.code, below.nodes) == (CAP_EXCEEDED, None, None, 0)
        at = solve_min_idcode(g, 1, SolverOptions(size_cap=floor))
        assert at.status == OPTIMAL and at.size == floor
    # The exhaustive strategy stays off the route.
    assert solve_min_idcode(complementary_prism(cycle(9)), 1, SolverOptions("exhaustive", 6)).nodes > 0


def test_hitting_export_golden():
    text = format_hitting_instance(hitting_instance(path_graph(3), 1))
    assert text == "h 3 6\n1 2\n1 2 3\n2 3\n3\n1 3\n1\n"
    twins = format_hitting_instance(hitting_instance(cycle(3), 1))
    assert twins == "c twin 1 2\nc twin 1 3\nc twin 2 3\nh 3 1\n1 2 3\n"


def _combination_walk(universe, constraints, cap):
    """(size, code, nodes) of the first hitting set among the subsets of size
    at most cap in (size, lex) order, nodes its 1-based position; (None,
    None, subsets walked) when there is none."""
    walk = (c for k in range(cap + 1) for c in combinations(range(universe), k))
    nodes = 0
    for nodes, code in enumerate(walk, 1):
        if all(mask_of(code) & x for x in constraints):
            return len(code), code, nodes
    return None, None, nodes


@pytest.mark.parametrize("block", [1, 7, solver._BLOCK])
def test_exhaustive_matches_combination_walk(monkeypatch, block):
    # nodes is the 1-based position of the first hitting set in (size, lex)
    # order; blocks of 1 and 7 split every size over many partial blocks.
    monkeypatch.setattr(solver, "_BLOCK", block)
    corpus = [complementary_prism(cycle(5)), path_graph(7), random_graph(9, random.Random(2))]
    for g in corpus:
        inst = hitting_instance(g, 1)
        res = solve_min_idcode(g, 1, EXH)
        assert (res.size, res.code, res.nodes) == _combination_walk(g.order, inst.constraints, g.order)


def test_lex_subsets_are_the_combinations_in_order():
    # every table the exhaustive walk can ask for at n <= 20, against its definition
    for n in range(21):
        for k in range(n + 1):
            if comb(n, k) > solver._BLOCK:
                continue
            table = solver._lex_subsets(n, k)
            assert table.dtype == np.uint64 and not table.flags.writeable, (n, k)
            assert table.tolist() == [mask_of(c) for c in combinations(range(n), k)], (n, k)


def test_exhaustive_splits_large_sizes_without_a_patched_block():
    # C(63, 3) > _BLOCK, so size 3 is walked in blocks split on the smallest vertex.
    assert comb(63, 3) > solver._BLOCK >= comb(63, 2)
    rng = random.Random(23)
    groups = [rng.sample(range(20, 63), 4) for _ in range(3)]
    hit3 = HittingInstance(63, tuple(mask_of(g) for g in groups) + (mask_of(range(30, 63)),), ())
    miss = HittingInstance(63, tuple(mask_of(range(a, 63, 4)) for a in range(4)), ())  # needs 4 vertices
    got = [solver._exhaustive(inst, 3) for inst in (hit3, miss)]
    assert got == [_combination_walk(63, inst.constraints, 3) for inst in (hit3, miss)]
    assert got[0][0] == 3 and got[1] == (None, None, sum(comb(63, k) for k in range(4)))
    with pytest.raises(ValueError, match="order at most 63"):
        solver._exhaustive(HittingInstance(64, (1,), ()), 1)
