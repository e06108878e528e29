"""Definitional verifier, hitting-set reduction, and greedy, against set oracles."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prismcode.graphs import (
    Graph,
    PrismIndexing,
    closed_twins,
    complementary_prism,
    cycle,
    mask_of,
    random_graph,
)
from prismcode.idcode import (
    HitTables,
    HittingInstance,
    InfeasibleInstanceError,
    greedy_code,
    hitting_instance,
    is_identifying_code,
    vertex_label,
)
from prismcode.cycleprism import pattern_code

import bruteforce as bf


def path_graph(n):
    return Graph.from_edges(n, [(u, u + 1) for u in range(n - 1)])


def test_empty_code_rejected_at_first_vertex():
    rep = is_identifying_code(cycle(9), 1, ())
    assert not rep.valid
    assert rep.failure.kind == "empty-ball" and rep.failure.vertices == (0,)


def test_pattern_code_is_identifying():
    g = complementary_prism(cycle(9))
    assert is_identifying_code(g, 1, pattern_code(9).vertices()).valid


def test_full_code_still_fails_on_twins():
    g = complementary_prism(cycle(6))
    rep = is_identifying_code(g, 2, range(12))
    assert not rep.valid
    assert rep.failure.kind == "unseparated"
    assert rep.failure == bf_failure(g, 2, range(12))


def bf_failure(g, d, code):
    from prismcode.idcode import VerificationFailure

    kind, verts = bf.first_failure(bf.to_adj(g), d, code)
    return VerificationFailure(kind, verts)


def test_witness_matches_oracle_on_random_codes():
    rng = random.Random(77)
    graphs = [cycle(6), path_graph(5), complementary_prism(cycle(4))]
    graphs += [random_graph(rng.randint(2, 7), rng) for _ in range(6)]
    outcomes = set()
    for g in graphs:
        for d in (1, 2):
            for _ in range(20):
                code = [u for u in range(g.order) if rng.random() < 0.4]
                rep = is_identifying_code(g, d, code)
                want = bf.first_failure(bf.to_adj(g), d, code)
                if want is None:
                    assert rep.valid and rep.failure is None
                else:
                    assert not rep.valid
                    assert (rep.failure.kind, rep.failure.vertices) == want
                outcomes.add("valid" if rep.valid else rep.failure.kind)
    assert outcomes == {"valid", "empty-ball", "unseparated"}  # each way out of the verifier


def test_first_clash_found_in_a_later_class():
    # The star centred at 0 with code {0, 3} gives views A, B, B, A: the clash
    # (1, 2) is met first, but (0, 3) is lexicographically first.
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    rep = is_identifying_code(g, 1, (0, 3))
    assert (rep.failure.kind, rep.failure.vertices) == ("unseparated", (0, 3))
    assert bf.first_failure(bf.to_adj(g), 1, (0, 3)) == ("unseparated", (0, 3))


def test_code_outside_graph_rejected():
    with pytest.raises(ValueError):
        is_identifying_code(cycle(4), 1, [7])


def test_single_vertex_graph():
    g = Graph(1, [0])
    assert is_identifying_code(g, 1, [0]).valid
    inst = hitting_instance(g, 1)
    assert inst.constraints == (1,) and inst.feasible


def test_hitting_instance_prism_c9():
    g = complementary_prism(cycle(9))
    inst = hitting_instance(g, 1)
    assert inst.universe == 18
    assert inst.feasible
    assert all(inst.constraints)
    # independent reconstruction: 18 domination balls + 153 pair differences, deduplicated
    adj = bf.to_adj(g)
    balls = {u: frozenset(bf.bfs_ball(adj, u, 1)) for u in range(18)}
    expect = []
    seen = set()
    for u in range(18):
        if balls[u] not in seen:
            seen.add(balls[u])
            expect.append(balls[u])
    for u, v in combinations(range(18), 2):
        diff = balls[u] ^ balls[v]
        assert diff, "no twins expected here"
        if frozenset(diff) not in seen:
            seen.add(frozenset(diff))
            expect.append(frozenset(diff))
    got = [frozenset(i for i in range(18) if c >> i & 1) for c in inst.constraints]
    assert got == expect


def test_hitting_instance_reports_twins():
    g = complementary_prism(cycle(6))
    inst = hitting_instance(g, 2)
    assert not inst.feasible
    assert inst.infeasible_pairs == closed_twins(g, 2)


def test_reduction_equivalence_exhaustive_small():
    graphs = [cycle(3), cycle(5), path_graph(4), complementary_prism(cycle(3))]
    for g in graphs:
        for d in (1, 2):
            adj = bf.to_adj(g)
            inst = hitting_instance(g, d)
            for bits in range(1 << g.order):
                ok = inst.feasible and all(bits & c for c in inst.constraints)
                assert ok == bf.is_idcode(adj, d, [u for u in range(g.order) if bits >> u & 1])


def _scalar_hits_all(masks, constraints):
    return [all(int(m) & c for c in constraints) for m in masks]


def test_hits_all_matches_scalar_on_random_masks():
    rng = np.random.default_rng(3)
    masks = rng.integers(0, 2 ** 64, size=400, dtype=np.uint64)
    for count in range(25):
        constraints = [
            mask_of(rng.choice(64, size=rng.integers(1, 7), replace=False).tolist())
            for _ in range(count)
        ]
        assert HitTables(constraints).hits_all(masks).tolist() == _scalar_hits_all(masks, constraints)


def test_hits_all_empty_constraint_list():
    masks = np.array([0, 1, 2 ** 64 - 1], dtype=np.uint64)
    assert HitTables([]).hits_all(masks).tolist() == [True, True, True]
    assert HitTables([1, 2]).hits_all(np.zeros(0, dtype=np.uint64)).tolist() == []


def test_hits_all_dead_block_skips_later_words():
    # Constraint 0 is bit 0, which no mask of the dead block holds, so the
    # block is decided by word 0 and words 1 and 2 are never read.
    constraints = [1 << i % 20 for i in range(129)]
    tables = HitTables(constraints)
    touched = []

    class Watched(np.ndarray):
        def __iter__(self):
            for w, table in enumerate(np.asarray(self)):
                touched.append(w)
                yield table

    tables._tables = tables._tables.view(Watched)
    dead = np.arange(2, 2 ** 14, 2, dtype=np.uint64)
    assert tables.hits_all(dead).tolist() == _scalar_hits_all(dead, constraints) == [False] * len(dead)
    assert touched == [0]
    live = np.array([2 ** 20 - 1, 2 ** 19 - 1], dtype=np.uint64)
    touched.clear()
    assert tables.hits_all(live).tolist() == _scalar_hits_all(live, constraints) == [True, False]
    assert touched == [0, 1, 2]


@pytest.mark.parametrize("last", [3, 5, 9])
def test_hits_all_stops_at_next_checkpoint(last):
    # Word w holds 64 copies of the constraint bit w, and mask t holds bits
    # 0..t, so mask t dies in word t + 1 and the last survivor in word
    # last - 1: the block is found empty at the end of that word, the next
    # checkpoint, and the words after it are never read.
    constraints = [1 << w for w in range(20) for _ in range(64)]
    tables = HitTables(constraints)
    touched = []

    class Watched(np.ndarray):
        def __iter__(self):
            for w, table in enumerate(np.asarray(self)):
                touched.append(w)
                yield table

    tables._tables = tables._tables.view(Watched)
    masks = np.array([(1 << t + 1) - 1 for t in range(last - 1)], dtype=np.uint64)
    assert tables.hits_all(masks).tolist() == _scalar_hits_all(masks, constraints) == [False] * (last - 1)
    assert touched == list(range(last))


@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 128, 129, 1023])
def test_hits_all_word_boundaries(count):
    # Sparse constraints keep some masks alive through every word, so each
    # word's padding bits and the gathering of survivors are exercised.
    rng = np.random.default_rng(count)
    constraints = [mask_of(rng.choice(48, size=rng.integers(4, 9), replace=False).tolist()) for _ in range(count)]
    masks = rng.integers(0, 2 ** 48, size=3000, dtype=np.uint64) | rng.integers(0, 2 ** 48, size=3000, dtype=np.uint64)
    masks[:5] = [0, 2 ** 48 - 1, 2 ** 64 - 1, 1, 2 ** 47]
    want = _scalar_hits_all(masks, constraints)
    assert HitTables(constraints).hits_all(masks).tolist() == want
    assert 0 < sum(want) < len(want) or count == 0


@pytest.mark.parametrize("width", range(1, 65))
def test_hits_all_every_width(width):
    # Bits of a mask above the widest constraint hit nothing and are ignored.
    rng = np.random.default_rng(width)
    top = 1 << width - 1
    constraints = [top] + [int(c) | top for c in rng.integers(0, top, size=70, dtype=np.uint64)]
    constraints += [mask_of(rng.choice(width, size=min(width, 2), replace=False).tolist()) for _ in range(10)]
    masks = rng.integers(0, 2 ** 64, size=500, dtype=np.uint64)
    masks[:250] &= np.uint64(2 ** width - 1)
    masks[:2] = [2 ** 64 - 2 ** width, 2 ** 64 - 1]
    want = _scalar_hits_all(masks, constraints)
    assert HitTables(constraints).hits_all(masks).tolist() == want
    assert want[:2] == [False, True]


def test_hits_all_mask_array_shapes():
    rng = np.random.default_rng(5)
    constraints = [mask_of(rng.choice(30, size=3, replace=False).tolist()) for _ in range(90)]
    grid = rng.integers(0, 2 ** 30, size=(40, 60), dtype=np.uint64)
    want = np.array(_scalar_hits_all(grid.reshape(-1), constraints)).reshape(grid.shape)
    assert 0 < want.sum() < want.size
    tables = HitTables(constraints)
    got = tables.hits_all(grid)
    assert got.shape == grid.shape and np.array_equal(got, want)
    strided = grid[::3, 1::2]
    assert not strided.flags.c_contiguous and np.array_equal(tables.hits_all(strided), want[::3, 1::2])
    frozen = grid.copy()
    frozen.flags.writeable = False
    assert np.array_equal(tables.hits_all(frozen), want)
    assert np.array_equal(tables.hits_all(grid.T), want.T)
    for empty in (np.zeros(0, dtype=np.uint64), np.zeros((0, 4), dtype=np.uint64)):
        assert tables.hits_all(empty).shape == empty.shape


def test_hits_all_blocks_that_never_empty():
    rng = np.random.default_rng(4)
    constraints = [int(c) for c in rng.integers(1, 2 ** 64, size=37, dtype=np.uint64)]
    masks = np.concatenate([
        np.array([2 ** 64 - 1], dtype=np.uint64),
        rng.integers(0, 2 ** 64, size=200, dtype=np.uint64),
    ])
    rest = iter(constraints)
    got = HitTables(rest).hits_all(masks)
    assert got[0] and got.tolist() == _scalar_hits_all(masks, constraints)
    assert next(rest, None) is None


def test_supersets_of_codes_are_codes():
    rng = random.Random(12)
    g = complementary_prism(cycle(5))
    base = greedy_code(hitting_instance(g, 1))
    assert is_identifying_code(g, 1, base).valid
    for _ in range(30):
        extra = set(base) | {rng.randrange(g.order) for _ in range(3)}
        assert is_identifying_code(g, 1, extra).valid


def test_greedy_code_valid_and_infeasibility():
    for g, d in [(cycle(6), 1), (cycle(9), 1), (complementary_prism(cycle(7)), 1)]:
        code = greedy_code(hitting_instance(g, d))
        assert is_identifying_code(g, d, code).valid
        assert list(code) == sorted(code)
    with pytest.raises(InfeasibleInstanceError) as err:
        greedy_code(hitting_instance(complementary_prism(cycle(6)), 2))
    assert err.value.witness == closed_twins(complementary_prism(cycle(6)), 2)[0]


def test_greedy_code_equals_recounting_reference():
    # The bitset greedy must pick exactly what recounting every unhit
    # constraint picks: the highest count, then the lowest vertex.
    rng = random.Random(9)
    checked = 0
    for order in range(2, 31):
        for d in (1, 2):
            for p in (0.2, 0.5, 0.8):
                for _ in range(5):
                    inst = hitting_instance(random_graph(order, rng, p), d)
                    if inst.feasible:
                        assert greedy_code(inst) == bf.greedy_hitting_set(inst.constraints), (order, d)
                        checked += 1
    assert checked >= 400
    for n in range(3, 30):
        inst = hitting_instance(complementary_prism(cycle(n)), 1)
        if inst.feasible:
            assert greedy_code(inst) == bf.greedy_hitting_set(inst.constraints), n
    assert greedy_code(HittingInstance(0, (), ())) == bf.greedy_hitting_set(()) == ()
    for d in (1, 2):
        inst = hitting_instance(Graph(1, [0]), d)
        assert greedy_code(inst) == bf.greedy_hitting_set(inst.constraints) == (0,)


def test_report_json_shapes():
    g = complementary_prism(cycle(9))
    ix = PrismIndexing(9)
    ok = is_identifying_code(g, 1, pattern_code(9).vertices()).payload(ix)
    assert ok == {"valid": True}
    bad = is_identifying_code(g, 1, ()).payload(ix)
    assert bad == {"valid": False, "failure": {"kind": "empty-ball", "vertices": ["v1"]}}
    plain = is_identifying_code(cycle(4), 1, ()).payload()
    assert plain["failure"]["vertices"] == [1]
    assert vertex_label(15, ix) == "vbar7" and vertex_label(15) == 16


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 12 - 1), st.integers(2, 7), st.sampled_from([1, 2]))
def test_verifier_agrees_with_oracle(seed, order, d):
    rng = random.Random(seed)
    g = random_graph(order, rng)
    code = [u for u in range(order) if rng.random() < 0.5]
    rep = is_identifying_code(g, d, code)
    assert rep.valid == bf.is_idcode(bf.to_adj(g), d, code)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 12 - 1))
def test_instance_feasibility_matches_twins(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(2, 7), rng)
    d = rng.choice([1, 2])
    inst = hitting_instance(g, d)
    assert inst.feasible == (not bf.twins(bf.to_adj(g), d))
    assert list(inst.infeasible_pairs) == bf.twins(bf.to_adj(g), d)
    if inst.feasible:
        full = mask_of(range(g.order))
        assert all(full & c for c in inst.constraints)
