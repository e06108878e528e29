"""Graph construction, balls, twins, and the text format, against BFS/set oracles."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from prismcode.graphs import (
    Graph,
    GraphFormatError,
    PrismIndexing,
    ball_table,
    bit_matrix,
    bits,
    closed_twins,
    complement,
    complementary_prism,
    cycle,
    format_graph,
    parse_graph,
    random_graph,
)

import bruteforce as bf
from prismcode import graphs
from prismcode.cycleprism import _prism


def random_graphs(seed=4, count=12, max_order=9):
    rng = random.Random(seed)
    return [random_graph(rng.randint(1, max_order), rng) for _ in range(count)]


def test_cycle_small():
    g = cycle(3)
    assert g.order == 3 and g.edge_count == 3
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    g9 = cycle(9)
    assert all(g9.degree(u) == 2 for u in range(9))
    assert bf.to_adj(g9) == bf.cycle_adj(9)


def test_cycle_domain():
    with pytest.raises(ValueError):
        cycle(2)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, [1, 0])  # self-loop at vertex 0
    with pytest.raises(ValueError):
        Graph(1, [1])  # self-loop
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])  # endpoint out of range
    g = Graph.from_edges(3, [(0, 1)])
    assert [g.neighbors(u) for u in range(3)] == [(1,), (0,), ()]
    assert repr(g) == "Graph(order=3, edges=1)"
    with pytest.raises(AttributeError):
        g.order = 5  # graphs are immutable
    with pytest.raises(AttributeError):
        g.edge_count = 1
    with pytest.raises(ValueError, match="^order must be nonnegative$"):
        Graph(-1, [])
    with pytest.raises(ValueError, match="^adjacency length must equal order$"):
        Graph(2, [0])
    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        Graph.from_edges(3, [(1, 1)])  # from_edges' own check, before Graph sees a row
    asymmetric = r"edge \d+,\d+ is not symmetric"
    with pytest.raises(ValueError, match=asymmetric):
        Graph(2, [2, 0])  # entry above the diagonal only
    with pytest.raises(ValueError, match=asymmetric):
        Graph(2, [0, 1])  # entry below the diagonal only
    rng = random.Random(12)
    for order, add, above in itertools.product((64, 100), (True, False), (True, False)):
        g = random_graph(order, rng)
        u, v = sorted(rng.sample(range(order), 2))
        while g.has_edge(u, v) == add:
            u, v = sorted(rng.sample(range(order), 2))
        a, b = (u, v) if above else (v, u)
        rows = list(g.adj)
        rows[a] ^= 1 << b  # one-way edge: entry a,b added or removed, not its mirror
        a, b = (a, b) if add else (b, a)  # the entry left without a mirror
        with pytest.raises(ValueError, match=f"^edge {a},{b} is not symmetric$"):
            Graph(order, rows)
    # One-way entries at the corners of the largest order, and in the last
    # partial byte of an order that is not a multiple of 8.
    for order, a, b in ((1024, 0, 1023), (1024, 1023, 0), (1021, 1020, 1013), (1021, 3, 1018)):
        rows = list(cycle(order).adj)
        rows[b] &= ~(1 << a)
        rows[a] |= 1 << b
        with pytest.raises(ValueError, match=f"^edge {a},{b} is not symmetric$"):
            Graph(order, rows)
    # A dense graph: the unmirrored entry is in the last row, past about a million set bits.
    rows = list(complement(cycle(1024)).adj)
    rows[1] &= ~(1 << 1023)
    with pytest.raises(ValueError, match="^edge 1023,1 is not symmetric$"):
        Graph(1024, rows)
    # Range and self-loop errors name the first offending row; within a row
    # the range error comes first.
    with pytest.raises(ValueError, match=r"^row 1 mentions vertices outside 0\.\.2$"):
        Graph(3, [0, -1, 0])  # a negative row, not an OverflowError from to_bytes
    with pytest.raises(ValueError, match=r"^row 4 mentions vertices outside 0\.\.4$"):
        Graph(5, [0, 0, 0, 0, 1 << 6])  # bit 6 is in the last partial byte
    with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
        Graph(3, [0, 2, 8])  # self-loop in row 1, vertex 3 in row 2
    with pytest.raises(ValueError, match=r"^row 1 mentions vertices outside 0\.\.2$"):
        Graph(3, [0, 8 | 2, 4])  # row 1 holds both faults, row 2 a self-loop
    assert Graph(0, []).edge_count == 0 and Graph(1, [0]).edge_count == 0
    for order in (2, 7, 8, 9, 63, 64, 65, 200):
        g = random_graph(order, rng)
        assert type(g.edge_count) is int and g.edge_count == len(list(g.edges()))


def test_bit_matrix_places_bit_v_of_row_u_at_u_v():
    rng = random.Random(19)
    for width in (0, 1, 7, 8, 9, 64, 65):
        rows = [rng.getrandbits(width) if width else 0 for _ in range(5)] + [(1 << width) - 1]
        matrix = bit_matrix(rows, width)
        assert matrix.shape == (6, width) and matrix.dtype == "uint8"
        assert matrix.tolist() == [[row >> v & 1 for v in range(width)] for row in rows]
    assert bit_matrix([], 9).shape == (0, 9)


def test_complement_triangle_and_involution():
    assert complement(cycle(3)).edge_count == 0
    for g in random_graphs():
        assert complement(complement(g)) == g
        assert bf.to_adj(complement(g)) == bf.complement_adj(bf.to_adj(g))


def test_complement_c5_self():
    assert bf.isomorphic(bf.to_adj(complement(cycle(5))), bf.cycle_adj(5))


def test_prism_c3():
    g = complementary_prism(cycle(3))
    assert g.order == 6 and g.edge_count == 6  # triangle + empty side + matching


def test_prism_c9_shape():
    g = complementary_prism(cycle(9))
    assert g.order == 18 and g.edge_count == 45
    assert all(g.degree(9 + u) == 7 for u in range(9))  # n-3 complement edges + matching
    assert all(g.degree(u) == 3 for u in range(9))


def test_prism_matches_oracle():
    for g in random_graphs(seed=5, max_order=7):
        assert bf.to_adj(complementary_prism(g)) == bf.prism_adj(bf.to_adj(g))


def test_prism_restrictions_are_exact():
    g = cycle(7)
    p = complementary_prism(g)
    n = g.order
    low = (1 << n) - 1
    comp = complement(g)
    for u in range(n):
        assert p.adj[u] & low == g.adj[u]
        assert (p.adj[n + u] >> n) == comp.adj[u]
        assert p.has_edge(u, n + u)


def test_ball_cycle5():
    assert tuple(bits(ball_table(cycle(5), 1)[0])) == (0, 1, 4)


def test_ball_prism_c6_d2_saturates():
    p = complementary_prism(cycle(6))
    assert ball_table(p, 2)[6] == (1 << 12) - 1  # vbar1 reaches everything in two steps


def test_ball_table_stops_once_balls_settle():
    # C_12 has diameter 6; 10**9 rounds would not finish, the settled balls do at once
    g = cycle(12)
    start = time.perf_counter()
    assert ball_table(g, 10**9) == ball_table(g, 6) == ((1 << 12) - 1,) * 12
    assert time.perf_counter() - start < 1.0
    assert ball_table(g, 5) != ball_table(g, 6)


def test_ball_table_rounds_run_from_the_closed_rows(monkeypatch):
    # C_12 has diameter 6: radius 7 is the first round that changes no ball.
    # Every radius asked runs d - 1 rounds from the closed rows, up to that
    # round, and a radius already asked runs none.
    g = cycle(12)
    adj = bf.to_adj(g)
    unions = []
    union = graphs._union
    monkeypatch.setattr(graphs, "_union", lambda balls, members: unions.append(members) or union(balls, members))

    def rounds(d):
        unions.clear()
        balls = ball_table(g, d)
        assert [set(bits(ball)) for ball in balls] == [bf.bfs_ball(adj, u, d) for u in range(g.order)]
        assert len(unions) % g.order == 0
        return len(unions) // g.order

    assert [rounds(d) for d in (1, 3, 4, 2, 3)] == [0, 2, 3, 1, 0]
    assert [rounds(d) for d in (6, 7, 8, 10**9)] == [5, 6, 6, 6]
    assert rounds(10**9) == rounds(8) == rounds(1) == 0


def test_ball_table_equals_bfs_up_to_one_past_settling():
    # Seeded paths, cycles and sparse random graphs, at every radius from 1
    # to one past the largest distance within a component, the radius of
    # the first round that changes no ball.
    rng = random.Random(22)
    family = [Graph.from_edges(n, [(u, u + 1) for u in range(n - 1)]) for n in (1, 2, 5, rng.randint(6, 30))]
    family += [cycle(n) for n in (3, 4, 7, rng.randint(8, 30))]
    family += [random_graph(rng.randint(1, 30), rng, p) for p in (0.05, 0.1, 0.15) for _ in range(4)]
    for g in family:
        adj = bf.to_adj(g)
        whole = [bf.bfs_ball(adj, u, g.order) for u in range(g.order)]
        settle = max((min(r for r in range(g.order) if bf.bfs_ball(adj, u, r) == whole[u]) for u in range(g.order)), default=0)
        for d in range(1, settle + 2):
            want = [bf.bfs_ball(adj, u, d) for u in range(g.order)]
            assert [set(bits(ball)) for ball in ball_table(g, d)] == want, (g, d)


def test_ball_table_on_the_largest_cycle_at_a_huge_radius_is_fast():
    # 512 rounds of one OR per closed neighbour; walking every member of
    # every ball took minutes here.
    g = cycle(1024)
    start = time.perf_counter()
    assert ball_table(g, 10**9) == ((1 << 1024) - 1,) * 1024
    assert time.perf_counter() - start < 2.0


def test_ball_domain():
    with pytest.raises(ValueError):
        ball_table(cycle(4), 0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_balls_equal_bfs(d):
    graphs = [cycle(5), complementary_prism(cycle(4))] + random_graphs(seed=d, count=6)
    for g in graphs:
        adj = bf.to_adj(g)
        balls = ball_table(g, d)
        for u in range(g.order):
            assert set(bits(balls[u])) == bf.bfs_ball(adj, u, d)


def test_ball_table_cached_per_graph():
    for g in [cycle(9)] + random_graphs(seed=21, count=5):
        h = hash(g)
        assert ball_table(g, 1) is ball_table(g, 1)
        adj = bf.to_adj(g)
        for d in (3, 1, 2):
            balls = ball_table(g, d)
            assert [set(bits(ball)) for ball in balls] == [bf.bfs_ball(adj, u, d) for u in range(g.order)]
        fresh = Graph(g.order, g.adj)
        assert fresh == g and hash(fresh) == hash(g) == h
        with pytest.raises(AttributeError):
            g.order = 1
        assert g == fresh


def test_ball_monotone_in_d():
    g = complementary_prism(cycle(5))
    b1, b2, b3 = (ball_table(g, d) for d in (1, 2, 3))
    for u in range(g.order):
        assert b1[u] & ~b2[u] == 0 and b2[u] & ~b3[u] == 0


def test_closed_twins_cases():
    assert closed_twins(cycle(3), 1) == ((0, 1), (0, 2), (1, 2))
    assert closed_twins(cycle(9), 1) == ()
    pairs = set(closed_twins(complementary_prism(cycle(6)), 2))
    assert {(6 + u, 6 + v) for u in range(6) for v in range(u + 1, 6)} <= pairs


def test_prisms_of_cycles_have_no_radius_1_twins():
    # The lemma behind every scan row being optimal: N[v_i] holds one bar
    # vertex and three cycle vertices, N[vbar_i] one cycle vertex.
    for n in [*range(3, 65), 512]:
        assert closed_twins(_prism(n), 1) == (), n


def test_twins_match_oracle():
    for g in random_graphs(seed=9, count=8, max_order=8):
        for d in (1, 2):
            assert list(closed_twins(g, d)) == bf.twins(bf.to_adj(g), d)


def test_prism_indexing_roundtrip():
    ix = PrismIndexing(9)
    assert ix.label(2) == "v3" and ix.label(15) == "vbar7"
    assert ix.parse_label("v3") == 2 and ix.parse_label("vbar7") == 15
    assert [ix.label(v) for v in (0, 8, 9, 17)] == ["v1", "v9", "vbar1", "vbar9"]
    assert [ix.parse_label(ix.label(v)) for v in range(18)] == list(range(18))
    for v in (-1, 18, 10**6):
        with pytest.raises(ValueError, match=f"^vertex {v} outside prism of order 18$"):
            ix.label(v)
    # a label's digits are a numeral, as a plain vertex number's are: ASCII, no leading zero
    for text in ("v10", "vbar10", "v0", "w3", "v01", "vbar06", "v\u0663", "vbar\uff17", "v", "vbar"):
        with pytest.raises(GraphFormatError, match=f"^bad vertex label '{text}'$"):
            ix.parse_label(text)


def test_format_roundtrip_and_sorting():
    for g in random_graphs(seed=2):
        text = format_graph(g)
        lines = text.splitlines()
        assert lines[0].startswith("p ")
        assert lines[1:] == sorted(lines[1:], key=lambda s: tuple(map(int, s.split()[1:])))
        assert parse_graph(text) == g
    withc = format_graph(cycle(4), comments=("hello", "world"))
    assert parse_graph(withc) == cycle(4)


def test_parse_errors():
    for bad in (
        "",
        "e 1 2\n",
        "p 3\n",
        "p 3 1\ne 1 4\n",
        "p 3 1\ne 1 1\n",
        "p 3 2\ne 1 2\n",
        "p 3 1\nq 1 2\ne 1 2\n",
        "p 3 2\ne 1 2\ne 1 2\n",
        "p 3 1\np 3 1\ne 1 2\n",
    ):
        with pytest.raises(GraphFormatError):
            parse_graph(bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 40))
def test_prism_degree_sum(n):
    # cycle side degree 3, bar side degree n-2: edge total 3n + n(n-3)/2... checked via handshake
    p = complementary_prism(cycle(n))
    assert p.order == 2 * n
    assert all(p.degree(u) == 3 for u in range(n))
    assert all(p.degree(n + u) == n - 2 for u in range(n))
    assert 2 * p.edge_count == sum(p.degree(u) for u in range(2 * n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 15 - 1))
def test_random_graph_roundtrip(seed):
    rng = random.Random(seed)
    g = random_graph(rng.randint(1, 8), rng)
    assert parse_graph(format_graph(g)) == g


@pytest.mark.parametrize("p", [0, 0.3, 0.5, 1])
@pytest.mark.parametrize("order", [0, 1, 2, 40, 300])
def test_random_graph_equals_pair_loop(order, p):
    # the definition: one draw per pair u < v in lexicographic order, an edge
    # where it falls below p; the rng must be left in the same state
    got_rng, want_rng = random.Random(order), random.Random(order)
    got = random_graph(order, got_rng, p)
    edges = [(u, v) for u in range(order) for v in range(u + 1, order) if want_rng.random() < p]
    assert got == Graph.from_edges(order, edges)
    assert got.edge_count == len(edges)
    assert got_rng.random() == want_rng.random()
