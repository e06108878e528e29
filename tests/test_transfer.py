"""The condition floor and lex-min pair: closed forms, certified and checked against the DP.

Necessity is shown structurally: every condition instance contains the
closed ball, or the symmetric difference of closed balls, of the prism
vertices it names, computed by BFS on an independently built prism.  The
closed-form floor is certified as a lower bound for every n by a
shortest-path potential over the column transfer graph, and compared
with the reference transfer DP (`transfer_dp`), with brute force over
every code pair at n = 9 and 10, and with the frozen optima up to
n = 22.  The closed-form lex-min pair is compared with the DP's, with
brute force at n = 9 and 10 and with branch and bound.  The upper half is
tested in two parts: every constraint of the prism's hitting instance is
hit by a clean pair with >= 4 bar members (sufficiency), and every
lexmin_pair is its head's pair plus 4 bar members per block (periodicity).
"""

import hashlib
import itertools
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from prismcode.cycleprism import (
    BAR_SEP,
    BAR_SEP_DISTANCE2,
    DOMINATION,
    SEP_ADJACENT,
    SEP_DISTANCE2,
    _FLOOR_EXCESS,
    _LEXMIN_HEAD,
    _LEXMIN_OPTIMA,
    _prism,
    check_conditions,
    condition_floor,
    condition_masks,
    lexmin_optimum,
    lexmin_pair,
    lower_bound,
    upper_bound,
    verify_code,
)
from prismcode.graphs import bits
from prismcode.idcode import hitting_instance
from prismcode.solver import _bnb, solve_min_idcode
from prismcode.sweep import all_codes, condition_satisfied

import bruteforce as bf
import transfer_dp as dp
from test_solver import IC_VALUES

REFERENCE = json.loads((Path(__file__).parents[1] / "perfbench" / "scan_reference.json").read_text())

# Which side of the prism a family's indices name: cycle vertex a or bar vertex n + a.
NAMED_SIDE = {DOMINATION: 0, SEP_ADJACENT: 0, SEP_DISTANCE2: 0, BAR_SEP: 1, BAR_SEP_DISTANCE2: 1}


@pytest.mark.parametrize("n", range(9, 25))
def test_every_condition_contains_a_ball_requirement(n):
    adj = bf.prism_adj(bf.cycle_adj(n))
    balls = [sum(1 << v for v in bf.bfs_ball(adj, u, 1)) for u in range(2 * n)]
    for c in condition_masks(n):
        named = [NAMED_SIDE[c.family] * n + a for a in c.indices]
        need = balls[named[0]] if c.family == DOMINATION else balls[named[0]] ^ balls[named[1]]
        assert need and not need & ~c.mask, c


@lru_cache(maxsize=None)
def clean_codes(n):
    """Every code pair at n meeting every condition instance, identifying or not."""
    codes = all_codes(n)
    return codes[condition_satisfied(n, codes)]


@pytest.mark.parametrize("n", [9, 10])
def test_floor_equals_least_condition_clean_code(n):
    clean = clean_codes(n)
    assert condition_floor(n) == int(np.bitwise_count(clean).min())


@pytest.mark.parametrize("n", [9, 10])
def test_lexmin_pair_equals_brute_force(n):
    # Both n are ones where the lex-min clean pair does not identify.
    clean = clean_codes(n)
    counts = np.bitwise_count(clean)
    # Sorted vertex tuples of one length compare by their lowest differing vertex.
    least = min(tuple(v for v in range(2 * n) if int(m) >> v & 1) for m in clean[counts == counts.min()])
    pair = lexmin_pair(n)
    assert pair.vertices() == least and not verify_code(pair)


@pytest.mark.parametrize("n", [9, 10, 12, *range(13, 20), 21])
def test_lexmin_pair_equals_branch_and_bound(n):
    # At n = 9, 10 and 12 the pair does not identify and solve answers from a
    # stored code instead; the search from the floor reads neither.
    size, code, _ = _bnb(hitting_instance(_prism(n), 1), None, condition_floor(n))
    want = solve_min_idcode(_prism(n), 1).code if n in (9, 10, 12) else lexmin_pair(n).vertices()
    assert (condition_floor(n), want) == (size, code)


def test_lexmin_pair_is_clean_at_the_floor():
    for n in range(9, 41):
        pair = lexmin_pair(n)
        assert pair.size == condition_floor(n) and check_conditions(pair).ok, n
        assert verify_code(pair) == (n not in (9, 10, 12)), n


def test_constraints_a_clean_pair_with_four_bar_members_hits():
    # Sufficiency: each constraint of the prism's instance is a condition
    # mask, contains one, or leaves at most 3 bar vertices out, so a clean
    # pair with >= 4 bar members hits them all and identifies.  Only a
    # cycle-cycle difference at gap >= 3 falls in the middle class, and it
    # holds both endpoints' closed rows, each a DOM window at one of its own
    # cycle positions, so DOM is looked for there alone.
    counts = [0, 0, 0]
    for n in range(9, 41):
        conditions = condition_masks(n)
        masks = {c.mask for c in conditions}
        dom = [c.mask for c in conditions if c.family == DOMINATION]  # anchored at 0..n-1
        bar = ((1 << n) - 1) << n
        for c in hitting_instance(_prism(n), 1).constraints:
            if c in masks:
                counts[0] += 1
            elif any(not dom[a] & ~c for a in bits(c & ~bar)):
                counts[1] += 1
            else:
                assert (bar & ~c).bit_count() <= 3, (n, c)
                counts[2] += 1
    assert counts == [12928, 9008, 22720]


def test_lexmin_pair_is_its_head_then_blocks():
    # Periodicity: each head's pair and the pairs one and two blocks longer
    # are clean at the floor, with one blind position, the same one, in the
    # head, and 4 bar members per block.  Every condition window spans at
    # most 5 consecutive columns, so each window past k = 2 reads the same
    # columns as one at k = 2.
    blind = (7, 8, 3, 10, 3, 4, 5, 6, 6)
    head_bars = [sum(column in "23" for column in head) for head in _LEXMIN_HEAD]
    for r, head in enumerate(_LEXMIN_HEAD):
        for k in range(3):
            n = len(head) + 9 * k
            if n < 9:
                continue
            pair = lexmin_pair(n)
            assert pair.size == condition_floor(n) and check_conditions(pair).ok, n
            assert pair.blind_bar() == {blind[r]} and blind[r] < len(head), n
            assert pair.xbar.bit_count() == head_bars[r] + 4 * k, n
    # So every pair has >= 4 bar members but the k = 0 heads with 2: n = 9, 10 and 12.
    short = {len(head): bars for head, bars in zip(_LEXMIN_HEAD, head_bars) if len(head) >= 9 and bars < 4}
    assert short == dict.fromkeys(_LEXMIN_OPTIMA, 2) == {9: 2, 10: 2, 12: 2}


def test_lexmin_pairs_frozen():
    # SHA-256 of the lines "n x xbar" (x, xbar: the pair's row bitmasks) of
    # the closed form cycleprism.lexmin_pair for n = 9..120, first taken from
    # the transfer DP with 3-D walk tables and forward tables for the bar row,
    # when that DP was the package's: a rewrite of the closed form must keep
    # every pair.  test_lexmin_pair_equals_reference_dp covers the DP.
    pairs = {n: lexmin_pair(n) for n in range(9, 121)}
    lines = "".join(f"{n} {p.x} {p.xbar}\n" for n, p in pairs.items())
    assert hashlib.sha256(lines.encode()).hexdigest() == "6802b0b740a5e1b9a5d8d70f15043a794bc717dc687bd82e295e3a77341444ff"


def test_floor_equals_frozen_optima():
    frozen = {n: size for n, size in IC_VALUES.items() if n >= 9}
    frozen.update((int(n), size) for n, size in REFERENCE["optimum"].items() if int(n) >= 17)
    assert sorted(frozen) == list(range(9, 23))
    assert {n: condition_floor(n) for n in frozen} == frozen


def test_floor_within_bounds_and_periodic():
    # The analytic bounds hold at every accepted n, and the floor grows by 7
    # members every 9 columns.
    for n in range(9, 513):
        floor = condition_floor(n)
        assert lower_bound(n) <= floor <= upper_bound(n)[0], n
        assert n < 18 or floor == condition_floor(n - 9) + 7, n


def test_floor_equals_reference_dp():
    for n in range(9, 121):
        assert condition_floor(n) == int(dp._reach(n).min()), n


def test_lexmin_pair_equals_reference_dp():
    for n in range(9, 61):
        assert lexmin_pair(n) == dp.lexmin_pair(n), n


def test_floor_certificate_for_every_n():
    # Nodes (s, b, r): DP state s after a walk with b blind windows and a
    # length of r mod 9.  A step appending a column of w members costs
    # 9w - 7, so a closed n-column walk of reduced cost c holds (7n + c) / 9
    # members.  With a potential d_s (d_s[v] <= d_s[u] + cost on every edge),
    # every closed walk from s of length r mod 9 costs at least
    # d_s[s, b, r] - d_s[s, 0, 0]; the least of these over s and b is then a
    # lower bound on the floor's excess for every n with n % 9 == r.
    states, cost, _ = dp._tables()
    count = len(states)
    nodes = 18 * count
    node = lambda s, b, r: (2 * r + b) * count + s
    u, v = [], []
    for s, moves in enumerate(dp._successors()):
        for t, blind in filter(None, moves):
            for b, r in itertools.product(range(2 - blind), range(9)):
                u.append(node(s, b, r))
                v.append(node(t, b + blind, (r + 1) % 9))
    u, v = np.array(u), np.array(v)
    step = 9 * np.tile(cost, 18).astype(float) - 7  # the cost of every edge into a node
    # Bellman-Ford from every (s, 0, 0) at once, one column per s; it settles
    # in 24 rounds, and the round limit cannot make a wrong potential pass the
    # edge check below.  into[:, x] lists the nodes with an edge into x, padded
    # with an extra node held at inf.
    into = [[] for _ in range(nodes)]
    for a, b in zip(u.tolist(), v.tolist()):
        into[b].append(a)
    into = np.array([row + [nodes] * (4 - len(row)) for row in into]).T
    starts = np.arange(count)
    d = np.full((nodes + 1, count), np.inf)
    d[node(starts, 0, 0), starts] = 0
    for _ in range(100):
        best = np.minimum.reduce(d[into], axis=0) + step[:, None]
        if (best >= d[:-1]).all():
            break
        np.minimum(d[:-1], best, out=d[:-1])
    # The certificate, checked edge by edge apart from the loop above.
    assert (d[v] <= d[u] + step[v, None]).all()
    origin = d[node(starts, 0, 0), starts]
    excess = [min((d[node(starts, b, r), starts] - origin).min() for b in (0, 1)) for r in range(9)]
    assert excess == list(_FLOOR_EXCESS)


def test_transfer_tables_shape():
    states, cost, pred = dp._tables()
    assert len(states) == 228
    assert pred.shape == (2, 228, 4)
    assert cost.tolist() == [int(s >> 6).bit_count() for s in states]
    assert (pred[1] < 228).sum() > 0  # some legal windows are blind


def test_floor_scope():
    with pytest.raises(ValueError):
        condition_floor(8)
    with pytest.raises(ValueError):
        lexmin_pair(8)
    with pytest.raises(ValueError):
        lexmin_optimum(8)
