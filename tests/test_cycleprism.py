"""Condition system, pattern, bounds, and the exchange rewrite.

The oracle for every condition family is its meaning in the prism:
domination instances must coincide with nonempty code views and
separation instances with distinct views of the named pair, computed
from BFS balls.  The weak bar-pair instances (offset n-2) are only
implied by separation, and the test pins down exactly that asymmetry.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prismcode.cycleprism import (
    BAR_SEP,
    BAR_SEP_DISTANCE2,
    DOMINATION,
    IMPROVED,
    NOT_APPLICABLE,
    PATTERN_DETECTED,
    SEP_ADJACENT,
    WINDOW_ROW,
    SEP_DISTANCE2,
    CodePair,
    ConditionReport,
    ExchangeResult,
    Violation,
    check_conditions,
    _window_at,
    condition_masks,
    exchange,
    lexmin_pair,
    lower_bound,
    pattern_code,
    prism_cycle_length,
    upper_bound,
    verify_code,
)
from prismcode.graphs import Graph, complementary_prism, cycle
from prismcode.idcode import is_identifying_code

import bruteforce as bf


def random_code(n, rng, bar_bias=0.5):
    x = sum(1 << a for a in range(n) if rng.random() < 0.5)
    xbar = sum(1 << a for a in range(n) if rng.random() < bar_bias)
    return CodePair(n, x, xbar)


# ------------------------------------------------------------------ CodePair

def test_codepair_strings_roundtrip():
    code = CodePair.from_strings("111000000\n000011110\n")
    assert code == pattern_code(9)
    assert code.to_strings() == "111000000\n000011110\n"
    assert code.size == 7
    assert code.vertices() == (0, 1, 2, 13, 14, 15, 16)


def test_codepair_errors():
    # other characters are rejected even when the rows lack a 0 or a 1
    for bad in ("111\n", "11\n111\n", "102\n000\n", "", "022000000\n000011110\n", "abcdefghi\nabcdefghi\n"):
        with pytest.raises(ValueError):
            CodePair.from_strings(bad)
    with pytest.raises(ValueError):
        CodePair(4, 1 << 4, 0)
    with pytest.raises(ValueError, match="^n must be positive$"):
        CodePair(0, 0, 0)
    with pytest.raises(ValueError):
        CodePair.from_vertices(4, [8])


def test_codepair_vertex_mask_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        code = random_code(11, rng)
        assert CodePair.from_vertex_mask(11, code.vertex_mask) == code
        assert CodePair.from_vertices(11, code.vertices()) == code


def test_bad_and_blind_positions():
    pat = pattern_code(9)
    assert pat.bad_indices() == frozenset({3, 8})
    assert pat.blind_bar() == frozenset()
    alt = CodePair.from_strings("101010101\n010101010")
    assert alt.bad_indices() == frozenset()
    assert alt.blind_bar() == frozenset({1, 3, 5, 7})


# ------------------------------------------------------------------- pattern

def test_pattern_members_9_11_18():
    assert pattern_code(9).to_strings() == "111000000\n000011110\n"
    p11 = pattern_code(11)
    assert p11.x == sum(1 << a for a in (0, 1, 2, 9, 10))
    assert p11.xbar == sum(1 << a for a in (4, 5, 6, 7))
    p18 = pattern_code(18)
    assert p18.x == sum(1 << a for a in (0, 1, 2, 9, 10, 11))
    assert p18.xbar == sum(1 << a for a in (4, 5, 6, 7, 13, 14, 15, 16))


def residue_pattern(n):
    """pattern_code by residues, 1-based: the reference for its column-word build."""
    k = n // 9
    x = xbar = 0
    for i in range(1, n + 1):
        if (i % 9 in (1, 2, 3) and i <= 9 * k) or i > 9 * k:
            x |= 1 << i - 1
        if i % 9 in (5, 6, 7, 8) and i <= 9 * k:
            xbar |= 1 << i - 1
    return CodePair(n, x, xbar)


def test_pattern_matches_residue_reference():
    for n in range(9, 201):
        assert pattern_code(n) == residue_pattern(n), n


@pytest.mark.parametrize("n", [9, 10, 11, 17, 18, 19, 26, 27, 28, 45, 100])
def test_pattern_size_formula(n):
    assert pattern_code(n).size == n - 2 * (n // 9)


def test_pattern_is_identifying_spot_checks():
    for n in (9, 12, 20, 31):
        g = complementary_prism(cycle(n))
        assert is_identifying_code(g, 1, pattern_code(n).vertices()).valid
        assert verify_code(pattern_code(n))


def test_bounds_frozen_values():
    assert upper_bound(9) == (7, Fraction(79, 9))
    assert upper_bound(90) == (70, Fraction(646, 9))
    assert upper_bound(10) == (8, Fraction(86, 9))
    assert lower_bound(9) == -5
    assert lower_bound(90) == 58
    assert lower_bound(108) == 72


def test_bounds_ordering():
    for n in range(9, 220):
        exact, analytic = upper_bound(n)
        assert lower_bound(n) <= exact
        assert exact <= analytic  # the analytic bound is never tighter
        assert pattern_code(n).size == exact


def test_lower_bound_is_the_rational_ceiling():
    for n in range(9, 10**5 + 1):
        assert lower_bound(n) == math.ceil(Fraction(7 * n, 9) - 12), n


@pytest.mark.parametrize("fn", [pattern_code, upper_bound, lower_bound, check_conditions])
def test_scope_below_nine(fn):
    arg = CodePair(8, 0, 0) if fn is check_conditions else 8
    with pytest.raises(ValueError):
        fn(arg)


# ---------------------------------------------------------------- conditions

def test_condition_count():
    for n in (9, 10, 13):
        fams = {}
        for c in condition_masks(n):
            fams[c.family] = fams.get(c.family, 0) + 1
        assert fams == {
            DOMINATION: n,
            SEP_ADJACENT: n,
            SEP_DISTANCE2: n,
            BAR_SEP: n * (n - 2),
            BAR_SEP_DISTANCE2: n,
        }


def test_offset_n_minus_2_bar_sep_implied_by_distance2_family():
    for n in range(9, 15):
        conds = condition_masks(n)
        tight = {c.indices: c.mask for c in conds if c.family == BAR_SEP_DISTANCE2}
        weak = [c for c in conds if c.family == BAR_SEP and (c.indices[1] - c.indices[0]) % n == n - 2]
        assert len(weak) == n
        for c in weak:
            mask = tight[c.indices[1], c.indices[0]]
            assert c.mask & mask == mask


def test_prism_cycle_length_recognizes_only_prisms_of_cycles():
    for n in range(3, 13):
        assert prism_cycle_length(complementary_prism(cycle(n))) == n
        assert prism_cycle_length(cycle(2 * n)) is None
    assert prism_cycle_length(cycle(9)) is None  # odd order
    # Same order and edge count, other edges: a 21-edge graph on 12 vertices.
    g = Graph.from_edges(12, [(u, v) for u in range(7) for v in range(u + 1, 7)])
    assert prism_cycle_length(g) is None
    prism = complementary_prism(cycle(6))
    flipped = Graph.from_edges(12, [(u ^ 1 if u < 2 else u, v ^ 1 if v < 2 else v) for u, v in prism.edges()])
    assert flipped != prism and prism_cycle_length(flipped) is None


def test_pattern_meets_all_conditions():
    for n in (9, 14, 23):
        assert check_conditions(pattern_code(n)).ok


def test_empty_code_violates_everything():
    report = check_conditions(CodePair(9, 0, 0))
    assert len(report.violations) == len(condition_masks(9))
    assert {v.family for v in report.violations} == {
        DOMINATION, SEP_ADJACENT, SEP_DISTANCE2, BAR_SEP, BAR_SEP_DISTANCE2,
    }
    assert report.bad_indices == frozenset(range(9))


def test_alternating_code_violations_frozen():
    report = check_conditions(CodePair.from_strings("101010101\n010101010"))
    got = [(v.family, v.indices) for v in report.violations]
    assert got == [
        (SEP_ADJACENT, (8, 0)),
        (BAR_SEP, (1, 5)), (BAR_SEP, (1, 7)),
        (BAR_SEP, (3, 7)), (BAR_SEP, (3, 1)),
        (BAR_SEP, (5, 1)), (BAR_SEP, (5, 3)),
        (BAR_SEP, (7, 1)), (BAR_SEP, (7, 3)), (BAR_SEP, (7, 5)),
        (BAR_SEP_DISTANCE2, (1, 3)), (BAR_SEP_DISTANCE2, (3, 5)), (BAR_SEP_DISTANCE2, (5, 7)),
    ]
    # the flagged distance-2 bar pair really is unseparated in the prism
    g = complementary_prism(cycle(9))
    code = CodePair.from_strings("101010101\n010101010").vertices()
    adj = bf.to_adj(g)
    assert bf.bfs_ball(adj, 10, 1) & set(code) == bf.bfs_ball(adj, 12, 1) & set(code)
    assert not bf.is_idcode(adj, 1, code)


def _view(adj, code_set, v):
    return frozenset(bf.bfs_ball(adj, v, 1) & code_set)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([9, 10, 12, 14]))
def test_condition_families_mean_what_they_say(seed, n):
    rng = random.Random(seed)
    code = random_code(n, rng)
    adj = bf.prism_adj(bf.cycle_adj(n))
    code_set = set(code.vertices())
    mask = code.vertex_mask
    for fam, idx, cmask in condition_masks(n):
        sat = bool(mask & cmask)
        a = idx[0]
        if fam == DOMINATION:
            semantic = bool(_view(adj, code_set, a))
            assert sat == semantic
        elif fam in (SEP_ADJACENT, SEP_DISTANCE2):
            b = idx[1]
            assert sat == (_view(adj, code_set, a) != _view(adj, code_set, b))
        elif fam == BAR_SEP_DISTANCE2:
            b = idx[1]
            assert sat == (_view(adj, code_set, n + a) != _view(adj, code_set, n + b))
        else:  # BAR_SEP: exact except for the redundant offset n-2 instances
            b = idx[1]
            separated = _view(adj, code_set, n + a) != _view(adj, code_set, n + b)
            if (b - a) % n == n - 2:
                assert not separated or sat  # weak: implied by separation only
            else:
                assert sat == separated


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1), st.sampled_from([9, 10, 11, 13]))
def test_verify_code_matches_definition(seed, n):
    rng = random.Random(seed)
    # mixed bar densities, on both sides of the 4-bar-member threshold where the conditions are exact
    code = random_code(n, rng, bar_bias=rng.choice([0.15, 0.5, 0.85]))
    want = bf.is_idcode(bf.prism_adj(bf.cycle_adj(n)), 1, code.vertices())
    assert verify_code(code) == want


def test_verify_code_equals_definitional_verifier():
    rng = random.Random(29)
    for n in range(9, 31):
        g = complementary_prism(cycle(n))  # a graph of its own, so its own ball table
        codes = [pattern_code(n), lexmin_pair(n)] + [random_code(n, rng, bias) for bias in (0.15, 0.5, 0.85)]
        for code in codes:
            assert verify_code(code) == is_identifying_code(g, 1, code.vertices()).valid, code


def test_verify_code_fallback_branch():
    # bar side empty: conditions alone would pass some of these, verify_code must not
    all_cycle = CodePair(9, (1 << 9) - 1, 0)
    g = complementary_prism(cycle(9))
    assert verify_code(all_cycle) == is_identifying_code(g, 1, all_cycle.vertices()).valid
    all_bar = CodePair(9, 0, (1 << 9) - 1)
    assert verify_code(all_bar) == is_identifying_code(g, 1, all_bar.vertices()).valid


def test_condition_report_json():
    report = check_conditions(CodePair.from_strings("101010101\n010101010"))
    payload = report.payload()
    assert payload["ok"] is False
    assert payload["violations"][0] == {"family": SEP_ADJACENT, "indices": [9, 1]}
    assert payload["blind_bar"] == [2, 4, 6, 8]
    clean = check_conditions(pattern_code(9)).payload()
    assert clean == {"ok": True, "violations": [], "bad_indices": [4, 9], "blind_bar": []}


def reference_columns(code):
    """The bad and the blind positions, tested column by column."""
    n, x, xbar = code.n, code.x, code.xbar
    bad = frozenset(a for a in range(n) if not (x | xbar) >> a & 1)
    blind = frozenset(
        a for a in range(n) if not (xbar >> (a - 1) % n & 1 or x >> a & 1 or xbar >> (a + 1) % n & 1)
    )
    return bad, blind


def reference_report(code):
    """check_conditions' reference: one mask test per condition_masks instance,
    and the bad and blind positions tested column by column."""
    violations = tuple(Violation(c.family, c.indices) for c in condition_masks(code.n) if not code.vertex_mask & c.mask)
    return ConditionReport(code.n, violations, *reference_columns(code))


def differential_pairs(ns, per_density, seed=13):
    """For each n: the all-zero and all-one pairs, pattern_code, lexmin_pair,
    and per_density seeded pairs at each of a low, middle and high density."""
    rng = random.Random(seed)
    row = lambda n, p: sum(1 << a for a in range(n) if rng.random() < p)
    for n in ns:
        yield from (CodePair(n, 0, 0), CodePair(n, (1 << n) - 1, (1 << n) - 1), pattern_code(n), lexmin_pair(n))
        for p in (0.15, 0.5, 0.85):
            for _ in range(per_density):
                yield CodePair(n, row(n, p), row(n, p))


def test_bad_and_blind_methods_equal_column_reference():
    for code in differential_pairs(range(9, 41), per_density=4):
        assert (code.bad_indices(), code.blind_bar()) == reference_columns(code), code


def test_check_conditions_equals_mask_reference():
    for code in differential_pairs(range(9, 41), per_density=4):
        got, want = check_conditions(code), reference_report(code)
        assert got.violations == want.violations, code
        assert got.bad_indices == want.bad_indices and got.blind_bar == want.blind_bar, code
        assert got.payload() == want.payload(), code


# ------------------------------------------------------------------ exchange

DOUBLED_WINDOW = "100101001100101001"


def test_exchange_not_applicable_without_hypothesis():
    pat = pattern_code(9)  # bar side has only 4 members
    assert all(exchange(pat, a).kind == NOT_APPLICABLE for a in range(9))
    pat27 = pattern_code(27)  # bar side large, but no two adjacent empty columns
    assert all(exchange(pat27, a).kind == NOT_APPLICABLE for a in range(27))


def test_exchange_position_range():
    with pytest.raises(ValueError):
        exchange(pattern_code(9), 9)


def test_exchange_on_doubled_window():
    code = CodePair.from_strings(DOUBLED_WINDOW + "\n" + DOUBLED_WINDOW)
    assert verify_code(code)
    kinds = {a: exchange(code, a) for a in range(18)}
    assert kinds[1].kind == PATTERN_DETECTED and kinds[1].window_start == 0
    assert kinds[10].kind == PATTERN_DETECTED and kinds[10].window_start == 9
    assert kinds[6].kind == IMPROVED
    assert kinds[15].kind == IMPROVED
    for a in set(range(18)) - {1, 6, 10, 15}:
        assert kinds[a].kind == NOT_APPLICABLE
    improved = kinds[6].code
    # second rewrite fired: cycle vertex at 8 swapped for bar vertex at 7
    assert improved.to_strings() == "100101000100101001\n100101011100101001\n"
    assert verify_code(improved)
    assert improved.size == code.size
    assert len(improved.bad_indices()) == len(code.bad_indices()) - 1


def per_column(code, start):
    """Do both rows read WINDOW_ROW from column start on, tested column by column?"""
    return all(
        (code.x >> (start + k) % code.n & 1) == want == (code.xbar >> (start + k) % code.n & 1)
        for k, want in enumerate(WINDOW_ROW)
    )


def test_window_at_matches_per_column_reference():
    # every start, so windows that wrap past column n - 1 are covered
    rng = random.Random(9)
    for n in (9, 10, 13, 20):
        for start in range(n):
            window = sum(bit << (start + k) % n for k, bit in enumerate(WINDOW_ROW))
            codes = [CodePair(n, window, window), random_code(n, rng)]
            codes.append(CodePair(n, window | rng.getrandbits(n), window))
            for code in codes:
                assert [_window_at(code, a) for a in range(n)] == [per_column(code, a) for a in range(n)]
            assert _window_at(codes[0], start)


def test_exchange_improved_invariants_from_enumeration():
    import prismcode.sweep as sw

    packed = sw.enumerate_valid_codes(9)
    packed = packed[sw.bar_counts(9, packed) >= 6][:400]
    checked = 0
    for raw in packed:
        code = CodePair.from_vertex_mask(9, int(raw))
        for a in range(9):
            result = exchange(code, a)
            if result.kind == IMPROVED:
                checked += 1
                assert verify_code(result.code)
                assert result.code.size <= code.size
                assert len(result.code.bad_indices()) < len(code.bad_indices())
    assert checked > 0


def exchange_codes(ns, seed=27):
    """Codes on which exchange does more than reject, for each n: four
    seeded pairs with a sparse cycle row and a dense bar row, with two
    adjacent columns cleared at a seeded start; four "opened" pattern
    codes, built as the benchmark builds them (in a seeded 9-block the
    cycle vertices at 1 and 2 are swapped for the bar vertices at 0 and
    3, leaving two empty columns), with 0..3 seeded flips; and two
    pattern codes with the rigid window planted in both rows at a seeded
    start."""
    rng = random.Random(seed)
    window = sum(bit << k for k, bit in enumerate(WINDOW_ROW))
    for n in ns:
        for _ in range(4):
            cleared = ~(3 << rng.randrange(n - 1))
            yield CodePair(n, rng.getrandbits(n) & rng.getrandbits(n) & cleared, (rng.getrandbits(n) | rng.getrandbits(n)) & cleared)
        for flips in range(4):
            a = 9 * rng.randrange(n // 9)
            mask = pattern_code(n).vertex_mask ^ (0b110 << a | 0b1001 << n + a)
            for v in rng.sample(range(2 * n), flips):
                mask ^= 1 << v
            yield CodePair.from_vertex_mask(n, mask)
        for start in rng.sample(range(n), 2):
            rotate = lambda row: (row << start | row >> n - start) & (1 << n) - 1
            span, planted = rotate((1 << 9) - 1), rotate(window)
            pat = pattern_code(n)
            yield CodePair(n, pat.x & ~span | planted, pat.xbar & ~span | planted)


def reference_exchanges(code, prism, anchors=None):
    """exchange(code, a) for every anchor a (or the given ones), as its
    docstring states it, on sets of positions: the hypothesis and the
    empty columns come from reference_columns, each rewrite is checked by
    is_identifying_code on the given prism of C_n, and the window by
    per_column."""
    n = code.n
    cycle_side = {p for p in range(n) if code.x >> p & 1}
    bar_side = {p for p in range(n) if code.xbar >> p & 1}
    bad, blind = reference_columns(code)

    def one(a):
        at = lambda *steps: {(a + s) % n for s in steps}
        if len(bar_side) < 6 or not at(0, 1) <= bad or at(-5, 0, 1, 6) & blind:
            return ExchangeResult(NOT_APPLICABLE)
        rewrites = ((cycle_side | at(0, 1), bar_side - at(-1, 2)), (cycle_side - at(2), bar_side | at(1)))
        for cyc, bar in rewrites:
            vertices = sorted(cyc) + [n + p for p in sorted(bar)]
            empty = set(range(n)) - cyc - bar
            if len(vertices) <= code.size and len(empty) < len(bad) and is_identifying_code(prism, 1, vertices).valid:
                return ExchangeResult(IMPROVED, code=CodePair.from_vertices(n, vertices))
        for start in ((a - 1) % n, (a - 6) % n):
            if per_column(code, start):
                return ExchangeResult(PATTERN_DETECTED, window_start=start)
        return ExchangeResult(NOT_APPLICABLE)

    return [one(a) for a in (range(n) if anchors is None else anchors)]


def test_exchange_equals_set_reference():
    ns = range(9, 41)
    prisms = {n: complementary_prism(cycle(n)) for n in ns}  # graphs of their own, as in the reference
    kinds = set()
    for code in itertools.chain(differential_pairs(ns, per_density=4), exchange_codes(ns)):
        got = [exchange(code, a) for a in range(code.n)]
        assert got == reference_exchanges(code, prisms[code.n]), code
        kinds.update(result.kind for result in got)
    assert kinds == {IMPROVED, PATTERN_DETECTED, NOT_APPLICABLE}


def test_exchange_equals_set_reference_on_all_open_pairs_at_n10():
    # Every pair for C_10 with columns 0 and 1 empty and at least 6 bar
    # members, at anchor 0.  Some of them turn on the blind screens at
    # a - 5 and a + 6 alone, which seeded pairs meet about once in 3,000.
    n = 10
    prism = complementary_prism(cycle(n))
    for bars in range(6, n - 1):
        for bar_side in itertools.combinations(range(2, n), bars):
            xbar = sum(1 << p for p in bar_side)
            for x in range(0, 1 << n, 4):
                code = CodePair(n, x, xbar)
                assert [exchange(code, 0)] == reference_exchanges(code, prism, [0]), code
