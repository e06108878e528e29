"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package and prints a
single summary line (visible under ``pytest -s`` or on failure), so a run
of this module doubles as a certification report:

  1. the periodic pattern code is valid with the stated size for n = 9..200
  2. condition system == ball definition, exhaustively at n = 9 (2^18 codes)
  3. same equivalence on a million random codes at each n in {10, 11, 12}
  4. exact optima for n = 9..12 sit inside the proven bounds, both strategies agree
  5. no radius-2 or radius-3 code exists for n = 6..12, with twin witnesses
  6. class-count doubling holds on random graph/tree pairs and on cycles
  7. every empty-column pair meeting the exchange hypothesis is repaired
     or exhibits the rigid window -- never unresolved
  8. hitting-set satisfaction coincides with an independent definitional
     oracle on a whole corpus, over all vertex subsets
"""

import random
from fractions import Fraction

from prismcode.cycleprism import (
    NOT_APPLICABLE,
    PATTERN_DETECTED,
    CodePair,
    check_conditions,
    exchange,
    lower_bound,
    pattern_code,
    upper_bound,
    verify_code,
)
from prismcode.graphs import Graph, closed_twins, complementary_prism, cycle, random_graph
from prismcode.idcode import hitting_instance, is_identifying_code
from prismcode.layout import balanced_layout_tree, check_doubling, random_layout_tree
from prismcode.solver import SolverOptions, solve_min_idcode
from prismcode.sweep import (
    all_codes,
    bar_counts,
    condition_satisfied,
    definition_satisfied,
    enumerate_valid_codes,
    equivalence_sweep,
    random_codes,
)

import bruteforce as bf


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_pattern_validity_and_size():
    ok = True
    for n in range(9, 201):
        g = complementary_prism(cycle(n))
        code = pattern_code(n)
        want = n - 2 * (n // 9)
        ok = (
            ok
            and is_identifying_code(g, 1, code.vertices()).valid
            and code.size == want
            and Fraction(code.size) <= Fraction(7 * n + 16, 9)
        )
        if not ok:
            break
    _report(1, "pattern-validity-and-size", ok, "n = 9..200")


def test_criterion_2_exhaustive_equivalence_n9():
    sweep = equivalence_sweep(9, all_codes(9))
    ok = (
        sweep.total == 1 << 18
        and len(sweep.necessity_failures) == 0
        and len(sweep.sufficiency_failures) == 0
        and sweep.valid == 86232
    )
    # cross-check the vectorized columns against the scalar code paths
    sample = random_codes(9, 300, seed=5)
    clean_col = condition_satisfied(9, sample)
    valid_col = definition_satisfied(9, sample)
    g = complementary_prism(cycle(9))
    for mask, clean, valid in zip(sample, clean_col, valid_col):
        pair = CodePair.from_vertex_mask(9, int(mask))
        ok = ok and check_conditions(pair).ok == bool(clean)
        ok = ok and is_identifying_code(g, 1, pair.vertices()).valid == bool(valid)
    _report(2, "exhaustive-equivalence-n9", ok, f"{sweep.total} codes, {sweep.valid} valid")


def test_criterion_3_randomized_equivalence():
    ok = True
    checked = 0
    for n in (10, 11, 12):
        res = equivalence_sweep(n, random_codes(n, 10**6, seed=n))
        ok = ok and res.total == 10**6 and res.ok and res.valid > 0
        checked += res.total
    _report(3, "randomized-equivalence", ok, f"{checked} codes over n = 10..12")


def test_criterion_4_exact_optima_within_bounds():
    ok = True
    sizes = {}
    for n in range(9, 13):
        g = complementary_prism(cycle(n))
        cap = upper_bound(n)[0]
        runs = [
            solve_min_idcode(g, 1, SolverOptions(strategy=s, size_cap=cap))
            for s in ("bnb", "exhaustive")
        ]
        ok = ok and all(r.status == "optimal" for r in runs)
        ok = ok and runs[0].size == runs[1].size and runs[0].code == runs[1].code
        ok = ok and lower_bound(n) <= runs[0].size <= cap
        ok = ok and is_identifying_code(g, 1, runs[0].code).valid
        sizes[n] = runs[0].size
    _report(4, "exact-optima-within-bounds", ok, f"ic = {sizes}")


def test_criterion_5_no_code_for_larger_radius():
    ok = True
    cases = 0
    for n in range(6, 13):
        g = complementary_prism(cycle(n))
        for d in (2, 3):
            pairs = closed_twins(g, d)
            res = solve_min_idcode(g, d, SolverOptions())
            ok = ok and bool(pairs) and res.status == "infeasible"
            ok = ok and tuple(res.witness) in set(pairs)
            cases += 1
    _report(5, "no-code-for-larger-radius", ok, f"{cases} (n, d) cases")


def test_criterion_6_class_count_doubling():
    rng = random.Random(82)
    ok = True
    for _ in range(100):
        order = rng.randint(1, 10)
        g = random_graph(order, rng)
        chk = check_doubling(g, random_layout_tree(order, rng))
        ok = ok and chk.ok
    frozen = {3: (1, 2), 4: (2, 4)}
    for n in range(3, 11):
        chk = check_doubling(cycle(n), balanced_layout_tree(n))
        ok = ok and chk.ok
        ok = ok and (chk.base_max, chk.prism_max) == frozen.get(n, (3, 6))
    _report(6, "class-count-doubling", ok, "100 random pairs + cycles C_3..C_10")


def test_criterion_7_exchange_dichotomy():
    valid = enumerate_valid_codes(9)
    rich = valid[bar_counts(9, valid) >= 6]
    ok = True
    applicable = 0
    kinds = set()
    for mask in rich:
        pair = CodePair.from_vertex_mask(9, int(mask))
        bad = pair.bad_indices()
        blind = pair.blind_bar()
        for a in range(9):
            hypothesis = (
                a in bad
                and (a + 1) % 9 in bad
                and not {a, (a + 1) % 9, (a - 5) % 9, (a + 6) % 9} & blind
            )
            if not hypothesis:
                continue
            applicable += 1
            res = exchange(pair, a)
            kinds.add(res.kind)
            ok = ok and res.kind != NOT_APPLICABLE
            if res.kind not in (NOT_APPLICABLE, PATTERN_DETECTED):
                ok = ok and verify_code(res.code)
                ok = ok and res.code.size <= pair.size
                ok = ok and len(res.code.bad_indices()) < len(bad)
    ok = ok and applicable == 1260
    _report(7, "exchange-dichotomy", ok, f"{applicable} hypothesis pairs, kinds = {sorted(kinds)}")


def _path(k: int) -> Graph:
    return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])


def test_criterion_8_hitting_set_oracle_equivalence():
    rng = random.Random(4)
    corpus = (
        [_path(k) for k in range(2, 6)]
        + [cycle(n) for n in range(3, 7)]
        + [complementary_prism(cycle(n)) for n in range(3, 6)]
        + [random_graph(order, rng) for order in (5, 7, 9, 10)]
    )
    ok = True
    subsets = 0
    for g in corpus:
        adj = bf.to_adj(g)
        for d in (1, 2):
            balls = [bf.bfs_ball(adj, u, d) for u in range(g.order)]
            inst = hitting_instance(g, d)
            for bits in range(1 << g.order):
                chosen = {u for u in range(g.order) if bits >> u & 1}
                views = [frozenset(b & chosen) for b in balls]
                definitional = all(views) and len(set(views)) == g.order
                hitting = inst.feasible and all(bits & c for c in inst.constraints)
                ok = ok and definitional == hitting
                subsets += 1
    _report(8, "hitting-set-oracle-equivalence", ok, f"{subsets} subset checks")
