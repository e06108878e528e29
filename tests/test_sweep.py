"""Vectorized kernels against their scalar counterparts."""

import random

import numpy as np
import pytest

from prismcode.cycleprism import CodePair, check_conditions, condition_masks
from prismcode.graphs import complementary_prism, cycle, mask_of
from prismcode.idcode import HitTables, is_identifying_code
from prismcode.sweep import (
    all_codes,
    bar_counts,
    condition_satisfied,
    definition_satisfied,
    enumerate_valid_codes,
    equivalence_sweep,
    random_codes,
)


def test_all_codes_shape():
    codes = all_codes(9)
    assert len(codes) == 1 << 18
    assert codes.dtype == np.uint64
    with pytest.raises(ValueError):
        all_codes(13)


def test_random_codes_reproducible():
    a = random_codes(10, 1000, seed=42)
    b = random_codes(10, 1000, seed=42)
    c = random_codes(10, 1000, seed=43)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    assert int(a.max()) < 1 << 20


def test_bar_counts_match_python():
    codes = random_codes(11, 500, seed=1)
    got = bar_counts(11, codes)
    want = [CodePair.from_vertex_mask(11, int(c)).xbar.bit_count() for c in codes]
    assert got.tolist() == want


@pytest.mark.parametrize("n", [9, 10, 12])
def test_vector_matches_scalar(n):
    codes = random_codes(n, 400, seed=n)
    cond = condition_satisfied(n, codes)
    valid = definition_satisfied(n, codes)
    g = complementary_prism(cycle(n))
    for packed, c_ok, v_ok in zip(codes, cond, valid):
        pair = CodePair.from_vertex_mask(n, int(packed))
        assert bool(c_ok) == check_conditions(pair).ok
        assert bool(v_ok) == is_identifying_code(g, 1, pair.vertices()).valid


def mask_route(n, codes):
    """condition_satisfied's reference: one "mask & code != 0" test per condition_masks instance."""
    return HitTables([c.mask for c in condition_masks(n)]).hits_all(codes)


def blind_codes(n):
    """Packed codes whose blind positions are exactly none, one, or two at every gap 1..n-1.

    For a blind set B: every cycle vertex outside B and every bar vertex
    not next to a member of B.  Such codes meet most other windows, so
    the BAR_SEP rule decides many of them.
    """
    full = (1 << n) - 1
    sets = [()] + [(a,) for a in range(n)] + [(a, (a + gap) % n) for gap in range(1, n) for a in range(n)]
    codes = []
    for blind in sets:
        pair = CodePair(n, full & ~mask_of(blind), full & ~mask_of((a + s) % n for a in blind for s in (-1, 1)))
        assert pair.blind_bar() == frozenset(blind)
        codes.append(pair.vertex_mask)
    return np.array(codes, dtype=np.uint64)


def test_condition_satisfied_matches_mask_route_exhaustive_n9():
    codes = all_codes(9)
    assert np.array_equal(condition_satisfied(9, codes), mask_route(9, codes))


@pytest.mark.parametrize("n", range(9, 32))
def test_condition_satisfied_matches_mask_route(n):
    blind = blind_codes(n)
    codes = np.concatenate([blind, random_codes(n, 2000, seed=n)])
    got = condition_satisfied(n, codes)
    assert np.array_equal(got, mask_route(n, codes))
    # at most one blind position is allowed, yet two at most gaps break only BAR_SEP
    assert got[:n + 1].all() and not got[n + 1:len(blind)].any()


def test_definition_matches_scalar_exhaustive_n5():
    codes = all_codes(5)
    valid = definition_satisfied(5, codes)
    g = complementary_prism(cycle(5))
    for packed, v_ok in zip(codes, valid):
        pair = CodePair.from_vertex_mask(5, int(packed))
        assert bool(v_ok) == is_identifying_code(g, 1, pair.vertices()).valid


def test_equivalence_sweep_counts_frozen_n9():
    res = equivalence_sweep(9, all_codes(9))
    assert res.total == 262144
    assert res.valid == 86232
    assert res.condition_clean == 86601
    assert res.ok
    # every condition-clean code that fails the definition has a thin bar side
    assert res.condition_clean - res.valid == 369
    codes = all_codes(9)
    clean = condition_satisfied(9, codes)
    valid = definition_satisfied(9, codes)
    strays = codes[clean & ~valid]
    assert len(strays) == 369
    assert int(bar_counts(9, strays).max()) <= 3


def test_equivalence_sweep_counts_frozen_n10():
    res = equivalence_sweep(10, all_codes(10))
    assert (res.total, res.valid, res.condition_clean) == (1 << 20, 304314, 304814)
    assert (len(res.necessity_failures), len(res.sufficiency_failures)) == (0, 0)


def test_enumerate_valid_codes_sample():
    rng = random.Random(0)
    valid = enumerate_valid_codes(9)
    assert len(valid) == 86232
    g = complementary_prism(cycle(9))
    for packed in rng.sample(list(valid), 40):
        pair = CodePair.from_vertex_mask(9, int(packed))
        assert is_identifying_code(g, 1, pair.vertices()).valid


def test_scope_errors():
    with pytest.raises(ValueError):
        random_codes(32, 10, seed=0)
    with pytest.raises(ValueError):
        definition_satisfied(2, all_codes(9))
    for n in (32, 40):
        with pytest.raises(ValueError, match=r"^vectorized sweeps support 3 <= n <= 31$"):
            condition_satisfied(n, np.zeros(4, dtype=np.uint64))
    for n in range(5, 9):
        with pytest.raises(ValueError, match=r"^the condition system is stated for n >= 9$"):
            condition_satisfied(n, np.zeros(4, dtype=np.uint64))


def test_seeded_sweep_at_largest_n():
    codes = random_codes(31, 10**5, seed=31)
    assert equivalence_sweep(31, codes).ok
    head = codes[:2000]
    clean = sum(check_conditions(CodePair.from_vertex_mask(31, int(c))).ok for c in head)
    assert equivalence_sweep(31, head).condition_clean == clean > 0
