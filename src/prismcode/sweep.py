"""Vectorized sweeps over code pairs for the prism of C_n.

Codes are packed into uint64 scalars using the prism vertex indexing
(cycle bit a, bar bit n+a), so numpy checks millions of codes at once.
The condition side runs cycleprism's whole-row kernel on the packed
rows, one family window at a time, as check_conditions does for one
pair.  The definitional side is the prism's hitting-set instance, built
from its actual distance balls and tested through `idcode.HitTables`, which
keeps it independent of the condition windows and so makes the
equivalence sweeps meaningful.

Scope: 2n must fit a uint64 payload, n <= 31; the sweeps are meant for
desk-scale n anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cycleprism import BAR_SEP, _WINDOWS, _doubled, _missed, _prism, _require_scope
from .idcode import _PASS, HitTables, hitting_instance


def _check_n(n: int) -> None:
    if not 3 <= n <= 31:
        raise ValueError("vectorized sweeps support 3 <= n <= 31")


def all_codes(n: int) -> np.ndarray:
    """Every code pair for C_n's prism, ascending; 2^(2n) entries."""
    _check_n(n)
    if n > 12:
        raise ValueError("full enumeration beyond n = 12 will not fit in memory")
    return np.arange(1 << 2 * n, dtype=np.uint64)

def random_codes(n: int, count: int, seed: int) -> np.ndarray:
    """count uniform code pairs, reproducible from the seed."""
    _check_n(n)
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 2 * n, size=count, dtype=np.uint64)


def condition_satisfied(n: int, codes: np.ndarray) -> np.ndarray:
    """True where the code meets every condition instance.

    A family's instances hold where its missed row is 0, except BAR_SEP,
    which holds where at most one position is blind: every ordered pair
    of distinct blind positions is an instance, those two steps apart
    at offset n - 2.  The codes go in passes of `idcode._PASS`, as in
    `HitTables.hits_all`, so each window's temporaries stay in cache.
    """
    _check_n(n)
    _require_scope(n)
    flat = codes.reshape(-1)
    ok = np.ones(flat.shape, dtype=bool)
    for start in range(0, len(flat), _PASS):
        part, verdict = flat[start:start + _PASS], ok[start:start + _PASS]
        rows = _doubled(n, part & (1 << n) - 1, part >> n)
        for family, cycle_offsets, bar_offsets, _ in _WINDOWS:
            missed = _missed(n, *rows, cycle_offsets, bar_offsets)
            verdict &= np.bitwise_count(missed) <= 1 if family == BAR_SEP else missed == 0
    return ok.reshape(codes.shape)


@lru_cache(maxsize=32)
def _definitional_tables(n: int) -> HitTables:
    inst = hitting_instance(_prism(n), 1)
    if not inst.feasible:
        raise ValueError(f"prism of C_{n} has radius-1 twins, no code exists")
    return HitTables(inst.constraints)


def definition_satisfied(n: int, codes: np.ndarray) -> np.ndarray:
    """True where the code is an identifying code by the ball definition."""
    _check_n(n)
    return _definitional_tables(n).hits_all(codes)


def bar_counts(n: int, codes: np.ndarray) -> np.ndarray:
    return np.bitwise_count(codes >> np.uint64(n))


@dataclass(frozen=True)
class SweepResult:
    n: int
    total: int
    valid: int                      # definitional identifying codes seen
    condition_clean: int            # codes with zero condition violations
    necessity_failures: np.ndarray  # valid but violating some condition
    sufficiency_failures: np.ndarray  # condition-clean, bar side >= 4, not valid

    @property
    def ok(self) -> bool:
        return len(self.necessity_failures) == 0 and len(self.sufficiency_failures) == 0


def equivalence_sweep(n: int, codes: np.ndarray) -> SweepResult:
    """Compare the condition system to the definition over given codes.

    Necessity must hold for every code; sufficiency only where the bar
    side has at least 4 members.  Both failure arrays are empty exactly
    when the implementation and the reduction agree on this sample.
    """
    _check_n(n)
    valid = definition_satisfied(n, codes)
    clean = condition_satisfied(n, codes)
    enough_bar = bar_counts(n, codes) >= 4
    necessity_bad = codes[valid & ~clean]
    sufficiency_bad = codes[clean & enough_bar & ~valid]
    return SweepResult(
        n=n,
        total=len(codes),
        valid=int(np.count_nonzero(valid)),
        condition_clean=int(np.count_nonzero(clean)),
        necessity_failures=necessity_bad,
        sufficiency_failures=sufficiency_bad,
    )


def enumerate_valid_codes(n: int) -> np.ndarray:
    """All identifying codes of C_n's prism, as packed uint64 masks."""
    codes = all_codes(n)
    return codes[definition_satisfied(n, codes)]
