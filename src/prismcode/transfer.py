"""Column transfer DP over the condition system of the prism of C_n.

A code pair is a cyclic word of n columns, each column one of four
values (bit 0: the cycle vertex is in the code, bit 1: the bar vertex
is).  Every family in `cycleprism.condition_masks` except BAR_SEP is
local: its instance anchored at position a only names columns a-1..a+3.
BAR_SEP, over all pairs, says that at most one position is blind.  So a
word meets every condition instance exactly when each of its n cyclic
5-column windows is legal (the local instances anchored at the window's
second column hold) and at most one window is blind at that column.

The DP walks the de Bruijn graph whose states are the last 4 columns;
appending a column costs its number of members and moves to the next
state.  A closed walk of length n is a cyclic word of n columns, so the
minimum cost of a closed walk with at most one blind window is the
minimum size of a code pair meeting every condition instance.  The
conditions are necessary for identifying codes, so that minimum is a
certified lower bound on gamma^ID, `condition_floor(n)`.  The closed
walks are split in two halves, T^floor(n/2) and T^ceil(n/2), and
closed by a min-plus trace.

The window tables are derived from `condition_masks` and
`CodePair.blind_bar` at a reference n, never retyped, and only
rotation invariance carries them to other n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cycleprism import BAR_SEP, CodePair, _require_scope, condition_masks

_REF_N = 9     # reference cycle length the window tables are read from
_ANCHOR = 1    # the window's second column, position 1 at the reference n
_INF = (1 << 14) - 1  # cost sentinel: a sum of two still fits an int16


@lru_cache(maxsize=None)
def _tables():
    """(states, cost, pred) of the transfer graph.

    A window packs its 5 columns 2 bits each, column i at bits 2i (cycle
    vertex) and 2i + 1 (bar vertex); a state packs 4 columns the same
    way.  states lists the states that both end and start a legal window.
    For the state at index j, cost[j] is the member count of its last
    column, and pred[b, j, c] is the index of the predecessor whose first
    column is c when the window through both is legal with blind flag b,
    else len(states).
    """
    local = [
        c.mask for c in condition_masks(_REF_N)
        if c.family != BAR_SEP and c.indices[0] == _ANCHOR
    ]
    # columns[i][c]: the prism vertices at the reference n that column value c puts at i.
    columns = [[(c & 1) << i | (c >> 1) << _REF_N + i for c in range(4)] for i in range(5)]
    masks = [0]
    for column in columns:
        masks = [m | bit for bit in column for m in masks]
    if any(c & ~masks[-1] for c in local):  # masks[-1]: all 5 columns full
        raise AssertionError("a local condition reaches outside its 5-column window")
    # Blindness at the anchor reads columns 0..2 only, so 64 windows settle it.
    blind = [_ANCHOR in CodePair.from_vertex_mask(_REF_N, m).blind_bar() for m in masks[:64]]
    windows = [w for w, m in enumerate(masks) if all(m & c for c in local)]
    states = sorted({w & 255 for w in windows} & {w >> 2 for w in windows})
    index = dict(zip(states, range(len(states))))
    pred = np.full((2, len(states), 4), len(states))
    for w in windows:
        if w >> 2 in index and w & 255 in index:
            pred[int(blind[w & 63]), index[w >> 2], w & 3] = index[w & 255]
    cost = np.array([(s >> 6).bit_count() for s in states], dtype=np.int16)
    return states, cost, pred


def _step(walks: np.ndarray) -> np.ndarray:
    """Extend every walk by one column; walks[b, t, s] is indexed target first."""
    _, cost, pred = _tables()
    m = len(cost)
    ahead = walks.copy()  # keeps the sentinel row
    step = ahead[:, :m]
    step[...] = walks[:, pred[0, :, 0]]
    for c in range(1, 4):
        np.minimum(step, walks[:, pred[0, :, c]], out=step)
    for c in range(4):
        np.minimum(step[1], walks[0, pred[1, :, c]], out=step[1])
    step += cost[:, None]
    np.minimum(step, _INF, out=step)
    return ahead


_recent: list[tuple[int, np.ndarray]] = []  # the last two (k, _walks(k)) computed


def _walks(k: int) -> np.ndarray:
    """W[b, t, s]: least cost of a k-step walk from state s to t with b blind windows.

    Row len(states) is a sentinel of _INF that absent predecessors point
    at.  The walk tables of the last two lengths are kept and extended,
    so a scan over ascending n takes about one step per n.
    """
    m = len(_tables()[0])
    start, walks = 0, np.full((2, m + 1, m), _INF, dtype=np.int16)
    walks[0, np.arange(m), np.arange(m)] = 0
    for entry in _recent:
        if start <= entry[0] <= k:
            start, walks = entry
    for length in range(start + 1, k + 1):
        walks = _step(walks)
        _recent[:] = [*_recent[-1:], (length, walks)]
    return walks


def condition_floor(n: int) -> int:
    """Least size of a code pair for C_n that meets every condition instance.

    Every identifying code of the prism of C_n meets them all, so this
    is a certified lower bound on gamma^ID; it needs n >= 9.  The closed
    walks of length n are split after n // 2 columns: a[b, t, s] + c[b', s, t]
    closes at most one blind window when b + b' <= 1.
    """
    _require_scope(n)
    m = len(_tables()[0])
    a, c = _walks(n // 2)[:, :m], _walks(n - n // 2)[:, :m]
    closed = np.minimum(a[0] + c[0].T, np.minimum(a[0] + c[1].T, a[1] + c[0].T))
    return int(closed.min())
