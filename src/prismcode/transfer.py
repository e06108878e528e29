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

`lexmin_pair(n)` returns the lex-min pair of that least size, in the
solver's vertex order: a greedy settles the cycle row, then the bar
row, one position at a time, each check adding a one-step forward table
of the settled prefix to a backward table of the remaining steps, both
indexed by start state (the first 4 columns).  Where that pair passes
`verify_code` (every n from 9 to 200 except 9, 10 and 12), it is the
lex-min optimal code, and `solver.solve_min_idcode` returns it with
nodes = 0; elsewhere the solver falls back to branch and bound from the
floor.

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
_GATHER = 1 << 16     # entries a gather in _least may hold at once


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


# Walk tables are indexed by state s, blind count b and start state k (for
# a closed walk, the first 4 columns, which it returns to): t[s, b, k] is
# the least cost of a walk between start k and state s with b blind
# windows.  Row len(states) is a sentinel of _INF that absent moves point
# at, and t.reshape(-1, len(starts)) has row 2s + b.


@lru_cache(maxsize=None)
def _moves(cols: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(targets, cost, into, out_of) of the steps that append a column in cols.

    targets lists the states whose last column lies in cols, and cost
    their costs.  into[:, i, b] are the rows a walk into targets[i] with
    b blind windows comes from; out_of[:, s, b] the rows a walk out of
    state s with b blind windows goes to, read off pred.
    """
    states, cost, pred = _tables()
    m = len(states)
    newest = np.array(states) >> 6
    targets = np.flatnonzero(np.isin(newest, cols))
    into = np.full((8, len(targets), 2), 2 * m)
    into[:4, :, 0] = 2 * pred[0, targets].T
    into[:4, :, 1] = 2 * pred[0, targets].T + 1
    into[4:, :, 1] = 2 * pred[1, targets].T
    succ = np.full((2, m, 4), m)
    b, t, c = np.nonzero(pred < m)
    succ[b, pred[b, t, c], newest[t]] = t
    cols = list(cols)
    out_of = np.full((2 * len(cols), m, 2), 2 * m)
    out_of[:len(cols), :, 0] = 2 * succ[0][:, cols].T
    out_of[:len(cols), :, 1] = 2 * succ[0][:, cols].T + 1
    out_of[len(cols):, :, 1] = 2 * succ[1][:, cols].T
    return targets, cost[targets, None, None], into, out_of


def _origin(starts: list[int]) -> np.ndarray:
    """Zero-length walks: cost 0 at each start's own state."""
    t = np.full((len(_tables()[0]) + 1, 2, len(starts)), _INF, dtype=np.int16)
    t[starts, 0, range(len(starts))] = 0
    return t


def _least(t: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Elementwise least of the row blocks index[0], index[1], ... of t.

    Small tables are gathered at once; larger ones (the walks from every
    start) one block at a time, so that temporaries stay table-sized.
    """
    rows = t.reshape(-1, t.shape[2])
    if index.size * t.shape[2] <= _GATHER:
        return np.take(rows, index, axis=0).min(axis=0)
    out = np.take(rows, index[0], axis=0)
    gathered = np.empty_like(out)
    for block in index[1:]:
        np.minimum(out, np.take(rows, block, axis=0, out=gathered), out=out)
    return out


def _forward(f: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    """Extend the walks f from the starts by one column whose value lies in cols."""
    targets, cost, into, _ = _moves(cols)
    step = _least(f, into)
    step += cost
    out = np.full_like(f, _INF)
    out[targets] = np.minimum(step, _INF, out=step)
    return out


def _backward(r: np.ndarray, cols: tuple[int, ...]) -> np.ndarray:
    """Prepend to the walks r back to the starts one column whose value lies in cols."""
    _, cost, _ = _tables()
    *_, out_of = _moves(cols)
    ahead = r.copy()
    ahead[:-1] += cost[:, None, None]
    out = np.full_like(r, _INF)
    out[:-1] = np.minimum(_least(ahead, out_of), _INF)
    return out


_recent: list[tuple[int, np.ndarray]] = []  # the last two (k, _walks(k)) computed


def _walks(k: int) -> np.ndarray:
    """W[t, b, s]: least cost of a k-step walk from state s to t with b blind windows.

    These are the walks from every state as a start.  The walk tables of
    the last two lengths are kept and extended, so a scan over ascending
    n takes about one step per n.
    """
    start, walks = 0, None
    for entry in _recent:
        if start < entry[0] <= k:
            start, walks = entry
    if walks is None:
        walks = _origin(range(len(_tables()[0])))
    for length in range(start + 1, k + 1):
        walks = _forward(walks, (0, 1, 2, 3))
        _recent[:] = [*_recent[-1:], (length, walks)]
    return walks


@lru_cache(maxsize=1)
def _reach(n: int) -> np.ndarray:
    """reach[s]: least cost of a closed n-column walk through state s with at most one blind window.

    The closed walks are split after n // 2 columns: a[t, b, s] + c[s, b', t]
    closes at most one blind window when b + b' <= 1.  The last n's table
    is kept: a solve asks for the floor, then for the lex-min pair.
    """
    m = len(_tables()[0])
    a, c = _walks(n // 2)[:m], _walks(n - n // 2)[:m]
    closed = np.minimum(a[:, 0] + c[:, 0].T, np.minimum(a[:, 0] + c[:, 1].T, a[:, 1] + c[:, 0].T))
    return closed.min(axis=0)


def condition_floor(n: int) -> int:
    """Least size of a code pair for C_n that meets every condition instance.

    Every identifying code of the prism of C_n meets them all, so this
    is a certified lower bound on gamma^ID; it needs n >= 9.
    """
    _require_scope(n)
    return int(_reach(n).min())


# ------------------------------------------------------------------ lex-min

def _prefer(starts: list[int], bit: int) -> list[int]:
    """Settle bit in columns 0..3, the start state's own columns, preferring it set."""
    states = _tables()[0]
    for i in range(4):
        starts = [k for k in starts if states[k] >> 2 * i & bit] or starts
    return starts


def _settle(n: int, floor: int, starts: list[int], allowed: list[tuple[int, ...]], bit: int) -> list[bool]:
    """One bit row of the lex-min floor-cost closed walk whose columns lie in allowed.

    starts holds the start state of every such walk, and maybe more.
    back[j] holds the walks of the steps after step j back to each start;
    step j appends column (j + 3) % n, so steps n - 3..n bring back the
    start's own columns.  Columns 0..3 are settled by the start, the rest
    one at a time: column p keeps bit when a walk of floor cost still does,
    which the settled prefix, extended by one step, and back[p - 3] decide.
    """
    states = _tables()[0]
    back = [_origin(starts)]
    for j in range(n, 0, -1):
        back.append(_backward(back[-1], allowed[(j + 3) % n]))
    back.reverse()
    closed = back[0][starts, :, range(len(starts))].min(axis=1)
    chosen = _prefer([k for k, cost in zip(starts, closed) if cost == floor], bit)
    keep = [starts.index(k) for k in chosen]
    row = [bool(states[chosen[0]] >> 2 * i & bit) for i in range(4)]
    has = np.append(np.array(states) >> 6 & bit > 0, False)
    f = _origin(chosen)
    for p in range(4, n):
        f = _forward(f, allowed[p])
        r = back[p - 3][:, :, keep]
        through = np.minimum(f[:, 0] + np.minimum(r[:, 0], r[:, 1]), f[:, 1] + r[:, 0]).min(axis=1)
        row.append(bool(through[has].min() == floor))
        f[has != row[-1]] = _INF
    return row


def lexmin_pair(n: int) -> CodePair:
    """The lex-min code pair of least size that meets every condition instance.

    Pairs compare by size, then by the lowest prism vertex where they
    differ (cycle vertices 0..n-1 first, then bar vertices n..2n-1): the
    pair holding it sorts first, as in the solver.  So the pair is built
    by a greedy over the vertices in order, each kept when some pair of
    size condition_floor(n) meeting every condition still holds it: first
    the cycle row, then the bar row.  The start states of the cycle row
    come from the closed walks of condition_floor; those of the bar row
    from a backward pass with the cycle row fixed.

    Soundness: the conditions are necessary, so every optimal identifying
    code is a condition-clean pair of size at least the floor.  When the
    returned pair L identifies (verify_code), the optimum is therefore
    the floor, every optimal code is a clean pair of the floor's size and
    so was a candidate too, and L is the lex-min optimal code.  When L
    does not identify, nothing follows beyond the floor.
    """
    floor = condition_floor(n)
    states = _tables()[0]
    starts = _prefer(np.flatnonzero(_reach(n) == floor).tolist(), 1)
    x = _settle(n, floor, starts, [(0, 1, 2, 3)] * n, 1)
    first = sum(v << 2 * i for i, v in enumerate(x[:4]))  # the cycle bits of columns 0..3
    starts = np.flatnonzero(np.array(states) & 0x55 == first).tolist()
    xbar = _settle(n, floor, starts, [(1, 3) if v else (0, 2) for v in x], 2)
    return CodePair(n, sum(v << i for i, v in enumerate(x)), sum(v << i for i, v in enumerate(xbar)))
