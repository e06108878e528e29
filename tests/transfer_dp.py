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

Walk tables are 2-D: row 2s + b holds state s with b blind windows, each
start state has one column, and a last sentinel row stays at _INF.  Each
set of allowed column values has one padded gather index per direction
(`_moves`), whose absent moves point at the sentinel row, so a forward
or a backward step is one `take`, one min over the move axis, one cost
add and one clamp: `_step`, the one kernel both directions share.

`lexmin_pair(n)` returns the lex-min pair of that least size, in the
solver's vertex order: one greedy, `_row`, settles the cycle row, then
the bar row with each column's cycle bit fixed by the cycle row, one
position at a time.  Each row starts from one backward pass that keeps,
for every step, the least cost of the remaining steps back to each
start state (the first 4 columns), then carries a forward table of its
settled prefix and checks each position with one add and one min
against those tables, stacked for every position with the blind counts
combined and the rows without the row's vertex masked out.  Where that
pair passes `verify_code` (every n from 9 to 200 except 9, 10 and 12),
it is the lex-min optimal code.  The package answers from closed forms,
`cycleprism.condition_floor` and `cycleprism.lexmin_pair`, which this DP
is the reference for; the solver returns the closed-form pair with
nodes = 0 where it identifies and elsewhere runs branch and bound from
the floor, seeded with the verified pattern code, which has the floor's
size at n = 9, 10 and 12.

The window tables are derived from `condition_masks` and
`CodePair.blind_bar` at a reference n, never retyped, and only
rotation invariance carries them to other n.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from prismcode.cycleprism import BAR_SEP, CodePair, _require_scope, condition_masks

_REF_N = 9     # reference cycle length the window tables are read from
_ANCHOR = 1    # the window's second column, position 1 at the reference n
_INF = (1 << 14) - 1  # cost sentinel: a sum of two still fits an int16
_GATHER = 1 << 16     # entries one gather in _step may hold at once
_ALL = (0, 1, 2, 3)   # every column value


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


# Walk tables are 2-D: t[2s + b, i] is the least cost of a walk between
# start i and state s with b blind windows (for a closed walk, the start
# is its first 4 columns, which it returns to).  The last row is a
# sentinel of _INF that absent moves point at.  _step moves a table one
# column on, forward or backward.


@lru_cache(maxsize=None)
def _successors() -> tuple[tuple[Optional[tuple[int, int]], ...], ...]:
    """succ[s][c]: (t, b) when appending column value c to state s is a legal window, else None.

    t is the index of the state reached and b the window's blind flag,
    both read off pred.
    """
    states, _, pred = _tables()
    succ = [[None] * 4 for _ in states]
    for b, t, c in zip(*np.nonzero(pred < len(states))):
        succ[pred[b, t, c]][states[t] >> 6] = (int(t), int(b))
    return tuple(map(tuple, succ))


@lru_cache(maxsize=None)
def _addends(columns: int) -> tuple[np.ndarray, np.ndarray]:
    """(cost, cap): what _step adds to and clamps a table of that many columns at.

    cost holds each row's state cost, 0 at the sentinel, and cap _INF.
    Both are full-size: numpy adds and clamps them faster than
    broadcast operands.
    """
    cost = np.append(np.repeat(_tables()[1], 2), 0)
    shape = (len(cost), columns)
    return np.broadcast_to(cost[:, None], shape).astype(np.int16), np.full(shape, _INF, dtype=np.int16)


@lru_cache(maxsize=None)
def _moves(cols: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(into, out_of): the gather indices of the steps that append a column in cols.

    into[:, 2t + b] lists the rows a walk into state t with b blind
    windows comes from, one per first column of the state left;
    out_of[:, 2s + b] the rows a walk back out of state s with b blind
    windows goes on from, one per value in cols.  Absent moves, and
    every move of the sentinel row, point at the sentinel row.  Moves
    are the first axis, so that _step's min runs over whole rows.
    """
    states = _tables()[0]
    sentinel = 2 * len(states)
    into = np.full((4, sentinel + 1), sentinel)
    out_of = np.full((len(cols), sentinel + 1), sentinel)
    for s, succ in enumerate(_successors()):
        for i, c in enumerate(cols):
            if succ[c] is not None:
                t, b = succ[c]
                for extra in range(2 - b):  # blind windows on the walk's other side
                    into[states[s] & 3, 2 * t + b + extra] = 2 * s + extra
                    out_of[i, 2 * s + b + extra] = 2 * t + extra
    return into, out_of


def _step(t: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One DP step into out: row r is the least t[index[:, r]], plus row r's cost, clamped at _INF.

    Small tables gather every move at once; larger ones (the walks from
    every start) one move at a time, so that temporaries stay table-sized.
    """
    if index.size * t.shape[1] <= _GATHER:
        np.minimum.reduce(t.take(index, axis=0), axis=0, out=out)
    else:
        t.take(index[0], axis=0, out=out)
        gathered = np.empty_like(out)
        for move in index[1:]:
            np.minimum(out, t.take(move, axis=0, out=gathered), out=out)
    cost, cap = _addends(out.shape[1])
    out += cost
    return np.minimum(out, cap, out=out)


def _origin(starts: list[int]) -> np.ndarray:
    """Zero-length walks: cost 0 at each start's own state, no blind window."""
    t = np.full((2 * len(_tables()[0]) + 1, len(starts)), _INF, dtype=np.int16)
    t[2 * np.array(starts, dtype=int), range(len(starts))] = 0
    return t


_recent: list[tuple[int, np.ndarray]] = []  # the last two (k, _walks(k)) computed


def _walks(k: int) -> np.ndarray:
    """W[2t + b, s]: least cost of a k-step walk from state s to t with b blind windows.

    These are the walks from every state as a start.  The walk tables of
    the last two lengths are kept and extended, so a loop over ascending
    n, as in the tests, takes about one step per n.
    """
    start, walks = 0, None
    for entry in _recent:
        if start < entry[0] <= k:
            start, walks = entry
    if walks is None:
        walks = _origin(range(len(_tables()[0])))
    into = _moves(_ALL)[0]
    for length in range(start + 1, k + 1):
        walks = _step(walks, into, np.empty_like(walks))
        _recent[:] = [*_recent[-1:], (length, walks)]
    return walks


@lru_cache(maxsize=1)
def _reach(n: int) -> np.ndarray:
    """reach[s]: least cost of a closed n-column walk through state s with at most one blind window.

    The closed walks are split after n // 2 columns: a walk from s to t
    with b blind windows and one back from t to s with b' close at most
    one blind window when b + b' <= 1.  The last n's table is kept:
    lexmin_pair reads it for the floor and again for its start states.
    """
    a, c = _walks(n // 2), _walks(n - n // 2)
    c0 = c[0:-1:2]
    closed = np.minimum(a[0:-1:2] + np.minimum(c0, c[1:-1:2]).T, a[1:-1:2] + c0.T)
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


def _backward(n: int, floor: int, starts: list[int], allowed: list[tuple[int, ...]], bit: int):
    """(chosen, ahead): the start states a row is settled from, and its backward tables.

    Step j appends column (j + 3) % n, a value in allowed[(j + 3) % n],
    so steps n - 3..n bring back the start's own columns.  The pass runs
    from step n down to step 1, one table per step.  ahead[p - 4, 2s + b, i]
    is the least cost of steps p - 2..n with b blind windows from state s,
    whose last column is column p, back to start chosen[i], counting
    column p too.  chosen keeps the starts with a closed walk of floor
    cost and, among those, the ones _prefer keeps for bit.
    """
    cost = _tables()[1]
    back = np.empty((n + 1, 2 * len(cost) + 1, len(starts)), dtype=np.int16)
    back[n] = _INF
    rows, cols = 2 * np.array(starts), np.arange(len(starts))
    back[n, rows, cols] = cost[starts]
    for j in range(n, 0, -1):
        _step(back[j], _moves(allowed[(j + 3) % n])[1], back[j - 1])
    closed = np.minimum(back[0, rows, cols], back[0, rows + 1, cols]) - cost[starts]
    chosen = _prefer([k for k, c in zip(starts, closed.tolist()) if c == floor], bit)
    return chosen, back[1:n - 3, :, [starts.index(k) for k in chosen]]


def _row(n: int, floor: int, starts: list[int], allowed: list[tuple[int, ...]], bit: int) -> list[bool]:
    """One row of the lex-min floor-cost closed walk: bit's vertex in each column.

    Column p takes a value in allowed[p], and starts holds every start
    of such a walk.  Columns 0..3 are settled by the start, the rest one
    at a time: the walks of the settled prefix step to column p, and p
    keeps its vertex when one of them that ends on it, added to the rest
    of its walk, still costs floor.  rest[p - 4] holds, for every walk
    that ends on the vertex with b blind windows, the least cost its
    rest adds with at most 1 - b more; built for all p in one stacked
    pass, it makes each check one add and one min.
    """
    states = _tables()[0]
    chosen, ahead = _backward(n, floor, starts, allowed, bit)
    has = np.append(np.repeat(np.array(states) >> 6 & bit > 0, 2), False)
    # Raising a table to drop[keep] sets the rows whose state disagrees with keep at column p to _INF.
    wide = np.repeat(has[:, None], len(chosen), axis=1)
    drop = {keep: np.where(wide == keep, 0, _INF).astype(np.int16) for keep in (False, True)}
    pairs = ahead[:, :-1].reshape(len(ahead), -1, 2, len(chosen))
    rest = np.empty_like(ahead)
    rest[:, -1] = _INF
    both = rest[:, :-1].reshape(pairs.shape)
    np.minimum(pairs[:, :, 0], pairs[:, :, 1], out=both[:, :, 0])
    both[:, :, 1] = pairs[:, :, 0]
    rest -= _addends(len(chosen))[0]  # the state's own column, which the prefix counts
    np.maximum(rest, drop[True], out=rest)
    row = [bool(states[chosen[0]] >> 2 * i & bit) for i in range(4)]
    f = _origin(chosen)
    for p in range(4, n):
        f = _step(f, _moves(allowed[p])[0], np.empty_like(f))
        keep = bool((f + rest[p - 4]).min() == floor)
        row.append(keep)
        np.maximum(f, drop[keep], out=f)
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
    x = _row(n, floor, _prefer(np.flatnonzero(_reach(n) == floor).tolist(), 1), [_ALL] * n, 1)
    first = sum(v << 2 * i for i, v in enumerate(x[:4]))  # the cycle bits of columns 0..3
    starts = np.flatnonzero(np.array(_tables()[0]) & 0x55 == first).tolist()
    xbar = _row(n, floor, starts, [(1, 3) if v else (0, 2) for v in x], 2)
    return CodePair(n, sum(v << i for i, v in enumerate(x)), sum(v << i for i, v in enumerate(xbar)))
