"""Definitional identifying-code verification and the hitting-set view.

A set C of vertices identifies a graph at radius d when every closed
distance-d ball meets C and no two vertices meet C in the same set.  The
verifier here works straight from that definition over ball bitsets; it
is the ground truth the rest of the package is checked against.

The same requirements read as a hitting-set instance: one constraint per
vertex (its ball, for domination) and one per vertex pair (the symmetric
difference of their balls, for separation).  A pair whose balls coincide
yields an empty constraint, i.e. a certificate that no code exists.

`HitTables` is the one vectorized form of "this vertex mask meets every
constraint", for many uint64 masks at once: a byte-table lookup tests 64
constraints per numpy pass.  The definitional sweep and the exhaustive
solver both use it; the condition system has its own kernel in cycleprism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .graphs import Graph, PrismIndexing, ball_table, bit_matrix, closed_twins, mask_of

# Constraints per transpose in _incidence, whole 64-bit words: a chunk's
# 0/1 matrix takes _CHUNK bytes per vertex of the universe.
_CHUNK = 1 << 13

_PASS = 1 << 15  # masks per pass of HitTables.hits_all and sweep.condition_satisfied, so their temporaries stay in cache


class InfeasibleInstanceError(ValueError):
    """No code exists; carries one offending twin pair."""

    def __init__(self, witness: tuple[int, int]):
        super().__init__(f"twin vertices {witness[0]} and {witness[1]} admit no code")
        self.witness = witness


@dataclass(frozen=True)
class VerificationFailure:
    kind: str  # "empty-ball" or "unseparated"
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    failure: Optional[VerificationFailure] = None

    def payload(self, indexing: Optional[PrismIndexing] = None) -> dict:
        payload: dict = {"valid": self.valid}
        if self.failure is not None:
            payload["failure"] = {
                "kind": self.failure.kind,
                "vertices": [vertex_label(v, indexing) for v in self.failure.vertices],
            }
        return payload


def vertex_label(v: int, indexing: Optional[PrismIndexing] = None) -> Union[str, int]:
    """Prism vertices label as "v3"/"vbar7", anything else as a 1-based int."""
    return indexing.label(v) if indexing is not None else v + 1


def _identifies(balls: Sequence[int], code_mask: int) -> bool:
    """Are the code's views, ball & code_mask, all nonempty and pairwise distinct?"""
    views = {ball & code_mask for ball in balls}
    return len(views) == len(balls) and 0 not in views


def is_identifying_code(g: Graph, d: int, code: Iterable[int]) -> VerificationReport:
    """Check C against the definition and report the first failure.

    The first failure is scanned for only when _identifies rejects the code.
    An empty ball intersection at the smallest vertex wins over an
    unseparated pair; among unseparated pairs the lexicographically first
    one is reported.  ball_table's per-graph cache serves repeated checks.
    """
    balls, code_mask = ball_table(g, d), mask_of(code)
    if code_mask >> len(balls):
        raise ValueError("code mentions vertices outside the graph")
    if _identifies(balls, code_mask):
        return VerificationReport(True)
    views = [ball & code_mask for ball in balls]
    if 0 in views:
        return VerificationReport(False, VerificationFailure("empty-ball", (views.index(0),)))
    first = {view: u for u, view in reversed(list(enumerate(views)))}  # each view's smallest vertex
    clash = min((first[view], u) for u, view in enumerate(views) if first[view] < u)
    return VerificationReport(False, VerificationFailure("unseparated", clash))


@dataclass(frozen=True)
class HittingInstance:
    """Hitting-set form of the code requirements.

    constraints holds deduplicated nonempty vertex-set bitmasks, first the
    domination balls in vertex order, then the pair separation sets in
    lexicographic pair order (first occurrence kept).  infeasible_pairs
    lists the twin pairs whose separation set is empty; any nonempty entry
    means no hitting set is a code.
    """

    universe: int
    constraints: tuple[int, ...]
    infeasible_pairs: tuple[tuple[int, int], ...]

    @property
    def feasible(self) -> bool:
        return not self.infeasible_pairs


class HitTables:
    """Constraints prepared for `hits_all`, once per system: byte tables.

    Words hold 64 constraints each, in the given order.  Entry x of word
    w's table for mask byte b is the bitset of its constraints hit by the
    vertices 8b + j, j a bit of x, plus the bits past the last constraint.
    A mask meets a word where the OR of its bytes' entries is all ones.
    Mask bits above the widest constraint hit nothing and are ignored.
    """

    def __init__(self, constraints: Iterable[int]):
        constraints = tuple(constraints)
        nbytes = max(1, (max(constraints, default=0).bit_length() + 7) // 8)
        hits = _incidence(8 * nbytes, constraints).view("<u8")  # [vertex, word]
        tables = np.zeros((hits.shape[1], nbytes, 256), dtype=np.uint64)
        tables[-1:, 0] = -(2 << (len(constraints) - 1) % 64) % 2**64  # the bits past the last constraint
        for j in range(8):  # entries 2^j..2^(j+1)-1 add vertex 8b + j to entries 0..2^j-1
            tables[:, :, 1 << j:2 << j] = tables[:, :, :1 << j] | hits[j::8].T[:, :, None]
        self._tables = tables

    def hits_all(self, masks: np.ndarray) -> np.ndarray:
        """True where the uint64 mask meets every constraint, word by word:
        a pass gathers its survivors once fewer than half live, stops once none does."""
        data = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)  # [mask, byte]
        out = np.zeros(len(data), dtype=bool)
        for start in range(0, len(data), _PASS):
            # byte b of live mask i at [b, i], an index into byte b's tables; where[i] its position
            index = data[start:start + _PASS, :self._tables.shape[1]].T.astype(np.intp, order="C")
            where = np.arange(start, start + index.shape[1])
            ok = np.ones(len(where), dtype=bool)
            for table in self._tables:
                hit = table[0][index[0]]
                for row, byte in zip(table[1:], index[1:]):
                    hit |= row[byte]
                ok &= hit == ~np.uint64(0)
                alive = np.count_nonzero(ok)
                if not alive:
                    break
                if 2 * alive < len(ok):
                    index, where, ok = index[:, ok], where[ok], ok[ok]
            out[where] = ok
        return out.reshape(masks.shape)


def _incidence(universe: int, constraints: Sequence[int]) -> np.ndarray:
    """Row v: the uint8 little-endian bitset of the constraints holding v, in whole words.

    One transpose, as `Graph` checks symmetry: the constraints' `bit_matrix`
    is transposed and packed.
    """
    rows = np.zeros((universe, (len(constraints) + 63) // 64 * 8), dtype=np.uint8)
    for start in range(0, len(constraints), _CHUNK):
        matrix = bit_matrix(constraints[start:start + _CHUNK], universe)
        columns = np.packbits(matrix.T, axis=1, bitorder="little")
        rows[:, start // 8:start // 8 + columns.shape[1]] = columns
    return rows


def hitting_instance(g: Graph, d: int) -> HittingInstance:
    """Build the domination + separation constraint system for (g, d).

    One insertion-ordered dict keeps each constraint's first occurrence.
    No ball is empty, so key 0 appears only for twins; only then are
    their pairs taken from `graphs.closed_twins`.
    """
    balls = ball_table(g, d)
    seen = dict.fromkeys(balls)
    for u, bu in enumerate(balls):
        for bv in balls[u + 1:]:
            seen[bu ^ bv] = None
    infeasible = ()
    if 0 in seen:
        del seen[0]
        infeasible = closed_twins(g, d)
    return HittingInstance(g.order, tuple(seen), infeasible)


def greedy_code(inst: HittingInstance) -> tuple[int, ...]:
    """Max-coverage greedy hitting set, ties broken toward lower indices.

    Raises InfeasibleInstanceError when the instance has twin pairs.  The
    result is a valid code whenever the instance is feasible, which upper
    bounds the optimum for solver warm starts.

    Cost: each vertex gets the bitset of the constraint indices it hits
    from `_incidence`, so each round costs one `bit_count` per vertex,
    against the bitset of unhit constraints, instead of a recount of the
    members of every unhit constraint.
    """
    if inst.infeasible_pairs:
        raise InfeasibleInstanceError(inst.infeasible_pairs[0])
    constraints = inst.constraints
    hits = [int.from_bytes(row.tobytes(), "little") for row in _incidence(inst.universe, constraints)]
    unhit = (1 << len(constraints)) - 1
    chosen: list[int] = []
    while unhit:
        best, most = 0, 0
        for v, h in enumerate(hits):
            count = (h & unhit).bit_count()
            if count > most:
                best, most = v, count
        chosen.append(best)
        unhit &= ~hits[best]
    return tuple(sorted(chosen))
