"""Bitset-backed graphs plus the constructions this package revolves around.

Vertices of a graph of order n are 0..n-1 and every adjacency row is a
Python int used as a bitset, which keeps closed neighborhoods, distance
balls and symmetric differences single integer operations.  The
complementary prism of a graph G places G on vertices 0..n-1, the
complement of G on vertices n..2n-1, and joins i with n+i by a matching
edge.  `PrismIndexing` translates between those artifact indices and the
1-based labels ("v3", "vbar7") used by every external interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


# Largest graph order that parse_graph reads and `prismcode gen` writes.
# Ball tables grow with order^2 bits and hitting-set instances with
# order^3, so a larger order is refused before anything is allocated.
MAX_ORDER = 1024


class GraphFormatError(ValueError):
    """Raised when graph or code text input does not parse."""


def numeral(text: str, bound: int) -> Optional[int]:
    """The value of text if it is a numeral, ASCII digits with no leading zero, else None.

    Every number read from input text follows this rule; a lone "0" is a
    numeral.  A value above bound comes back as bound + 1, its digits
    counted before int() reads them: int() refuses over 4,300 digits.
    """
    if not (text.isascii() and text.isdecimal()) or (text[0] == "0" and text != "0"):
        return None
    return bound + 1 if len(text) > len(str(bound)) else min(int(text), bound + 1)


class Graph:
    """Immutable undirected simple graph with int-bitset adjacency rows.

    ball_table keeps each radius asked, and its balls, in _balls.
    """

    __slots__ = ("order", "adj", "edge_count", "_balls")

    def __init__(self, order: int, adj: Sequence[int]):
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(adj) != order:
            raise ValueError("adjacency length must equal order")
        full = (1 << order) - 1
        rows = tuple(adj)
        # Rows 0..bad-1 lie in 0..full, and row bad, if any, does not.
        bad = order
        if rows and not 0 <= min(rows) <= max(rows) <= full:
            bad = next(u for u, row in enumerate(rows) if not 0 <= row <= full)
        # Those rows' bit_matrix carries the self-loops on its diagonal and,
        # when every row is in range, equals its transpose: order^2 / 8 bytes
        # of numpy work instead of one interpreted step per row or edge.  The
        # first offending row is reported: a self-loop above row bad, else
        # row bad's range error.
        matrix = bit_matrix(rows[:bad], order)
        if np.count_nonzero(matrix.diagonal()):
            raise ValueError(f"self-loop at vertex {np.flatnonzero(matrix.diagonal())[0]}")
        if bad < order:
            raise ValueError(f"row {bad} mentions vertices outside 0..{order - 1}")
        if not np.array_equal(matrix, matrix.T):
            u, v = np.argwhere(matrix > matrix.T)[0]  # the first entry, row by row, without a mirror
            raise ValueError(f"edge {u},{v} is not symmetric")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adj", rows)
        object.__setattr__(self, "edge_count", int(np.count_nonzero(matrix)) // 2)
        object.__setattr__(self, "_balls", {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * order
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge {u},{v} outside 0..{order - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(order, rows)

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[u]))

    def closed_row(self, u: int) -> int:
        return self.adj[u] | 1 << u

    def edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once, as (u, v) with u < v, in lexicographic order."""
        for u in range(self.order):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.order == other.order and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.order, self.adj))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.edge_count})"


def bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_matrix(rows: Sequence[int], width: int) -> np.ndarray:
    """Nonnegative int bitsets below 2**width as a 0/1 uint8 matrix, bit v of row u at [u, v]."""
    size = (width + 7) // 8
    packed = np.frombuffer(b"".join([row.to_bytes(size, "little") for row in rows]), np.uint8)
    return np.unpackbits(packed.reshape(len(rows), size), axis=1, count=width, bitorder="little")


def mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def cycle(n: int) -> Graph:
    """The cycle on vertices 0..n-1 in the natural order; requires n >= 3."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(1 << (u + 1) % n) | (1 << (u - 1) % n) for u in range(n)])


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    return Graph(g.order, [full ^ row ^ (1 << u) for u, row in enumerate(g.adj)])


def complementary_prism(g: Graph) -> Graph:
    """G on 0..n-1, its complement on n..2n-1, plus the matching i -- n+i."""
    n = g.order
    full = (1 << n) - 1
    rows = [g.adj[u] | 1 << n + u for u in range(n)]
    rows += [(full ^ g.adj[u] ^ (1 << u)) << n | 1 << u for u in range(n)]
    return Graph(2 * n, rows)


@dataclass(frozen=True)
class PrismIndexing:
    """Map between prism artifact indices and 1-based cycle/bar labels.

    Cycle vertex i (1-based) sits at artifact index i-1, its bar partner
    at n+i-1; the labels are "v<i>" and "vbar<i>".
    """

    n: int

    def label(self, v: int) -> str:
        bar, i = self._vertex(v)
        return ("vbar" if bar else "v") + str(i)

    def parse_label(self, text: str) -> int:
        s = text.strip()
        bar = s.startswith("vbar")
        digits = s[4:] if bar else s[1:] if s.startswith("v") else ""
        i = numeral(digits, self.n)
        if not i or i > self.n:
            raise GraphFormatError(f"bad vertex label {text!r}")
        return self.n + i - 1 if bar else i - 1

    def _vertex(self, v: int) -> tuple[bool, int]:
        """Whether prism vertex v is on the bar side, and its position."""
        if not 0 <= v < 2 * self.n:
            raise ValueError(f"vertex {v} outside prism of order {2 * self.n}")
        return v >= self.n, v % self.n + 1


def ball_table(g: Graph, d: int) -> tuple[int, ...]:
    """Closed distance-d balls of every vertex, as bitsets; requires d >= 1.

    The balls start as the closed rows, and each round replaces a vertex's
    ball by the union of its closed neighbours' balls, the ball one radius
    larger.  A round costs one int OR per closed neighbour, whatever the
    size of the balls.  Rounds stop at radius d, or at the first round
    that changes no ball: each round's balls are a function of the last
    round's, so none changes later either, after at most g.order rounds
    whatever d is.  The balls are kept on the graph, one tuple per radius
    asked.
    """
    if d < 1:
        raise ValueError("radius must be at least 1")
    if d not in g._balls:
        balls, last, r = tuple(map(g.closed_row, range(g.order))), None, 1
        # Closed neighbourhoods as index arrays, built only when a round runs;
        # a memoryview yields plain ints and keeps 8 bytes an entry.
        closed = [memoryview(np.flatnonzero(row)) for row in bit_matrix(balls, g.order)] if d > 1 else []
        while r < d and balls != last:
            balls, last, r = tuple(_union(balls, members) for members in closed), balls, r + 1
        g._balls[d] = balls
    return g._balls[d]


def _union(balls: tuple[int, ...], members: Iterable[int]) -> int:
    out = 0
    for v in members:
        out |= balls[v]
    return out


def closed_twins(g: Graph, d: int) -> tuple[tuple[int, int], ...]:
    """Pairs u < v whose distance-d balls coincide, in lexicographic order.

    Such a pair defeats every candidate code, so a nonempty result is an
    infeasibility certificate.
    """
    groups: dict[int, list[int]] = {}
    for u, ball in enumerate(ball_table(g, d)):
        groups.setdefault(ball, []).append(u)
    pairs = [
        (u, v)
        for members in groups.values()
        for k, u in enumerate(members)
        for v in members[k + 1:]
    ]
    return tuple(sorted(pairs))


def random_graph(order: int, rng, p: float = 0.5) -> Graph:
    """Erdos-Renyi draw, one rng.random() per pair u < v in lexicographic order; deterministic in rng state."""
    draw, rows = rng.random, [0] * order
    for u in range(order):
        bit, row = 1 << u, 0
        for v in range(u + 1, order):
            if draw() < p:
                row |= 1 << v
                rows[v] |= bit
        rows[u] |= row
    return Graph(order, rows)


def format_graph(g: Graph, comments: Sequence[str] = ()) -> str:
    """Graph text format: "p <order> <edges>" then "e <u> <v>" lines in lexicographic order, 1-based."""
    lines = [f"c {c}" for c in comments]
    lines.append(f"p {g.order} {g.edge_count}")
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """Inverse of format_graph; "c" comment lines and blank lines are skipped.

    Orders above MAX_ORDER are refused at the p line.
    """
    order: Optional[int] = None
    declared = "0"
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        # a p line's fields bounded by MAX_ORDER, an e line's by the order it declared
        values = [numeral(f, MAX_ORDER if order is None else order) for f in fields[1:]]
        if fields[0] == "p":
            if order is not None:
                raise GraphFormatError(f"line {lineno}: duplicate p line")
            if len(values) != 2 or None in values:
                raise GraphFormatError(f"line {lineno}: expected 'p <order> <edges>'")
            order, declared = values[0], fields[2]
            if order > MAX_ORDER:
                raise GraphFormatError(f"line {lineno}: order {fields[1]} exceeds the limit of {MAX_ORDER}")
        elif fields[0] == "e":
            if order is None:
                raise GraphFormatError(f"line {lineno}: edge before p line")
            if len(values) != 2 or None in values:
                raise GraphFormatError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = values
            if not (0 < u <= order and 0 < v <= order) or u == v:
                raise GraphFormatError(f"line {lineno}: bad edge {fields[1]} {fields[2]}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {fields[0]!r}")
    if order is None:
        raise GraphFormatError("missing p line")
    if numeral(declared, len(edges)) != len(edges):
        raise GraphFormatError(f"p line declares {declared} edges, found {len(edges)}")
    g = Graph.from_edges(order, edges)
    if g.edge_count != len(edges):
        raise GraphFormatError("duplicate edges in input")
    return g
