"""Identifying codes in complementary prisms of cycles, C_n plus its complement.

A candidate code is a pair of bit rows over the n cycle positions: x marks
cycle vertices in the code, xbar marks complement-side ("bar") vertices.
Positions are 0-based here and wrap modulo n; every external surface
(strings, JSON, CLI) uses 1-based positions.

For n >= 9 the identifying property reduces to a finite system of
"some listed position is in the code" conditions, one family per kind of
requirement on the cycle side plus two families for bar-side separation.
They are necessary, and sufficient once the bar side has >= 4 members
(tests/test_transfer.py): cycle balls are DOM windows, cycle pairs 1 or
2 apart and bar pairs are condition masks, farther cycle pairs hold a
DOM window, and bar balls and cycle/bar pairs miss <= 3 bar vertices.
verify_code always decides with the definitional check on the prism.

pattern_code builds the periodic code witnessing the n - 2*floor(n/9)
bound from a word of column digits, cycle bit + 2 * bar bit, as
lexmin_pair does; exchange removes empty columns by a local rewrite
that does not grow the code, and when both rewrites fail it exhibits
the rigid 9-column window that blocks them.

Two closed forms answer the prism of C_n without a search.
condition_floor(n) = (7n + e[n % 9]) / 9, e = (0, 2, -5, 6, -1, 1, 3, 5, -2),
is the least size of a pair meeting every condition instance, so a lower
bound on gamma^ID.  lexmin_pair(n) is the lex-min pair of that size: a
fixed head for n % 9, then repeated 9-column blocks.  Both were read off
a column transfer DP over the conditions, which the tests keep as the
reference; a shortest-path potential there certifies the floor as a
lower bound for every n >= 9.  At n = 9, 10 and 12, where the pair does
not identify, the lex-min optimal code is stored instead; lexmin_optimum
returns whichever applies once it is certified optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from .graphs import Graph, ball_table, bits, complementary_prism, cycle
from .idcode import _identifies

DOMINATION = "dom"                     # a cycle vertex's view of the code is empty
SEP_ADJACENT = "sep-adjacent"          # cycle vertices one step apart see the same view
SEP_DISTANCE2 = "sep-distance2"        # cycle vertices two steps apart see the same view
BAR_SEP = "bar-sep"                    # two bar vertices see the same view
BAR_SEP_DISTANCE2 = "bar-sep-distance2"  # bar vertices two steps apart, exact form

IMPROVED = "improved"
PATTERN_DETECTED = "pattern-detected"
NOT_APPLICABLE = "not-applicable"

# Both rows of the rigid window that survives every exchange.
WINDOW_ROW = (1, 0, 0, 1, 0, 1, 0, 0, 1)
_WINDOW_MASK = sum(bit << k for k, bit in enumerate(WINDOW_ROW))


@dataclass(frozen=True)
class CodePair:
    """Candidate code in the prism of C_n: x for cycle side, xbar for bar side."""

    n: int
    x: int
    xbar: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        full = (1 << self.n) - 1
        if self.x & ~full or self.xbar & ~full:
            raise ValueError("bit rows exceed n positions")

    @property
    def size(self) -> int:
        return self.x.bit_count() + self.xbar.bit_count()

    @property
    def vertex_mask(self) -> int:
        """Bitset over the prism's 0..2n-1 vertex indexing."""
        return self.x | self.xbar << self.n

    def vertices(self) -> tuple[int, ...]:
        return tuple(bits(self.vertex_mask))

    @classmethod
    def from_vertex_mask(cls, n: int, mask: int) -> "CodePair":
        return cls(n, mask & (1 << n) - 1, mask >> n)

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> "CodePair":
        mask = 0
        for v in vertices:
            if not 0 <= v < 2 * n:
                raise ValueError(f"vertex {v} outside prism of order {2 * n}")
            mask |= 1 << v
        return cls.from_vertex_mask(n, mask)

    @classmethod
    def from_strings(cls, text: str) -> "CodePair":
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if len(lines) != 2 or len(lines[0]) != len(lines[1]) or not lines[0]:
            raise ValueError("expected two nonempty 0/1 lines of equal length")
        if not set(lines[0] + lines[1]) <= {"0", "1"}:
            raise ValueError("code rows must consist of 0 and 1 only")
        return cls(len(lines[0]), int(lines[0][::-1], 2), int(lines[1][::-1], 2))

    def to_strings(self) -> str:
        return "".join(format(row, f"0{self.n}b")[::-1] + "\n" for row in (self.x, self.xbar))

    def bad_indices(self) -> frozenset:
        """Positions whose column is all-zero: neither the cycle nor the bar vertex chosen."""
        return frozenset(bits(_bad_row(self.n, self.x, self.xbar)))

    def blind_bar(self) -> frozenset:
        """Positions a with xbar[a-1] = x[a] = xbar[a+1] = 0.

        The bar vertex at such a position meets the code in exactly the
        whole bar side, so any two blind positions are unseparated.
        """
        return frozenset(bits(_blind_row(self.n, self.x, self.xbar)))


class Condition(NamedTuple):
    family: str
    indices: tuple[int, ...]
    mask: int  # over the prism's 2n-bit vertex indexing


class Violation(NamedTuple):
    family: str
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ConditionReport:
    n: int
    violations: tuple[Violation, ...]
    bad_indices: frozenset
    blind_bar: frozenset

    @property
    def ok(self) -> bool:
        return not self.violations

    def payload(self) -> dict:
        """The JSON object of the report, with 1-based positions, matching the CLI convention."""
        return {
            "ok": self.ok,
            "violations": [
                {"family": fam, "indices": [a + 1 for a in idx]} for fam, idx in self.violations
            ],
            "bad_indices": sorted(a + 1 for a in self.bad_indices),
            "blind_bar": sorted(a + 1 for a in self.blind_bar),
        }


def _require_scope(n: int) -> None:
    if n < 9:
        raise ValueError("the condition system is stated for n >= 9")


# The condition families as windows.  Instance a of a family lists the
# cycle positions a + c and the bar positions a + b, over the family's
# cycle offsets c and bar offsets b, as the positions of which at least
# one must be in the code; its indices are (a,) without a partner step,
# else (a, a + step).  BAR_SEP is the one pair family: instance (a, b)
# lists the blind windows of both a and b, for every ordered pair with
# b - a other than 0 and 2 mod n.
_BLIND = ((0,), (-1, 1))  # cycle and bar offsets of the blind window
_WINDOWS = (
    (DOMINATION, (-1, 0, 1), (0,), None),
    (SEP_ADJACENT, (-1, 2), (0, 1), 1),
    (SEP_DISTANCE2, (-1, 0, 2, 3), (0, 2), 2),
    (BAR_SEP, *_BLIND, None),
    (BAR_SEP_DISTANCE2, (0, 2), (-1, 3), 2),
)


def _doubled(n: int, x, xbar):
    """Both rows doubled to 2n bits, as _missed takes them."""
    return x | x << n, xbar | xbar << n


def _missed(n: int, x, xbar, cycle_offsets: tuple[int, ...], bar_offsets: tuple[int, ...]):
    """Row of the anchors a whose window misses the code: no x[a + c], no xbar[a + b].

    The rows come doubled (_doubled): in a row doubled to 2n bits, bit
    a + k is bit (a + k) mod n of the row, so a right shift by k mod n
    lines position a + k up with anchor a.  The rows are Python ints for
    one pair, or uint64 arrays for many (2n <= 62 bits) with one missed
    row per element.
    """
    hit = 0
    for c in cycle_offsets:
        hit |= x >> c % n
    for b in bar_offsets:
        hit |= xbar >> b % n
    return (1 << n) - 1 & ~hit


def _bad_row(n: int, x: int, xbar: int) -> int:
    """Row of the all-zero columns."""
    return (1 << n) - 1 & ~(x | xbar)


def _blind_row(n: int, x: int, xbar: int) -> int:
    """Row of the blind positions: the anchors whose blind window misses the code."""
    return _missed(n, *_doubled(n, x, xbar), *_BLIND)


def _bar_sep_pairs(positions: list[int], n: int) -> Iterator[tuple[int, int]]:
    """Ordered pairs of the ascending positions with b - a other than 0 and 2 mod n.

    Report order: by a, then by b - a mod n.
    """
    for i, a in enumerate(positions):
        for b in positions[i + 1:] + positions[:i]:
            if (b - a) % n != 2:
                yield a, b


@lru_cache(maxsize=8)
def condition_masks(n: int) -> tuple[Condition, ...]:
    """Every condition instance for C_n's prism, in report order.

    Each mask lists the positions (as prism vertices) at least one of
    which must be in the code.  Bar-pair conditions run over all ordered
    pairs (a, b) with b - a other than 0 and 2 mod n; the pairs two steps
    apart get their own tighter family.  The offset n - 2 instances stay in
    BAR_SEP although each one is implied by the tighter instance of the
    same pair, whose mask it contains.

    The listing serves the benchmark and the tests, as the reference for
    check_conditions and sweep.condition_satisfied, which both decide on
    whole rows with _missed.  The cache keeps a few n only, as each
    holds n^2 + 4n Condition tuples.
    """
    _require_scope(n)
    out: list[Condition] = []
    for family, cycle_offsets, bar_offsets, step in _WINDOWS:
        masks = [0] * n
        for a in range(n):
            for c in cycle_offsets:
                masks[a] |= 1 << (a + c) % n
            for b in bar_offsets:
                masks[a] |= 1 << n + (a + b) % n
        if family == BAR_SEP:
            out += [Condition(family, (a, b), masks[a] | masks[b]) for a, b in _bar_sep_pairs(list(range(n)), n)]
        else:
            out += [Condition(family, (a,) if step is None else (a, (a + step) % n), masks[a]) for a in range(n)]
    return tuple(out)


def check_conditions(code: CodePair) -> ConditionReport:
    """Evaluate every condition instance against the code.

    Each family is evaluated on whole rows: the anchors whose windows
    miss the code are the complement of the OR of the code's rows rotated
    by the family's offsets, one _missed call per family.  A family whose
    missed row is 0 costs nothing more; otherwise each set bit becomes one
    violation.  BAR_SEP instances are violated exactly at the pairs of
    blind positions, and BAR_SEP's missed row is the blind window's, so
    it also gives the report's blind_bar; bad_indices is the complement
    of the OR of the two rows.  A call costs about twenty shifts and ORs
    of 2n-bit integers, two frozensets and one tuple per violation, and
    never one mask test per instance.
    """
    n, x, xbar = code.n, code.x, code.xbar
    _require_scope(n)
    doubled_x, doubled_xbar = _doubled(n, x, xbar)
    violations: list[Violation] = []
    for family, cycle_offsets, bar_offsets, step in _WINDOWS:
        missed = _missed(n, doubled_x, doubled_xbar, cycle_offsets, bar_offsets)
        if family == BAR_SEP:
            blind = missed
            if missed & missed - 1:  # two or more blind positions
                violations += [Violation(family, pair) for pair in _bar_sep_pairs(list(bits(missed)), n)]
        elif missed:
            violations += [Violation(family, (a,) if step is None else (a, (a + step) % n)) for a in bits(missed)]
    return ConditionReport(n, tuple(violations), frozenset(bits(_bad_row(n, x, xbar))), frozenset(bits(blind)))


@lru_cache(maxsize=64)
def _prism(n: int) -> Graph:
    return complementary_prism(cycle(n))


def prism_cycle_length(g: Graph) -> Optional[int]:
    """n when g is the complementary prism of C_n (n >= 3) in the package's indexing, else None.

    The prism of C_n has n(n+1)/2 edges, so other graphs are turned away
    before the cached prism is even built.
    """
    n = g.order // 2
    if g.order % 2 or n < 3 or g.edge_count != n * (n + 1) // 2 or g != _prism(n):
        return None
    return n


def verify_code(code: CodePair) -> bool:
    """Is the pair an identifying code of the prism of C_n?

    Decided by the definitional verifier's test on the prism graph, whose
    radius-1 ball table the cached prism keeps; no report is built.
    """
    _require_scope(code.n)
    return _identifies(ball_table(_prism(code.n), 1), code.vertex_mask)


_CYCLE_BIT = str.maketrans("0123", "0101")  # a column's cycle bit, as a digit
_BAR_BIT = str.maketrans("0123", "0011")    # a column's bar bit, as a digit


def _pair(word: str) -> CodePair:
    """The pair whose column i is word[i], a digit cycle bit + 2 * bar bit."""
    word = word[::-1]  # column i at bit i
    return CodePair(len(word), int(word.translate(_CYCLE_BIT), 2), int(word.translate(_BAR_BIT), 2))


def pattern_code(n: int) -> CodePair:
    """The periodic code of size n - 2*floor(n/9).

    Per 9-block: cycle positions congruent to 1,2,3 and bar positions
    congruent to 5,6,7,8 (1-based), the column word 111022220; every
    cycle position past the last full block joins the code as well.
    """
    _require_scope(n)
    return _pair("111022220" * (n // 9) + "1" * (n % 9))


def upper_bound(n: int) -> tuple[int, Fraction]:
    """(exact bound n - 2*floor(n/9), analytic bound 7n/9 + 16/9)."""
    _require_scope(n)
    return n - 2 * (n // 9), Fraction(7 * n + 16, 9)


def lower_bound(n: int) -> int:
    """ceil(7n/9 - 12); every code has at least this many members."""
    _require_scope(n)
    return -((108 - 7 * n) // 9)


_FLOOR_EXCESS = (0, 2, -5, 6, -1, 1, 3, 5, -2)
# lexmin_pair(n) as a cyclic column word: _LEXMIN_HEAD[n % 9], then
# 9-column blocks up to n columns.
_LEXMIN_HEAD = (
    "111103020", "1111103020", "30101030220", "111111103020",
    "1110", "11110", "111110", "1111110", "11103020",
)
# The lex-min optimal codes, as 0-based prism vertices, at the three n
# where lexmin_pair(n) does not identify.  Each has condition_floor(n)
# members, so it is optimal once it identifies.
_LEXMIN_OPTIMA = {
    9: (0, 1, 2, 5, 13, 14, 16),
    10: (0, 1, 2, 3, 6, 15, 16, 18),
    12: (0, 1, 2, 3, 4, 5, 8, 19, 20, 22),
}


def condition_floor(n: int) -> int:
    """Least size of a code pair for C_n that meets every condition instance.

    Every identifying code of the prism of C_n meets them all, so this
    is a lower bound on gamma^ID.  It is the closed form
    (7n + _FLOOR_EXCESS[n % 9]) / 9.  The tests certify it as a lower
    bound for every n >= 9 by a shortest-path potential over the column
    transfer graph of the conditions, and compare it with the column
    transfer DP they keep as the reference (n = 9..512 in CI).
    """
    _require_scope(n)
    return (7 * n + _FLOOR_EXCESS[n % 9]) // 9


def lexmin_pair(n: int) -> CodePair:
    """The lex-min code pair of size condition_floor(n) that meets every condition instance.

    Pairs compare by size, then by the lowest prism vertex where they
    differ (cycle vertices 0..n-1 first, then bar vertices n..2n-1): the
    pair holding it sorts first, as in the solver.  The pair is the
    cyclic word _LEXMIN_HEAD[n % 9] followed by copies of one 9-column
    block, 111022220 (301030220 when n % 9 == 2); the tests compare it
    with the lex-min pair of the reference transfer DP (n = 9..512, every
    n the command line accepts, in CI).
    """
    _require_scope(n)
    head = _LEXMIN_HEAD[n % 9]
    block = "301030220" if n % 9 == 2 else "111022220"
    return _pair(head + block * ((n - len(head)) // 9))


def lexmin_optimum(n: int) -> CodePair:
    """The lex-min optimal identifying code of the prism of C_n, certified.

    It is lexmin_pair(n), or _LEXMIN_OPTIMA[n] at n = 9, 10 and 12, and it
    is returned only once it has condition_floor(n) members and
    verify_code accepts it; otherwise AssertionError.  That check proves
    the answer: the conditions are necessary, so every optimal code is a
    condition-clean pair of size at least the floor.  A code of the
    floor's size that identifies is therefore optimal, and every optimal
    code is a clean pair of that size, so lexmin_pair(n), when it
    identifies, is the lex-min optimal code.  With >= 4 bar members it
    does; each block adds 4, so only the heads n = 9, 10 and 12, with 2,
    fall short, and the tests find their stored codes by search.
    """
    floor = condition_floor(n)
    code = CodePair.from_vertices(n, _LEXMIN_OPTIMA[n]) if n in _LEXMIN_OPTIMA else lexmin_pair(n)
    if code.size != floor or not verify_code(code):
        raise AssertionError(f"{code.vertices()} is not an identifying code of size {floor} of the prism of C_{n}")
    return code


@dataclass(frozen=True)
class ExchangeResult:
    kind: str  # IMPROVED, PATTERN_DETECTED or NOT_APPLICABLE
    code: Optional[CodePair] = None
    window_start: Optional[int] = None


def exchange(code: CodePair, a: int) -> ExchangeResult:
    """Try to clear the empty columns a, a+1 by a local rewrite.

    Applies when the bar side has >= 6 members, columns a and a+1 are
    all-zero, and none of the positions a-5, a, a+1, a+6 is blind.  Two
    rewrites are tried in order: add both cycle vertices and drop the two
    flanking bar vertices, or swap the cycle vertex at a+2 for the bar
    vertex at a+1.  The first rewrite that yields a verified code of no
    larger size with strictly fewer empty columns wins.  When neither
    does, the code must contain the rigid window (both rows equal to
    100101001) starting at a-1 or a-6, reported as PATTERN_DETECTED.

    The screens run cheapest first, all on the row integers: the bar
    count, the two columns, then the blind row (one _missed call).  Each
    rewrite is a pair of rows whose size and empty-column count are bit
    counts; only a rewrite that passes both becomes a CodePair and goes
    to verify_code, the one step whose cost grows with n: it ANDs the
    code with each of the prism's 2n balls and compares the views.  A
    call that fails the hypothesis builds nothing but its result.
    """
    n = code.n
    _require_scope(n)
    if not 0 <= a < n:
        raise ValueError(f"position {a} outside 0..{n - 1}")
    x, xbar = code.x, code.xbar
    bit = lambda step: 1 << (a + step) % n
    columns = bit(0) | bit(1)
    if xbar.bit_count() < 6 or (x | xbar) & columns or _blind_row(n, x, xbar) & (columns | bit(-5) | bit(6)):
        return ExchangeResult(NOT_APPLICABLE)
    size, bad = x.bit_count() + xbar.bit_count(), _bad_row(n, x, xbar).bit_count()
    for new_x, new_xbar in ((x | columns, xbar & ~(bit(-1) | bit(2))), (x & ~bit(2), xbar | bit(1))):
        if new_x.bit_count() + new_xbar.bit_count() > size or _bad_row(n, new_x, new_xbar).bit_count() >= bad:
            continue
        cand = CodePair(n, new_x, new_xbar)
        if verify_code(cand):
            return ExchangeResult(IMPROVED, code=cand)
    for start in ((a - 1) % n, (a - 6) % n):
        if _window_at(code, start):
            return ExchangeResult(PATTERN_DETECTED, window_start=start)
    return ExchangeResult(NOT_APPLICABLE)


def _window_at(code: CodePair, start: int) -> bool:
    """Do both rows read WINDOW_ROW from column start on, cyclically (n >= 9)?"""
    width = (1 << len(WINDOW_ROW)) - 1
    return all(row >> start & width == _WINDOW_MASK for row in _doubled(code.n, code.x, code.xbar))
