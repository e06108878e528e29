"""Layout trees, class counting, and the prism doubling bound."""

import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from prismcode.graphs import MAX_ORDER, GraphFormatError, complementary_prism, cycle, random_graph, Graph
from prismcode.layout import (
    DoublingCheck,
    LayoutTree,
    balanced_layout_tree,
    check_doubling,
    class_profile,
    format_layout,
    parse_layout,
    prism_layout,
    random_layout_tree,
)

import bruteforce as bf


def test_parse_format_roundtrip():
    for text in ("((1,2),(3,4))", "1", "(((1,2),3),4)", "(1,(2,(3,4)))"):
        t = parse_layout(text)
        assert format_layout(t) == text
        assert parse_layout(format_layout(t)) == t
    # same leaves in the same order, different shapes
    shapes = [parse_layout(text) for text in ("(((1,2),3),4)", "((1,(2,3)),4)", "((1,2),(3,4))", "(1,((2,3),4))")]
    assert all(a != b for i, a in enumerate(shapes) for b in shapes[i + 1:])


def test_parse_errors():
    bad_texts = ("", "(1,2", "(1,)", "((1,2)", "(1,2))", "1,2", "(1;2)", "(0,1)", "(1,1)")
    # a shift-reduce parse must also refuse trees side by side, a ')' with
    # no '(' tree ',' tree under it, and a stack left with more than one tree
    bad_texts += ("(1,2)(3,4)", "1(2,3)", "(1,(2,3)4)", "(1,,2)", "((1,2),)", "()", ",", ")", "(")
    for bad in bad_texts:
        with pytest.raises(GraphFormatError):
            parse_layout(bad)


def test_parse_refuses_labels_above_max_order():
    # A label L would build an L-bit leaf mask, and int() refuses a text of
    # over 4,300 digits with a plain ValueError; both are refused up front.
    for text in ("(1,100000000)", "(1," + "7" * 5000 + ")", f"(1,{MAX_ORDER + 1})"):
        start = time.perf_counter()
        with pytest.raises(GraphFormatError, match=f"above the limit of {MAX_ORDER}"):
            parse_layout(text)
        assert time.perf_counter() - start < 0.01, text[:20]
    assert parse_layout(f"(1,{MAX_ORDER})").leaf_mask == 1 | 1 << MAX_ORDER - 1
    start = time.perf_counter()  # a leading zero makes a label no numeral, however long
    with pytest.raises(GraphFormatError, match="^leaf label at offset 1 is not a numeral$"):
        parse_layout("(" + "0" * 5000 + "1,2)")
    assert time.perf_counter() - start < 0.01


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2 ** 32 - 1), st.lists(st.sampled_from(" \t\n"), max_size=12))
def test_parse_format_roundtrip_random(order, seed, spaces):
    t = random_layout_tree(order, random.Random(seed))
    text = format_layout(t)
    rng = random.Random(seed)
    for ws in spaces:  # whitespace anywhere, even inside a label, is ignored
        at = rng.randint(0, len(text))
        text = text[:at] + ws + text[at:]
    back = parse_layout(text)
    assert back == t and hash(back) == hash(t)
    assert format_layout(back) == format_layout(t)


def test_tree_shape_validation():
    with pytest.raises(ValueError):
        LayoutTree.node(LayoutTree.leaf(0), LayoutTree.leaf(0))
    for build_leaf in (LayoutTree.leaf, lambda v: LayoutTree(v, None, None)):
        with pytest.raises(ValueError, match="^leaf labels are nonnegative vertex indices$"):
            build_leaf(-1)
    with pytest.raises(ValueError, match="^a node is either a leaf or has two children$"):
        LayoutTree(None, LayoutTree.leaf(0), None)
    t = LayoutTree.node(LayoutTree.leaf(0), LayoutTree.leaf(1))
    assert repr(t) == "LayoutTree('(1,2)')"
    for name, value in (("left", LayoutTree.leaf(2)), ("vertex", 0), ("leaf_mask", 0)):
        with pytest.raises(AttributeError, match="^LayoutTree is immutable$"):
            setattr(t, name, value)
    assert format_layout(t) == "(1,2)" and t.leaf_mask == 0b11
    for build in (balanced_layout_tree, lambda order: random_layout_tree(order, random.Random(0))):
        with pytest.raises(ValueError, match="^need at least one vertex$"):
            build(0)


def test_k2_profile():
    g = Graph.from_edges(2, [(0, 1)])
    prof = class_profile(g, parse_layout("(1,2)"))
    assert prof.counts == (1, 1, 1)
    assert prof.max_classes == 1


def test_c4_caterpillar_frozen():
    prof = class_profile(cycle(4), parse_layout("(((1,2),3),4)"))
    assert prof.counts == (1, 1, 2, 1, 2, 1, 1)
    assert prof.max_classes == 2
    assert prof.max_leaves == (0, 1)


def reference_doubling(g, t):
    """check_doubling's reference: class_profile of t and of the built lifted tree."""
    lifted = class_profile(complementary_prism(g), prism_layout(t))
    return DoublingCheck(class_profile(g, t).max_classes, lifted.max_classes)


def caterpillar(order):
    """(((1,2),3),...,order): the deepest layout tree over 0..order-1."""
    t = LayoutTree.leaf(0)
    for v in range(1, order):
        t = LayoutTree.node(t, LayoutTree.leaf(v))
    return t


def mirrored_caterpillar(order):
    """(1,(2,(...,(order-1,order)))): each node merges a leaf on the left with a subtree on the right."""
    t = LayoutTree.leaf(order - 1)
    for v in reversed(range(order - 1)):
        t = LayoutTree.node(LayoutTree.leaf(v), t)
    return t


def assert_profile_matches_oracle(g, t):
    adj = bf.to_adj(g)
    nodes = list(t.postorder())
    want = [bf.class_count(adj, node.leaves()) for node in nodes]
    prof = class_profile(g, t)
    assert list(prof.counts) == want
    assert prof.max_classes == max(want)
    assert prof.max_leaves == nodes[want.index(max(want))].leaves()


def test_profile_matches_set_oracle():
    rng = random.Random(14)
    for _ in range(25):
        order = rng.randint(1, 9)
        g = random_graph(order, rng)
        t = random_layout_tree(order, rng)
        assert_profile_matches_oracle(g, t)
        assert_profile_matches_oracle(complementary_prism(g), prism_layout(t))
    for order in (1, 2, 5, 8, 13):
        g = random_graph(order, rng)
        for t in (caterpillar(order), mirrored_caterpillar(order), balanced_layout_tree(order)):
            assert_profile_matches_oracle(g, t)
            assert_profile_matches_oracle(complementary_prism(g), prism_layout(t))


def test_caterpillar_at_max_order():
    order = 1024  # MAX_ORDER: deeper than Python's default recursion limit
    t = caterpillar(order)
    text = "(" * (order - 1) + "1," + "),".join(map(str, range(2, order + 1))) + ")"
    assert format_layout(t) == text
    assert parse_layout(text) == t and hash(parse_layout(text)) == hash(t)
    other = caterpillar(order - 1)
    assert t != LayoutTree.node(other, LayoutTree.leaf(order))  # differs only in the last leaf
    nodes = list(t.postorder())
    assert len(nodes) == 2 * order - 1 and nodes[-1] is t
    assert [node.vertex for node in nodes[:3]] == [0, 1, None]
    lifted = prism_layout(t)
    assert lifted.leaves() == tuple(range(2 * order))
    assert format_layout(lifted).startswith("(" * (order - 1) + "(1,1025),(2,1026)),(3,1027)),")
    # C_n: a spine node over 0..k-1 (2 < k < n-1) splits its vertices into
    # those seeing n-1, those seeing k, and the rest.
    prof = class_profile(cycle(order), t)
    spine = [prof.counts[i] for i, node in enumerate(nodes) if not node.is_leaf]
    assert spine == [2] + [3] * (order - 4) + [2, 1]
    result = check_doubling(cycle(order), t)
    assert result.base_max == 3 and result.ok
    assert result == reference_doubling(cycle(order), t)
    # mirrored, every spine node merges a bare leaf on the left with a class set
    # on the right, and its suffix cover splits the cycle the same way
    mirrored = mirrored_caterpillar(order)
    assert format_layout(mirrored) == "".join(f"({v}," for v in range(1, order)) + f"{order}" + ")" * (order - 1)
    prof = class_profile(cycle(order), mirrored)
    assert [count for node, count in zip(mirrored.postorder(), prof.counts) if not node.is_leaf] == spine
    assert check_doubling(cycle(order), mirrored) == reference_doubling(cycle(order), mirrored) == result


def test_root_and_leaves_count_one():
    rng = random.Random(3)
    for _ in range(10):
        order = rng.randint(1, 8)
        g = random_graph(order, rng)
        t = random_layout_tree(order, rng)
        prof = class_profile(g, t)
        assert prof.counts[-1] == 1  # postorder ends at the root
        leaf_positions = [i for i, node in enumerate(t.postorder()) if node.is_leaf]
        assert all(prof.counts[i] == 1 for i in leaf_positions)


def test_profile_depends_only_on_structure():
    t1 = parse_layout("((1,2),(3,4))")
    t2 = LayoutTree.node(
        LayoutTree.node(LayoutTree.leaf(0), LayoutTree.leaf(1)),
        LayoutTree.node(LayoutTree.leaf(2), LayoutTree.leaf(3)),
    )
    assert t1 == t2 and hash(t1) == hash(t2)
    assert class_profile(cycle(4), t1) == class_profile(cycle(4), t2)


def test_wrong_leaf_set_rejected():
    with pytest.raises(ValueError):
        class_profile(cycle(4), parse_layout("(1,2)"))
    with pytest.raises(ValueError):
        class_profile(cycle(3), parse_layout("((1,2),(3,4))"))
    with pytest.raises(ValueError):
        prism_layout(parse_layout("(1,3)"))  # not 0..n-1


def test_prism_layout_structure():
    t = parse_layout("((1,2),(3,4))")
    lifted = prism_layout(t)
    assert format_layout(lifted) == "(((1,5),(2,6)),((3,7),(4,8)))"
    assert lifted.leaves() == tuple(range(8))
    single = prism_layout(parse_layout("1"))
    assert format_layout(single) == "(1,2)"


def test_check_doubling_k2():
    g = Graph.from_edges(2, [(0, 1)])
    result = check_doubling(g, parse_layout("(1,2)"))
    assert result.base_max == 1 and result.prism_max == 2 and result.ok


@pytest.mark.parametrize("g, want", [
    (Graph(1, [0]), (1, 1)),  # the cherry over 0 and its partner collapses to one class
    (Graph(2, [0, 0]), (1, 2)),
    (Graph(6, [0] * 6), (1, 2)),  # empty graph
    (Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]), (1, 2)),  # K_6
])
def test_check_doubling_edge_cases(g, want):
    rng = random.Random(g.order)
    trees = (balanced_layout_tree(g.order), random_layout_tree(g.order, rng), caterpillar(g.order), mirrored_caterpillar(g.order))
    for t in trees:
        result = check_doubling(g, t)
        assert result == reference_doubling(g, t)
        assert (result.base_max, result.prism_max) == want


@pytest.mark.parametrize("n", range(3, 11))
def test_check_doubling_cycles_balanced(n):
    result = check_doubling(cycle(n), balanced_layout_tree(n))
    assert result.ok
    assert result == reference_doubling(cycle(n), balanced_layout_tree(n))
    if n >= 5:
        assert (result.base_max, result.prism_max) == (3, 6)


def test_lifted_counts_follow_base_class_sets():
    # check_doubling's identity node by node: a base node with cover m and
    # class set B lifts to a node with 2|B| classes, one fewer when both 0
    # and the outside F = full & ~m lie in B.
    rng = random.Random(16)
    graphs = [Graph(1, [0]), Graph(7, [0] * 7), Graph.from_edges(7, [(u, v) for u in range(7) for v in range(u + 1, 7)])]
    graphs += [random_graph(order, rng, rng.random()) for order in [rng.randint(1, 24) for _ in range(30)]]
    for g in graphs:
        n, full = g.order, (1 << g.order) - 1
        for t in (balanced_layout_tree(n), random_layout_tree(n, rng)):
            lifted = prism_layout(t)
            counts = class_profile(complementary_prism(g), lifted).counts
            lifted_counts = dict(zip([node.leaf_mask for node in lifted.postorder()], counts))
            for node in t.postorder():
                m = node.leaf_mask
                classes = {g.adj[u] & ~m for u in node.leaves()}
                outside = full & ~m
                assert lifted_counts[m | m << n] == 2 * len(classes) - (0 in classes and outside in classes)


def test_random_layout_tree_deterministic():
    t1 = random_layout_tree(9, random.Random(5))
    t2 = random_layout_tree(9, random.Random(5))
    t3 = random_layout_tree(9, random.Random(6))
    assert t1 == t2
    assert t1 != t3
    assert t1.leaves() == tuple(range(9))
    # built twice, with shared leaves and new internal nodes, trees compare and hash equal
    for order in (1, 2, 7, 64, MAX_ORDER):
        a, b = (random_layout_tree(order, random.Random(order)) for _ in range(2))
        parsed = parse_layout(format_layout(a))
        assert a == b == parsed and hash(a) == hash(b) == hash(parsed)
        assert (a is b) == (order == 1)
        assert balanced_layout_tree(order) == balanced_layout_tree(order)
        assert hash(balanced_layout_tree(order)) == hash(balanced_layout_tree(order))


def test_random_layout_tree_frozen():
    # every tree's text, and the rng's next draw after it: one shuffle and one
    # split per internal node, so both the shape and the rng stream are pinned
    digest = hashlib.sha256()
    for order in range(1, 65):
        for seed in (0, 1, 5, 11, 2**32 - 1):
            rng = random.Random(seed)
            t = random_layout_tree(order, rng)
            digest.update(f"{format_layout(t)} {rng.random()!r}\n".encode())
    assert digest.hexdigest() == "8732e82d554c17f3f920f77f49fe520d696820a2952dbd914805fd9bfba6a2d3"


def test_shared_leaves():
    leaf = LayoutTree.leaf(3)
    assert LayoutTree.leaf(3) is leaf and leaf.is_leaf and leaf.leaf_mask == 1 << 3
    # sharing a leaf object does not let a tree repeat a vertex
    with pytest.raises(ValueError, match="^children cover overlapping leaf sets$"):
        LayoutTree.node(LayoutTree.leaf(0), LayoutTree.leaf(0))
    with pytest.raises(GraphFormatError, match="repeats a leaf label"):
        parse_layout("(1,1)")
    for name, value in (("vertex", 4), ("leaf_mask", 1), ("left", leaf)):
        with pytest.raises(AttributeError, match="^LayoutTree is immutable$"):
            setattr(leaf, name, value)
    assert (leaf.vertex, leaf.left, leaf.right, leaf.leaf_mask) == (3, None, None, 1 << 3)
    # the cache holds every leaf of a lifted tree at the order limit
    lifted = prism_layout(balanced_layout_tree(MAX_ORDER))
    assert all(node is LayoutTree.leaf(node.vertex) for node in lifted.postorder() if node.is_leaf)
    # past the shared range, and after it has been cycled through, leaves still build right
    for v in (2 * MAX_ORDER, 2 * MAX_ORDER + 1, 10 * MAX_ORDER, *range(3 * MAX_ORDER), 0, 3):
        far = LayoutTree.leaf(v)
        assert (far.vertex, far.leaf_mask, far.leaves()) == (v, 1 << v, (v,))
    t = LayoutTree.node(LayoutTree.leaf(0), LayoutTree.leaf(2 * MAX_ORDER))
    assert format_layout(t) == f"(1,{2 * MAX_ORDER + 1})"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 14 - 1))
def test_doubling_random(seed):
    rng = random.Random(seed)
    order = rng.randint(1, 40)  # the orders of the benchmark's doubling items
    g = random_graph(order, rng)
    t = random_layout_tree(order, rng)
    result = check_doubling(g, t)
    assert result.ok
    # the implicit lifted walk gives the profile of the lifted objects
    assert result == reference_doubling(g, t)
    for t in (caterpillar(order), mirrored_caterpillar(order)):
        assert check_doubling(g, t) == reference_doubling(g, t)
