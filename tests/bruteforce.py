"""Plain-set reference implementations the package is tested against.

Everything here works on dict-of-set adjacency and BFS, deliberately
avoiding the package's bitset representations so that agreement between
the two is evidence rather than tautology.
"""

from collections import deque
from itertools import combinations, permutations


def to_adj(g):
    """Adjacency dict of a package Graph, via its edge iterator only."""
    adj = {u: set() for u in range(g.order)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def cycle_adj(n):
    return {u: {(u - 1) % n, (u + 1) % n} for u in range(n)}


def complement_adj(adj):
    verts = set(adj)
    return {u: verts - adj[u] - {u} for u in adj}


def prism_adj(adj):
    """Complementary prism built independently: copy, complement, matching."""
    n = len(adj)
    out = {u: set(adj[u]) for u in range(n)}
    comp = complement_adj(adj)
    for u in range(n):
        out[n + u] = {n + w for w in comp[u]}
    for u in range(n):
        out[u].add(n + u)
        out[n + u].add(u)
    return out


def bfs_ball(adj, src, d):
    """Closed ball of radius d by breadth-first search."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if dist[u] == d:
            continue
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return set(dist)


def is_idcode(adj, d, code):
    """Definition, verbatim: nonempty and pairwise distinct code views."""
    code = set(code)
    views = {u: frozenset(bfs_ball(adj, u, d) & code) for u in adj}
    if any(not view for view in views.values()):
        return False
    return len(set(views.values())) == len(adj)


def first_failure(adj, d, code):
    """(kind, vertices) the way the package verifier is specified to pick it."""
    code = set(code)
    views = {u: frozenset(bfs_ball(adj, u, d) & code) for u in adj}
    for u in sorted(adj):
        if not views[u]:
            return "empty-ball", (u,)
    best = None
    for u in sorted(adj):
        for v in sorted(adj):
            if u < v and views[u] == views[v] and (best is None or (u, v) < best):
                best = (u, v)
    if best is not None:
        return "unseparated", best
    return None


def twins(adj, d):
    return sorted(
        (u, v)
        for u in adj for v in adj
        if u < v and bfs_ball(adj, u, d) == bfs_ball(adj, v, d)
    )


def min_codes(adj, d):
    """(optimal size, all optimal codes as sorted tuples) or (None, []) if none."""
    verts = sorted(adj)
    for k in range(len(verts) + 1):
        found = [c for c in combinations(verts, k) if is_idcode(adj, d, c)]
        if found:
            return k, found
    return None, []


def class_count(adj, cover):
    """Distinct closed-neighborhood signatures outside the cover set."""
    cover = set(cover)
    return len({frozenset((adj[u] | {u}) - cover) for u in cover})


def isomorphic(g_adj, h_adj):
    if len(g_adj) != len(h_adj):
        return False
    verts = sorted(g_adj)
    edge_count = lambda adj: sum(len(s) for s in adj.values())
    if edge_count(g_adj) != edge_count(h_adj):
        return False
    for perm in permutations(verts):
        relabel = dict(zip(verts, perm))
        if all(
            (relabel[v] in h_adj[relabel[u]]) == (v in g_adj[u])
            for u in verts for v in verts if u != v
        ):
            return True
    return False


def greedy_hitting_set(constraints):
    """Max-coverage greedy by recounting: each round counts, for every vertex,
    the unhit constraints holding it, and takes the highest count, lowest
    vertex first.  The reference for `idcode.greedy_code`."""
    unhit = [{v for v in range(c.bit_length()) if c >> v & 1} for c in constraints]
    chosen = set()
    while unhit:
        counts = {}
        for c in unhit:
            for v in c:
                counts[v] = counts.get(v, 0) + 1
        best = max(counts, key=lambda v: (counts[v], -v))
        chosen.add(best)
        unhit = [c for c in unhit if best not in c]
    return tuple(sorted(chosen))
