"""Steiner distances and Steiner 3-eccentricities on trees, exactly.

The Steiner distance of a vertex set S is the edge count of the (unique)
minimal subtree spanning S. The k-eccentricity of v is the largest Steiner
distance over k-subsets containing v; ecc_2 is the classical eccentricity.
Averages over all vertices are kept as exact fractions throughout — no
floating point is involved in any value this module returns.

The production route is :func:`ecc3_all`: one O(n) rerooting pass over the
adjacency gives the 3-eccentricity of every vertex, with no distance matrix.
Three independent routes serve as its oracles:

- :func:`ecc_k_bruteforce` enumerates every k-subset (the ground truth,
  deliberately slow and guarded);
- :func:`ecc3_fast` maximizes the half-perimeter (d(v,x)+d(v,y)+d(x,y))/2
  over all pairs, which on a tree equals the Steiner distance of {v,x,y};
- :func:`ecc3_via_lemma` maximizes, over the farthest endpoints x from v,
  the length of the v-x path plus that path's eccentricity.

The equivalence of all four is a tested invariant, not an assumption.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .errors import BadK, CapExceeded, EmptySet, TooSmall
from .tree import Tree, tree_path, path_eccentricity

# ecc_k_bruteforce enumerates C(n-1, k-1) subsets; it is an oracle, not a
# production path, and refuses orders where that blows up.
BRUTEFORCE_MAX_ORDER = 20


def check_vertex_set(t: Tree, s: Iterable[int]) -> tuple[int, ...]:
    """Validate and normalize a vertex set: nonempty, valid ids, sorted, deduplicated."""
    vs = sorted(set(s))
    if not vs:
        raise EmptySet("Steiner distance needs a nonempty vertex set")
    for v in vs:
        t.check_vertex(v)
    return tuple(vs)


def steiner_distance(t: Tree, s: Iterable[int]) -> int:
    """Edge count of the minimal subtree of t spanning s.

    Computed by pruning leaves that are not in s until only the spanning
    subtree remains; independent of the distance matrix on purpose.
    """
    vs = check_vertex_set(t, s)
    if len(vs) == 1:
        return 0
    needed = set(vs)
    degree = list(t.degrees())
    q = deque(v for v in range(t.order) if degree[v] == 1 and v not in needed)
    removed = 0
    while q:
        v = q.popleft()
        removed += 1
        degree[v] = 0
        for w in t.adjacency[v]:
            if degree[w] > 0:
                degree[w] -= 1
                if degree[w] == 1 and w not in needed:
                    q.append(w)
    return (t.order - removed) - 1


def steiner3_halfperimeter(t: Tree, u: int, v: int, w: int) -> int:
    """Steiner distance of {u, v, w} as half the pairwise-distance perimeter."""
    for x in (u, v, w):
        t.check_vertex(x)
    D = t.distance_matrix()
    return int(D[u, v] + D[u, w] + D[v, w]) // 2


def ecc_k_bruteforce(t: Tree, v: int, k: int) -> int:
    """Ground-truth ecc_k(v): maximum Steiner distance over all k-subsets containing v."""
    n = t.order
    t.check_vertex(v)
    if k < 2 or k > n:
        raise BadK(f"k={k} outside 2..{n}")
    if n > BRUTEFORCE_MAX_ORDER:
        raise CapExceeded(f"brute force capped at order {BRUTEFORCE_MAX_ORDER}")
    others = [u for u in range(n) if u != v]
    return max(steiner_distance(t, (v,) + rest) for rest in combinations(others, k - 1))


def ecc3_fast(t: Tree, v: int) -> int:
    """ecc_3(v) by maximizing the half-perimeter over all vertex pairs."""
    if t.order < 3:
        raise TooSmall("3-eccentricity needs order >= 3")
    t.check_vertex(v)
    D = t.distance_matrix()
    row = D[v]
    return int((row[:, None] + row[None, :] + D).max()) // 2


def ecc3_all(t: Tree) -> tuple[int, ...]:
    """ecc_3 of every vertex in O(n) time and memory, cached on the tree."""
    if t.order < 3:
        raise TooSmall("3-eccentricity needs order >= 3")
    if t._ecc3 is None:
        t._ecc3 = _ecc3_rerooted(t.adjacency)
    return t._ecc3


def _ecc3_rerooted(adj) -> tuple[int, ...]:
    """ecc_3 of every vertex by one rerooting pass over a tree rooted at 0.

    ecc_3(v) is the maximum over w of d(v, w) + a1 + a2, where a1 >= a2 are
    the two longest branches at w that avoid v (0 for a missing branch). A
    bottom-up pass gives each vertex u its height ``down[u]`` and ``g[u]``,
    that maximum over w in u's subtree with branches pointing away from u. A
    top-down pass gives each child c of u its up-branch length ``uplen[c]``
    and ``upval[c]``, the same maximum over w outside c's subtree.
    """
    n = len(adj)
    parent = [-1] * n
    parent[0] = 0  # the root is its own parent: visited, and no neighbour of itself
    order = [0]
    for u in order:
        for c in adj[u]:
            if parent[c] == -1:
                parent[c] = u
                order.append(c)
    down = [0] * n
    g = [0] * n
    for u in reversed(order):
        p = parent[u]
        b1 = b2 = 0
        gc = -1  # the best g over u's children; a leaf has none
        for c in adj[u]:
            if c != p:
                x = down[c] + 1
                if x > b1:
                    b1, b2 = x, b1
                elif x > b2:
                    b2 = x
                if g[c] > gc:
                    gc = g[c]
        down[u] = b1
        g[u] = max(b1 + b2, gc + 1)
    uplen = [0] * n
    upval = [0] * n
    ecc = [0] * n
    for u in order:
        p = parent[u]
        # Top-3 branch lengths at u, the up branch included, with the
        # neighbours of the top two; top-2 of g + 1 over u's children.
        l1, i1 = uplen[u], p
        l2 = l3 = h1 = h2 = 0
        i2 = j1 = -1
        for c in adj[u]:
            if c != p:
                x = down[c] + 1
                if x > l1:
                    l1, l2, l3, i1, i2 = x, l1, l2, c, i1
                elif x > l2:
                    l2, l3, i2 = x, l2, c
                elif x > l3:
                    l3 = x
                y = g[c] + 1
                if y > h1:
                    h1, h2, j1 = y, h1, c
                elif y > h2:
                    h2 = y
        up = upval[u]
        ecc[u] = max(l1 + l2, h1, up)
        for c in adj[u]:
            if c != p:
                # a >= b: the two longest branches at u other than c's.
                if c == i1:
                    a, b = l2, l3
                elif c == i2:
                    a, b = l1, l3
                else:
                    a, b = l1, l2
                uplen[c] = a + 1
                upval[c] = 1 + max(up, h2 if c == j1 else h1, a + b)
    return tuple(ecc)


def ecc3_via_lemma(t: Tree, v: int) -> int:
    """ecc_3(v) as longest-path length from v plus that path's eccentricity.

    Longest paths from v may be tied; all farthest endpoints are tried and
    the maximum taken, so the result does not depend on tie-breaking.
    """
    n = t.order
    if n < 3:
        raise TooSmall("3-eccentricity needs order >= 3")
    t.check_vertex(v)
    D = t.distance_matrix()
    eps = int(D[v].max())
    best = 0
    for x in range(n):
        if D[v, x] == eps:
            p = tree_path(t, v, x)
            best = max(best, eps + path_eccentricity(t, p))
    return best


def aecc_k(t: Tree, k: int) -> Fraction:
    """Average Steiner k-eccentricity as an exact fraction.

    k=2 takes the row maxima of the distance matrix; k=3 sums
    :func:`ecc3_all`, the linear rerooting pass; other k fall back to the
    brute-force oracle and inherit its order cap.
    """
    n = t.order
    if k < 2 or k > n:
        raise BadK(f"k={k} outside 2..{n}")
    if k == 2:
        total = int(t.distance_matrix().max(axis=1).sum())
    elif k == 3:
        total = sum(ecc3_all(t))
    else:
        total = sum(ecc_k_bruteforce(t, v, k) for v in range(n))
    return Fraction(total, n)


def aecc3(t: Tree) -> Fraction:
    """Average Steiner 3-eccentricity, exact."""
    return aecc_k(t, 3)
