"""Steiner distances and Steiner 3-eccentricities on trees, exactly.

The Steiner distance of a vertex set S is the edge count of the (unique)
minimal subtree spanning S. The k-eccentricity of v is the largest Steiner
distance over k-subsets containing v; ecc_2 is the classical eccentricity.
Averages over all vertices are kept as exact fractions throughout — no
floating point is involved in any value this module returns.

The production route is :func:`ecc3_all`: the O(n) rerooting pass cached by
``tree._rooted_pass`` gives every vertex's 3-eccentricity, no distance matrix.
The same pass gives ``aecc_k(t, 2)``. Three independent routes serve as its
oracles, and no two of them share a distance primitive:

- :func:`ecc_k_bruteforce` enumerates every k-subset and prunes leaves (the
  ground truth, deliberately slow and guarded);
- :func:`ecc3_fast` maximizes the half-perimeter (d(v,x)+d(v,y)+d(x,y))/2
  over all pairs of the O(n^2) distance matrix, which on a tree equals the
  Steiner distance of {v,x,y}; :func:`steiner3_halfperimeter` reads the
  same matrix;
- :func:`ecc3_via_lemma` maximizes, over the farthest endpoints x from v,
  the length of the v-x path plus that path's eccentricity, all by BFS.

The equivalence of all four is a tested invariant, not an assumption.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import Iterable

from .errors import BadK, CapExceeded, EmptySet, TooSmall
from .tree import Tree, _rooted_pass, bfs_distances, path_eccentricity, tree_path

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
    return _rooted_pass(t)[3]


def ecc3_via_lemma(t: Tree, v: int) -> int:
    """ecc_3(v) as longest-path length from v plus that path's eccentricity.

    Longest paths from v may be tied; all farthest endpoints are tried and
    the maximum taken, so the result does not depend on tie-breaking.
    """
    n = t.order
    if n < 3:
        raise TooSmall("3-eccentricity needs order >= 3")
    t.check_vertex(v)
    row = bfs_distances(t, v)
    eps = max(row)
    return eps + max(path_eccentricity(t, tree_path(t, v, x)) for x in range(n) if row[x] == eps)


def aecc_k(t: Tree, k: int) -> Fraction:
    """Average Steiner k-eccentricity as an exact fraction.

    k=2 sums the classical eccentricities and k=3 sums :func:`ecc3_all`,
    both read off the linear rerooting pass; other k fall back to the
    brute-force oracle and inherit its order cap.
    """
    n = t.order
    if k < 2 or k > n:
        raise BadK(f"k={k} outside 2..{n}")
    if k == 2:
        _, down, uplen, _ = _rooted_pass(t)
        total = sum(map(max, down, uplen))
    elif k == 3:
        total = sum(ecc3_all(t))
    else:
        total = sum(ecc_k_bruteforce(t, v, k) for v in range(n))
    return Fraction(total, n)


def aecc3(t: Tree) -> Fraction:
    """Average Steiner 3-eccentricity, exact."""
    return aecc_k(t, 3)
