"""Tree data model: validation, codecs, distances, structure, canonical form.

Conventions shared by the whole package:

- Vertex ids are dense 0-based integers; a tree of order ``n`` uses exactly
  ``0..n-1`` and nothing else.
- A path is a tuple of vertex ids in visiting order; consecutive entries are
  adjacent and all entries are distinct.
- Degree sequences and segment sequences are non-increasing tuples of ints.
- :class:`Tree` is immutable once built; its linear-time validation alone
  decides what is a tree. The distance matrix, the canonical form and the
  per-vertex ``ecc3`` values are cached on first use; recomputation is
  idempotent, so concurrent readers are safe.
- The distance matrix serves the distance queries below and the ``ecc3``
  oracles; the production ``ecc3`` route, ``steiner.ecc3_all``, is a linear
  pass over the adjacency and no longer needs the matrix.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadAdjacency,
    BadCode,
    BadVertexIds,
    HasCycle,
    InvalidPath,
    NotConnected,
    ParseError,
    TooSmall,
)


class Tree:
    """Immutable labeled tree on vertices ``0..n-1``.

    ``adjacency`` is a tuple of per-vertex tuples of neighbor ids, each
    sorted ascending. Construction validates simplicity, symmetry, the edge
    count and connectivity, so every live instance is a tree.
    """

    __slots__ = ("adjacency", "_dist", "_canon", "_ecc3")

    def __init__(self, adjacency: Iterable[Iterable[int]]):
        adj = tuple(tuple(ns) for ns in adjacency)
        _validate_adjacency(adj)
        self.adjacency = adj
        self._dist = None
        self._canon = None
        self._ecc3 = None

    @property
    def order(self) -> int:
        return len(self.adjacency)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        """Per-vertex degrees in vertex-id order."""
        return tuple(len(ns) for ns in self.adjacency)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.order) for v in self.adjacency[u] if u < v]

    def check_vertex(self, v: int) -> None:
        if not isinstance(v, int) or not 0 <= v < len(self.adjacency):
            raise BadVertexIds(f"vertex id {v!r} not in 0..{len(self.adjacency) - 1}")

    def distance_matrix(self) -> np.ndarray:
        """All-pairs distances as a read-only (n, n) int64 array, cached."""
        if self._dist is None:
            self._dist = _all_pairs(self)
        return self._dist

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Tree) and self.adjacency == other.adjacency

    def __hash__(self) -> int:
        return hash(self.adjacency)

    def __repr__(self) -> str:
        return f"Tree(order={self.order}, edges={self.edges()!r})"


def _validate_adjacency(adj: tuple[tuple[int, ...], ...]) -> None:
    n = len(adj)
    if n == 0:
        raise BadVertexIds("a tree has at least one vertex")
    # u ascends, so reversed lists come out sorted; symmetric iff they match.
    reverse: list[list[int]] = [[] for _ in range(n)]
    for u, ns in enumerate(adj):
        prev = -1
        for v in ns:
            if not isinstance(v, int) or not 0 <= v < n:
                raise BadVertexIds(f"neighbor id {v!r} of vertex {u} not in 0..{n - 1}")
            if v == u:
                raise HasCycle(f"self-loop at vertex {u}")
            if v == prev:
                raise HasCycle(f"duplicate edge ({u}, {v})")
            if v < prev:
                raise BadAdjacency(f"adjacency of vertex {u} is not sorted")
            reverse[v].append(u)
            prev = v
    for v, ns in enumerate(adj):
        if tuple(reverse[v]) != ns:
            raise BadAdjacency(f"adjacency not symmetric at vertex {v}")
    edge_count = sum(map(len, adj)) // 2
    if edge_count > n - 1:
        raise HasCycle(f"{edge_count} edges on {n} vertices")
    if edge_count < n - 1:
        raise NotConnected(f"{edge_count} edges cannot connect {n} vertices")
    if n > 1 and _bfs_distances(adj, 0).count(-1):
        raise NotConnected("graph is not connected")


# -- construction -------------------------------------------------------------

def from_edge_list(edges: Iterable[Sequence[int]]) -> Tree:
    """Build a validated tree from (u, v) pairs.

    Ids must cover 0..n-1 exactly; the empty edge list yields the
    single-vertex tree.
    """
    pairs = []
    for e in edges:
        try:
            u, v = e
        except (TypeError, ValueError):
            raise BadVertexIds(f"edge {e!r} is not a pair") from None
        if not isinstance(u, int) or not isinstance(v, int) or u < 0 or v < 0:
            raise BadVertexIds(f"edge ({u!r}, {v!r}) has non-integer or negative ids")
        pairs.append((u, v))
    if not pairs:
        return Tree(((),))
    n = max(max(u, v) for u, v in pairs) + 1
    if len(pairs) > n - 1:
        raise HasCycle(f"{len(pairs)} edges on at most {n} vertices")
    if len(pairs) < n - 1:
        raise NotConnected(f"{len(pairs)} edges cannot connect {n} vertices")
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return Tree(tuple(sorted(ns)) for ns in adj)


def from_prufer(code: Sequence[int]) -> Tree:
    """Decode a Pruefer code of length n-2 into the tree on n = len(code)+2 vertices."""
    n = len(code) + 2
    degree = [1] * n
    for x in code:
        if not isinstance(x, int) or not 0 <= x < n:
            raise BadCode(f"code entry {x!r} not in 0..{n - 1}")
        degree[x] += 1
    edges = []
    # Pointer scan: always join the smallest-id available leaf.
    ptr = 0
    leaf = -1
    for x in code:
        if leaf == -1:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            leaf = -1
            ptr += 1
    last = [v for v in range(n) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return from_edge_list(edges)


def to_prufer(t: Tree) -> tuple[int, ...]:
    """Encode a tree of order n >= 2 as its Pruefer code (length n-2)."""
    n = t.order
    if n < 2:
        raise TooSmall("Pruefer codes need order >= 2")
    degree = list(t.degrees())
    out = []
    ptr = 0
    leaf = -1
    for _ in range(n - 2):
        if leaf == -1:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        nb = next(v for v in t.adjacency[leaf] if degree[v] > 0)
        out.append(nb)
        degree[leaf] = 0
        degree[nb] -= 1
        if degree[nb] == 1 and nb < ptr:
            leaf = nb
        else:
            leaf = -1
            ptr += 1
    return tuple(out)


def random_tree(n: int, rng: random.Random) -> Tree:
    """Uniform random LABELED tree on n >= 2 vertices, via a random Pruefer code."""
    if n < 2:
        raise TooSmall("random trees need order >= 2")
    if n == 2:
        return from_edge_list([(0, 1)])
    return from_prufer([rng.randrange(n) for _ in range(n - 2)])


# -- BFS plumbing --------------------------------------------------------------

def bfs_distances(
    t: Tree, source: int, skip_edge: tuple[int, int] | None = None
) -> list[int]:
    """Distances from ``source``; -1 marks unreachable vertices.

    ``skip_edge`` treats one edge as absent (both directions), which confines
    the search to the source's side of the cut.
    """
    t.check_vertex(source)
    return _bfs_distances(t.adjacency, source, skip_edge)


def _bfs_distances(adj, source, skip_edge=None):
    dist = [-1] * len(adj)
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        du = dist[u]
        for v in adj[u]:
            if dist[v] == -1:
                if skip_edge is not None and ((u, v) == skip_edge or (v, u) == skip_edge):
                    continue
                dist[v] = du + 1
                q.append(v)
    return dist


def _walk_back(adj, dist, u, v):
    """The u-v path, stepping from v to the neighbor one closer to u each time."""
    out = [v]
    while v != u:
        v = next(w for w in adj[v] if dist[w] == dist[v] - 1)
        out.append(v)
    out.reverse()
    return tuple(out)


def _all_pairs(t: Tree) -> np.ndarray:
    """All-pairs distances from one pass over a DFS preorder.

    With columns in preorder every subtree is a contiguous block, so a child's
    row is its parent's row plus 1, minus 2 across the child's own block.
    """
    adj = t.adjacency
    n = len(adj)
    parent = [-1] * n
    parent[0] = 0
    depth = [0] * n
    order = []
    stack = [0]
    while stack:
        u = stack.pop()
        order.append(u)
        for v in adj[u]:
            if parent[v] == -1:
                parent[v] = u
                depth[v] = depth[u] + 1
                stack.append(v)
    pos = np.argsort(order).tolist()  # the inverse permutation of order
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    out = np.empty((n, n), dtype=np.int64)
    out[0] = [depth[v] for v in order]
    for v in order[1:]:
        row = out[v]
        np.add(out[parent[v]], 1, out=row)
        row[pos[v] : pos[v] + size[v]] -= 2
    out = np.take(out, pos, axis=1)  # columns back in vertex order, C-contiguous
    out.setflags(write=False)
    return out


# -- distances and paths --------------------------------------------------------

def distance(t: Tree, u: int, v: int) -> int:
    """Length of the unique u-v path."""
    t.check_vertex(u)
    t.check_vertex(v)
    return int(t.distance_matrix()[u, v])


def eccentricity(t: Tree, v: int) -> int:
    """Maximum distance from v to any vertex."""
    t.check_vertex(v)
    return int(t.distance_matrix()[v].max())


def diameter(t: Tree) -> int:
    return int(t.distance_matrix().max())


def radius(t: Tree) -> int:
    return int(t.distance_matrix().max(axis=1).min())


def tree_path(t: Tree, u: int, v: int) -> tuple[int, ...]:
    """The unique path from u to v, inclusive."""
    t.check_vertex(u)
    t.check_vertex(v)
    return _walk_back(t.adjacency, _bfs_distances(t.adjacency, u), u, v)


def diametric_path(t: Tree) -> tuple[int, ...]:
    """A longest path, deterministically tie-broken.

    Among all maximum-length paths, each candidate is oriented so its smaller
    endpoint id comes first, and the lexicographically smallest vertex
    sequence is returned. This fixes the reference path used by the
    transformation machinery.
    """
    n = t.order
    if n == 1:
        return (0,)
    D = t.distance_matrix()
    d = int(D.max())
    best: tuple[int, ...] | None = None
    for u in range(n):
        far = np.nonzero(D[u] == d)[0]
        far = far[far > u]
        if far.size == 0:
            continue
        row = D[u].tolist()
        for v in far.tolist():
            cand = _walk_back(t.adjacency, row, u, v)
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


def check_path(t: Tree, p: Sequence[int]) -> tuple[int, ...]:
    """Validate a path (distinct vertices, consecutive adjacency) and return it as a tuple."""
    path = tuple(p)
    if not path:
        raise InvalidPath("empty path")
    for v in path:
        t.check_vertex(v)
    if len(set(path)) != len(path):
        raise InvalidPath(f"path {path!r} repeats a vertex")
    for a, b in zip(path, path[1:]):
        if b not in t.adjacency[a]:
            raise InvalidPath(f"path {path!r}: vertices {a} and {b} are not adjacent")
    return path


def distance_to_path(t: Tree, u: int, p: Sequence[int]) -> int:
    """Minimum distance from u to any vertex of the path."""
    path = check_path(t, p)
    t.check_vertex(u)
    return int(t.distance_matrix()[u, list(path)].min())


def path_eccentricity(t: Tree, p: Sequence[int]) -> int:
    """Maximum over all vertices of their distance to the path."""
    path = check_path(t, p)
    return int(t.distance_matrix()[:, list(path)].min(axis=1).max())


# -- structural queries -----------------------------------------------------------

def degree_sequence(t: Tree) -> tuple[int, ...]:
    """Vertex degrees sorted non-increasing."""
    return tuple(sorted(t.degrees(), reverse=True))


def leaves(t: Tree) -> list[int]:
    return [v for v in range(t.order) if len(t.adjacency[v]) == 1]


def branch_vertices(t: Tree) -> list[int]:
    """Vertices of degree >= 3."""
    return [v for v in range(t.order) if len(t.adjacency[v]) >= 3]


def segments(t: Tree) -> list[tuple[int, ...]]:
    """Maximal paths whose interior vertices have degree 2 and whose ends do not.

    Each segment is oriented with its smaller end first; the list is sorted
    by decreasing length, then lexicographically.
    """
    n = t.order
    if n < 2:
        raise TooSmall("segments need order >= 2")
    adj = t.adjacency
    out = []
    for e in range(n):
        if len(adj[e]) == 2:
            continue
        for nb in adj[e]:
            prev, cur = e, nb
            walk = [e, nb]
            while len(adj[cur]) == 2:
                a, b = adj[cur]
                prev, cur = cur, (b if a == prev else a)
                walk.append(cur)
            # Each segment is discovered once from each end; keep one orientation.
            if e < cur:
                out.append(tuple(walk))
    out.sort(key=lambda p: (-len(p), p))
    return out


def segment_sequence(t: Tree) -> tuple[int, ...]:
    """Segment lengths sorted non-increasing; they sum to n-1."""
    return tuple(sorted((len(s) - 1 for s in segments(t)), reverse=True))


def is_path(t: Tree) -> bool:
    return all(len(ns) <= 2 for ns in t.adjacency)


def is_caterpillar(t: Tree) -> bool:
    """True when deleting all leaves leaves a (possibly empty) path."""
    keep = [v for v in range(t.order) if len(t.adjacency[v]) > 1]
    if len(keep) <= 1:
        return True
    kept = set(keep)
    for v in keep:
        if sum(1 for w in t.adjacency[v] if w in kept) > 2:
            return False
    return True


def is_generalized_star(t: Tree) -> bool:
    """True when the tree has at most one branch vertex.

    Paths count as the degenerate one-legged / two-legged cases.
    """
    return len(branch_vertices(t)) <= 1


def center(t: Tree) -> tuple[int, ...]:
    """The one or two middle vertices, found by peeling leaf layers."""
    n = t.order
    if n <= 2:
        return tuple(range(n))
    degree = list(t.degrees())
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for w in t.adjacency[v]:
                if degree[w] > 1:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return tuple(sorted(layer))


# -- canonical form and isomorphism ------------------------------------------------

def canonical_form(t: Tree) -> str:
    """Canonical encoding: equal strings iff isomorphic.

    The tree is rooted at its center; with two central vertices, both
    rootings are encoded and the smaller string wins. Rooted subtrees are
    encoded bottom-up as parenthesized sorted child encodings.
    """
    if t._canon is None:
        t._canon = min(_rooted_encoding(t, r) for r in center(t))
    return t._canon


def _rooted_encoding(t: Tree, root: int) -> str:
    adj = t.adjacency
    parent = [-1] * t.order
    parent[root] = root
    order = [root]
    for u in order:
        for v in adj[u]:
            if parent[v] == -1:
                parent[v] = u
                order.append(v)
    # Popping each child's string once its parent's is built keeps memory linear.
    enc: dict[int, str] = {}
    for u in reversed(order):
        kids = sorted(enc.pop(v) for v in adj[u] if v != parent[u])
        enc[u] = "(" + "".join(kids) + ")"
    return enc[root]


def is_isomorphic(a: Tree, b: Tree) -> bool:
    return a.order == b.order and canonical_form(a) == canonical_form(b)


# -- text codecs ---------------------------------------------------------------------

def parse_edge_list_text(text: str) -> Tree:
    """Parse the edge-list format: one 'u v' pair per line, '#' starts a comment."""
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(line_no, raw, "expected two vertex ids")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(line_no, raw, "vertex ids must be integers") from None
        if u < 0 or v < 0:
            raise ParseError(line_no, raw, "vertex ids must be nonnegative")
        edges.append((u, v))
    return from_edge_list(edges)


def format_edge_list(t: Tree) -> str:
    """Render the edge-list format (sorted edges, one per line)."""
    return "".join(f"{u} {v}\n" for u, v in t.edges())


def parse_prufer_text(text: str) -> Tree:
    """Parse the Pruefer format: one line of comma-separated ints; empty input means n=2."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            code = [int(x) for x in line.split(",")]
        except ValueError:
            raise ParseError(line_no, raw, "code entries must be integers") from None
        try:
            return from_prufer(code)
        except BadCode as exc:
            raise ParseError(line_no, raw, str(exc)) from None
    return from_edge_list([(0, 1)])


def format_prufer(t: Tree) -> str:
    return ",".join(str(x) for x in to_prufer(t)) + "\n"
