"""Monotone tree surgeries and the reduction chains built from them.

Two elementary moves drive everything here:

- the **sigma move** picks a diametric path v_0..v_d and an off-path
  neighbor y of some v_k whose pendant subtree has at least one more vertex,
  then re-hangs everything behind y onto the far endpoint v_d. The move
  keeps the degree sequence and strictly increases the average Steiner
  3-eccentricity.

- the **pi move** picks a path whose interior vertices all have degree 2,
  compares the eccentricities of the two end components, and slides every
  neighbor of the shallower end (off the path) onto the deeper end. The
  move never increases the average Steiner 3-eccentricity.

Iterating sigma reduces any tree to a caterpillar with the same degree
sequence; iterating pi on segments joining two branch vertices reduces any
tree to a generalized star with the same segment sequence; repeatedly moving
a vertex from the longest to the shortest leg walks a generalized star down
to the balanced one without increasing the average.

Every application returns a :class:`TransformOutcome` carrying both trees
and their exact averages, so monotonicity can be re-audited independently.
Every chain is one generator, ``_chain``, that yields each outcome as its
move is made: ``transform`` streams it, keeping one step's trees alive, and
``reduce_to_*`` and ``balance_generalized_star`` collect it into a list.
Each move has one route: the chains apply their moves through the public,
validating :func:`sigma_transform` and :func:`pi_transform`, so every move
is checked once, at its site. The moved tree is a tree by construction and
is built without a second validation.

Site search cost: searches, validation and chains read the tree's cached
O(n) rooted pass (``tree._rooted_pass``, shared with ``aecc3``), never the
distance matrix. ``find_sigma_sites`` scans the neighbors of the diametric
path walked off it; its sites share that path and its one reversal. The
sigma chain scans that path once per step, through the same generator, and
builds only the site it applies; validation reads the diameter off the
pass instead of walking the path again.
``find_pi_sites`` reads each segment's two end heights off it; interior
vertices have degree 2, so every subpath's end heights follow. A segment of
L vertices has up to L(L-1) sites of up to L vertices each, so
``find_pi_sites`` returns a read-only sequence in O(n) memory that builds a
site only when it is read: ``len`` is O(1) and an index costs two bisects
and one slice. ``transform pi`` reads the first site. The pi chain walks
from the branch vertices to the one segment it moves, and leg rebalancing
walks the legs from the centre; both read ``tree._segment_walks``, the
segment walker behind :func:`segments`.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlreadyBalanced, InvalidPath, InvalidSite, NotGeneralizedStar
from .steiner import aecc3
from .tree import Tree, _height_away, _rooted_pass, _segment_walks, branch_vertices, check_path
from .tree import diametric_path, segments


@dataclass(frozen=True)
class SigmaSite:
    """One applicable sigma move.

    ``path`` is a diametric path oriented so that ``attach_index`` does not
    exceed half its length; ``subtree_root`` is the off-path neighbor of
    ``path[attach_index]`` whose branch gets moved to ``path[-1]``.
    """

    path: tuple[int, ...]
    attach_index: int
    subtree_root: int

    @property
    def attach_vertex(self) -> int:
        return self.path[self.attach_index]

    @property
    def receiver(self) -> int:
        return self.path[-1]


@dataclass(frozen=True)
class PiSite:
    """One applicable pi move: a degree-2-interior path, donor end first."""

    path: tuple[int, ...]

    @property
    def donor_end(self) -> int:
        return self.path[0]

    @property
    def receiver_end(self) -> int:
        return self.path[-1]


@dataclass(frozen=True)
class RebalanceMove:
    """One leg-rebalancing step: ``moved`` re-hung from ``detached_from`` to ``attached_to``."""

    moved: int
    detached_from: int
    attached_to: int


@dataclass(frozen=True)
class TransformOutcome:
    """Audit record of a single applied move."""

    before: Tree
    after: Tree
    site: SigmaSite | PiSite | RebalanceMove
    description: str
    aecc3_before: Fraction
    aecc3_after: Fraction

    @property
    def delta(self) -> Fraction:
        return self.aecc3_after - self.aecc3_before


def _outcome(t: Tree, after: Tree, site, description: str) -> TransformOutcome:
    return TransformOutcome(t, after, site, description, aecc3(t), aecc3(after))


def _chain(t: Tree, step) -> Iterator[TransformOutcome]:
    """Yield ``step`` of each result in turn until it returns None; only the newest is held."""
    while (out := step(t)) is not None:
        yield out
        t = out.after


def _rehang(t: Tree, src: int, dst: int, moved: list[int]) -> Tree:
    """``t`` with every vertex of ``moved`` detached from ``src`` and attached to ``dst``.

    Whole branches move between two vertices of one tree, so the result is
    a tree by construction and is built unvalidated. Rows stay sorted:
    ``src`` is filtered, ``dst`` and every moved row are re-sorted, and the
    other rows are untouched.
    """
    adj = list(t.adjacency)
    gone = set(moved)
    adj[src] = tuple(w for w in adj[src] if w not in gone)
    adj[dst] = tuple(sorted(adj[dst] + tuple(moved)))
    for w in moved:
        adj[w] = tuple(sorted(dst if x == src else x for x in adj[w]))
    return Tree._trusted(tuple(adj))


# -- sigma ---------------------------------------------------------------------

def find_sigma_sites(t: Tree) -> list[SigmaSite]:
    """All sigma sites on the fixed (deterministically tie-broken) diametric path.

    A site needs an off-path neighbor y of an interior path vertex with
    degree(y) >= 2 (the edge to y must not be pendant). When the attachment
    index lands past the midpoint, the path is mirrored so the stored index
    never exceeds half the diameter.
    """
    if t.order < 3:
        return []
    p = diametric_path(t)
    d = len(p) - 1
    q = p[::-1]  # shared by every far-half site
    return [SigmaSite(p, k, y) if 2 * k <= d else SigmaSite(q, d - k, y)
            for k, y in _sigma_pairs(t, p)]


def _sigma_pairs(t: Tree, p: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """``(k, y)`` for each off-path, non-pendant neighbor y of an interior vertex p[k]."""
    adj = t.adjacency
    on_path = set(p)
    for k in range(1, len(p) - 1):
        for y in adj[p[k]]:
            if y not in on_path and len(adj[y]) >= 2:
                yield k, y


def _validate_sigma_site(t: Tree, site: SigmaSite) -> None:
    try:
        path = check_path(t, site.path)
    except InvalidPath as exc:
        raise InvalidSite(str(exc)) from None
    d = len(path) - 1
    _, down, uplen, _ = _rooted_pass(t)
    diam = max(map(max, down, uplen))
    if d != diam:
        raise InvalidSite(f"path of length {d} is not diametric (diameter {diam})")
    k = site.attach_index
    if not 1 <= k <= d // 2:
        raise InvalidSite(f"attach index {k} outside 1..{d // 2}")
    y = site.subtree_root
    t.check_vertex(y)
    if y in path:
        raise InvalidSite(f"subtree root {y} lies on the path")
    if y not in t.adjacency[path[k]]:
        raise InvalidSite(f"subtree root {y} is not adjacent to path vertex {path[k]}")
    if t.degree(y) < 2:
        raise InvalidSite(f"edge ({path[k]}, {y}) is pendant; nothing behind {y} to move")


def sigma_transform(t: Tree, site: SigmaSite) -> TransformOutcome:
    """Apply one sigma move; raises InvalidSite if the site does not fit t."""
    _validate_sigma_site(t, site)
    vk = site.attach_vertex
    vd = site.receiver
    y = site.subtree_root
    after = _rehang(t, y, vd, [w for w in t.adjacency[y] if w != vk])
    return _outcome(
        t, after, site, f"sigma: moved branch behind {y} (off path vertex {vk}) to endpoint {vd}"
    )


def reduce_to_caterpillar(t: Tree) -> list[TransformOutcome]:
    """Apply sigma moves until none remain; the result is a caterpillar.

    Site selection is deterministic: the smallest-id internal off-path
    vertex adjacent to the fixed diametric path donates, and the path
    endpoint farther from it receives (smaller endpoint id on ties). Each
    move goes through :func:`sigma_transform`, which validates its site.
    """
    return list(_chain(t, _caterpillar_step))


def _caterpillar_step(t: Tree) -> TransformOutcome | None:
    site = _caterpillar_reduction_site(t)
    return None if site is None else sigma_transform(t, site)


def _caterpillar_reduction_site(t: Tree) -> SigmaSite | None:
    """The site whose subtree root has the smallest id, read off one path scan."""
    if t.order < 3:
        return None
    p = diametric_path(t)
    # y is adjacent to one path vertex only, so the pairs never tie on y.
    y, k = min(((y, k) for k, y in _sigma_pairs(t, p)), default=(None, 0))
    if y is None:
        return None
    d = len(p) - 1
    if 2 * k < d:
        return SigmaSite(p, k, y)
    # Past the midpoint the path is mirrored; at it, the path would start at
    # its smaller endpoint, and is flipped so that endpoint receives.
    return SigmaSite(p[::-1], d - k, y)


# -- pi ------------------------------------------------------------------------

def _end_heights(t: Tree, seg: tuple[int, ...]) -> tuple[int, int]:
    """Side eccentricities of the two ends of ``seg``, each away from the segment."""
    return _height_away(t, seg[0], seg[1]), _height_away(t, seg[-1], seg[-2])


def _validate_pi_site(t: Tree, site: PiSite) -> None:
    try:
        path = check_path(t, site.path)
    except InvalidPath as exc:
        raise InvalidSite(str(exc)) from None
    if len(path) < 2:
        raise InvalidSite("pi path needs at least one edge")
    adj = t.adjacency
    for v in path[1:-1]:
        if len(adj[v]) != 2:
            raise InvalidSite(f"interior path vertex {v} has degree {len(adj[v])} != 2")
    donor_ecc, receiver_ecc = _end_heights(t, path)
    if receiver_ecc < donor_ecc:
        raise InvalidSite(
            f"receiver side eccentricity {receiver_ecc} below donor side {donor_ecc}"
        )


def pi_transform(t: Tree, site: PiSite) -> TransformOutcome:
    """Apply one pi move; raises InvalidSite if the site does not fit t."""
    _validate_pi_site(t, site)
    path = site.path
    u, v = path[0], path[-1]
    moved = [w for w in t.adjacency[u] if w != path[1]]
    after = _rehang(t, u, v, moved) if moved else t  # a leaf donor moves nothing
    return _outcome(
        t, after, site, f"pi: slid {len(moved)} branch(es) from {u} to {v} along {path}"
    )


def find_pi_sites(t: Tree) -> Sequence[PiSite]:
    """All oriented pi sites: subpaths of segments with a valid donor/receiver order.

    Equal end-component eccentricities make both orientations valid, and
    both are returned. Trees of order < 3 have no sites (their averages are
    undefined). The result is a read-only sequence in O(n) memory: ``len``
    is O(1), indexing (negative indexes too) and slicing build only the
    sites read, iteration yields every site in order, and it compares equal
    to a list of the same sites.
    """
    return _PiSites(t)


class _PiSites(Sequence):
    """The pi sites of one tree, in :func:`find_pi_sites` order, built when read.

    Row ``i`` of a segment of m vertices holds the subpaths ``seg[i..j]``,
    j > i. With ``c = m-1 + h_last - h_first`` (the end heights away from
    the segment), ``seg[i..j]`` donates from ``seg[i]`` iff ``i + j <= c`` and
    from ``seg[j]`` iff ``i + j >= c``, so the row holds ``m-1-i`` sites, plus
    one when ``j = c - i`` lies in ``i+1..m-1`` and takes both orientations.
    Each segment keeps ``c`` and the count of sites before each row, so a
    site is found by two bisects.
    """

    __slots__ = ("_segs", "_consts", "_rows", "_starts")

    def __init__(self, t: Tree):
        self._segs = segments(t) if t.order >= 3 else []
        self._consts = []
        self._rows = []  # per segment: the sites before each row
        self._starts = [0]  # the sites before each segment, then the total
        for seg in self._segs:
            m = len(seg)
            h_first, h_last = _end_heights(t, seg)
            c = m - 1 + h_last - h_first
            rows, total = [], 0
            for i in range(m - 1):
                rows.append(total)
                total += m - 1 - i + (1 if i + 1 <= c - i <= m - 1 else 0)
            self._consts.append(c)
            self._rows.append(rows)
            self._starts.append(self._starts[-1] + total)

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, k):
        k = range(len(self))[k]  # normalizes, bounds-checks and slices like a list
        if isinstance(k, range):
            return [self[x] for x in k]
        s = bisect_right(self._starts, k) - 1
        rows = self._rows[s]
        k -= self._starts[s]
        i = bisect_right(rows, k) - 1
        j = i + 1 + k - rows[i]
        seg, c = self._segs[s], self._consts[s]
        if i + j <= c:
            return PiSite(seg[i : j + 1])
        if 2 * i < c:
            j -= 1  # the row's j = c - i came first, in both orientations
        return PiSite(seg[i : j + 1][::-1])

    def __iter__(self) -> Iterator[PiSite]:
        for seg, c in zip(self._segs, self._consts):
            m = len(seg)
            for i in range(m - 1):
                for j in range(i + 1, m):
                    # Cutting seg[i..j] leaves seg[i] the path back to seg[0] plus
                    # seg[0]'s side, and seg[j] likewise toward seg[-1]: its side
                    # eccentricities are i + h_first and m-1-j + h_last.
                    sub = seg[i : j + 1]
                    if i + j <= c:
                        yield PiSite(sub)
                    if i + j >= c:
                        yield PiSite(sub[::-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, _PiSites)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def reduce_to_generalized_star(t: Tree) -> list[TransformOutcome]:
    """Apply pi moves on branch-to-branch segments until at most one branch vertex remains.

    Deterministic choices: the segment with the lexicographically smallest
    endpoint pair goes first; the end whose component is shallower donates
    (smaller id on ties). The segment sequence is preserved throughout.
    Each move goes through :func:`pi_transform`, which validates its site.
    """
    return list(_chain(t, _star_step))


def _star_step(t: Tree) -> TransformOutcome | None:
    seg = _first_branch_segment(t)
    if seg is None:
        return None
    e_lo, e_hi = _end_heights(t, seg)
    # Donor = shallower side; the segment comes oriented smaller-end first,
    # so ties donate from the smaller id as-is.
    return pi_transform(t, PiSite(seg) if e_lo <= e_hi else PiSite(seg[::-1]))


def _first_branch_segment(t: Tree) -> tuple[int, ...] | None:
    """The branch-to-branch segment with the smallest ``(first, last)`` ends, or None.

    Reads the segments leaving each branch vertex, in ascending id, from
    ``tree._segment_walks``, the walker behind :func:`segments`. Every
    branch-to-branch segment starts at its smaller end, so the first branch
    vertex with a segment to a larger one holds the smallest first end; of
    its segments, the one to the smallest branch vertex is returned, oriented
    from its smaller end as in :func:`segments`. A tree with two branch
    vertices has such a segment, so None means at most one.
    """
    adj = t.adjacency
    for u in range(t.order):
        if len(adj[u]) < 3:
            continue
        best = None
        for walk in _segment_walks(adj, (u,)):
            v = walk[-1]
            if v > u and len(adj[v]) >= 3 and (best is None or v < best[-1]):
                best = walk
        if best is not None:
            return tuple(best)
    return None


# -- leg rebalancing -----------------------------------------------------------

def rebalance_step(t: Tree) -> TransformOutcome:
    """Move the tip of the longest leg to the tip of the shortest leg.

    Requires a generalized star whose extreme leg lengths differ by at
    least 2. Ties pick the leg with the smallest tip id on both sides.
    """
    branches = branch_vertices(t)
    if len(branches) > 1:
        raise NotGeneralizedStar(f"{len(branches)} branch vertices")
    if t.order < 2:
        raise AlreadyBalanced("single vertex has no legs")
    # A path has one segment and no branch vertex to orient legs from.
    legs = list(_segment_walks(t.adjacency, branches)) if branches else segments(t)
    seq = sorted((len(s) - 1 for s in legs), reverse=True)
    if seq[0] - seq[-1] <= 1:
        raise AlreadyBalanced(f"leg lengths {tuple(seq)} differ by at most one")
    longest = max(legs, key=lambda s: (len(s), -s[-1]))
    shortest = min(legs, key=lambda s: (len(s), s[-1]))
    moved, detach, attach = longest[-1], longest[-2], shortest[-1]
    return _outcome(
        t,
        _rehang(t, detach, attach, [moved]),
        RebalanceMove(moved, detach, attach),
        f"rebalance: moved tip {moved} from leg end {detach} to leg end {attach}",
    )


def balance_generalized_star(t: Tree) -> list[TransformOutcome]:
    """Rebalance until all leg lengths differ by at most one."""
    return list(_balance_chain(t))


def _balance_chain(t: Tree) -> Iterator[TransformOutcome]:
    """The balancing chain; a tree of two branch vertices fails here, before any step."""
    if len(branch_vertices(t)) > 1:
        raise NotGeneralizedStar("input has more than one branch vertex")
    return _chain(t, _balance_step)


def _balance_step(t: Tree) -> TransformOutcome | None:
    try:
        return rebalance_step(t)
    except AlreadyBalanced:
        return None
