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

Site search cost: searches, validation and chains read the tree's cached
O(n) rooted pass (``tree._rooted_pass``, shared with ``aecc3``), never the
distance matrix. ``find_sigma_sites`` scans the neighbors of the diametric
path walked off it. ``find_pi_sites`` reads each segment's two end heights
off it; interior vertices have degree 2, so every subpath's end heights follow.
The rest is output: a segment of L vertices yields up to L(L-1) sites of up
to L vertices each. ``transform pi`` stops at the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import AlreadyBalanced, InvalidPath, InvalidSite, NotGeneralizedStar
from .steiner import aecc3
from .tree import Tree, _height_away, branch_vertices, check_path, diametric_path, segments


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


def _chain(t: Tree, step) -> list[TransformOutcome]:
    """Apply ``step`` to each result until it returns None."""
    outcomes = []
    while (out := step(t)) is not None:
        outcomes.append(out)
        t = out.after
    return outcomes


def _rehang(t: Tree, src: int, dst: int, moved: list[int]) -> Tree:
    """``t`` with every vertex of ``moved`` detached from ``src`` and attached to ``dst``."""
    adj = list(t.adjacency)
    gone = set(moved)
    adj[src] = tuple(w for w in adj[src] if w not in gone)
    adj[dst] = tuple(sorted(adj[dst] + tuple(moved)))
    for w in moved:
        adj[w] = tuple(sorted(dst if x == src else x for x in adj[w]))
    return Tree(adj)


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
    on_path = set(p)
    sites = []
    for k in range(1, d):
        for y in t.adjacency[p[k]]:
            if y in on_path or t.degree(y) < 2:
                continue
            if 2 * k <= d:
                sites.append(SigmaSite(p, k, y))
            else:
                sites.append(SigmaSite(p[::-1], d - k, y))
    return sites


def _validate_sigma_site(t: Tree, site: SigmaSite) -> None:
    try:
        path = check_path(t, site.path)
    except InvalidPath as exc:
        raise InvalidSite(str(exc)) from None
    d = len(path) - 1
    diam = len(diametric_path(t)) - 1
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
    return _apply_sigma(t, site)


def _apply_sigma(t: Tree, site: SigmaSite) -> TransformOutcome:
    """Apply one sigma move at a site already known to be valid for t."""
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
    endpoint farther from it receives (smaller endpoint id on ties).
    """
    def step(cur: Tree) -> TransformOutcome | None:
        # The site comes from cur's own diametric path, so it skips
        # sigma_transform's validation.
        site = _caterpillar_reduction_site(cur)
        return None if site is None else _apply_sigma(cur, site)

    return _chain(t, step)


def _caterpillar_reduction_site(t: Tree) -> SigmaSite | None:
    site = min(find_sigma_sites(t), key=lambda s: s.subtree_root, default=None)
    if site is not None and 2 * site.attach_index == len(site.path) - 1:
        # At the midpoint the path starts at its smaller endpoint; flip it so
        # that endpoint receives.
        site = SigmaSite(site.path[::-1], site.attach_index, site.subtree_root)
    return site


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
    for v in path[1:-1]:
        if t.degree(v) != 2:
            raise InvalidSite(f"interior path vertex {v} has degree {t.degree(v)} != 2")
    donor_ecc, receiver_ecc = _end_heights(t, path)
    if receiver_ecc < donor_ecc:
        raise InvalidSite(
            f"receiver side eccentricity {receiver_ecc} below donor side {donor_ecc}"
        )


def pi_transform(t: Tree, site: PiSite) -> TransformOutcome:
    """Apply one pi move; raises InvalidSite if the site does not fit t."""
    _validate_pi_site(t, site)
    return _apply_pi(t, site)


def _apply_pi(t: Tree, site: PiSite) -> TransformOutcome:
    """Apply one pi move at a site already known to be valid for t."""
    path = site.path
    u, v = path[0], path[-1]
    moved = [w for w in t.adjacency[u] if w != path[1]]
    after = _rehang(t, u, v, moved) if moved else t  # a leaf donor moves nothing
    return _outcome(
        t, after, site, f"pi: slid {len(moved)} branch(es) from {u} to {v} along {path}"
    )


def find_pi_sites(t: Tree) -> list[PiSite]:
    """All oriented pi sites: subpaths of segments with a valid donor/receiver order.

    Equal end-component eccentricities make both orientations valid, and
    both are returned. Trees of order < 3 have no sites (their averages are
    undefined).
    """
    return list(_pi_sites(t))


def _pi_sites(t: Tree) -> Iterator[PiSite]:
    """The sites of :func:`find_pi_sites`, in its order, one at a time."""
    if t.order < 3:
        return
    for seg in segments(t):
        m = len(seg)
        h_first, h_last = _end_heights(t, seg)
        for i in range(m - 1):
            for j in range(i + 1, m):
                # Cutting seg[i..j] leaves seg[i] the path back to seg[0] plus
                # seg[0]'s side, and seg[j] likewise toward seg[-1].
                sub = seg[i : j + 1]
                e_start, e_end = i + h_first, m - 1 - j + h_last
                if e_end >= e_start:
                    yield PiSite(sub)
                if e_start >= e_end:
                    yield PiSite(sub[::-1])


def reduce_to_generalized_star(t: Tree) -> list[TransformOutcome]:
    """Apply pi moves on branch-to-branch segments until at most one branch vertex remains.

    Deterministic choices: the segment with the lexicographically smallest
    endpoint pair goes first; the end whose component is shallower donates
    (smaller id on ties). The segment sequence is preserved throughout.
    """
    def step(cur: Tree) -> TransformOutcome | None:
        branches = set(branch_vertices(cur))
        if len(branches) <= 1:
            return None
        seg = min(
            (s for s in segments(cur) if s[0] in branches and s[-1] in branches),
            key=lambda s: (s[0], s[-1]),
        )
        e_lo, e_hi = _end_heights(cur, seg)
        # Donor = shallower side; segments come oriented smaller-end first,
        # so ties donate from the smaller id as-is. The site is valid by
        # construction, so it skips pi_transform's validation.
        return _apply_pi(cur, PiSite(seg) if e_lo <= e_hi else PiSite(seg[::-1]))

    return _chain(t, step)


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
    segs = segments(t)
    seq = sorted((len(s) - 1 for s in segs), reverse=True)
    if seq[0] - seq[-1] <= 1:
        raise AlreadyBalanced(f"leg lengths {tuple(seq)} differ by at most one")
    # Two legs differ by at least 2, so the tree is no path: one branch vertex.
    legs = [s if s[0] == branches[0] else s[::-1] for s in segs]
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
    if len(branch_vertices(t)) > 1:
        raise NotGeneralizedStar("input has more than one branch vertex")

    def step(cur: Tree) -> TransformOutcome | None:
        try:
            return rebalance_step(cur)
        except AlreadyBalanced:
            return None

    return _chain(t, step)
