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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import AlreadyBalanced, InvalidPath, InvalidSite, NotGeneralizedStar
from .steiner import aecc3
from .tree import (
    Tree,
    bfs_distances,
    branch_vertices,
    diameter,
    diametric_path,
    check_path,
    segments,
)


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
    if d != diameter(t):
        raise InvalidSite(f"path of length {d} is not diametric (diameter {diameter(t)})")
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
    return TransformOutcome(
        before=t,
        after=after,
        site=site,
        description=(
            f"sigma: moved branch behind {y} (off path vertex {vk}) to endpoint {vd}"
        ),
        aecc3_before=aecc3(t),
        aecc3_after=aecc3(after),
    )


def reduce_to_caterpillar(t: Tree) -> list[TransformOutcome]:
    """Apply sigma moves until none remain; the result is a caterpillar.

    Site selection is deterministic: the smallest-id internal off-path
    vertex adjacent to the fixed diametric path donates, and the path
    endpoint farther from it receives (smaller endpoint id on ties).
    """
    outcomes = []
    cur = t
    while True:
        site = _caterpillar_reduction_site(cur)
        if site is None:
            return outcomes
        out = sigma_transform(cur, site)
        outcomes.append(out)
        cur = out.after


def _caterpillar_reduction_site(t: Tree) -> SigmaSite | None:
    if t.order < 3:
        return None
    p = diametric_path(t)
    d = len(p) - 1
    on_path = set(p)
    candidates = [
        (y, k)
        for k in range(1, d)
        for y in t.adjacency[p[k]]
        if y not in on_path and t.degree(y) >= 2
    ]
    if not candidates:
        return None
    y, k = min(candidates)
    if d - k > k:
        path = p
    elif k > d - k:
        path, k = p[::-1], d - k
    else:
        path = p if p[-1] < p[0] else p[::-1]
    return SigmaSite(path, k, y)


# -- pi ------------------------------------------------------------------------

def _side_eccentricity(t: Tree, end: int, toward: int) -> int:
    """Eccentricity of ``end`` within its component once edge (end, toward) is cut."""
    return max(d for d in bfs_distances(t, end, skip_edge=(end, toward)) if d >= 0)


def _validate_pi_site(t: Tree, site: PiSite) -> tuple[int, int]:
    try:
        path = check_path(t, site.path)
    except InvalidPath as exc:
        raise InvalidSite(str(exc)) from None
    if len(path) < 2:
        raise InvalidSite("pi path needs at least one edge")
    for v in path[1:-1]:
        if t.degree(v) != 2:
            raise InvalidSite(f"interior path vertex {v} has degree {t.degree(v)} != 2")
    donor_ecc = _side_eccentricity(t, path[0], path[1])
    receiver_ecc = _side_eccentricity(t, path[-1], path[-2])
    if receiver_ecc < donor_ecc:
        raise InvalidSite(
            f"receiver side eccentricity {receiver_ecc} below donor side {donor_ecc}"
        )
    return donor_ecc, receiver_ecc


def pi_transform(t: Tree, site: PiSite) -> TransformOutcome:
    """Apply one pi move; raises InvalidSite if the site does not fit t."""
    _validate_pi_site(t, site)
    path = site.path
    u, v = path[0], path[-1]
    moved = [w for w in t.adjacency[u] if w != path[1]]
    after = _rehang(t, u, v, moved) if moved else t  # a leaf donor moves nothing
    before_val = aecc3(t)
    return TransformOutcome(
        before=t,
        after=after,
        site=site,
        description=f"pi: slid {len(moved)} branch(es) from {u} to {v} along {path}",
        aecc3_before=before_val,
        aecc3_after=before_val if after is t else aecc3(after),
    )


def find_pi_sites(t: Tree) -> list[PiSite]:
    """All oriented pi sites: subpaths of segments with a valid donor/receiver order.

    Equal end-component eccentricities make both orientations valid, and
    both are returned. Trees of order < 3 have no sites (their averages are
    undefined).
    """
    if t.order < 3:
        return []
    sites = []
    for seg in segments(t):
        m = len(seg)
        for i in range(m - 1):
            for j in range(i + 1, m):
                sub = seg[i : j + 1]
                e_start = _side_eccentricity(t, sub[0], sub[1])
                e_end = _side_eccentricity(t, sub[-1], sub[-2])
                if e_end >= e_start:
                    sites.append(PiSite(sub))
                if e_start >= e_end:
                    sites.append(PiSite(sub[::-1]))
    return sites


def reduce_to_generalized_star(t: Tree) -> list[TransformOutcome]:
    """Apply pi moves on branch-to-branch segments until at most one branch vertex remains.

    Deterministic choices: the segment with the lexicographically smallest
    endpoint pair goes first; the end whose component is shallower donates
    (smaller id on ties). The segment sequence is preserved throughout.
    """
    outcomes = []
    cur = t
    while True:
        branches = set(branch_vertices(cur))
        if len(branches) <= 1:
            return outcomes
        seg = min(
            (s for s in segments(cur) if s[0] in branches and s[-1] in branches),
            key=lambda s: (s[0], s[-1]),
        )
        e_lo = _side_eccentricity(cur, seg[0], seg[1])
        e_hi = _side_eccentricity(cur, seg[-1], seg[-2])
        # Donor = shallower side; segments come oriented smaller-end first,
        # so ties donate from the smaller id as-is.
        site = PiSite(seg) if e_lo <= e_hi else PiSite(seg[::-1])
        out = pi_transform(cur, site)
        outcomes.append(out)
        cur = out.after


# -- leg rebalancing -----------------------------------------------------------

def _legs(t: Tree, center_vertex: int) -> list[tuple[int, ...]]:
    return [s if s[0] == center_vertex else s[::-1] for s in segments(t)]


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
    seq = sorted((len(s) - 1 for s in segments(t)), reverse=True)
    if seq[0] - seq[-1] <= 1:
        raise AlreadyBalanced(f"leg lengths {tuple(seq)} differ by at most one")
    legs = _legs(t, branches[0])
    longest = max(legs, key=lambda s: (len(s), -s[-1]))
    shortest = min(legs, key=lambda s: (len(s), s[-1]))
    moved, detach, attach = longest[-1], longest[-2], shortest[-1]
    after = _rehang(t, detach, attach, [moved])
    return TransformOutcome(
        before=t,
        after=after,
        site=RebalanceMove(moved, detach, attach),
        description=f"rebalance: moved tip {moved} from leg end {detach} to leg end {attach}",
        aecc3_before=aecc3(t),
        aecc3_after=aecc3(after),
    )


def balance_generalized_star(t: Tree) -> list[TransformOutcome]:
    """Rebalance until all leg lengths differ by at most one."""
    if len(branch_vertices(t)) > 1:
        raise NotGeneralizedStar("input has more than one branch vertex")
    outcomes = []
    cur = t
    while True:
        try:
            out = rebalance_step(cur)
        except AlreadyBalanced:
            return outcomes
        outcomes.append(out)
        cur = out.after
